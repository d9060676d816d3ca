"""Look up the multiplet that holds a state; only the tests ask for one."""


def group_of(multiplets, state: int):
    """The `Multiplet` among `multiplets` whose members include `state`."""
    for g in multiplets:
        if state in g.members:
            return g
    raise IndexError(f"state {state} not covered by any multiplet")

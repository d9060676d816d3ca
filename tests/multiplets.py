"""Look up the multiplet that holds a state; only the tests ask for one."""


def group_of(report, state: int):
    """The `Multiplet` of a `MultipletReport` whose members include `state`."""
    for g in report.groups:
        if state in g.members:
            return g
    raise IndexError(f"state {state} not covered by any multiplet")

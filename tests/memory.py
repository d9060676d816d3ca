"""Peak traced allocation of one call, for the memory-ceiling tests."""

import tracemalloc


def traced_peak(func, *args):
    """(result, peak bytes allocated above the level at entry) of func(*args)."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        result = func(*args)
        return result, tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()

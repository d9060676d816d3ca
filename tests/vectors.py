"""Every eigenvector of a solve, gathered by one reader of its walk."""

import numpy as np

from iplsim.eigensolver import eigh_tridiagonal


def gather(h):
    """(eig, vectors) of `eigh_tridiagonal(h)`: vectors is read-only (sites x states), column
    k <-> eig.values[k], the transposed view of the rows the walk handed its one reader."""
    rows = None

    def consumers(values):
        nonlocal rows
        rows = np.empty((values.size, values.size))

        def keep(lo, run):
            rows[lo:lo + run.shape[0]] = run
        return (keep,)

    eig = eigh_tridiagonal(h, consumers)
    rows.setflags(write=False)
    return eig, rows.T

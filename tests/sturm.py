"""Sturm-sequence eigenvalue count: an independent oracle for the solver tests.

It counts the negative pivots of the LDL^T factorization of T - shift*I, one
scalar recurrence per site; nothing in the pipeline needs it, so it lives with
the tests.
"""


def eigenvalue_count_below(h, shift: float) -> int:
    """Sturm-sequence count of eigenvalues strictly below the shift."""
    d, e = h.diag, h.offdiag
    count = 0
    q = 1.0
    for i in range(d.size):
        coupling = float(e[i - 1]) ** 2 if i > 0 else 0.0
        q = (float(d[i]) - shift) - coupling / q
        if q == 0.0:
            # zero pivot counts as negative (LAPACK pivmin convention)
            q = -5e-324
        if q < 0.0:
            count += 1
    return count

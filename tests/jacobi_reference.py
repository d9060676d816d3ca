"""The dense oracle's round-robin Jacobi as it was written before A and V^T shared rows.

It applies each round's rotations to the columns of A, the rows of A and the
rows of V^T in separate updates. `eigensolver._jacobi` must give its values,
vectors and signs bit for bit; nothing in the pipeline needs it, so it lives
with the tests.
"""

import math

import numpy as np

from iplsim.eigensolver import _JACOBI_MAX_SWEEPS, SolverError, _round_robin


def _jacobi(a: np.ndarray, max_sweeps: int = _JACOBI_MAX_SWEEPS) -> tuple[np.ndarray, np.ndarray]:
    """Round-robin (Brent–Luk) Jacobi rotations until the off-diagonal mass is negligible.

    A sweep visits every pair once, in rounds of disjoint pairs (see
    `_round_robin`). The rotations of a round touch disjoint rows and columns,
    so they commute and are applied together: columns of A, rows of A, then
    rows of V^T. A pair whose coupling is already zero is left alone. V is kept
    transposed because a row update of a C-ordered array touches contiguous
    memory and a column update does not; the returned vectors are its transpose.
    """
    a = a.copy()
    n = a.shape[0]
    vt = np.eye(n)
    # not np.linalg.norm: that is a BLAS dot product, which OpenBLAS splits
    # over all cores above 10 000 entries
    scale = math.sqrt(float(np.sum(a * a)))
    if scale == 0.0 or n == 1:
        return np.diag(a).copy(), vt
    rounds = _round_robin(n)
    for _ in range(max_sweeps):
        # Sum the off-diagonal mass directly; subtracting the diagonal mass from
        # the total Frobenius mass cancels catastrophically near convergence and
        # can report zero while 1e-10-scale entries remain.
        off = math.sqrt(float(np.sum((a - np.diag(np.diag(a))) ** 2)))
        if off <= 1e-14 * scale:
            return np.diag(a).copy(), vt.T
        for p, q in rounds:
            apq = a[p, q]
            coupled = apq != 0.0
            if not coupled.all():
                p, q, apq = p[coupled], q[coupled], apq[coupled]
                if not p.size:
                    continue
            theta = (a[q, q] - a[p, p]) / (2.0 * apq)
            t = np.copysign(1.0, theta) / (np.abs(theta) + np.hypot(theta, 1.0))
            big = abs(theta) > 1e150
            if big.any():
                t[big] = 1.0 / (2.0 * theta[big])
            c = 1.0 / np.sqrt(t * t + 1.0)
            s = t * c
            # fancy indexing copies, so each update reads the values from before it
            col_p, col_q = a[:, p], a[:, q]
            a[:, p] = c * col_p - s * col_q
            a[:, q] = s * col_p + c * col_q
            row_p, row_q = a[p, :], a[q, :]
            a[p, :] = c[:, None] * row_p - s[:, None] * row_q
            a[q, :] = s[:, None] * row_p + c[:, None] * row_q
            a[p, q] = a[q, p] = 0.0
            vec_p, vec_q = vt[p, :], vt[q, :]
            vt[p, :] = c[:, None] * vec_p - s[:, None] * vec_q
            vt[q, :] = s[:, None] * vec_p + c[:, None] * vec_q
    raise SolverError(f"Jacobi sweep cap ({max_sweeps}) reached before convergence")

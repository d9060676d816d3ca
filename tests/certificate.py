"""Whole-matrix certificate arithmetic: an oracle for the blocked `_certify`.

It measures the residual and the orthonormality defect the way the solver did
before it walked the vectors in column blocks: H V and the full Gram matrix
V^T V, each a (sites x states) buffer. The blocked passes must reproduce both
numbers bit for bit; nothing in the pipeline needs this, so it lives with the
tests.
"""

import numpy as np


def certificate_values(diag, offdiag, values, vectors) -> tuple[float, float]:
    """(max |H v - lambda v|, max |V^T V - I|) from whole-matrix products."""
    hv = diag[:, None] * vectors
    if diag.size > 1:
        hv[:-1] += offdiag[:, None] * vectors[1:]
        hv[1:] += offdiag[:, None] * vectors[:-1]
    hv -= vectors * values
    residual = float(np.max(np.abs(hv)))
    gram = vectors.T @ vectors
    gram[np.diag_indices_from(gram)] -= 1.0
    return residual, float(np.max(np.abs(gram)))

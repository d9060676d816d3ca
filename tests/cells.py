"""The cells of an assembled lattice, read back from its operator.

`hamiltonian.assemble` is the one place that forms a cell; the tests read each
cell as the operator's 2x2 diagonal block. Nothing in the pipeline needs the
cells one by one, so this lives with the tests.
"""

import numpy as np


def cell_blocks(h) -> np.ndarray:
    """(cells x 2 x 2) stack of the operator's diagonal blocks, one per cell."""
    blocks = np.empty((h.sites // 2, 2, 2))
    blocks[:, 0, 0] = h.diag[0::2]
    blocks[:, 1, 1] = h.diag[1::2]
    blocks[:, 0, 1] = blocks[:, 1, 0] = h.offdiag[0::2]
    return blocks

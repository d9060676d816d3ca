"""One-vector node count: an independent reference for the measures' nodes.

It applies the documented rule to a single vector as written, with no blocks,
no shared buffers and no flattened rows; nothing in the pipeline needs it, so
it lives with the tests.
"""

import numpy as np


def sign_changes(v, floor: float) -> int:
    """Sign changes v_i * v_{i+1} < 0 where both |v| exceed floor times max |v|."""
    v = np.asarray(v, dtype=float)
    significant = np.abs(v) > floor * np.max(np.abs(v))
    changes = (v[:-1] * v[1:] < 0.0) & significant[:-1] & significant[1:]
    return int(np.count_nonzero(changes))

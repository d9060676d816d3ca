"""Spacing-curve shape helpers for the acceptance battery (criterion 3).

They read the flat/arc/steep shape of a band's level-spacing curve; nothing in
the pipeline needs them, so they live with the tests.
"""

import numpy as np


def smooth(curve: np.ndarray, window: int = 5) -> np.ndarray:
    """Centered moving average, valid region only."""
    curve = np.asarray(curve, dtype=float)
    if curve.size < window:
        return curve.copy()
    kernel = np.full(window, 1.0 / window)
    return np.convolve(curve, kernel, mode="valid")


def monotonicity_changes(curve: np.ndarray, min_swing_rel: float = 0.1) -> int:
    """Direction changes between significant monotone runs of a curve.

    The curve is split into maximal monotone runs; runs whose total swing is
    below min_swing_rel of the curve's range count as flat and contribute no
    direction. Adjacent surviving runs with the same direction merge. A
    flat-then-arc-then-steep band spacing curve therefore counts 2, however
    gently the flat segment tilts. Meant for curves already smoothed.
    """
    curve = np.asarray(curve, dtype=float)
    if curve.size < 3:
        return 0
    span = float(curve.max() - curve.min())
    if span <= 0.0:
        return 0
    floor = min_swing_rel * span

    runs: list[tuple[int, int, int]] = []
    direction, start = 0, 0
    diffs = np.diff(curve)
    for i, di in enumerate(diffs):
        s = 1 if di > 0 else (-1 if di < 0 else 0)
        if s == 0 or s == direction:
            continue
        if direction == 0:
            direction = s
            continue
        runs.append((direction, start, i))
        direction, start = s, i
    runs.append((direction, start, curve.size - 1))

    dirs = [d for d, a, b in runs
            if d != 0 and abs(curve[b] - curve[a]) >= floor]
    merged = [d for i, d in enumerate(dirs) if i == 0 or d != dirs[i - 1]]
    return max(len(merged) - 1, 0)

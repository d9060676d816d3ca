"""Full eigendecomposition of the lattice operator, with certified residuals.

Two independent routes: ``eigh_tridiagonal`` works on the (diag, offdiag)
arrays. It splits the operator into unreduced blocks, takes each block's
eigenvalues from LAPACK's root-free QR (``sterf``), cuts them into spectral
groups at gaps above ``GROUP_GAP_REL`` of the operator scale, and runs inverse
iteration (``dstein``) once per group (of each half-size sector of an even
mirror-symmetric operator, see `_unfold`). It calls both routines with ctypes
from the OpenBLAS that numpy's wheels bundle, which numpy has loaded already,
so importing this module loads no scipy (see `_lapack`; elsewhere they come
from scipy's Cython LAPACK capsules). A ctypes call releases the GIL, so one
thread per core solves its own chunk of the groups. `per_core` holds that
thread rule, and `measures.state_measures` splits its blocks of states
through it too.
Each group writes its vectors as rows of one C-ordered (states x sites)
matrix, held in a memory map of its own (see `_mapped_zeros`), and
``EigenSystem.vectors`` is its transposed view. dstein restarts
its random seed on every call and each group owns its rows, so the bits do
not depend on the number of threads. The certificate's Gram panels run on
one thread of numpy's bundled OpenBLAS, so on that build the bits depend on
neither the core count nor the BLAS thread settings either (see
`_one_blas_thread`). ``dense_oracle`` runs self-contained Jacobi sweeps in
round-robin (Brent–Luk) order on the expanded dense matrix. Tests
cross-validate the two. Both return the same certified ``EigenSystem``
contract: the residual r = T u - lambda u of every column is measured, and so
is u_i^T u_j for every pair of levels within ``ORTHO_WINDOW_REL`` of the scale
of each other. Any pair farther apart than that window W is bounded, not
measured, by the identity (lambda_j - lambda_i) u_i^T u_j = r_i^T u_j -
u_i^T r_j: its overlap is at most twice the largest residual norm over W.
Inverse iteration matters here: it resolves the exponential tails
of localized eigenstates with componentwise accuracy, which the QR-family
eigenvector drivers do not. That accuracy ends at an absolute floor set by
the number of iterations dstein takes (about 1e-45 on the 200-site ground
state that the tests check against a 60-digit reference), so tail components
below it, such as fig1's ground-state edge amplitudes near 1e-46, are not
resolved.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import mmap
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SIGN_FLOOR = 1e-12
RESIDUAL_REL_CAP = 1e-10
ORTHO_CAP = 1e-10
TRACE_REL_CAP = 1e-8

# Spectral groups are cut where consecutive eigenvalues are more than this
# fraction of the scale apart. Davis-Kahan: a residual of at most 1e-14*scale
# over a gap of at least 1e-4*scale bounds the overlap between vectors of
# different groups by 1e-10, which is ORTHO_CAP.
GROUP_GAP_REL = 1e-4
# The certificate measures the overlap of two states only where their levels
# lie within this fraction of the scale of each other; every pair farther
# apart is bounded by twice its residual norm over the gap (see `_certify`).
# A residual norm of 1e-14*scale then bounds those overlaps by 2e-12, 50x
# under ORTHO_CAP, while the window holds under a tenth of the pairs.
ORTHO_WINDOW_REL = 1e-2
# DSTEBZ's split rule: e_j^2 <= ULP^2 |d_j d_{j+1}| + SAFE_MIN decouples the
# operator at bond j
_ULP = float(np.finfo(float).eps)
_SAFE_MIN = float(np.finfo(float).tiny)

# spacings within this many ulps of the largest |eigenvalue| are exact
# degeneracies, and entries this many ulps of the scale apart are equal
DEGENERACY_ULPS = 4

# states per block in every pass over the (sites x states) vectors once they
# are solved (certificate, measures, map raster), so a pass's scratch stays
# O(sites x block) next to the vector matrix
STATE_BLOCK = 128

# `per_core` runs one thread per core, but only as many as get this much
# work each, counted in sites x states: dstein's on the spectral groups, the
# per-state measures' on the vectors. Below it a second thread buys wall time
# only with more CPU: at 2^17 on 2 vCPUs, which threads fig10 and the
# 1002-site sweep points, `figures` took 2.5% more CPU for no resolved wall
# gain and `sweep_oracle` 14% less wall time for 1.6% more CPU (CHANGES.md).
_WORKERS = os.cpu_count() or 1
_THREAD_WORK = 1 << 18


def rounding_floor(values: np.ndarray) -> float:
    """DEGENERACY_ULPS ulps of the largest |eigenvalue|: spacings below it are roundoff."""
    return DEGENERACY_ULPS * float(np.spacing(np.abs(values).max(initial=0.0)))


def thread_count(work: int) -> int:
    """Threads `per_core` gives `work` sites x states: one per core, each with `_THREAD_WORK`."""
    return max(1, min(_WORKERS, int(work) // _THREAD_WORK))


def per_core(fn, items, work: int, scratch) -> list:
    """[fn(chunk, scratch(chunk)) for each chunk] of `items` in contiguous chunks, one per thread.

    `thread_count(work)` threads, at most one per item. `scratch` makes every
    chunk's buffers on the calling thread first, so no thread's malloc arena
    keeps freed scratch. The caller runs the first chunk while a pool runs the
    rest, starting one thread per chunk it gets, and the results come back in
    input order. `fn` should spend its time in native code that releases the
    GIL (dstein, numpy).
    """
    workers = max(1, min(thread_count(work), len(items)))
    chunks = [items[len(items) * k // workers:len(items) * (k + 1) // workers]
              for k in range(workers)]
    buffers = [scratch(chunk) for chunk in chunks]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        rest = pool.map(fn, chunks[1:], buffers[1:])
        return [fn(chunks[0], buffers[0]), *rest]


def _lapack(bundled: bool = True):
    """(thread setter or None, dsterf, dstein, LAPACK integer dtype) of the LAPACK numpy loads.

    numpy's wheels (2.0 on) vendor an ILP64 OpenBLAS under numpy.libs (macOS:
    numpy/.dylibs), and ctypes.CDLL on that path returns the copy numpy has
    already loaded. It exports LAPACK as `scipy_<name>_64_`, with 64-bit
    integers, and `openblas_set_num_threads_local`, which sets OpenBLAS's
    thread count and returns the previous one (OpenBLAS 0.3.27 on). Where
    numpy ships no such library (MKL or conda builds, numpy < 2.0), or with
    `bundled` false, the two routines come from scipy's Cython LAPACK
    capsules, with 32-bit integers, and the setter is None; scipy is imported
    only then. Either way each routine is a CFUNCTYPE of pointers, whose call
    releases the GIL. DSTERF(N, D, E, INFO) and DSTEIN(N, D, E, M, W, IBLOCK,
    ISPLIT, Z, LDZ, WORK, IWORK, IFAIL, INFO) take no CHARACTER, so there is
    no hidden string length to pass.
    """
    def routine(address, arity):
        return ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * arity)(address)

    root = Path(np.__file__).parent
    paths = (*(root.parent / "numpy.libs").glob("*openblas*"),
             *(root / ".dylibs").glob("*openblas*")) if bundled else ()
    for path in paths:
        try:
            library = ctypes.CDLL(str(path))
            dsterf, dstein = (ctypes.cast(getattr(library, f"scipy_{name}_64_"), ctypes.c_void_p)
                              for name in ("dsterf", "dstein"))
        except (OSError, AttributeError):
            continue
        setter = getattr(library, "openblas_set_num_threads_local", None)
        if setter is not None:
            setter.argtypes, setter.restype = [ctypes.c_int], ctypes.c_int
        return setter, routine(dsterf.value, 4), routine(dstein.value, 13), np.dtype(np.int64)
    import scipy.linalg.cython_lapack

    get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", ctypes.pythonapi))
    get_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi))
    capsules = scipy.linalg.cython_lapack.__pyx_capi__
    dsterf, dstein = (get_pointer(capsules[name], get_name(capsules[name]))
                      for name in ("dsterf", "dstein"))
    return None, routine(dsterf, 4), routine(dstein, 13), np.dtype(np.int32)


_set_blas_threads, _dsterf, _dstein, _LAPACK_INT = _lapack()
# numpy's wheels build OpenBLAS on pthreads, where the "local" count is in
# fact the whole process's, so one pin is held at a time (see `_one_blas_thread`)
_blas_pin = threading.Lock()


@contextlib.contextmanager
def _one_blas_thread():
    """Run the body with numpy's OpenBLAS on one thread, then give back the caller's count.

    On more threads OpenBLAS splits each product over its worker pool, whose
    threads spin-wait on the other cores after it, and the split changes the
    product's last bits. On one thread the pool is never woken and the bits
    do not depend on the core count. Without the setter (another BLAS) the
    body runs as it is.
    """
    setter = _set_blas_threads
    if setter is None:
        yield
        return
    with _blas_pin:
        previous = setter(1)
        try:
            yield
        finally:
            setter(previous)


DENSE_ORACLE_MAX_SITES = 256
_JACOBI_MAX_SWEEPS = 30


class SolverError(RuntimeError):
    """Eigensolver did not converge or failed its output certificate."""


@dataclass(frozen=True)
class EigenSystem:
    """Ascending eigenvalues with orthonormal eigenvectors (column k <-> values[k])."""

    values: np.ndarray
    vectors: np.ndarray
    residual_bound: float
    ortho_bound: float

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        vectors = np.asarray(self.vectors, dtype=float)
        if values.ndim != 1 or vectors.ndim != 2 or vectors.shape[1] != values.size:
            raise ValueError(f"need 1-D values and one vector column per value, got "
                             f"{values.shape} values and {vectors.shape} vectors")
        values.setflags(write=False)
        vectors.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "vectors", vectors)

    @property
    def size(self) -> int:
        return self.values.size


def eigh_tridiagonal(h) -> EigenSystem:
    """Diagonalize a TridiagonalHamiltonian; deterministic up to the sign convention.

    Each unreduced block is solved on its own, so a decoupled lattice keeps
    block-local vectors. Within a block, inverse iteration computes each
    vector from its eigenvalue, so the exponential tails of localized states
    come out with the right signs and magnitudes instead of QR noise; dstein
    reorthogonalizes only inside one spectral group (exact and near
    degeneracies), never across a whole band. Levels closer than the rounding
    floor get the site-index basis (`_sub_floor_basis`) before the certificate.

    The vectors are stored state-major: row k of one C-ordered (states x
    sites) matrix is the vector of values[k], and `EigenSystem.vectors` is its
    transposed view. A Fortran column of dstein's Z is such a row, so each
    group's vectors are copied to their rows as they come. `per_core` splits
    the groups into contiguous chunks, one per core, and each chunk's dstein
    calls run on a thread of their own with the GIL released (see
    `_solve_groups`); an operator with too little work for a second thread is
    solved on the calling thread alone. dstein resets its random seed on
    every call and every group lands in the same rows, so the bits do not
    depend on the number of threads or on which thread solved a group.
    """
    diag, offdiag = h.diag, h.offdiag
    if diag.size == 0:
        raise ValueError("empty operator")
    scale = _scale(diag, offdiag)  # NaN or inf for a NaN or inf entry
    if not math.isfinite(scale):
        raise ValueError("operator entries must be finite, with max|d| + 2 max|e| "
                         "inside the float range")
    n = diag.size
    # an operator whose scale lies beyond 2^+-255 is solved over the power of
    # two at its scale: the division is exact, and the squares in DSTEBZ's
    # split rule below and dstein's work vectors then neither overflow nor
    # underflow. Any other operator is solved as it is.
    exponent = math.frexp(scale)[1]
    unit = math.ldexp(1.0, exponent - 1) if abs(exponent) > 255 else 1.0
    d, e = diag / unit, offdiag / unit
    # an even operator that is its own mirror image, to 4 ulps of the scale, is
    # solved as its two sectors side by side, split by a zero bond (`_unfold`)
    m, equal = n // 2, DEGENERACY_ULPS * float(np.spacing(scale / unit))
    mirrored = n % 2 == 0 and max(np.max(np.abs(d - d[::-1])),
                                  np.max(np.abs(e - e[::-1]))) <= equal
    if mirrored:
        middle = e[m - 1]
        d, e = np.tile(d[:m], 2), np.concatenate((e[:m - 1], [0.0], e[:m - 1]))
        d[[m - 1, -1]] += middle, -middle
    split = e**2 <= _ULP**2 * np.abs(d[:-1] * d[1:]) + _SAFE_MIN
    edges = np.concatenate(([0], np.flatnonzero(split) + 1, [n]))
    # dsterf overwrites D and E with the block's ascending values and scratch,
    # so it runs on copies; a block's last bond is a split, which it never reads
    values, bonds = d.copy(), e.copy()
    sizes = np.diff(edges).astype(_LAPACK_INT)
    sterf_info = np.zeros(1, dtype=_LAPACK_INT)
    sizes_at = sizes.ctypes.data + sizes.itemsize * np.arange(sizes.size)
    for n_at, lo in zip(sizes_at.tolist(), edges[:-1].tolist()):
        _dsterf(n_at, values.ctypes.data + 8 * lo, bonds.ctypes.data + 8 * lo,
                sterf_info.ctypes.data)
        if sterf_info[0]:  # pragma: no cover - LAPACK non-convergence
            raise SolverError(f"tridiagonal eigenvalue solver failed to converge "
                              f"(dsterf info {int(sterf_info[0])})")
    order = np.argsort(values, kind="stable")
    row = np.empty(n, dtype=np.intp)
    row[order] = np.arange(n)

    # a spectral group starts at each block start and wherever the block's
    # ascending values jump by more than the cut gap
    starts = np.zeros(n, dtype=bool)
    starts[edges[:-1]] = True
    starts[1:] |= np.diff(values) > GROUP_GAP_REL * scale / unit
    first = np.flatnonzero(starts)
    count = np.diff(np.append(first, n))
    block = np.searchsorted(edges, first, side="right") - 1
    lo, size = edges[block], sizes[block]

    rows = _mapped_zeros(n)
    # dstein's integer arguments N (= ISPLIT(1) = LDZ) and M, one row per group
    ints = np.stack([size, count], axis=1).astype(_LAPACK_INT)
    at = ints.ctypes.data + ints.itemsize * np.arange(ints.size).reshape(ints.shape)
    tasks = list(zip(at[:, 0].tolist(), (d.ctypes.data + 8 * lo).tolist(),
                     (e.ctypes.data + 8 * lo).tolist(), at[:, 1].tolist(),
                     (values.ctypes.data + 8 * first).tolist(),
                     [row[f:f + c] for f, c in zip(first.tolist(), count.tolist())],
                     lo.tolist(), (lo + size).tolist()))
    extent = size * count

    def scratch(chunk):
        # dstein's IBLOCK, Z, WORK, IWORK, IFAIL and INFO for the chunk's largest block and group
        sites = int(size[chunk.start:chunk.stop].max())
        return (np.ones(sites, dtype=_LAPACK_INT),
                np.empty(int(extent[chunk.start:chunk.stop].max())), np.empty(5 * sites),
                np.empty(sites, dtype=_LAPACK_INT), np.empty(sites, dtype=_LAPACK_INT),
                np.zeros(1, dtype=_LAPACK_INT))

    results = per_core(lambda chunk, buffers: _solve_groups(chunk, tasks, rows, buffers),
                       range(len(tasks)), int(np.sum(extent)), scratch)
    failures = [f for f in results if f is not None]
    if failures:
        task, info = min(failures)
        raise SolverError(f"inverse iteration failed near {values[first[task]] * unit:.6g} "
                          f"(dstein info {info})")
    if mirrored:
        _unfold(rows, order >= m)
    values = values[order] * unit
    _sub_floor_basis(rows, values)
    return _certify(diag, offdiag, values, rows.T)


def _unfold(rows, odd) -> None:
    """Turn each row x of a sector solve into [x; Jx]/sqrt2, or [x; -Jx]/sqrt2 where odd, in place.

    T of 2m sites equal to its mirror image commutes with the reversal J: the
    even and odd vectors solve its leading m x m block with d_m + e_m and
    d_m - e_m, whose x the solve left in the first and second half of a row.
    """
    m = rows.shape[1] // 2
    for lo in range(0, rows.shape[0], STATE_BLOCK):
        block, flip = rows[lo:lo + STATE_BLOCK], odd[lo:lo + STATE_BLOCK, None]
        half = np.where(flip, block[:, m:], block[:, :m])  # the one (block x m) temporary
        half /= math.sqrt(2.0)
        block[:, :m] = half
        np.multiply(half[:, ::-1], np.where(flip, -1.0, 1.0), out=block[:, m:])


def _sub_floor_basis(rows, values) -> None:
    """Rotate the rows of each cluster of levels spaced at or below `rounding_floor`, in place.

    Any orthonormal mix of them is as good an eigenbasis; the site index's
    (a k x k `eigh`, on one BLAS thread) gives one-sided states in ascending
    center of mass, whichever solve mixed them.
    """
    close = np.concatenate(([0], np.diff(values) <= rounding_floor(values), [0]))
    edges = np.flatnonzero(np.diff(close))  # each cluster's first and last state
    if edges.size == 0:  # no cluster, and no BLAS pin to take
        return
    site = np.arange(1.0, rows.shape[1] + 1)
    with _one_blas_thread():
        for lo, hi in zip(edges[0::2], edges[1::2] + 1):
            cluster = rows[lo:hi]
            basis = np.linalg.eigh((cluster * site) @ cluster.T)[1]
            rows[lo:hi] = basis.T @ cluster


def _mapped_zeros(n: int) -> np.ndarray:
    """An (n x n) float matrix of zeros in an anonymous memory map of its own.

    glibc maps a large block afresh only until one is freed: it then raises
    its mmap threshold to that block's size, so from the second solve on, the
    N^2 vector matrix came from the malloc heap. Whether the next matrix found
    the last one's space there depended on which small blocks other threads
    and later imports had placed beside it, and the same run peaked with or
    without a second matrix's worth of heap (CHANGES.md has the measurements).
    A map of its own is zero-filled by the system and unmapped when its last
    view is freed, so peak memory holds the matrices alive and nothing more.
    The map is private (a shared one is slower to fault in), and on Linux it
    asks for 2 MiB pages, which fault in an 1802-site matrix in about 3 ms
    against about 12 ms with 4 KiB pages.
    """
    buffer = mmap.mmap(-1, 8 * n * n, flags=mmap.MAP_PRIVATE)
    if hasattr(mmap, "MADV_HUGEPAGE"):
        buffer.madvise(mmap.MADV_HUGEPAGE)
    return np.frombuffer(buffer, dtype=float).reshape(n, n)


def _solve_groups(chunk, tasks, rows, buffers):
    """Run dstein on tasks[chunk] in the chunk's IBLOCK, Z, WORK, IWORK, IFAIL and INFO buffers.

    Each task holds plain-int addresses (N, D, E, M, W) laid out by
    `eigh_tridiagonal`, whose arrays outlive the call, then the group's rows
    and its block's first and last-plus-one site. dstein writes the group's
    vectors into Z as Fortran columns (LDZ = N), which are C rows, and one
    assignment copies them to their rows; rows of different groups never
    overlap. The GIL is released during each dstein call. Every group is one
    block: IBLOCK is all ones and ISPLIT(1) = N; a one-site block is dstein's
    quick return, Z = 1. Returns (task, info) of the first failure, else None.
    """
    piece, info = buffers[1], buffers[-1]
    iblock_at, piece_at, *arrays_at = (buffer.ctypes.data for buffer in buffers)
    for task in chunk:
        n_at, d_at, e_at, m_at, w_at, members, lo, hi = tasks[task]
        _dstein(n_at, d_at, e_at, m_at, w_at, iblock_at, n_at, piece_at, n_at, *arrays_at)
        if info[0]:
            return task, int(info[0])
        rows[members, lo:hi] = piece[:members.size * (hi - lo)].reshape(-1, hi - lo)
    return None


def dense_oracle(h) -> EigenSystem:
    """Independent check path: round-robin Jacobi on the dense matrix, small sizes only."""
    n = h.sites
    if n > DENSE_ORACLE_MAX_SITES:
        raise ValueError(
            f"dense oracle refused: {n} sites exceeds the {DENSE_ORACLE_MAX_SITES}-site guard"
        )
    values, vectors = _jacobi(h.dense())
    order = np.argsort(values, kind="stable")
    return _certify(h.diag, h.offdiag, values[order], vectors[:, order])


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


@functools.lru_cache(maxsize=None)
def _round_robin(n: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """One Jacobi sweep's pairs (p < q) as rounds of disjoint pairs.

    The round-robin tournament ordering of R. P. Brent and F. T. Luk, SIAM J.
    Sci. Stat. Comput. 6 (1985) 69-84: index 0 stays put while the others
    rotate one place per round, and position i meets position m-1-i. An odd n
    is padded with a bye index n, whose pairs are dropped, so every pair of
    indices below n appears exactly once in the m-1 rounds (m = n rounded up
    to even).
    """
    m = n + n % 2
    ring = list(range(m))
    rounds = []
    for _ in range(m - 1):
        pairs = sorted((min(x, y), max(x, y)) for x, y in zip(ring[:m // 2], ring[::-1])
                       if max(x, y) < n)
        p, q = (np.array(side, dtype=np.intp) for side in zip(*pairs))
        rounds.append((p, q))
        ring = ring[:1] + ring[-1:] + ring[1:-1]
    return tuple(rounds)


def _scale(diag, offdiag) -> float:
    """Gershgorin-style operator scale max|d| + 2 max|e| that the caps are relative to."""
    coupling = float(np.max(np.abs(offdiag))) if offdiag.size else 0.0
    return float(np.max(np.abs(diag))) + 2.0 * coupling


def _certify(diag, offdiag, values, vectors) -> EigenSystem:
    """Sign-fix (in place), measure residual/orthonormality, and enforce the output contract.

    `values` must ascend. One walk over the vectors, in blocks of
    `STATE_BLOCK` columns, does three things per block: it fixes the block's
    signs, takes each column's residual r = T u - lambda u, as its largest
    entry (`residual_bound`) and as its 2-norm, and measures orthonormality
    between nearby levels: the Gram row panel V_b^T V[:, lo:end] of the block
    starting at column lo stops at the first level at least W =
    ORTHO_WINDOW_REL * scale above the block's top level. The panel's columns
    past the block have not had their signs fixed yet; a flip negates each of
    their products exactly and the panel is taken in absolute value, so the
    bounds are the same bits either way. The whole walk runs on one BLAS
    thread (see `_one_blas_thread`).

    Every pair beyond the window is bounded instead. Evaluating u_i^T T u_j
    both ways gives (lambda_j - lambda_i) u_i^T u_j = r_i^T u_j - u_i^T r_j, so
    |lambda_j - lambda_i| >= W implies |u_i^T u_j| <= 2 rho nu / W. Here nu =
    sqrt(1 + the measured diagonal defect) is the largest column norm and rho
    the largest computed residual norm plus 10 ulps of scale * nu: evaluating
    r's four terms errs by at most 8 ulps of (|T| + |lambda|)|u| <= 2 scale nu,
    and 2 more cover the scaling, the sum of squares and the square root of a
    norm the residual cap keeps small. Rounding in the measured norms and in
    the window's edge moves the bound by a relative N ulps at most. `ortho_bound`
    is the larger of the measured in-window defect and that far-pair bound.
    When every panel runs to the last column no pair is far, and it is the
    full Gram defect.
    """
    n = vectors.shape[1]
    scale = _scale(diag, offdiag)
    unit = max(scale, 1e-300)
    tops = np.minimum(np.arange(STATE_BLOCK, n + STATE_BLOCK, STATE_BLOCK), n)
    ends = np.maximum(np.searchsorted(values, values[tops - 1] + ORTHO_WINDOW_REL * unit), tops)
    residual = ortho = norm_defect = 0.0
    sumsq = np.empty(n)  # |r|^2 / unit^2 per column
    with _one_blas_thread():
        for lo, end in zip(range(0, n, STATE_BLOCK), ends):
            hi = lo + STATE_BLOCK
            block = _fix_signs(vectors[:, lo:hi])
            worst, sumsq[lo:hi] = _block_residual(diag, offdiag, values[lo:hi], block, 1.0 / unit)
            residual = max(residual, worst)
            panel = block.T @ vectors[:, lo:end]
            k = block.shape[1]
            diagonal = np.arange(k), np.arange(k)
            panel[diagonal] -= 1.0
            np.abs(panel, out=panel)
            norm_defect = max(norm_defect, float(np.max(panel[diagonal])))
            ortho = max(ortho, float(np.max(panel)))
            del panel  # freed before the next panel is made
    if not np.all(np.isfinite(sumsq)):
        raise SolverError("residual not finite: the eigenpairs hold NaN or inf")
    if ends[0] < n:  # ends ascend, so some pair lies beyond the window
        nu = math.sqrt(1.0 + norm_defect)
        rho = math.sqrt(float(np.max(sumsq))) + 10 * _ULP * nu
        ortho = max(ortho, 2.0 * rho * nu / ORTHO_WINDOW_REL)

    if residual > RESIDUAL_REL_CAP * unit:
        raise SolverError(f"residual {residual:.3e} above certificate {RESIDUAL_REL_CAP * scale:.3e}")
    if ortho > ORTHO_CAP:
        raise SolverError(f"orthonormality defect {ortho:.3e} above {ORTHO_CAP:.1e}")
    trace_gap = abs(float(np.sum(values)) - float(np.sum(diag)))
    if trace_gap > TRACE_REL_CAP * diag.size * max(scale, 1.0):
        raise SolverError(f"trace drift {trace_gap:.3e} for {diag.size} sites")
    return EigenSystem(values, vectors, residual_bound=residual, ortho_bound=ortho)


def _block_residual(diag, offdiag, values, block, inv_scale):
    """(max |T v - lambda v|, sum of (inv_scale (T v - lambda v))^2 per column) of one block.

    Each entry is d v + e v_next + e v_prev - lambda v, summed in that order,
    in tiles of `STATE_BLOCK` sites: a full-height block would need two
    (sites x block) buffers, a tile needs block^2. The squares are of the
    residual over the scale, so they neither overflow nor underflow at huge or
    tiny energies.
    """
    n = diag.size
    worst = 0.0
    sumsq = np.zeros(block.shape[1])
    for r in range(0, n, STATE_BLOCK):
        s = min(r + STATE_BLOCK, n)
        hv = diag[r:s, None] * block[r:s]
        below = min(s, n - 1)  # sites r..below-1 couple to the next site
        hv[:below - r] += offdiag[r:below, None] * block[r + 1:below + 1]
        above = max(r, 1)  # sites above..s-1 couple to the previous site
        hv[above - r:] += offdiag[above - 1:s - 1, None] * block[above - 1:s - 1]
        hv -= block[r:s] * values
        worst = max(worst, float(np.max(np.abs(hv, out=hv))))
        hv *= inv_scale
        sumsq += np.einsum("ij,ij->j", hv, hv)
    return worst, sumsq


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    """First component with magnitude above the floor is made positive (reproducibility).

    Flips the columns in place and returns the same array, so no second
    (sites x states) buffer is made; `_certify` passes one column block of
    vectors it has just built.
    """
    significant = vectors > SIGN_FLOOR
    significant |= vectors < -SIGN_FLOOR
    lead = vectors[np.argmax(significant, axis=0), np.arange(vectors.shape[1])]
    flip = significant.any(axis=0) & (lead < 0.0)
    return np.multiply(vectors, np.where(flip, -1.0, 1.0), out=vectors)


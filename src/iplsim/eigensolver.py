"""Full eigendecomposition of the lattice operator, with certified residuals, in one walk.

``eigh_tridiagonal`` splits the operator into unreduced blocks, takes their
eigenvalues from LAPACK's root-free QR (``sterf``), and runs inverse iteration
(``dstein``, which resolves the tails of localized states componentwise down
to about 1e-45) once per spectral group, cut at gaps above ``GROUP_GAP_REL``
of the scale, of each half-size sector of a mirror-symmetric operator
(`_unfold`). Both come by ctypes from numpy's bundled OpenBLAS (`_lapack`).

One walk takes the states in ascending blocks of ``STATE_BLOCK``; ahead of
each block, dstein solves a slab of whole groups, enough for the block's
certificate window. Each block is then rotated below the rounding floor,
sign-fixed, certified (`_Certificate`) and handed to the readers named before
the solve, and a row is dropped once no window reaches it, so no solve holds
its vectors whole: the readers are all that ever see them. Each slab and each
block's readers are shared out over threads started for that step alone
(`share`; a solve on a sweep's thread starts none); dstein reseeds on every
call and each group owns its rows, so no bit depends on the threads or the
slabs. ``dense_oracle`` (round-robin Jacobi on the dense matrix) is the
independent route the tests check against.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import os
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable

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
# The certificate measures the overlaps of levels within this fraction of the
# scale of each other, and bounds the rest (`_Certificate`): a residual norm
# of 1e-14*scale bounds them by 2e-12, while the window holds a tenth of them.
ORTHO_WINDOW_REL = 1e-2
# DSTEBZ's split rule: e_j^2 <= ULP^2 |d_j d_{j+1}| + SAFE_MIN decouples the
# operator at bond j
_ULP = float(np.finfo(float).eps)
_SAFE_MIN = float(np.finfo(float).tiny)

# spacings within this many ulps of the largest |eigenvalue| are exact
# degeneracies, and entries this many ulps of the scale apart are equal
DEGENERACY_ULPS = 4

# states per block of the walk and of the certificate's passes, so a pass's
# scratch stays O(sites x block)
STATE_BLOCK = 128

# one thread per core the process may run on, but only as many as get this much
# work each (sites x states): below it a second thread bought wall time only
# with more CPU (2^17 cost `figures` 2.5% CPU for no wall gain; CHANGES.md)
_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
_THREAD_WORK = 1 << 18
# `busy` is set on a thread while it runs a `share` call, whose work starts no thread
_share_call = threading.local()


def rounding_floor(values: np.ndarray) -> float:
    """DEGENERACY_ULPS ulps of the largest |eigenvalue|: spacings below it are roundoff."""
    return DEGENERACY_ULPS * float(np.spacing(np.abs(values).max(initial=0.0)))


def thread_count(work: int) -> int:
    """Threads to `share` `work` sites x states over: one per core, each with `_THREAD_WORK`,
    and one inside a `share` call, so shares do not nest."""
    if getattr(_share_call, "busy", False):
        return 1
    return max(1, min(_WORKERS, int(work) // _THREAD_WORK))


def share(fn, args) -> list:
    """[fn(arg) for arg in args]: the first on the caller, each other on a thread started
    for this call and joined before it returns.

    A caller makes each call's buffers before `share`, so no started thread's
    malloc arena keeps freed scratch. A call's exception reaches the caller
    (the first failed call's, in argument order) once every call is done. Work
    done inside a call gets `thread_count` 1, so a solve on a sweep's thread
    starts no thread.
    """
    done = [None] * len(args)  # (result, exception) of each call

    def call(i):
        busy, _share_call.busy = getattr(_share_call, "busy", False), True
        try:
            done[i] = fn(args[i]), None
        except BaseException as exc:  # handed to the caller, which raises it
            done[i] = None, exc
        finally:
            _share_call.busy = busy

    threads = [threading.Thread(target=call, args=(i,)) for i in range(1, len(args))]
    for thread in threads:
        thread.start()
    if args:
        call(0)
    for thread in threads:
        thread.join()
    for _, error in done:
        if error is not None:
            raise error
    return [result for result, _ in done]


def _lapack(bundled: bool = True):
    """(thread setter or None, dsterf, dstein, LAPACK integer dtype) of the LAPACK numpy loads.

    numpy's wheels (2.0 on) vendor an ILP64 OpenBLAS under numpy.libs (macOS:
    numpy/.dylibs); ctypes.CDLL returns the copy numpy loaded, which exports
    `scipy_<name>_64_` and `openblas_set_num_threads_local` (0.3.27 on);
    else the routines come from scipy's LAPACK capsules (32-bit integers, no
    setter). Each is a CFUNCTYPE of pointers, whose call releases the GIL.
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
    """Run the body with OpenBLAS on one thread, whose bits no core count changes, if it can."""
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
    """Ascending eigenvalues and the certificate bounds of their orthonormal eigenvectors,
    which only the solve's readers see (`eigh_tridiagonal`)."""

    values: np.ndarray
    residual_bound: float
    ortho_bound: float

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1:
            raise ValueError(f"need 1-D values, got {values.shape}")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @property
    def size(self) -> int:
        return self.values.size


def eigh_tridiagonal(h, consumers: Callable[[np.ndarray], Iterable[Callable]] | None = None
                     ) -> EigenSystem:
    """Diagonalize a TridiagonalHamiltonian; deterministic up to the sign convention.

    `consumers`, if given, gets the ascending eigenvalues before any vector
    is solved and returns the readers: reader(lo, rows) gets the read-only
    (k x sites) rows of certified states lo..lo+k-1, one run per thread; None
    means no readers, for the values and bounds alone. The verdict comes after
    the last block, so nothing a reader gathered may be written before this
    returns. `thread_count` of the dstein work caps the threads that `share`
    each slab, and that of the sites x states the threads that read a block.
    """
    diag, offdiag = h.diag, h.offdiag
    if diag.size == 0:
        raise ValueError("empty operator")
    scale = _scale(diag, offdiag)  # NaN or inf for a NaN or inf entry
    if not math.isfinite(scale):
        raise ValueError("operator entries must be finite, with max|d| + 2 max|e| "
                         "inside the float range")
    n = diag.size
    # beyond 2^+-255, solve over the power of two at the scale (an exact division),
    # so the squares in the split rule and in dstein neither overflow nor underflow
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
    # dsterf overwrites D and E (it never reads a block's last bond, a split)
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
    levels = values[order] * unit
    levels.setflags(write=False)

    # a spectral group starts at each block start and wherever the block's
    # ascending values jump by more than the cut gap
    starts = np.zeros(n, dtype=bool)
    starts[edges[:-1]] = True
    starts[1:] |= np.diff(values) > GROUP_GAP_REL * scale / unit
    first = np.flatnonzero(starts)
    count = np.diff(np.append(first, n))
    block = np.searchsorted(edges, first, side="right") - 1
    offset, size = edges[block], sizes[block]
    # dstein's integer arguments N (= ISPLIT(1) = LDZ) and M, one row per group
    ints = np.stack([size, count], axis=1).astype(_LAPACK_INT)
    at = ints.ctypes.data + ints.itemsize * np.arange(ints.size).reshape(ints.shape)
    tasks = list(zip(at[:, 0].tolist(), (d.ctypes.data + 8 * offset).tolist(),
                     (e.ctypes.data + 8 * offset).tolist(), at[:, 1].tolist(),
                     (values.ctypes.data + 8 * first).tolist(),
                     [row[f:f + c] for f, c in zip(first.tolist(), count.tolist())],
                     offset.tolist(), (offset + size).tolist()))
    extent = size * count

    def scratch(slab):
        # dstein's IBLOCK, Z, WORK, IWORK, IFAIL and INFO for the slab's largest block and group
        sites = int(size[slab].max())
        return (np.ones(sites, dtype=_LAPACK_INT), np.empty(int(extent[slab].max())),
                np.empty(5 * sites), np.empty(sites, dtype=_LAPACK_INT),
                np.empty(sites, dtype=_LAPACK_INT), np.zeros(1, dtype=_LAPACK_INT))

    certificate = _Certificate(diag, offdiag, levels)
    floor = rounding_floor(levels)
    slabs, frontier = _walk_plan(row, first, count, levels, floor, certificate.ends)
    window = np.zeros((int(np.max(frontier - np.arange(0, n, STATE_BLOCK))), n))
    readers = () if consumers is None else tuple(consumers(levels))
    # a row is written on its own block's sites only: clear reused rows where that matters
    clear = sizes.size > 1 + mirrored

    def read(run):  # one thread's contiguous run of the block's states
        start, stop = int(run[0]), int(run[-1]) + 1
        for reader in readers:
            reader(lo + start, rows[start:stop])

    base = solved = 0  # window row 0 holds state `base`; states below `solved` are complete
    threads, solvers = thread_count(n * n), thread_count(int(np.sum(extent)))
    for lo, end, need in zip(range(0, n, STATE_BLOCK), certificate.ends.tolist(),
                             frontier.tolist()):
        if need > solved:
            if need - base > window.shape[0]:  # full: drop the states below this block
                _slide(window, lo - base, solved - base)
                base = lo
            fresh = window[solved - base:need - base]
            if clear:
                fresh.fill(0.0)
            slab = slabs[need]
            queue = iter(slab.tolist())  # each thread takes the next group left
            failures = [f for f in share(
                lambda buffers: _solve_groups(queue, tasks, window, base, buffers),
                [scratch(slab) for _ in range(min(solvers, slab.size))])
                if f is not None]
            if failures:
                task, info = min(failures)
                raise SolverError(f"inverse iteration failed near "
                                  f"{values[first[task]] * unit:.6g} (dstein info {info})")
            if mirrored:
                _unfold(fresh, order[solved:need] >= m)
            _sub_floor_basis(fresh, levels[solved:need], floor)
            solved = need
        with _one_blas_thread():
            certificate.block(lo, window[lo - base:end - base].T)
        if readers:
            rows = window[lo - base:min(lo + STATE_BLOCK, n) - base].view()
            rows.flags.writeable = False
            share(read, np.array_split(range(rows.shape[0]), min(threads, rows.shape[0])))
    residual, ortho = certificate.bounds()
    return EigenSystem(levels, residual_bound=residual, ortho_bound=ortho)


def _walk_plan(row, first, count, levels, floor, ends):
    """(slabs, frontier): slabs[f] lists the groups solved up to cut f; frontier[b] is the
    first cut at or past block b's window end, where a cut is a state count that no group
    (states row[first[g]:first[g] + count[g]]) or sub-floor cluster straddles."""
    n = levels.size
    reach = np.empty(n, dtype=np.intp)  # the last state of each state's group or cluster
    reach[row] = np.repeat(np.maximum.reduceat(row, first), count)
    cluster = np.flatnonzero(np.diff(np.concatenate(([0], np.diff(levels) <= floor, [0]))))
    np.maximum.at(reach, cluster[0::2], cluster[1::2])
    cuts = np.flatnonzero(np.maximum.accumulate(reach) == np.arange(n)) + 1
    frontier = cuts[np.searchsorted(cuts, ends)]
    bounds = frontier[np.diff(frontier, prepend=-1) > 0]  # not np.unique: it imports numpy.ma
    home = np.searchsorted(bounds, np.minimum.reduceat(row, first), side="right")
    groups = np.split(np.argsort(home, kind="stable"), np.cumsum(np.bincount(home))[:-1])
    return dict(zip(bounds.tolist(), groups)), frontier


def _slide(window, by: int, stop: int) -> None:
    """Move the window's rows [by, stop) to its start, `by` rows at a time so no copy overlaps."""
    for at in range(by, stop, by):
        window[at - by:min(at, stop - by)] = window[at:min(at + by, stop)]


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


def _sub_floor_basis(rows, values, floor: float) -> None:
    """Rotate the rows of each cluster of `values` spaced at or below `floor`, in place.

    Any orthonormal mix of them is as good an eigenbasis; the site index's
    (a k x k `eigh`, on one BLAS thread) gives one-sided states in ascending
    center of mass, whichever solve mixed them.
    """
    close = np.concatenate(([0], np.diff(values) <= floor, [0]))
    edges = np.flatnonzero(np.diff(close))  # each cluster's first and last state
    if edges.size == 0:  # no cluster, and no BLAS pin to take
        return
    site = np.arange(1.0, rows.shape[1] + 1)
    with _one_blas_thread():
        for lo, hi in zip(edges[0::2], edges[1::2] + 1):
            cluster = rows[lo:hi]
            basis = np.linalg.eigh((cluster * site) @ cluster.T)[1]
            rows[lo:hi] = basis.T @ cluster


def _solve_groups(tasks_left, tasks, rows, base, buffers):
    """Run dstein on each task taken from `tasks_left`, in one thread's buffers.

    buffers: IBLOCK (all ones), Z, WORK, IWORK, IFAIL, INFO; a task: the
    addresses of N (= ISPLIT(1) = LDZ), D, E, M and W, the group's states and
    its block's sites. Z's columns are rows of the window, whose row 0 holds
    state `base`. Returns (task, info) of the first failure, else None.
    """
    piece, info = buffers[1], buffers[-1]
    iblock_at, piece_at, *arrays_at = (buffer.ctypes.data for buffer in buffers)
    for task in tasks_left:
        n_at, d_at, e_at, m_at, w_at, members, lo, hi = tasks[task]
        _dstein(n_at, d_at, e_at, m_at, w_at, iblock_at, n_at, piece_at, n_at, *arrays_at)
        if info[0]:
            return task, int(info[0])
        rows[members - base, lo:hi] = piece[:members.size * (hi - lo)].reshape(-1, hi - lo)
    return None


def dense_oracle(h) -> EigenSystem:
    """Independent check path: the values and certified bounds of round-robin Jacobi on the
    dense matrix, small sizes only."""
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

    The rotations of a round (`_round_robin`) touch disjoint lines, so they
    are applied together: columns of A, then the rows of A and V^T, which sit
    side by side in one (n x 2n) array. Each update takes the p and q lines as
    one (2, k) stack, [c; s] x_p + [-s; c] x_q, whose bits are those of
    c x_p - s x_q and s x_p + c x_q. A pair with zero coupling is left alone.
    """
    n = a.shape[0]
    av = np.hstack((a, np.eye(n)))
    a, diag = av[:, :n], av[:, :n].diagonal()  # views: A's updates land in av
    # not np.linalg.norm: that is a BLAS dot product, which OpenBLAS splits
    # over all cores above 10 000 entries
    scale = math.sqrt(float(np.sum(a * a)))
    if scale == 0.0 or n == 1:
        return diag.copy(), np.eye(n)
    rounds = [(p, q, np.concatenate((p, q))) for p, q in _round_robin(n)]
    coefficients = np.empty((2, 2, n // 2 + 1))  # [[c; s], [-s; c]] of a round's pairs
    for _ in range(max_sweeps):
        # Sum the off-diagonal mass directly; subtracting the diagonal mass from
        # the total Frobenius mass cancels catastrophically near convergence and
        # can report zero while 1e-10-scale entries remain.
        off = math.sqrt(float(np.sum((a - np.diag(diag)) ** 2)))
        if off <= 1e-14 * scale:
            return diag.copy(), av[:, n:].T.copy()
        for p, q, pq in rounds:
            apq = a[p, q]
            coupled = apq != 0.0
            if not coupled.all():
                p, q, apq = p[coupled], q[coupled], apq[coupled]
                if not p.size:
                    continue
                pq = np.concatenate((p, q))
            theta = (diag[q] - diag[p]) / (2.0 * apq)
            size = np.abs(theta)
            t = np.copysign(1.0, theta) / (size + np.hypot(theta, 1.0))
            if size.max() > 1e150:
                big = size > 1e150
                t[big] = 1.0 / (2.0 * theta[big])
            k = p.size
            first, second = coefficients[:, :, :k]
            c = np.divide(1.0, np.sqrt(t * t + 1.0), out=first[0])
            np.negative(np.multiply(t, c, out=first[1]), out=second[0])
            second[1] = c
            # fancy indexing copies, so each update reads the values from before it
            cols = a[:, pq].reshape(n, 2, k)
            new = first * cols[:, :1]
            new += second * cols[:, 1:]
            a[:, pq] = new.reshape(n, 2 * k)
            rows = av[pq].reshape(2, k, 2 * n)
            new = first[:, :, None] * rows[0]
            new += second[:, :, None] * rows[1]
            av[pq] = new.reshape(2 * k, 2 * n)
            a[p, q] = a[q, p] = 0.0
    raise SolverError(f"Jacobi sweep cap ({max_sweeps}) reached before convergence")


@functools.lru_cache(maxsize=None)
def _round_robin(n: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """One Jacobi sweep's pairs (p < q) as rounds of disjoint pairs.

    Brent and Luk's round robin (SIAM J. Sci. Stat. Comput. 6 (1985) 69-84):
    index 0 stays put while the others rotate, and position i meets m-1-i.
    An odd n gets a bye index n, whose pairs are dropped.
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
    """Sign-fix (in place) and certify a whole (sites x states) matrix of ascending `values`;
    the eigensystem of the values and bounds."""
    certificate = _Certificate(diag, offdiag, values)
    with _one_blas_thread():
        for lo, end in zip(range(0, values.size, STATE_BLOCK), certificate.ends.tolist()):
            certificate.block(lo, vectors[:, lo:end])
    residual, ortho = certificate.bounds()
    return EigenSystem(values, residual_bound=residual, ortho_bound=ortho)


class _Certificate:
    """The certificate of ascending `values`, taken block by block of `STATE_BLOCK` states.

    `block` fixes a block's signs, takes each residual r = T u - lambda u as
    its largest entry and its 2-norm, and the block's Gram row panel up to
    ends[b], the first level at least W = ORTHO_WINDOW_REL * scale above its
    top. Panel columns not sign-fixed yet only negate exact products, which
    the absolute value hides. `bounds` bounds every pair beyond the window:
    (lambda_j - lambda_i) u_i^T u_j = r_i^T u_j - u_i^T r_j gives |u_i^T u_j|
    <= 2 rho nu / W, with nu = sqrt(1 + the diagonal defect) and rho the
    largest residual norm plus 10 ulps of scale * nu (8 for r's four terms,
    2 for scaling, squares and root); rounding moves it by N ulps at most.
    """

    def __init__(self, diag, offdiag, values):
        n = values.size
        self.diag, self.offdiag, self.values = diag, offdiag, values
        self.scale = _scale(diag, offdiag)
        self.unit = max(self.scale, 1e-300)
        tops = np.minimum(np.arange(STATE_BLOCK, n + STATE_BLOCK, STATE_BLOCK), n)
        self.ends = np.maximum(np.searchsorted(values, values[tops - 1]
                                               + ORTHO_WINDOW_REL * self.unit), tops)
        self.residual = self.ortho = self.norm_defect = 0.0
        self.sumsq = np.empty(n)  # |r|^2 / unit^2 per column

    def block(self, lo: int, columns) -> None:
        """Certify the block of states from lo, given the vectors' columns lo..ends[b] - 1."""
        hi = lo + STATE_BLOCK
        block = _fix_signs(columns[:, :STATE_BLOCK])
        worst, self.sumsq[lo:hi] = _block_residual(self.diag, self.offdiag, self.values[lo:hi],
                                                   block, 1.0 / self.unit)
        if not np.all(np.isfinite(self.sumsq[lo:hi])):
            raise SolverError("residual not finite: the eigenpairs hold NaN or inf")
        self.residual = max(self.residual, worst)
        panel = block.T @ columns
        diagonal = np.arange(block.shape[1]), np.arange(block.shape[1])
        panel[diagonal] -= 1.0
        np.abs(panel, out=panel)
        self.norm_defect = max(self.norm_defect, float(np.max(panel[diagonal])))
        self.ortho = max(self.ortho, float(np.max(panel)))

    def bounds(self) -> tuple[float, float]:
        """(residual_bound, ortho_bound) once every block is in; SolverError above a cap."""
        residual, ortho, scale = self.residual, self.ortho, self.scale
        if self.ends[0] < self.values.size:  # ends ascend, so some pair lies beyond the window
            nu = math.sqrt(1.0 + self.norm_defect)
            rho = math.sqrt(float(np.max(self.sumsq))) + 10 * _ULP * nu
            ortho = max(ortho, 2.0 * rho * nu / ORTHO_WINDOW_REL)
        if residual > RESIDUAL_REL_CAP * self.unit:
            raise SolverError(f"residual {residual:.3e} above certificate "
                              f"{RESIDUAL_REL_CAP * scale:.3e}")
        if ortho > ORTHO_CAP:
            raise SolverError(f"orthonormality defect {ortho:.3e} above {ORTHO_CAP:.1e}")
        trace_gap = abs(float(np.sum(self.values)) - float(np.sum(self.diag)))
        if trace_gap > TRACE_REL_CAP * self.diag.size * max(scale, 1.0):
            raise SolverError(f"trace drift {trace_gap:.3e} for {self.diag.size} sites")
        return residual, ortho


def _block_residual(diag, offdiag, values, block, inv_scale):
    """(max |T v - lambda v|, sum of (inv_scale (T v - lambda v))^2 per column) of one block.

    d v + e v_next + e v_prev - lambda v in that order, in (STATE_BLOCK)^2
    tiles; the squares of r / scale neither overflow nor underflow.
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
    """Make each column's first component above the floor positive, in place; returns it."""
    significant = vectors > SIGN_FLOOR
    significant |= vectors < -SIGN_FLOOR
    lead = vectors[np.argmax(significant, axis=0), np.arange(vectors.shape[1])]
    flip = significant.any(axis=0) & (lead < 0.0)
    return np.multiply(vectors, np.where(flip, -1.0, 1.0), out=vectors)


"""Spans around the calls into each iplsim layer, recorded from the benchmark's side.

`Tracer.installed` replaces the public functions at the module attributes the
pipeline calls them through (for example `iplsim.experiments.eigh_tridiagonal`)
with wrappers that record a span: layer name, start, end, parent and thread.
Nothing inside the package changes. Each thread keeps its own stack of open
spans; a span opened on a pool thread with an empty stack takes as parent the
innermost open span of the thread that started recording, so the sweep's
per-point spans nest under `experiments.sweep_lf`. Spans stay in memory until
the benchmark writes them out at the end.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import os
import threading
import time
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from statistics import median
from typing import Any, Callable

TWO_BAND_WARNING = "analysis.two_band_warning"

# (module, attribute, layer): every attribute the pipeline looks its callee up through
TARGETS = (
    ("iplsim.cli", "parse_args", "cli.parse_args"),
    ("iplsim.cli", "execute", "experiments.execute"),
    ("iplsim.cli", "run_sweep", "experiments.run_sweep"),
    ("iplsim.cli", "oracle_check", "experiments.oracle_check"),
    ("iplsim.experiments", "sweep_lf", "experiments.sweep_lf"),
    ("iplsim.experiments", "random_instance", "experiments.random_instance"),
    ("iplsim.experiments", "realize_profile", "profiles.realize_profile"),
    ("iplsim.experiments", "random_onsite_sequence", "profiles.random_onsite_sequence"),
    ("iplsim.experiments", "assemble", "hamiltonian.assemble"),
    ("iplsim.experiments", "assemble_onsite", "hamiltonian.assemble"),
    ("iplsim.experiments", "eigh_tridiagonal", "eigensolver.eigh_tridiagonal"),
    ("iplsim.eigensolver", "dense_oracle", "eigensolver.dense_oracle"),
    ("iplsim.experiments", "analyze", "analysis.analyze"),
    ("iplsim.analysis", "spacing_spectrum", "measures.spacing_spectrum"),
    ("iplsim.analysis", "state_measures", "measures.state_measures"),
    ("iplsim.analysis", "detect_bands", "analysis.detect_bands"),
    ("iplsim.analysis", "classify_states", "analysis.classify_states"),
    ("iplsim.analysis", "detect_multiplets", "analysis.detect_multiplets"),
    ("iplsim.experiments", "eigenstate_map", "analysis.eigenstate_map"),
    ("iplsim.experiments", "write_spectrum_csv", "output.write_spectrum_csv"),
    ("iplsim.experiments", "write_state_csv", "output.write_state_csv"),
    ("iplsim.experiments", "write_pgm", "output.write_pgm"),
    ("iplsim.experiments", "write_json", "output.write_json"),
    ("iplsim.experiments", "write_sweep_csv", "output.write_sweep_csv"),
    ("iplsim.experiments", "sha256_file", "output.sha256_file"),
)

# (name, unit, better) of every per-layer metric a traced run reports; the
# checks add output.checksum_drift and experiments.sweep_lf.failed_points
LAYER_METRICS = (
    ("cli.parse_args.busy_s", "s", "lower"),
    ("profiles.realize_profile.busy_s", "s", "lower"),
    ("profiles.random_onsite_sequence.busy_s", "s", "lower"),
    ("hamiltonian.assemble.busy_s", "s", "lower"),
    ("eigensolver.eigh_tridiagonal.busy_s", "s", "lower"),
    ("eigensolver.eigh_tridiagonal.calls", "count", "lower"),
    ("eigensolver.sites_solved", "count", "lower"),
    ("eigensolver.vector_mb", "MiB", "lower"),
    ("eigensolver.residual_headroom", "ratio", "lower"),
    ("eigensolver.ortho_headroom", "ratio", "lower"),
    ("eigensolver.dense_oracle.busy_s", "s", "lower"),
    ("eigensolver.dense_oracle.calls", "count", "lower"),
    ("measures.state_measures.busy_s", "s", "lower"),
    ("measures.state_measures.calls", "count", "lower"),
    ("measures.spacing_spectrum.busy_s", "s", "lower"),
    ("analysis.analyze.busy_s", "s", "lower"),
    ("analysis.analyze.self_s", "s", "lower"),
    ("analysis.classify_states.busy_s", "s", "lower"),
    ("analysis.detect_bands.busy_s", "s", "lower"),
    ("analysis.detect_multiplets.busy_s", "s", "lower"),
    ("analysis.eigenstate_map.busy_s", "s", "lower"),
    ("analysis.two_band_warnings", "count", "lower"),
    ("output.write_state_csv.busy_s", "s", "lower"),
    ("output.write_spectrum_csv.busy_s", "s", "lower"),
    ("output.write_pgm.busy_s", "s", "lower"),
    ("output.write_json.busy_s", "s", "lower"),
    ("output.sha256_file.busy_s", "s", "lower"),
    ("output.bytes_written", "bytes", "lower"),
    ("output.checksum_drift", "count", "lower"),
    ("experiments.execute.self_s", "s", "lower"),
    ("experiments.sweep_lf.busy_s", "s", "lower"),
    ("experiments.sweep_lf.pool_speedup", "ratio", "higher"),
    ("experiments.sweep_lf.failed_points", "count", "lower"),
    ("experiments.oracle_check.busy_s", "s", "lower"),
    ("experiments.random_instance.busy_s", "s", "lower"),
    ("trace.pass_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    thread: int
    start: float
    end: float = 0.0
    info: dict[str, float] | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def _solve_info(args, result) -> dict[str, float]:
    from iplsim.eigensolver import ORTHO_CAP, RESIDUAL_REL_CAP

    h = args[0]
    offdiag = float(abs(h.offdiag).max()) if h.offdiag.size else 0.0
    scale = float(abs(h.diag).max()) + 2.0 * offdiag
    return {"sites": h.sites,
            "residual_ratio": result.residual_bound / (RESIDUAL_REL_CAP * max(scale, 1e-300)),
            "ortho_ratio": result.ortho_bound / ORTHO_CAP}


def _written_info(args, result) -> dict[str, float]:
    return {"bytes": os.path.getsize(result)}


_INFO: dict[str, Callable[[tuple, Any], dict[str, float]]] = {
    "eigensolver.eigh_tridiagonal": _solve_info,
    "output.write_spectrum_csv": _written_info,
    "output.write_state_csv": _written_info,
    "output.write_pgm": _written_info,
    "output.write_json": _written_info,
    "output.write_sweep_csv": _written_info,
}


class _CountingWarnings:
    """Stands in for the `warnings` module inside iplsim.analysis and records each
    warning as a zero-length span before passing it on."""

    def __init__(self, tracer: "Tracer"):
        self._tracer = tracer

    def warn(self, message, category=None, stacklevel=1, **kwargs):
        self._tracer.event(TWO_BAND_WARNING)
        warnings.warn(message, category, stacklevel=stacklevel + 1, **kwargs)

    def __getattr__(self, name):
        return getattr(warnings, name)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._enabled = False
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._root: list[Span] = []
        self._patches: list[tuple[Any, str, Any]] = []

    @contextmanager
    def installed(self):
        """Wrap the targets for the duration of the block, then restore them."""
        try:
            for module_name, attr, layer in TARGETS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                self._patches.append((module, attr, original))
                setattr(module, attr, self._wrap(layer, original))
            analysis = importlib.import_module("iplsim.analysis")
            self._patches.append((analysis, "warnings", analysis.warnings))
            analysis.warnings = _CountingWarnings(self)
            yield
        finally:
            while self._patches:
                module, attr, original = self._patches.pop()
                setattr(module, attr, original)

    @contextmanager
    def recording(self):
        """Record spans for the calls made inside the block (and its pool threads)."""
        self._root = self._stack()
        self._enabled = True
        try:
            yield
        finally:
            self._enabled = False

    def take(self) -> list[Span]:
        """The spans recorded since the last take."""
        with self._lock:
            taken = self.spans
            self.spans = []
        return taken

    def event(self, name: str) -> None:
        if self._enabled:
            now = time.perf_counter()
            self._close(self._open(name, now), now)

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, start: float) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1].id
        else:
            try:
                parent = self._root[-1].id
            except IndexError:
                parent = None
        with self._lock:
            span_id = next(self._ids)
        return Span(span_id, name, parent, threading.get_ident(), start)

    def _close(self, span: Span, end: float) -> None:
        span.end = end
        with self._lock:
            self.spans.append(span)

    def _wrap(self, layer: str, fn: Callable) -> Callable:
        info = _INFO.get(layer)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._enabled:
                return fn(*args, **kwargs)
            stack = self._stack()
            span = self._open(layer, time.perf_counter())
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
                if info is not None:
                    span.info = info(args, result)
                return result
            finally:
                stack.pop()
                self._close(span, time.perf_counter())

        return traced


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def layer_table(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one pass: busy time (summed span durations, so pool
    threads count twice when they overlap), self time (busy time minus the part
    of each span its children cover), calls, and the computed counts."""
    by_id = {s.id: s for s in spans}
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent in by_id:
            children.setdefault(s.parent, []).append(s)

    table: dict[str, float] = {}

    def add(key: str, value: float) -> None:
        table[key] = table.get(key, 0.0) + value

    for s in spans:
        add(f"{s.name}.busy_s", s.duration)
        add(f"{s.name}.calls", 1)
        kids = [(max(c.start, s.start), min(c.end, s.end)) for c in children.get(s.id, ())]
        add(f"{s.name}.self_s", s.duration - _covered([k for k in kids if k[1] > k[0]]))

    solves = [s.info for s in spans if s.name == "eigensolver.eigh_tridiagonal" and s.info]
    table["eigensolver.sites_solved"] = sum(i["sites"] for i in solves)
    table["eigensolver.vector_mb"] = max((8 * i["sites"] ** 2 / 2**20 for i in solves), default=0.0)
    table["eigensolver.residual_headroom"] = max((i["residual_ratio"] for i in solves), default=0.0)
    table["eigensolver.ortho_headroom"] = max((i["ortho_ratio"] for i in solves), default=0.0)
    table["output.bytes_written"] = sum(s.info["bytes"] for s in spans
                                        if s.name.startswith("output.write") and s.info)
    table["analysis.two_band_warnings"] = table.get(f"{TWO_BAND_WARNING}.calls", 0)

    sweeps = [s for s in spans if s.name == "experiments.sweep_lf"]
    sweep_wall = sum(s.duration for s in sweeps)
    point_busy = sum(c.duration for s in sweeps for c in children.get(s.id, ()))
    table["experiments.sweep_lf.pool_speedup"] = point_busy / sweep_wall if sweep_wall else 0.0
    return table


def median_table(tables: list[dict[str, float]]) -> dict[str, float]:
    keys = sorted({k for t in tables for k in t})
    return {k: median(t.get(k, 0.0) for t in tables) for k in keys}

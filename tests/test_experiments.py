"""Preset table, run/sweep plumbing, manifests, and the cross-check harness."""

import json
import math
import sys
import threading
from dataclasses import fields, replace

import numpy as np
import pytest

from iplsim.eigensolver import SolverError
from iplsim.experiments import (
    DEFAULT_CONFIG,
    EMIT_KINDS,
    PRESETS,
    RunConfig,
    RunManifest,
    build_hamiltonian,
    configure,
    execute,
    focusing_grid,
    load_manifest,
    oracle_check,
    parse_selection,
    preset_config,
    random_instance,
    replay,
    resolve_selection,
    run_config,
    run_sweep,
    sweep_lf,
)
from iplsim.analysis import AnalysisThresholds, delocalized_fraction
from iplsim.cli import main
from iplsim.hamiltonian import CellParams
from iplsim.output import read_pgm, sha256_file
from iplsim.profiles import QUARTER_TURN, ProfileSpec
from iplsim.rng import SplitMix64

from iplsim import analysis, eigensolver, experiments, measures

from memory import traced_peak
from vectors import gather


def forbidden_profile(*args):
    raise AssertionError("a profile measure was computed")

PI = math.pi


def small_config(cells=16, eps=0.2, lf=1.0, map_selection="band:0"):
    return RunConfig(params=CellParams(1.0, 2.0, eps),
                     profile=ProfileSpec.linear(QUARTER_TURN, lf, cells),
                     map_selection=map_selection, label="small")


class TestPresetTable:
    """The preset parameters are part of the package contract; pin every one."""

    # name -> (kind, cells, eps, extra profile fields)
    EXPECTED = {
        "fig1": ("linear", 501, 0.2, {"lf": 1.0}),
        "fig2_3": ("linear", 201, 0.2, {"lf": 1.0}),
        "fig4": ("linear", 151, 0.3, {"lf": 0.5}),
        "fig4_inset_sweep": ("linear", 501, 0.2, {"lf": 0.5}),
        "fig5": ("random_onsite", 151, 0.2, {"seed": 11}),
        "fig6": ("random_phase", 151, 0.2,
                 {"seed": 7, "phi_start": PI / 8, "phi_end": 3 * PI / 8}),
        "fig7_8": ("linear", 151, 0.3,
                   {"phi_start": PI / 8, "phi_end": PI / 4}),
        "fig9_10": ("revolutions", 201, 0.3,
                    {"revolutions": 1, "phi_start": PI / 8, "phi_end": 3 * PI / 8}),
        "fig10": ("revolutions", 301, 0.3,
                  {"revolutions": 1, "phi_start": PI / 8, "phi_end": 3 * PI / 8}),
        "fig11_13": ("revolutions", 181, 0.3,
                     {"revolutions": 3, "phi_start": PI / 8, "phi_end": 3 * PI / 8}),
        "fig13": ("revolutions", 901, 0.3,
                  {"revolutions": 3, "phi_start": PI / 8, "phi_end": 3 * PI / 8}),
    }

    def test_exactly_these_presets(self):
        assert set(PRESETS) == set(self.EXPECTED)

    @pytest.mark.parametrize("name", sorted(EXPECTED))
    def test_pinned_parameters(self, name):
        kind, cells, eps, extra = self.EXPECTED[name]
        cfg = PRESETS[name].config
        assert cfg.profile.kind == kind
        assert cfg.profile.cells == cells
        assert cfg.params == CellParams(1.0, 2.0, eps)
        for key, value in extra.items():
            assert getattr(cfg.profile, key) == pytest.approx(value)
        assert cfg.label == name

    def test_linear_presets_centered_on_quarter_turn(self):
        for name in ("fig1", "fig2_3", "fig4", "fig4_inset_sweep"):
            prof = PRESETS[name].config.profile
            mid = (prof.phi_start + prof.phi_end) / 2
            assert mid == pytest.approx(QUARTER_TURN)
            assert prof.phi_end - prof.phi_start == pytest.approx(QUARTER_TURN / prof.lf)

    def test_map_selections(self):
        assert PRESETS["fig5"].config.map_selection == "full"
        assert PRESETS["fig10"].config.map_selection == "lowest:12"
        others = set(PRESETS) - {"fig5", "fig10"}
        assert all(PRESETS[n].config.map_selection == "band:0" for n in others)

    def test_sweep_grid(self):
        grid = PRESETS["fig4_inset_sweep"].sweep_lf_values
        assert grid is not None and len(grid) == 25
        assert grid[0] == pytest.approx(0.5)
        assert grid[-1] == pytest.approx(100.0)
        ratios = np.diff(np.log(np.asarray(grid)))
        assert np.allclose(ratios, ratios[0])  # logarithmic spacing
        assert all(PRESETS[n].sweep_lf_values is None
                   for n in PRESETS if n != "fig4_inset_sweep")

    def test_sweep_grid_is_the_focusing_grid_with_its_bits(self):
        grid = PRESETS["fig4_inset_sweep"].sweep_lf_values
        assert grid == focusing_grid(0.5, 100.0, 25)
        assert grid == tuple(float(x) for x in np.logspace(math.log10(0.5), 2.0, 25))
        assert all(type(x) is float for x in grid)

    @pytest.mark.parametrize("args,match", [
        ((0.5, 100.0, 2.5), "^points must be an integer, got 2.5$"),
        ((0.5, 100.0, "three"), "^points must be an integer, got 'three'$"),
        (("half", 100.0, 3), "^lf_min must be a number, got 'half'$"),
        ((0.5, math.inf, 3), "^lf_max must be finite, got inf$"),
        ((math.nan, 100.0, 3), "^lf_min must be finite, got nan$"),
    ])
    def test_focusing_grid_reads_its_arguments_before_the_grid_check(self, args, match):
        with pytest.raises(ValueError, match=match):
            focusing_grid(*args)

    @pytest.mark.parametrize("points", [2, 3, 5, 6, 25])
    def test_focusing_grid_holds_both_ends_exactly(self, points):
        # np.logspace goes through log10 and back, which can miss an end by an ulp
        ends = [(0.3, 7.0), (0.1, 0.7), (0.7, 3.0), (0.5, 100.0), (0.25, 1e3), (1.1, 1.3),
                (0.3, 10.0), (1e-3, 0.9), (2.0, 3.0), (0.6, 60.0)]
        for lf_min, lf_max in ends:
            grid = focusing_grid(lf_min, lf_max, points)
            assert (grid[0], grid[-1]) == (lf_min, lf_max)
            assert len(grid) == points and all(np.diff(grid) > 0)

    def test_focusing_grid_reads_numeric_text_as_its_number(self):
        # the rule of profiles.read_real / read_integer, as for every other setting
        assert focusing_grid("0.5", 100.0, 3) == focusing_grid(0.5, 100.0, "3") == focusing_grid(
            0.5, 100.0, 3)

    def test_every_linear_grid_keeps_an_lf_that_agrees_with_its_ends(self):
        # ProfileSpec refuses an lf that contradicts phi_end - phi_start, so
        # every preset and every point of both sweep grids must pass its check
        sweep = PRESETS["fig4_inset_sweep"]
        configs = [p.config for p in PRESETS.values()]
        configs += [configure(sweep.config, {"lf": lf}) for lf in sweep.sweep_lf_values]
        configs += [configure(DEFAULT_CONFIG, {"lf": lf}) for lf in focusing_grid(0.5, 100.0, 25)]
        for config in configs:
            assert ProfileSpec(**config.profile.to_dict()) == config.profile

    def test_default_thresholds_everywhere(self):
        defaults = PRESETS["fig1"].config.thresholds
        assert all(PRESETS[n].config.thresholds == defaults for n in PRESETS)

    def test_notes_are_informative(self):
        assert all(len(p.note) > 10 for p in PRESETS.values())


class TestBuildAndRun:
    def test_build_linear(self):
        cfg = small_config(cells=12)
        h = build_hamiltonian(cfg)
        assert h.sites == 24
        assert np.all(h.offdiag != 0.0)

    def test_build_onsite_dispatch(self):
        cfg = RunConfig(params=CellParams(1.0, 2.0, 0.2),
                        profile=ProfileSpec("random_onsite", 10, seed=3))
        h = build_hamiltonian(cfg)
        assert h.sites == 20
        # on-site disorder model: diagonal entries come from {d1, d2} directly
        assert set(np.round(h.diag, 12)) <= {1.0, 2.0}
        assert np.all(h.offdiag == 0.2)

    def test_run_config_consistency(self):
        cfg = small_config(cells=16)
        h, eig, report = run_config(cfg)
        assert eig.values.size == h.sites
        assert report.size == h.sites
        assert len(report.bands.bands) == 2

    def test_run_config_random_onsite_skips_band_warning(self, recwarn):
        cfg = RunConfig(params=CellParams(1.0, 2.0, 0.2),
                        profile=ProfileSpec("random_onsite", 12, seed=5))
        run_config(cfg)
        assert not [w for w in recwarn if "band" in str(w.message)]


@pytest.fixture(scope="module")
def report():
    return run_config(small_config(cells=16))[2]


class TestResolveSelection:
    def test_full(self, report):
        assert resolve_selection("full", report.bands) == range(report.size)

    def test_band(self, report):
        assert resolve_selection("band:0", report.bands) == report.bands.bands[0]
        assert resolve_selection("band:1", report.bands) == report.bands.bands[1]

    def test_band_out_of_range(self, report):
        with pytest.raises(ValueError, match="out of range"):
            resolve_selection("band:2", report.bands)

    def test_lowest(self, report):
        assert resolve_selection("lowest:5", report.bands) == range(5)
        # clamped to the spectrum size
        assert resolve_selection("lowest:999", report.bands) == range(report.size)

    def test_lowest_rejects_nonpositive(self, report):
        with pytest.raises(ValueError):
            resolve_selection("lowest:0", report.bands)

    def test_unknown_selection(self, report):
        with pytest.raises(ValueError, match="unknown map selection"):
            resolve_selection("bands", report.bands)

    @pytest.mark.parametrize("selection,parsed", [
        ("full", ("full", 0)), ("band:0", ("band", 0)), ("band:7", ("band", 7)),
        ("lowest:12", ("lowest", 12)),
    ])
    def test_parse_selection(self, selection, parsed):
        assert parse_selection(selection) == parsed

    @pytest.mark.parametrize("selection,match", [
        ("bands", "unknown map selection"), ("band:", "unknown map selection"),
        ("band:x", "unknown map selection"), ("lowest", "unknown map selection"),
        ("band:-1", "I >= 0"), ("lowest:0", "K >= 1"),
    ])
    def test_malformed_selection_refused_by_the_config(self, selection, match):
        with pytest.raises(ValueError, match=match):
            parse_selection(selection)
        with pytest.raises(ValueError, match=match):
            small_config(map_selection=selection)

    def test_edge_window_wider_than_half_the_lattice_refused(self):
        config = small_config(cells=4)
        assert replace(config, thresholds=AnalysisThresholds(n_b=4)).thresholds.n_b == 4
        with pytest.raises(ValueError, match="exceeds"):
            replace(config, thresholds=AnalysisThresholds(n_b=5))


class TestExecuteAndManifest:
    def test_artifacts_and_checksums(self, tmp_path):
        manifest = execute(small_config(), tmp_path)
        expected = {"spectrum.csv", "states.csv", "map.pgm", "summary.json"}
        assert set(manifest.checksums) == expected
        for name, digest in manifest.checksums.items():
            assert sha256_file(tmp_path / name) == digest
        assert (tmp_path / "manifest.json").exists()
        assert manifest.kind == "run"
        assert manifest.tool.startswith("iplsim ")

    def test_peak_memory_is_one_window_of_vectors_plus_block_scratch(self, tmp_path):
        config = preset_config("fig13")
        manifest, peak = traced_peak(execute, config, tmp_path)
        assert set(manifest.checksums) == {"spectrum.csv", "states.csv", "map.pgm", "summary.json"}
        sites = 2 * config.profile.cells
        # the walk's window (221 of 1802 states), the measures' and the
        # certificate's block scratch and the band-0 pixels; no vector matrix
        # is made, and the window is a traced allocation
        assert peak <= 0.6 * 8 * sites ** 2

    def test_a_missing_map_band_is_refused_before_any_vector_is_solved(self, tmp_path,
                                                                       monkeypatch):
        import iplsim.eigensolver as es

        def forbidden(*args):
            raise AssertionError("a vector was solved")

        monkeypatch.setattr(es, "_solve_groups", forbidden)
        with pytest.raises(ValueError, match=r"band 2 out of range \(found 2 bands\)"):
            execute(small_config(map_selection="band:2"), tmp_path / "out")
        assert list((tmp_path / "out").iterdir()) == []

    @pytest.mark.parametrize("selection", ["full", "band:1", "lowest:20"])
    def test_the_map_holds_the_selections_rows_however_the_walk_cuts_them(
            self, selection, tmp_path, monkeypatch):
        config = small_config(cells=40, map_selection=selection)
        states = resolve_selection(selection, run_config(config)[2].bands)
        _, vectors = gather(build_hamiltonian(config))
        calls = []

        def counting(rows):
            calls.append(rows.shape[0])
            return analysis.eigenstate_map(rows)

        # 16-state runs cut every selection here across runs, some mid-run
        monkeypatch.setattr(eigensolver, "STATE_BLOCK", 16)
        monkeypatch.setattr(experiments, "eigenstate_map", counting)
        execute(config, tmp_path, emit=("pgm",))
        assert len(calls) > 1 and sum(calls) == len(states)
        pixels = read_pgm(tmp_path / "map.pgm")
        assert np.array_equal(pixels, analysis.eigenstate_map(vectors.T[states.start:states.stop]))

    def test_a_certificate_failing_on_the_last_block_writes_nothing(self, tmp_path,
                                                                    monkeypatch):
        import iplsim.eigensolver as es

        config = preset_config("fig13")
        block = es._Certificate.block
        last = (2 * config.profile.cells - 1) // es.STATE_BLOCK * es.STATE_BLOCK

        def failing(certificate, lo, columns):
            block(certificate, lo, columns)
            if lo == last:
                certificate.residual = 1.0
        monkeypatch.setattr(es._Certificate, "block", failing)
        with pytest.raises(SolverError, match="residual"):
            execute(config, tmp_path / "out")
        assert list((tmp_path / "out").iterdir()) == []

    def test_emit_subset(self, tmp_path):
        manifest = execute(small_config(), tmp_path, emit=("json",))
        assert set(manifest.checksums) == {"summary.json"}
        assert not (tmp_path / "states.csv").exists()

    @pytest.mark.parametrize("emit", [("json",), ("pgm",), ("pgm", "json")])
    def test_runs_without_states_csv_compute_no_profile_measure(self, emit, tmp_path,
                                                                monkeypatch):
        # summary.json and map.pgm read labels and vectors, never a profile measure
        monkeypatch.setattr(measures, "_measure_block", forbidden_profile)
        names = {"json": "summary.json", "pgm": "map.pgm"}
        assert set(execute(small_config(), tmp_path, emit=emit).checksums) == {
            names[kind] for kind in emit}
        with pytest.raises(AssertionError, match="profile measure"):
            execute(small_config(), tmp_path / "csv", emit=("csv",))

    def test_emit_order_normalized(self, tmp_path):
        manifest = execute(small_config(), tmp_path, emit=("json", "csv"))
        assert manifest.emit == ("csv", "json")  # canonical order, not call order

    def test_emit_validation(self, tmp_path):
        with pytest.raises(ValueError, match=r"^emit holds unknown artifact kind\(s\) \['svg'\]; "
                                             r"known: csv, pgm, json$"):
            execute(small_config(), tmp_path, emit=("csv", "svg"))
        with pytest.raises(ValueError, match="^emit must request at least one of csv, pgm, json$"):
            execute(small_config(), tmp_path, emit=())

    def test_manifest_round_trip(self, tmp_path):
        manifest = execute(small_config(), tmp_path)
        loaded = load_manifest(tmp_path / "manifest.json")
        assert loaded.to_dict() == manifest.to_dict()
        assert loaded.config() == small_config()

    def test_manifest_is_deterministic_json(self, tmp_path):
        execute(small_config(), tmp_path / "a")
        execute(small_config(), tmp_path / "b")
        assert (tmp_path / "a" / "manifest.json").read_bytes() == \
               (tmp_path / "b" / "manifest.json").read_bytes()

    def test_manifest_of_inverts_config(self):
        cfg = small_config(cells=12, map_selection="lowest:3")
        manifest = RunManifest.of(cfg, ("csv",), {"sweep.csv": "0" * 64},
                                  lf_values=[1, 2.5])
        assert manifest.config() == cfg
        assert manifest.tool.startswith("iplsim ")
        assert manifest.lf_values == (1.0, 2.5)
        assert manifest.kind == manifest.to_dict()["kind"] == "sweep"
        run = RunManifest.of(cfg, ("csv",), {})
        assert run.lf_values is None and run.kind == "run"
        assert "lf_values" not in run.to_dict()

    def test_replay_matches(self, tmp_path):
        execute(small_config(), tmp_path / "orig")
        fresh = replay(tmp_path / "orig" / "manifest.json", tmp_path / "redo")
        assert fresh.checksums == load_manifest(tmp_path / "orig" / "manifest.json").checksums

    def test_replay_detects_drift(self, tmp_path):
        execute(small_config(), tmp_path / "orig")
        doc = json.loads((tmp_path / "orig" / "manifest.json").read_text())
        doc["checksums"]["states.csv"] = "0" * 64
        (tmp_path / "orig" / "manifest.json").write_text(json.dumps(doc))
        with pytest.raises(RuntimeError, match="replay drift.*states.csv"):
            replay(tmp_path / "orig" / "manifest.json", tmp_path / "redo")

    def test_replay_skip_verify(self, tmp_path):
        execute(small_config(), tmp_path / "orig")
        doc = json.loads((tmp_path / "orig" / "manifest.json").read_text())
        doc["checksums"]["states.csv"] = "0" * 64
        (tmp_path / "orig" / "manifest.json").write_text(json.dumps(doc))
        replay(tmp_path / "orig" / "manifest.json", tmp_path / "redo", verify=False)


# the message that refuses each focusing grid, whichever route reads it
REFUSED_GRIDS = {
    "[1.0, -2.0]": "^lf must be positive, got -2.0$",
    "[1.0, nan]": "^lf must be finite, got nan$",
    "[]": r"^lf_values must be a non-empty list, got \[\]$",
}


class TestSweep:
    def test_order_and_determinism(self):
        lf_values = [2.0, 0.5, 2.0, 8.0]
        points = sweep_lf(lf_values, small_config(cells=16))
        assert [p.lf for p in points] == lf_values
        assert points[0].fraction == points[2].fraction  # same lf, same answer
        assert all(p.error == "" and p.fraction is not None for p in points)

    def test_point_is_run_config(self):
        base = small_config(cells=16)
        center = (base.profile.phi_start + base.profile.phi_end) / 2
        [point] = sweep_lf([3.0], base)
        for config in (replace(base, profile=ProfileSpec.linear(center, 3.0, 16)),
                       configure(base, {"lf": 3.0})):
            _, _, report = run_config(config)
            assert point.fraction == delocalized_fraction(report.labels)

    def test_a_point_never_computes_a_profile_measure(self, monkeypatch):
        # a point reads only the edge weights; a profile measure would turn it into an error row
        monkeypatch.setattr(measures, "_measure_block", forbidden_profile)
        points = sweep_lf([0.5, 2.0], small_config(cells=16))
        assert [p.error for p in points] == ["", ""]

    def test_a_1002_site_point_holds_under_half_the_vector_matrix(self):
        config = configure(preset_config("fig4_inset_sweep"), {"lf": 0.5})
        (_, eig, report), peak = traced_peak(run_config, config, False)
        assert eig.size == 1002 and report.measures.ipr is None
        assert peak <= 0.5 * 8 * eig.size ** 2

    def test_two_1002_site_points_in_flight_hold_under_twice_one_points_bound(self,
                                                                              monkeypatch):
        monkeypatch.setattr(eigensolver, "_WORKERS", 2)  # both points at once, on any host
        base = preset_config("fig4_inset_sweep")
        points, peak = traced_peak(sweep_lf, [0.5, 2.0], base)
        assert [p.error for p in points] == ["", ""]
        # twice test_a_1002_site_point_holds_under_half_the_vector_matrix's bound
        assert peak <= 2 * 0.5 * 8 * (2 * base.profile.cells) ** 2

    def test_points_are_the_same_bits_on_any_number_of_threads(self, monkeypatch):
        lf_values = focusing_grid(0.5, 50.0, 9)
        base, cores = small_config(cells=60), eigensolver._WORKERS
        monkeypatch.setattr(eigensolver, "_THREAD_WORK", 1)  # every sweep gets a crew
        monkeypatch.setattr(eigensolver, "_WORKERS", 1)
        serial = sweep_lf(lf_values, base)
        assert [p.lf for p in serial] == list(lf_values)
        assert all(p.error == "" for p in serial)
        monkeypatch.setattr(eigensolver, "_WORKERS", cores)
        assert sweep_lf(lf_values, base) == serial
        # more threads than cores take the points, switching as often as they can
        monkeypatch.setattr(eigensolver, "_WORKERS", 4 * cores)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            assert sweep_lf(lf_values, base) == serial
        finally:
            sys.setswitchinterval(interval)

    def test_a_point_that_raises_on_a_worker_thread_is_the_error_row_at_its_index(
            self, monkeypatch):
        import iplsim.experiments as exp

        lf_values = [0.5, 1.0, 2.0, 4.0, 8.0]
        base = small_config(cells=16)
        want = sweep_lf(lf_values, base)
        monkeypatch.setattr(eigensolver, "_THREAD_WORK", 1)
        monkeypatch.setattr(eigensolver, "_WORKERS", 2)
        caller, solve, started, failed = threading.get_ident(), exp.run_config, threading.Event(), []

        def run_config(config, profile=True):
            if threading.get_ident() == caller:
                assert started.wait(timeout=60)  # the worker holds a point first
            else:
                started.set()
                if not failed:  # the worker's first point raises
                    failed.append(config.profile.lf)
                    raise RuntimeError("boom")
            return solve(config, profile)

        monkeypatch.setattr(exp, "run_config", run_config)
        points = sweep_lf(lf_values, base)
        [lf] = failed
        at = lf_values.index(lf)
        assert points[at] == replace(want[at], fraction=None, error="RuntimeError: boom")
        assert points[:at] + points[at + 1:] == want[:at] + want[at + 1:]

    def test_a_point_on_the_sweeps_crew_starts_no_thread_of_its_own(self, monkeypatch):
        lf_values = [0.5, 1.0, 2.0, 4.0, 8.0]
        base = small_config(cells=16)
        want = sweep_lf(lf_values, base)
        # without the rule every point's solve would start a crew of 4x the cores
        monkeypatch.setattr(eigensolver, "_THREAD_WORK", 1)
        monkeypatch.setattr(eigensolver, "_WORKERS", 4 * eigensolver._WORKERS)
        sizes, threads = [], threading.active_count()

        class Recording(eigensolver.Crew):
            def __init__(self, size):
                super().__init__(size)
                sizes.append((self.size, threading.active_count() - threads))

        monkeypatch.setattr(eigensolver, "Crew", Recording)
        assert sweep_lf(lf_values, base) == want
        crew = min(eigensolver._WORKERS, len(lf_values))
        # the sweep's crew, then one single-thread crew per point's solve
        assert sizes == [(crew, crew - 1)] + [(1, crew - 1)] * len(lf_values)
        assert threading.active_count() == threads
        # a solve outside the sweep's crew gets its threads again
        sizes.clear()
        run_config(configure(base, {"lf": 0.5}), profile=False)
        assert sizes == [(eigensolver._WORKERS, eigensolver._WORKERS - 1)]

    def test_fraction_rises_with_focusing(self):
        points = sweep_lf([0.5, 50.0], small_config(cells=24))
        assert points[1].fraction > points[0].fraction

    def test_input_validation(self):
        with pytest.raises(ValueError, match="^lf must be positive, got -2.0$"):
            sweep_lf([1.0, -2.0], small_config())
        cfg = RunConfig(params=CellParams(1.0, 2.0, 0.2),
                        profile=ProfileSpec("random_onsite", 10, seed=1))
        with pytest.raises(ValueError, match="linear"):
            sweep_lf([1.0], cfg)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_lf_refused_before_any_point(self, bad, monkeypatch):
        import iplsim.experiments as exp

        def forbidden(config):
            raise AssertionError("a point was computed")

        monkeypatch.setattr(exp, "run_config", forbidden)
        with pytest.raises(ValueError, match=f"^lf must be finite, got {bad}$"):
            sweep_lf([1.0, bad], small_config())

    def test_point_failure_becomes_row(self, monkeypatch):
        import iplsim.experiments as exp

        def boom(labels):
            raise RuntimeError("boom")

        monkeypatch.setattr(exp, "delocalized_fraction", boom)
        points = sweep_lf([1.0, 2.0], small_config(cells=8))
        assert [p.fraction for p in points] == [None, None]
        assert all(p.error == "RuntimeError: boom" for p in points)

    def test_run_sweep_manifest(self, tmp_path):
        lf_values = (0.5, 1.0, 4.0)
        manifest = run_sweep(small_config(cells=12), lf_values, tmp_path)
        assert manifest.kind == "sweep"
        assert manifest.lf_values == lf_values
        assert set(manifest.checksums) == {"sweep.csv"}
        assert sha256_file(tmp_path / "sweep.csv") == manifest.checksums["sweep.csv"]
        loaded = load_manifest(tmp_path / "manifest.json")
        assert loaded.lf_values == lf_values

    def test_sweep_replay(self, tmp_path):
        run_sweep(small_config(cells=12), (0.5, 2.0), tmp_path / "orig")
        fresh = replay(tmp_path / "orig" / "manifest.json", tmp_path / "redo")
        assert fresh.kind == "sweep"

    @pytest.mark.parametrize("lf_values", [[1.0, -2.0], [1.0, math.nan], []])
    def test_a_refused_grid_leaves_no_directory(self, lf_values, tmp_path):
        out = tmp_path / "sweep"
        with pytest.raises(ValueError, match=REFUSED_GRIDS[str(lf_values)]):
            run_sweep(small_config(), lf_values, out)
        assert not out.exists()

    def test_an_edited_sweep_manifest_replays_to_no_directory(self, tmp_path):
        run_sweep(small_config(cells=12), (0.5, 2.0), tmp_path / "orig")
        path = tmp_path / "orig" / "manifest.json"
        doc = json.loads(path.read_text())
        doc["lf_values"] = [0.5, -2.0]
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="^lf must be positive, got -2.0$"):
            replay(path, tmp_path / "redo")
        assert not (tmp_path / "redo").exists()


class TestConfigure:
    def test_no_settings_keep_the_base(self):
        assert configure(DEFAULT_CONFIG, {}) is DEFAULT_CONFIG

    def test_default_lattice(self):
        assert DEFAULT_CONFIG.params == CellParams(1.0, 2.0, 0.2)
        assert DEFAULT_CONFIG.profile == ProfileSpec.linear(QUARTER_TURN, 1.0, 501)
        assert DEFAULT_CONFIG.thresholds == AnalysisThresholds()
        assert DEFAULT_CONFIG.profile == PRESETS["fig1"].config.profile
        for preset in PRESETS.values():
            assert preset.config.params.d1 == DEFAULT_CONFIG.params.d1
            assert preset.config.params.d2 == DEFAULT_CONFIG.params.d2

    def test_unknown_key(self):
        with pytest.raises(ValueError, match=r"unknown override\(s\): \['width'\]"):
            configure(DEFAULT_CONFIG, {"width": 1.0})

    def test_values_take_their_field_types(self):
        config = configure(DEFAULT_CONFIG, {"d1": 3, "cells": "8", "nb": "3", "tau": "1e-4"})
        assert config.params == CellParams(2.0, 3.0, 0.2)
        assert isinstance(config.params.d2, float)
        assert config.profile.cells == 8
        assert config.thresholds.n_b == 3 and config.thresholds.tau == 1e-4

    @pytest.mark.parametrize("sites", [3, 2, 0, -4])
    def test_sites_even_and_at_least_4(self, sites):
        with pytest.raises(ValueError, match="sites must be even and at least 4"):
            configure(DEFAULT_CONFIG, {"sites": sites})

    def test_new_kind_starts_from_the_cell_count(self):
        config = configure(PRESETS["fig9_10"].config,
                           {"profile": "linear", "phi_start": 0.1, "phi_end": 0.5})
        assert config.profile == ProfileSpec("linear", 201, phi_start=0.1, phi_end=0.5)
        config = configure(DEFAULT_CONFIG, {"profile": "revolutions", "phi_start": 0.1,
                                            "phi_end": 0.5})
        assert config.profile == ProfileSpec("revolutions", 501, phi_start=0.1,
                                             phi_end=0.5, revolutions=1)
        base = PRESETS["fig5"].config
        config = configure(base, {"profile": "linear", "lf": 2.0, "center": 0.5})
        assert config.profile == ProfileSpec.linear(0.5, 2.0, base.profile.cells)

    def test_center_and_lf_default_to_the_current_grid(self):
        base = PRESETS["fig4"].config
        assert configure(base, {"center": 0.5}).profile == ProfileSpec.linear(0.5, 0.5, 151)
        assert configure(base, {"lf": 2.0}).profile == \
            ProfileSpec.linear(QUARTER_TURN, 2.0, 151)

    def test_lf_on_a_grid_placed_by_its_ends_keeps_its_midpoint(self):
        base = PRESETS["fig7_8"].config
        mid = (base.profile.phi_start + base.profile.phi_end) / 2
        assert configure(base, {"lf": 2.0}).profile == ProfileSpec.linear(mid, 2.0, 151)

    @pytest.mark.parametrize("base,settings,match", [
        ("fig7_8", {"center": 0.5}, "center needs lf"),
        ("fig9_10", {"center": 0.5}, "linear profiles only"),
        ("fig6", {"lf": 2.0}, "linear profiles only"),
        ("fig1", {"center": 0.5, "phi_end": 1.0}, "conflicts"),
        ("fig1", {"lf": 2.0, "phi_start": 0.1}, "conflicts"),
        ("fig5", {"profile": "linear", "lf": 2.0}, "new linear grid placed by lf needs a center"),
    ])
    def test_grid_placement_refusals(self, base, settings, match):
        with pytest.raises(ValueError, match=match):
            configure(PRESETS[base].config, settings)

    def test_one_end_at_a_time_drops_lf(self):
        config = configure(PRESETS["fig1"].config, {"phi_end": 1.0})
        assert config.profile == ProfileSpec("linear", 501, phi_start=PI / 8, phi_end=1.0)


class TestPresetConfigOverrides:
    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="unknown preset 'fig99'; known: fig1"):
            preset_config("fig99")

    def test_no_overrides_returns_table_entry(self):
        assert preset_config("fig1") is PRESETS["fig1"].config

    def test_unknown_override_key(self):
        with pytest.raises(ValueError, match="unknown override"):
            preset_config("fig1", {"coupling": 0.5})

    def test_param_overrides(self):
        cfg = preset_config("fig1", {"eps": 0.35, "d2": 3.0})
        assert cfg.params == CellParams(1.0, 3.0, 0.35)

    def test_sites_maps_to_cells(self):
        cfg = preset_config("fig1", {"sites": 40})
        assert cfg.profile.cells == 20

    def test_sites_must_be_even_and_big_enough(self):
        with pytest.raises(ValueError, match="even"):
            preset_config("fig1", {"sites": 41})
        with pytest.raises(ValueError, match="even"):
            preset_config("fig1", {"sites": 2})

    def test_lf_override_recenters(self):
        cfg = preset_config("fig1", {"lf": 2.0})
        prof = cfg.profile
        assert (prof.phi_start + prof.phi_end) / 2 == pytest.approx(QUARTER_TURN)
        assert prof.phi_end - prof.phi_start == pytest.approx(QUARTER_TURN / 2.0)
        assert prof.lf == 2.0

    def test_lf_override_requires_linear(self):
        with pytest.raises(ValueError, match="linear"):
            preset_config("fig9_10", {"lf": 1.0})

    def test_lf_override_must_be_positive(self):
        for bad in (0.0, -2.0):
            with pytest.raises(ValueError, match="positive"):
                preset_config("fig1", {"lf": bad})

    def test_phi_override_drops_lf(self):
        cfg = preset_config("fig1", {"phi_start": 0.1, "phi_end": 0.7})
        assert cfg.profile.phi_start == 0.1
        assert cfg.profile.phi_end == 0.7
        assert cfg.profile.lf is None  # the focusing label no longer applies

    def test_threshold_overrides(self):
        cfg = preset_config("fig1", {"tau": 1e-4, "nb": 3, "gamma": 10.0})
        assert cfg.thresholds.tau == 1e-4
        assert cfg.thresholds.n_b == 3
        assert cfg.thresholds.gamma == 10.0

    def test_seed_and_map_selection(self):
        cfg = preset_config("fig6", {"seed": 99, "map_selection": "lowest:4"})
        assert cfg.profile.seed == 99
        assert cfg.map_selection == "lowest:4"

    # presets run through the CLI, which alone picks sweep or single run

    def test_run_preset_needs_out_dir(self, capsys):
        assert main(["preset", "fig1"]) == 2
        assert "--out" in capsys.readouterr().err

    def test_run_preset_small(self, tmp_path):
        assert main(["preset", "fig2_3", "--set", "sites=32", "--out", str(tmp_path)]) == 0
        manifest = load_manifest(tmp_path / "manifest.json")
        assert manifest.kind == "run"
        assert manifest.profile["cells"] == 16
        assert (tmp_path / "map.pgm").exists()

    def test_run_preset_sweep_dispatch(self, tmp_path):
        assert main(["preset", "fig4_inset_sweep", "--set", "cells=10",
                     "--out", str(tmp_path)]) == 0
        manifest = load_manifest(tmp_path / "manifest.json")
        assert manifest.kind == "sweep"
        assert len(manifest.lf_values) == 25
        assert (tmp_path / "sweep.csv").exists()
        assert not (tmp_path / "states.csv").exists()


class TestRandomInstance:
    def test_always_unreduced(self):
        rng = SplitMix64(2024)
        for _ in range(200):
            h = random_instance(rng, max_sites=48)
            assert 4 <= h.sites <= 48
            assert h.sites % 2 == 0
            assert np.all(np.abs(h.offdiag) > 0.0)
            assert np.all(np.isfinite(h.diag))

    def test_reproducible(self):
        a = random_instance(SplitMix64(7), max_sites=32)
        b = random_instance(SplitMix64(7), max_sites=32)
        assert np.array_equal(a.diag, b.diag)
        assert np.array_equal(a.offdiag, b.offdiag)


class TestOracleCheck:
    def test_small_battery_passes(self):
        result = oracle_check(instances=5, max_sites=32, seed=123)
        assert result.instances == 5
        assert result.max_eigenvalue_dev <= 1e-10
        assert result.max_residual <= 1e-10
        assert result.max_ortho <= 1e-10

    def test_instance_count_validation(self):
        with pytest.raises(ValueError, match="^instances must be at least 1, got 0$"):
            oracle_check(instances=0)

    @pytest.mark.parametrize("max_sites", [600, 3, 0])
    def test_size_refused_before_any_solve(self, max_sites, monkeypatch):
        import iplsim.experiments as exp

        calls = []
        monkeypatch.setattr(exp, "eigh_tridiagonal", lambda h: calls.append(h))
        with pytest.raises(ValueError, match=rf"^max_sites must lie in \[4, 256\], the dense "
                                             rf"oracle's size range, got {max_sites}$"):
            exp.oracle_check(instances=3, max_sites=max_sites, seed=1)
        assert calls == []

    @pytest.mark.parametrize("args,kwargs,match", [
        ((1.5, 16), {}, "^instances must be an integer, got 1.5$"),
        ((1, 16.5), {}, "^max_sites must be an integer, got 16.5$"),
        ((1, "sixteen"), {}, "^max_sites must be an integer, got 'sixteen'$"),
        ((1, 16), {"seed": 2.5}, "^seed must be an integer, got 2.5$"),
        ((1, 16), {"seed": "five"}, "^seed must be an integer, got 'five'$"),
    ])
    def test_arguments_that_are_not_integers_are_refused_before_any_solve(
            self, args, kwargs, match, monkeypatch):
        import iplsim.experiments as exp

        calls = []
        monkeypatch.setattr(exp, "eigh_tridiagonal", lambda h: calls.append(h))
        with pytest.raises(ValueError, match=match):
            exp.oracle_check(*args, **kwargs)
        assert calls == []

    def test_integer_text_is_read_as_its_integer(self):
        want = oracle_check(1, 16, seed=5)
        assert oracle_check(1, "16", seed=5) == oracle_check(1, 16, seed="5") == want

    def test_disagreement_raises(self, monkeypatch):
        import iplsim.eigensolver as es
        import iplsim.experiments as exp

        real = es.dense_oracle

        def skewed(h):
            ora = real(h)
            return type(ora)(values=ora.values + 1e-6, residual_bound=ora.residual_bound,
                             ortho_bound=ora.ortho_bound)

        monkeypatch.setattr(es, "dense_oracle", skewed)
        with pytest.raises(SolverError, match="routes differ"):
            exp.oracle_check(instances=1, max_sites=16, seed=1)


def test_emit_kinds_constant():
    assert EMIT_KINDS == ("csv", "pgm", "json")


def test_manifest_from_dict_tolerates_missing_optionals():
    doc = {"kind": "run", "tool": "iplsim 0.1.0", "params": {"d1": 1.0, "d2": 2.0, "eps": 0.2},
           "profile": {"kind": "linear", "cells": 8, "phi_start": 0.3, "phi_end": 1.2},
           "thresholds": {"n_b": 2, "tau": 3e-5, "gamma": 20.0, "delta_rel": 0.05,
                          "amplitude_floor": 1e-8},
           "map_selection": "full", "emit": ["csv"], "checksums": {}}
    manifest = RunManifest.from_dict(doc)
    assert manifest.label is None
    assert manifest.lf_values is None
    assert manifest.config().map_selection == "full"


@pytest.mark.parametrize("kind,lf_values,match", [
    ("bogus", None, "unknown manifest kind 'bogus'"),
    ("bogus", [1.0, 2.0], "unknown manifest kind 'bogus'"),
    ("sweep", None, "sweep manifest needs its lf_values"),
    ("run", [1.0, 2.0], "run manifest takes no lf_values"),
])
def test_manifest_kind_and_sweep_grid_checked(kind, lf_values, match, tmp_path):
    doc = RunManifest.of(small_config(), ("csv",), {}).to_dict()
    doc["kind"] = kind
    if lf_values is not None:
        doc["lf_values"] = lf_values
    with pytest.raises(ValueError, match=match):
        RunManifest.from_dict(doc)
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=match):
        replay(path, tmp_path / "out")
    assert not (tmp_path / "out").exists()


def _with(section, **changes):
    """An edit of one manifest section: a value of None deletes that key."""
    def apply(doc):
        target = doc if section is None else doc[section]
        for key, value in changes.items():
            if value is None:
                del target[key]
            else:
                target[key] = value
    return apply


@pytest.mark.parametrize("edit, match", [
    (_with(None, checksums=[]), r"checksums must map artifact names to digests, got \[\]"),
    (_with(None, checksums={"states.csv": 5}), "checksums must map artifact names"),
    (_with(None, emit="csv"), "emit must be a list of artifact kinds, got 'csv'"),
    (_with("params", d3=1.0), r"params: unknown key\(s\) \['d3'\], missing key\(s\) \[\]$"),
    (_with("params", eps=None), r"params: unknown key\(s\) \[\], missing key\(s\) \['eps'\]$"),
    (_with("profile", width=1.0), r"profile: unknown key\(s\) \['width'\], missing key\(s\) \[\]$"),
    (_with("profile", cells=None), r"profile: unknown key\(s\) \[\], missing key\(s\) \['cells'\]$"),
    (_with("thresholds", beta=1.0), r"thresholds: unknown key\(s\) \['beta'\], missing key\(s\) \[\]$"),
    (_with("thresholds", tau=None), r"thresholds: unknown key\(s\) \[\], missing key\(s\) \['tau'\]$"),
    (_with(None, params=[1.0, 2.0, 0.2]), "params must be an object"),
    (_with("profile", lf=5.0), r"lf=5.0 sets a width of \(pi/4\)/lf"),
    (_with("profile", lf=-1.0), "lf must be positive"),
    (_with(None, emit=["csv", "bogus"]),
     r"^emit holds unknown artifact kind\(s\) \['bogus'\]; known: csv, pgm, json$"),
    (_with(None, emit=[]), "^emit must request at least one of csv, pgm, json$"),
    (_with(None, typo_key=1),
     r"^manifest top level: unknown key\(s\) \['typo_key'\], missing key\(s\) \[\]$"),
    (_with(None, lable="fig1"),
     r"^manifest top level: unknown key\(s\) \['lable'\], missing key\(s\) \[\]$"),
    (_with(None, map_selection=5), "^map selection must be text, got 5$"),
    (_with(None, kind="sweep", lf_values=5),
     "^lf_values must be a non-empty list, got 5$"),
    (_with(None, kind="sweep", lf_values=[None]), "^lf must be a number, got None$"),
    (_with(None, kind="sweep", lf_values=[-1.0]), "^lf must be positive, got -1.0$"),
    (_with(None, kind="sweep", lf_values=[]), REFUSED_GRIDS["[]"]),
    (_with("profile", seed=True), "^seed must be an integer, got True$"),
    (_with("params", eps=False), "^eps must be a number, got False$"),
    (_with(None, label={"x": [1, 2]}), r"^label must be text, got \{'x': \[1, 2\]\}$"),
], ids=["checksums-list", "checksums-number", "emit-text", "params-unknown", "params-missing",
        "profile-unknown", "profile-missing", "thresholds-unknown", "thresholds-missing",
        "params-list", "lf-contradicts-ends", "lf-negative", "emit-unknown", "emit-empty",
        "top-level-unknown", "optional-misspelt", "map-selection-number", "lf-values-number",
        "lf-values-null", "lf-values-negative", "lf-values-empty", "seed-bool", "eps-bool",
        "label-object"])
def test_a_malformed_manifest_is_refused_at_load(edit, match, tmp_path):
    doc = RunManifest.of(small_config(), ("csv",), {}).to_dict()
    edit(doc)
    with pytest.raises(ValueError, match=match):
        RunManifest.from_dict(doc)
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=match):
        replay(path, tmp_path / "out")
    assert not (tmp_path / "out").exists()


JSON_VALUES = (None, True, -1, 1.5, 1e308, "", "x", [], [None], [1.0], ["csv"], [[]], {},
               {"a": 1})


@pytest.mark.parametrize("name", ["fig1", "fig4_inset_sweep", "fig5", "fig9_10"])
def test_any_json_value_in_any_field_loads_or_is_refused_with_value_error(name):
    preset = PRESETS[name]
    emit = EMIT_KINDS if preset.sweep_lf_values is None else ("csv",)
    recorded = RunManifest.of(preset.config, emit, {}, lf_values=preset.sweep_lf_values).to_dict()
    recorded = json.loads(json.dumps(recorded))
    # every key of the document and of its params and thresholds, and every profile field
    places = [(None, key) for key in recorded]
    places += [(section, key) for section in ("params", "thresholds") for key in recorded[section]]
    places += [("profile", f.name) for f in fields(ProfileSpec)]
    for section, key in places:
        for value in JSON_VALUES:
            doc = json.loads(json.dumps(recorded))
            (doc if section is None else doc[section])[key] = value
            try:
                RunManifest.from_dict(doc)
            except ValueError:
                pass
    for doc in JSON_VALUES:
        with pytest.raises(ValueError, match="^manifest is missing required key 'kind'$"):
            RunManifest.from_dict(doc)


@pytest.mark.parametrize("emit, extra, match", [
    (["bogus"], {}, r"emit holds unknown artifact kind\(s\) \['bogus'\]"),
    (["csv", "pgm"], {}, r"a sweep manifest emits \['csv'\], got \['csv', 'pgm'\]"),
    ([], {}, "emit must request at least one of csv, pgm, json$"),
    (["csv"], {"typo_key": 1, "lable": "x"}, r"unknown key\(s\) \['lable', 'typo_key'\]"),
])
def test_a_sweep_manifest_emits_only_its_csv(emit, extra, match, tmp_path):
    doc = RunManifest.of(small_config(), ("csv",), {}, lf_values=(1.0, 2.0)).to_dict()
    doc.update(emit=emit, **extra)
    with pytest.raises(ValueError, match=match):
        RunManifest.from_dict(doc)
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=match):
        replay(path, tmp_path / "out")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_every_presets_manifest_loads(name):
    # the emit that `iplsim preset <name>` records: every kind for a run, csv for a sweep
    lf_values = PRESETS[name].sweep_lf_values
    emit = EMIT_KINDS if lf_values is None else ("csv",)
    manifest = RunManifest.of(PRESETS[name].config, emit, {}, lf_values=lf_values)
    assert RunManifest.from_dict(json.loads(json.dumps(manifest.to_dict()))) == manifest


@pytest.mark.parametrize("key, value, match", [
    ("nb", True, "^n_b must be an integer, got True$"),
    ("seed", np.True_, "^seed must be an integer, got np.True_$"),
    ("eps", False, "^eps must be a number, got False$"),
    ("tau", np.False_, "^tau must be a number, got np.False_$"),
])
def test_configure_refuses_a_bool_as_a_number(key, value, match):
    with pytest.raises(ValueError, match=match):
        configure(DEFAULT_CONFIG, {key: value})


@pytest.mark.parametrize("lf", ["-1", "0"])
def test_configure_refuses_an_lf_that_is_not_positive(lf):
    with pytest.raises(ValueError, match="lf must be positive"):
        configure(DEFAULT_CONFIG, {"lf": lf})


@pytest.mark.parametrize("key", ["kind", "tool", "params", "profile", "thresholds",
                                 "map_selection", "emit", "checksums"])
def test_a_manifest_missing_a_required_key_is_refused_by_name(key, tmp_path):
    doc = RunManifest.of(small_config(), ("csv",), {}).to_dict()
    del doc[key]
    match = ("^manifest is missing required key 'kind'$" if key == "kind" else
             rf"^manifest top level: unknown key\(s\) \[\], missing key\(s\) \['{key}'\]$")
    with pytest.raises(ValueError, match=match):
        RunManifest.from_dict(doc)
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=match):
        replay(path, tmp_path / "out")
    assert not (tmp_path / "out").exists()

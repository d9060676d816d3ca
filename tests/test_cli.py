"""Flag parsing, validation messages, exit codes, and the dispatch paths."""

import math

import pytest
from hypothesis import given, strategies as st

from iplsim._version import __version__
from iplsim.cli import UsageError, main, parse_angle, parse_args
from iplsim.eigensolver import DENSE_ORACLE_MAX_SITES, SolverError
from iplsim.experiments import RunManifest, preset_config
from iplsim.profiles import QUARTER_TURN


@pytest.fixture
def no_compute(monkeypatch):
    """Make any run or sweep that gets past validation fail the test."""
    import iplsim.cli as cli

    def forbidden(*args, **kwargs):
        raise AssertionError("computation started")

    for name in ("execute", "run_sweep", "oracle_check"):
        monkeypatch.setattr(cli, name, forbidden)


class TestParseAngle:
    @pytest.mark.parametrize("text,expected", [
        ("0.785", 0.785),
        ("pi", math.pi),
        ("pi/4", math.pi / 4),
        ("3*pi/8", 3 * math.pi / 8),
        ("3pi/8", 3 * math.pi / 8),       # implicit multiplication
        (" pi / 2 ", math.pi / 2),        # whitespace tolerated
        ("1e-1", 0.1),
        ("(pi+pi)/4", math.pi / 2),
    ])
    def test_accepted(self, text, expected):
        assert parse_angle(text) == pytest.approx(expected)

    @pytest.mark.parametrize("text", [
        "", "  ", "pie/4", "pi;4", "import os", "__import__('os')",
        "pi/0", "()", "pi**", "x+1", "2**3", "9**9**9", "1e999", "True", "1j",
        "abs(-1)", "[pi]", "0x10",
    ])
    def test_rejected(self, text):
        with pytest.raises(UsageError):
            parse_angle(text)

    def test_power_tower_is_refused_unevaluated(self, tmp_path):
        # evaluating 9**9**9 would not finish; refusing it must be immediate
        rc = main(["run", "--cells", "8", "--phi-start", "9**9**9", "--phi-end", "1",
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        assert not (tmp_path / "out").exists()

    @given(st.integers(min_value=-64, max_value=64), st.integers(min_value=1, max_value=64))
    def test_pi_fractions_round_trip(self, k, m):
        assert parse_angle(f"{k}*pi/{m}") == k * math.pi / m
        assert parse_angle(f"{k}pi/{m}") == k * math.pi / m


class TestRunParsing:
    def test_minimal_defaults(self):
        cmd = parse_args(["run", "--cells", "8", "--out", "x"])
        cfg = cmd.flags["config"]
        assert cfg.profile.kind == "linear"
        assert cfg.profile.cells == 8
        assert cfg.profile.lf == 1.0
        mid = (cfg.profile.phi_start + cfg.profile.phi_end) / 2
        assert mid == pytest.approx(QUARTER_TURN)
        assert cfg.params.eps == 0.2
        assert cfg.thresholds.tau == 3e-5

    def test_sites_flag(self):
        cmd = parse_args(["run", "--sites", "16", "--out", "x"])
        assert cmd.flags["config"].profile.cells == 8

    def test_sites_and_cells_conflict(self):
        with pytest.raises(UsageError):
            parse_args(["run", "--sites", "16", "--cells", "8", "--out", "x"])

    @pytest.mark.parametrize("argv,fragment", [
        (["run", "--out", "x"], "sites or --cells"),
        (["run", "--sites", "15", "--out", "x"], "even"),
        (["run", "--sites", "2", "--out", "x"], "at least 4"),
        (["run", "--cells", "1", "--out", "x"], "at least 2"),
        (["run", "--cells", "8"], "--out"),
        (["sweep", "--sites", "0", "--out", "x"], "at least 4"),
        (["sweep", "--cells", "0", "--out", "x"], "at least 2"),
    ])
    def test_size_and_out_validation(self, argv, fragment):
        with pytest.raises(UsageError, match=fragment):
            parse_args(argv)

    def test_explicit_phi_pair(self):
        cmd = parse_args(["run", "--cells", "8", "--phi-start", "pi/8",
                          "--phi-end", "pi/4", "--out", "x"])
        prof = cmd.flags["config"].profile
        assert prof.phi_start == pytest.approx(math.pi / 8)
        assert prof.phi_end == pytest.approx(math.pi / 4)
        assert prof.lf is None

    def test_center_and_lf(self):
        cmd = parse_args(["run", "--cells", "8", "--center", "pi/8", "--lf", "2",
                          "--out", "x"])
        prof = cmd.flags["config"].profile
        assert (prof.phi_start + prof.phi_end) / 2 == pytest.approx(math.pi / 8)
        assert prof.phi_end - prof.phi_start == pytest.approx(QUARTER_TURN / 2)

    @pytest.mark.parametrize("argv,fragment", [
        (["run", "--cells", "8", "--phi-start", "0.1", "--phi-end", "0.7",
          "--lf", "2", "--out", "x"], "conflict"),
        (["run", "--cells", "8", "--phi-start", "0.1", "--out", "x"], "together"),
        (["run", "--cells", "8", "--phi-start", "0.1", "--phi-end", "0.7",
          "--center", "pi/4", "--out", "x"], "conflicts"),
        (["run", "--cells", "8", "--lf", "-1", "--out", "x"], "positive"),
        (["run", "--cells", "8", "--profile", "revolutions", "--out", "x"], "phi-start"),
        (["run", "--cells", "8", "--profile", "revolutions", "--phi-start", "pi/8",
          "--phi-end", "3pi/8", "--lf", "2", "--out", "x"], "linear profiles only"),
        (["run", "--cells", "8", "--profile", "random-phase", "--phi-start", "pi/8",
          "--phi-end", "3pi/8", "--out", "x"], "seed"),
        (["run", "--cells", "8", "--profile", "random-onsite", "--seed", "1",
          "--center", "pi/4", "--out", "x"], "no phases"),
        (["run", "--cells", "8", "--profile", "random-onsite", "--out", "x"], "seed"),
        (["run", "--cells", "8", "--profile", "random-phase", "--seed", "1", "--phi-start",
          "pi/8", "--phi-end", "3pi/8", "--center", "pi/4", "--out", "x"], "linear profiles only"),
        (["run", "--cells", "8", "--profile", "random-phase", "--seed", "1", "--phi-start",
          "3pi/8", "--phi-end", "pi/8", "--out", "x"], "not above"),
        (["run", "--cells", "8", "--profile", "revolutions", "--revolutions", "0",
          "--phi-start", "pi/8", "--phi-end", "3pi/8", "--out", "x"], "revolutions >= 1"),
    ])
    def test_profile_flag_conflicts(self, argv, fragment):
        with pytest.raises(UsageError, match=fragment):
            parse_args(argv)

    def test_revolutions_default_one(self):
        cmd = parse_args(["run", "--cells", "8", "--profile", "revolutions",
                          "--phi-start", "pi/8", "--phi-end", "3pi/8", "--out", "x"])
        assert cmd.flags["config"].profile.revolutions == 1

    def test_bad_revolutions_rejected(self):
        with pytest.raises(ValueError, match="revolutions"):
            parse_args(["run", "--cells", "8", "--profile", "revolutions",
                        "--revolutions", "-2", "--phi-start", "pi/8",
                        "--phi-end", "3pi/8", "--out", "x"])


class TestSweepParsing:
    def test_defaults(self):
        cmd = parse_args(["sweep", "--out", "x"])
        assert cmd.flags["config"].profile.cells == 501
        lf = cmd.flags["lf_values"]
        assert len(lf) == 25
        assert lf[0] == pytest.approx(0.5)
        assert lf[-1] == pytest.approx(100.0)

    def test_grid_flags(self):
        cmd = parse_args(["sweep", "--cells", "8", "--points", "3",
                          "--lf-min", "1", "--lf-max", "4", "--out", "x"])
        assert cmd.flags["lf_values"] == pytest.approx([1.0, 2.0, 4.0])

    @pytest.mark.parametrize("argv", [
        ["sweep", "--phi-start", "0.1", "--phi-end", "0.7", "--out", "x"],
        ["sweep", "--points", "1", "--out", "x"],
        ["sweep", "--lf-min", "0", "--out", "x"],
        ["sweep", "--lf-min", "5", "--lf-max", "2", "--out", "x"],
    ])
    def test_rejected(self, argv):
        with pytest.raises(UsageError):
            parse_args(argv)


class TestPresetParsing:
    def test_set_values_typed(self):
        cmd = parse_args(["preset", "fig1", "--set", "eps=0.3", "--set", "sites=32",
                          "--set", "phi-start=pi/8", "--out", "x"])
        ov = cmd.flags["overrides"]
        assert ov == {"eps": 0.3, "sites": 32, "phi_start": pytest.approx(math.pi / 8)}
        assert isinstance(ov["sites"], int)

    def test_set_map_selection_stays_string(self):
        cmd = parse_args(["preset", "fig1", "--set", "map-selection=lowest:4", "--out", "x"])
        assert cmd.flags["overrides"]["map_selection"] == "lowest:4"

    @pytest.mark.parametrize("pair", ["eps", "=0.3", "eps=abc"])
    def test_bad_set_pairs(self, pair):
        with pytest.raises(UsageError):
            parse_args(["preset", "fig1", "--set", pair, "--out", "x"])


class TestOracleParsing:
    def test_bounds_accepted(self):
        for sites in ("4", str(DENSE_ORACLE_MAX_SITES)):
            cmd = parse_args(["oracle-check", "--instances", "1", "--max-sites", sites])
            assert cmd.flags["max_sites"] == int(sites)

    @pytest.mark.parametrize("argv,fragment", [
        (["oracle-check", "--instances", "0"], "instances"),
        (["oracle-check", "--instances", "-3"], "instances"),
        (["oracle-check", "--max-sites", "2"], "max-sites"),
        (["oracle-check", "--max-sites", "3"], "max-sites"),
        (["oracle-check", "--max-sites", str(DENSE_ORACLE_MAX_SITES + 1)], "max-sites"),
        (["oracle-check", "--max-sites", "1000"], "max-sites"),
    ])
    def test_rejected_before_compute(self, argv, fragment, no_compute, capsys):
        with pytest.raises(UsageError, match=fragment):
            parse_args(argv)
        assert main(argv) == 2
        assert fragment in capsys.readouterr().err


class TestRefusedBeforeCompute:
    @pytest.mark.parametrize("argv", [
        ["run", "--sites", "2000000"],
        ["run", "--cells", "10001"],
        ["sweep", "--sites", "2000000"],
        ["preset", "fig1", "--set", "sites=2000000"],
        ["preset", "fig4_inset_sweep", "--set", "cells=10001"],
    ])
    def test_size_guard(self, argv, tmp_path, no_compute, capsys):
        assert main(argv + ["--out", str(tmp_path / "out")]) == 2
        assert "8*N^2" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("extra", [
        ["--emit", "pgm"],
        ["--emit", "csv", "--emit", "json"],
        ["--map", "lowest:3"],
        ["--set", "map-selection=full"],
    ])
    def test_sweep_preset_refuses_run_only_flags(self, extra, tmp_path, no_compute):
        argv = ["preset", "fig4_inset_sweep", "--set", "cells=10", *extra,
                "--out", str(tmp_path / "out")]
        assert main(argv) == 2
        assert not (tmp_path / "out").exists()

    def test_sweep_preset_accepts_csv(self):
        cmd = parse_args(["preset", "fig4_inset_sweep", "--emit", "csv", "--out", "x"])
        assert len(cmd.flags["lf_values"]) == 25

    def test_inverted_revolutions_refused_on_every_route(self, tmp_path, no_compute):
        assert main(["run", "--cells", "8", "--profile", "revolutions", "--phi-start", "1",
                     "--phi-end", "0.5", "--out", str(tmp_path)]) == 2
        assert main(["preset", "fig9_10", "--set", "phi-start=1", "--set", "phi-end=0.5",
                     "--out", str(tmp_path)]) == 2
        with pytest.raises(ValueError, match="below"):
            preset_config("fig9_10", {"phi_start": 1.0, "phi_end": 0.5})
        doc = RunManifest.of(preset_config("fig9_10"), "run", ("csv",), {}).to_dict()
        doc["profile"].update(phi_start=1.0, phi_end=0.5)
        with pytest.raises(ValueError, match="below"):
            RunManifest.from_dict(doc).config()

    @pytest.mark.parametrize("preset,field,value,match", [
        ("fig1", "seed", 5, "no seed"),
        ("fig1", "revolutions", 3, "no revolutions"),
        ("fig9_10", "seed", 5, "no seed"),
        ("fig6", "revolutions", 2, "no revolutions"),
    ])
    def test_field_foreign_to_the_kind_refused_on_every_route(self, preset, field, value,
                                                              match, tmp_path, no_compute):
        assert main(["preset", preset, "--set", f"{field}={value}",
                     "--out", str(tmp_path / "out")]) == 2
        with pytest.raises(ValueError, match=match):
            preset_config(preset, {field: value})
        doc = RunManifest.of(preset_config(preset), "run", ("csv",), {}).to_dict()
        doc["profile"][field] = value
        with pytest.raises(ValueError, match=match):
            RunManifest.from_dict(doc).config()
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [
        ["--seed", "5"],
        ["--revolutions", "3"],
        ["--seed", "5", "--revolutions", "3"],
        ["--profile", "revolutions", "--phi-start", "0.3", "--phi-end", "1", "--seed", "5"],
        ["--profile", "random-phase", "--phi-start", "0.3", "--phi-end", "1", "--seed", "5",
         "--revolutions", "1"],
        ["--profile", "random-onsite", "--seed", "5", "--revolutions", "2"],
    ])
    def test_run_flag_foreign_to_the_kind_exits_2(self, argv, tmp_path, no_compute):
        assert main(["run", "--cells", "8", *argv, "--out", str(tmp_path / "out")]) == 2
        assert not (tmp_path / "out").exists()

    def test_revolutions_default_to_one(self):
        cmd = parse_args(["run", "--cells", "8", "--profile", "revolutions", "--phi-start",
                          "0.3", "--phi-end", "1", "--out", "x"])
        assert cmd.flags["config"].profile.revolutions == 1


class TestMainExitCodes:
    def test_run_success(self, tmp_path, capsys):
        rc = main(["run", "--cells", "8", "--out", str(tmp_path)])
        assert rc == 0
        assert "manifest.json" in capsys.readouterr().out
        for name in ("spectrum.csv", "states.csv", "map.pgm", "summary.json",
                     "manifest.json"):
            assert (tmp_path / name).exists()

    def test_run_emit_subset(self, tmp_path):
        rc = main(["run", "--cells", "8", "--emit", "csv", "--emit", "json",
                   "--out", str(tmp_path)])
        assert rc == 0
        assert not (tmp_path / "map.pgm").exists()
        assert (tmp_path / "states.csv").exists()

    def test_sweep_success(self, tmp_path, capsys):
        rc = main(["sweep", "--cells", "8", "--points", "3", "--lf-min", "0.5",
                   "--lf-max", "2", "--out", str(tmp_path)])
        assert rc == 0
        assert "3 points" in capsys.readouterr().out
        assert (tmp_path / "sweep.csv").exists()

    def test_preset_success(self, tmp_path, capsys):
        rc = main(["preset", "fig2_3", "--set", "sites=20", "--out", str(tmp_path)])
        assert rc == 0
        assert "preset fig2_3" in capsys.readouterr().out
        assert (tmp_path / "map.pgm").exists()

    def test_preset_map_flag_overrides(self, tmp_path):
        rc = main(["preset", "fig5", "--set", "sites=20", "--map", "lowest:3",
                   "--out", str(tmp_path)])
        assert rc == 0
        header = (tmp_path / "map.pgm").read_bytes().split(b"\n", 3)
        assert header[1] == b"20 3"  # 3 selected rows over 20 sites

    def test_oracle_check_success(self, capsys):
        rc = main(["oracle-check", "--instances", "2", "--max-sites", "16"])
        assert rc == 0
        assert "2 instances agree" in capsys.readouterr().out

    def test_list_presets(self, capsys):
        rc = main(["list-presets"])
        assert rc == 0
        out = capsys.readouterr().out
        for name in ("fig1", "fig2_3", "fig4", "fig5", "fig6", "fig7_8",
                     "fig9_10", "fig10", "fig11_13", "fig13"):
            assert name in out
        assert "(sweep)" in out      # fig4_inset_sweep is flagged
        assert "1002 sites" in out   # fig1

    def test_usage_errors_exit_2(self, tmp_path, capsys):
        assert main(["run", "--cells", "8"]) == 2
        assert main(["preset", "fig99", "--out", str(tmp_path)]) == 2
        assert main(["preset", "fig1", "--set", "bogus=1", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "iplsim:" in err

    def test_no_arguments_exit_2(self):
        assert main([]) == 2

    def test_late_validation_exit_2(self, tmp_path):
        # a map selection that only fails once the band count is known
        assert main(["run", "--cells", "8", "--map", "band:7",
                     "--out", str(tmp_path)]) == 2
        # a threshold that only fails when classification runs
        assert main(["run", "--cells", "8", "--tau", "-1",
                     "--out", str(tmp_path)]) == 2

    def test_solver_failure_exit_3(self, tmp_path, capsys, monkeypatch):
        import iplsim.cli as cli

        def explode(*args, **kwargs):
            raise SolverError("certificate violated")

        monkeypatch.setattr(cli, "execute", explode)
        rc = main(["run", "--cells", "8", "--out", str(tmp_path)])
        assert rc == 3
        assert "solver failure" in capsys.readouterr().err

    def test_io_failure_exit_4(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        rc = main(["run", "--cells", "8", "--out", str(blocker / "sub")])
        assert rc == 4

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert f"iplsim {__version__}" in capsys.readouterr().out

"""Flag parsing, validation messages, exit codes, and the dispatch paths."""

import json
import math
from dataclasses import asdict, replace

import pytest
from hypothesis import given, strategies as st

from iplsim._version import __version__
from iplsim.cli import UsageError, main, parse_angle, parse_args
from iplsim.eigensolver import DENSE_ORACLE_MAX_SITES, SolverError
from iplsim.analysis import AnalysisThresholds
from iplsim.experiments import (DEFAULT_CONFIG, PRESETS, RunConfig, RunManifest,
                                configure, focusing_grid, oracle_check, preset_config, replay)
from iplsim.hamiltonian import CellParams
from iplsim.profiles import QUARTER_TURN, ProfileSpec, read_integer

PI = math.pi


@pytest.fixture
def no_compute(monkeypatch):
    """Make any run, sweep or oracle instance that gets past validation fail the test."""
    import iplsim.cli as cli
    import iplsim.experiments as experiments

    def forbidden(*args, **kwargs):
        raise AssertionError("computation started")

    for name in ("execute", "run_sweep"):
        monkeypatch.setattr(cli, name, forbidden)
    # oracle_check refuses its bounds itself, before it draws its first instance
    monkeypatch.setattr(experiments, "random_instance", forbidden)


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
        (["run", "--out", "x"], "one of the arguments --sites --cells is required"),
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
        (["run", "--cells", "8", "--profile", "revolutions", "--out", "x"],
         "need phi_start and phi_end"),
        (["run", "--cells", "8", "--profile", "revolutions", "--phi-start", "pi/8",
          "--phi-end", "3pi/8", "--lf", "2", "--out", "x"], "linear profiles only"),
        (["run", "--cells", "8", "--profile", "random-phase", "--phi-start", "pi/8",
          "--phi-end", "3pi/8", "--out", "x"], "seed"),
        (["run", "--cells", "8", "--profile", "random-onsite", "--seed", "1",
          "--center", "pi/4", "--out", "x"], "linear profiles only"),
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

    def test_a_one_point_grid_exits_2_and_writes_nothing(self, tmp_path, no_compute, capsys):
        out = tmp_path / "out"
        assert main(["sweep", "--cells", "8", "--points", "1", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "iplsim: a focusing grid needs points >= 2 and 0 < lf_min < lf_max < inf, "
            "got points=1, lf_min=0.5, lf_max=100.0\n")
        assert not out.exists()


SETTING_FLAGS = {
    "run": ("--d1", "--d2", "--eps", "--sites", "--cells", "--center", "--revolutions",
            "--seed", "--phi-start", "--phi-end", "--lf", "--tau", "--delta-rel", "--gamma",
            "--nb"),
    "sweep": ("--d1", "--d2", "--eps", "--sites", "--cells", "--center", "--tau",
              "--delta-rel", "--gamma", "--nb", "--lf-min", "--lf-max", "--points"),
}


class TestNegativeValues:
    """A value in scientific notation that starts with "-" is a value, not a flag."""

    @pytest.mark.parametrize("subcommand, flag", [
        (subcommand, flag) for subcommand, flags in SETTING_FLAGS.items() for flag in flags])
    @pytest.mark.parametrize("value", ["-1e-3", "-2E+1", "-1.", "-.5e1"])
    def test_every_setting_flag_takes_it(self, subcommand, flag, value):
        size = [] if flag in ("--sites", "--cells") else ["--cells", "8"]
        try:
            parse_args([subcommand, *size, flag, value, "--out", "x"])
        except UsageError as exc:  # refused by the settings' own rules, if at all
            assert "expected one argument" not in str(exc)

    @pytest.mark.parametrize("flag", ["--d1", "--d2", "--eps"])
    def test_it_reaches_the_config(self, flag):
        # CellParams orders d1 <= d2, so -1e-3 given as d2 becomes d1
        cmd = parse_args(["run", "--cells", "8", flag, "-1e-3", "--out", "x"])
        assert -1e-3 in asdict(cmd.flags["config"].params).values()

    def test_a_negative_start_angle(self):
        cmd = parse_args(["run", "--cells", "8", "--phi-start", "-1e-3", "--phi-end", "pi/4",
                          "--out", "x"])
        assert cmd.flags["config"].profile.phi_start == -1e-3

    def test_a_word_that_is_no_number_is_still_a_flag(self):
        with pytest.raises(UsageError, match="expected one argument"):
            parse_args(["run", "--cells", "8", "--d1", "--out", "x"])


class TestPresetParsing:
    def test_set_values_typed(self):
        cmd = parse_args(["preset", "fig1", "--set", "eps=0.3", "--set", "sites=32",
                          "--set", "phi-start=pi/8", "--out", "x"])
        config = cmd.flags["config"]
        assert config.params.eps == 0.3
        assert config.profile == replace(PRESETS["fig1"].config.profile, cells=16, lf=None,
                                         phi_start=math.pi / 8)
        assert type(config.profile.cells) is int
        assert type(config.params.eps) is float
        # an integer setting is read, not truncated: 2.5 is refused, never 2
        with pytest.raises(UsageError, match="n_b must be an integer, got '2.5'"):
            parse_args(["preset", "fig1", "--set", "nb=2.5", "--out", "x"])

    def test_set_map_selection_stays_string(self):
        cmd = parse_args(["preset", "fig1", "--set", "map-selection=lowest:4", "--out", "x"])
        assert cmd.flags["overrides"]["map_selection"] == "lowest:4"

    @pytest.mark.parametrize("pair", ["eps", "=0.3", "eps=abc"])
    def test_bad_set_pairs(self, pair):
        with pytest.raises(UsageError):
            parse_args(["preset", "fig1", "--set", pair, "--out", "x"])

    def test_set_overrides_do_not_carry_over(self):
        # the parser is built once per process; --set appends to a copy of its default
        first = parse_args(["preset", "fig1", "--set", "eps=0.3", "--emit", "csv", "--out", "x"])
        second = parse_args(["preset", "fig1", "--out", "y"])
        assert first.flags["config"] == preset_config("fig1", {"eps": 0.3})
        assert first.flags["config"].params.eps == 0.3
        with pytest.raises(UsageError, match="n_b must be an integer"):
            parse_args(["preset", "fig1", "--set", "nb=2.5", "--out", "z"])
        assert second.flags["overrides"] == {}
        assert second.flags["emit"] is None
        assert second.flags["config"] == preset_config("fig1")

    def test_usage_errors_raise_on_the_shared_parser(self):
        for _ in range(2):
            with pytest.raises(UsageError):
                parse_args(["preset", "fig1", "--bogus", "--out", "x"])
            with pytest.raises(UsageError):
                parse_args(["run", "--sites", "16", "--cells", "8", "--out", "x"])
            assert parse_args(["preset", "fig1", "--out", "x"]).flags["overrides"] == {}


def _default(**profile) -> RunConfig:
    return replace(DEFAULT_CONFIG, profile=ProfileSpec(**profile))


def _linear(center, lf, cells, base=DEFAULT_CONFIG, **config) -> RunConfig:
    return replace(base, profile=ProfileSpec.linear(center, lf, cells), **config)


class TestOneSettingsPath:
    """Run flags, sweep flags and preset overrides are the same settings."""

    @pytest.mark.parametrize("argv,expected", [
        (["run", "--cells", "8"], _linear(QUARTER_TURN, 1.0, 8)),
        (["run", "--sites", "16", "--d1", "3", "--d2", "1", "--eps", "0.3", "--tau", "1e-4",
          "--gamma", "15", "--delta-rel", "0.1", "--nb", "3", "--map", "full"],
         RunConfig(params=CellParams(1.0, 3.0, 0.3),
                   profile=ProfileSpec.linear(QUARTER_TURN, 1.0, 8),
                   thresholds=AnalysisThresholds(n_b=3, tau=1e-4, gamma=15.0, delta_rel=0.1),
                   map_selection="full")),
        (["run", "--cells", "8", "--center", "pi/8", "--lf", "2"], _linear(PI / 8, 2.0, 8)),
        (["run", "--cells", "8", "--center", "0.3"], _linear(0.3, 1.0, 8)),
        (["run", "--cells", "8", "--lf", "3"], _linear(QUARTER_TURN, 3.0, 8)),
        (["run", "--cells", "8", "--phi-start", "0.1", "--phi-end", "0.7"],
         _default(kind="linear", cells=8, phi_start=0.1, phi_end=0.7)),
        (["run", "--cells", "8", "--profile", "linear"], _linear(QUARTER_TURN, 1.0, 8)),
        (["run", "--cells", "8", "--profile", "revolutions", "--phi-start", "pi/8",
          "--phi-end", "3pi/8"],
         _default(kind="revolutions", cells=8, phi_start=PI / 8, phi_end=3 * PI / 8,
                  revolutions=1)),
        (["run", "--cells", "8", "--profile", "random-phase", "--seed", "4", "--phi-start",
          "pi/8", "--phi-end", "3pi/8"],
         _default(kind="random_phase", cells=8, phi_start=PI / 8, phi_end=3 * PI / 8,
                  seed=4)),
        (["run", "--sites", "20", "--profile", "random-onsite", "--seed", "4"],
         _default(kind="random_onsite", cells=10, seed=4)),
        (["sweep"], _linear(QUARTER_TURN, 0.5, 501, label="sweep")),
        (["sweep", "--cells", "8", "--center", "0.3", "--lf-min", "2", "--lf-max", "5",
          "--eps", "0.3", "--nb", "3"],
         replace(_linear(0.3, 2.0, 8, label="sweep"), params=CellParams(1.0, 2.0, 0.3),
                 thresholds=AnalysisThresholds(n_b=3))),
        (["preset", "fig1", "--set", "lf=2", "--set", "sites=40"],
         _linear(QUARTER_TURN, 2.0, 20, base=PRESETS["fig1"].config)),
        (["preset", "fig7_8", "--set", "phi-start=0.3", "--set", "tau=1e-4"],
         replace(PRESETS["fig7_8"].config,
                 profile=ProfileSpec("linear", 151, phi_start=0.3, phi_end=PI / 4),
                 thresholds=AnalysisThresholds(tau=1e-4))),
        (["preset", "fig6", "--set", "seed=9", "--map", "lowest:4"],
         replace(PRESETS["fig6"].config,
                 profile=replace(PRESETS["fig6"].config.profile, seed=9),
                 map_selection="lowest:4")),
    ])
    def test_inputs_build_the_expected_config(self, argv, expected):
        assert parse_args([*argv, "--out", "x"]).flags["config"] == expected

    @pytest.mark.parametrize("sets,overrides,match", [
        (["sites=40", "cells=20"], {"sites": 40, "cells": 20}, "sites and cells"),
        (["lf=2", "phi-start=0.3"], {"lf": 2.0, "phi_start": 0.3}, "conflicts"),
    ])
    def test_override_pairs_are_refused_not_dropped(self, sets, overrides, match, tmp_path,
                                                    no_compute, capsys):
        argv = ["preset", "fig1", *(arg for pair in sets for arg in ("--set", pair))]
        assert main([*argv, "--out", str(tmp_path / "out")]) == 2
        assert match in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        with pytest.raises(ValueError, match=match):
            preset_config("fig1", overrides)

    @pytest.mark.parametrize("key,value", [("center", 0.5), ("profile", "linear"),
                                           ("center", "pi/4")])
    def test_preset_key_set_has_no_center_or_profile(self, key, value, tmp_path, no_compute,
                                                     capsys):
        with pytest.raises(ValueError, match="unknown override"):
            preset_config("fig1", {key: value})
        # the key is refused before its value is typed, whatever the value
        assert main(["preset", "fig1", "--set", f"{key}={value}",
                     "--out", str(tmp_path / "out")]) == 2
        assert f"unknown override(s): ['{key}']" in capsys.readouterr().err

    def test_every_unknown_key_is_named(self):
        with pytest.raises(UsageError, match=r"\['bogus', 'center'\]"):
            parse_args(["preset", "fig1", "--set", "center=pi/4", "--set", "eps=0.3",
                        "--set", "bogus=x", "--out", "x"])


class TestOracleParsing:
    def test_bounds_accepted(self):
        for sites in ("4", str(DENSE_ORACLE_MAX_SITES)):
            cmd = parse_args(["oracle-check", "--instances", "1", "--max-sites", sites])
            # the flag holds its text, which oracle_check reads
            assert cmd.flags["max_sites"] == sites
            assert read_integer("max_sites", cmd.flags["max_sites"]) == int(sites)

    @pytest.mark.parametrize("argv,fragment", [
        (["oracle-check", "--instances", "0"], "instances"),
        (["oracle-check", "--instances", "-3"], "instances"),
        (["oracle-check", "--max-sites", "2"], "max-sites"),
        (["oracle-check", "--max-sites", "3"], "max-sites"),
        (["oracle-check", "--max-sites", str(DENSE_ORACLE_MAX_SITES + 1)], "max-sites"),
        (["oracle-check", "--max-sites", "1000"], "max-sites"),
    ])
    def test_rejected_before_compute(self, argv, fragment, no_compute, capsys):
        # the bound is oracle_check's own, and the command line gives its message
        with pytest.raises(ValueError) as refusal:
            oracle_check(**{fragment.replace("-", "_"): int(argv[-1])})
        assert fragment.replace("-", "_") in str(refusal.value)
        assert main(argv) == 2
        assert capsys.readouterr().err == f"iplsim: {refusal.value}\n"


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
        assert "exceed the limit of 20000" in capsys.readouterr().err
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

    @pytest.mark.parametrize("argv, message", [
        (["run", "--cells", "10", "--phi-start", "-1e308", "--phi-end", "1e308"],
         "phi_end - phi_start overflows: phi_start=-1e+308, phi_end=1e+308"),
        (["sweep", "--cells", "10", "--lf-min", "1e-320", "--points", "3"],
         "lf=1e-320 sets a width (pi/4)/lf that overflows"),
    ], ids=["ends", "lf"])
    def test_a_phase_width_that_overflows_is_refused_by_its_owner(self, argv, message,
                                                                  tmp_path, no_compute, capsys):
        assert main(argv + ["--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"iplsim: {message}\n"
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
        doc = RunManifest.of(preset_config("fig9_10"), ("csv",), {}).to_dict()
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
        doc = RunManifest.of(preset_config(preset), ("csv",), {}).to_dict()
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

    @pytest.mark.parametrize("flags,match", [
        (["--gamma", "0"], "gamma must be positive"),
        (["--gamma", "-1"], "gamma must be positive"),
        (["--gamma", "inf"], "gamma must be finite"),
        (["--tau", "-1"], "tau must lie in"),
        (["--tau", "1"], "tau must lie in"),
        (["--tau", "nan"], "tau must be finite"),
        (["--nb", "0"], "n_b must be at least 1"),
        (["--nb", "9"], "exceeds"),
        (["--delta-rel", "0"], "delta_rel must be positive"),
        (["--map", "bogus"], "unknown map selection"),
        (["--map", "band:x"], "unknown map selection"),
        (["--map", "band:-1"], "I >= 0"),
        (["--map", "lowest:0"], "K >= 1"),
    ])
    def test_bad_threshold_or_map_refused_by_run(self, flags, match, tmp_path, no_compute,
                                                 capsys):
        assert main(["run", "--cells", "8", *flags, "--out", str(tmp_path / "out")]) == 2
        assert match in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("pair,match", [
        ("gamma=0", "gamma must be positive"),
        ("tau=-1", "tau must lie in"),
        ("nb=0", "n_b must be at least 1"),
        ("nb=152", "exceeds"),
        ("delta-rel=0", "delta_rel must be positive"),
        ("amplitude-floor=-1", "amplitude_floor must not be negative"),
        ("map-selection=bogus", "unknown map selection"),
        ("map-selection=lowest:0", "K >= 1"),
    ])
    def test_bad_threshold_or_map_refused_by_preset(self, pair, match, tmp_path, no_compute,
                                                    capsys):
        assert main(["preset", "fig4", "--set", pair, "--out", str(tmp_path / "out")]) == 2
        assert match in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("section,key,value,match", [
        ("thresholds", "gamma", 0.0, "gamma must be positive"),
        ("thresholds", "tau", -1.0, "tau must lie in"),
        ("thresholds", "n_b", 0, "n_b must be at least 1"),
        ("thresholds", "n_b", 152, "exceeds"),
        ("thresholds", "delta_rel", 0.0, "delta_rel must be positive"),
        ("thresholds", "amplitude_floor", -1.0, "amplitude_floor must not be negative"),
        (None, "map_selection", "bogus", "unknown map selection"),
        (None, "map_selection", "lowest:0", "K >= 1"),
    ])
    def test_bad_threshold_or_map_refused_by_replay(self, section, key, value, match,
                                                    tmp_path):
        doc = RunManifest.of(preset_config("fig4"), ("csv",), {}).to_dict()
        (doc[section] if section else doc)[key] = value
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=match):
            replay(path, tmp_path / "out")
        assert not (tmp_path / "out").exists()


_REV = ["--cells", "8", "--profile", "revolutions", "--phi-start", "pi/8", "--phi-end", "3pi/8"]
_RANDOM = ["--cells", "8", "--profile", "random-phase", "--phi-start", "pi/8",
           "--phi-end", "3pi/8"]

# One value per row that was once truncated, let through or caught only after
# compute. Columns: the key and its text, the value as a number (library and
# manifest routes), the run flags (None: no run flag), a preset that takes the
# key (None: not a preset key), its manifest field (None: not recorded), and
# the refusal, which names the setting.
REFUSALS = [
    ("nb", "2.5", 2.5, ["--cells", "8", "--nb", "2.5"], "fig4", ("thresholds", "n_b"),
     "n_b must be an integer"),
    ("cells", "300.7", 300.7, ["--cells", "300.7"], "fig1", ("profile", "cells"),
     "cells must be an integer"),
    ("sites", "10.5", 10.5, ["--sites", "10.5"], "fig1", None, "sites must be an integer"),
    ("revolutions", "1.5", 1.5, [*_REV, "--revolutions", "1.5"], "fig9_10",
     ("profile", "revolutions"), "revolutions must be an integer"),
    ("seed", "7.9", 7.9, [*_RANDOM, "--seed", "7.9"], "fig6", ("profile", "seed"),
     "seed must be an integer"),
    ("seed", "-1", -1, [*_RANDOM, "--seed", "-1"], "fig6", ("profile", "seed"),
     r"seed must lie in \[0, 2\^64\)"),
    ("seed", str(2**64), 2**64, [*_RANDOM, "--seed", str(2**64)], "fig6", ("profile", "seed"),
     r"seed must lie in \[0, 2\^64\)"),
    ("lf", "nan", math.nan, ["--cells", "8", "--lf", "nan"], "fig2_3", ("profile", "lf"),
     "lf must be finite"),
    ("lf", "inf", math.inf, ["--cells", "8", "--lf", "inf"], "fig2_3", ("profile", "lf"),
     "lf must be finite"),
    ("phi_start", "1e999", math.inf, ["--cells", "8", "--phi-start", "1e999", "--phi-end", "1"],
     "fig7_8", ("profile", "phi_start"), "phi_start"),
    ("phi_end", "1e999", math.nan, ["--cells", "8", "--phi-start", "0", "--phi-end", "1e999"],
     "fig9_10", ("profile", "phi_end"), "phi_end"),
    ("center", "1e999", math.inf, ["--cells", "8", "--center", "1e999"], None, None, "center"),
]


class TestOneReaderPerSetting:
    """Every route reads a setting with the same reader and refuses before compute."""

    @pytest.mark.parametrize("key,text,number,run,preset,field,match", REFUSALS)
    def test_refused_on_every_route(self, key, text, number, run, preset, field, match,
                                    tmp_path, no_compute, capsys):
        out = tmp_path / "out"
        argvs = [["run", *run]] if run is not None else []
        if preset is not None:
            argvs.append(["preset", preset, "--set", f"{key.replace('_', '-')}={text}"])
        for argv in argvs:
            assert main([*argv, "--out", str(out)]) == 2, argv
            # the message names the setting (argparse names an angle's flag)
            assert match.split()[0] in capsys.readouterr().err.replace("-", "_")
        base = PRESETS[preset].config if preset is not None else DEFAULT_CONFIG
        with pytest.raises(ValueError, match=match):
            configure(base, {key: number})
        if preset is not None:
            with pytest.raises(ValueError, match=match):
                preset_config(preset, {key: number})
        if field is not None:
            section, name = field
            doc = RunManifest.of(PRESETS[preset].config, ("csv",), {}).to_dict()
            doc[section][name] = number
            path = tmp_path / "manifest.json"
            path.write_text(json.dumps(doc))
            with pytest.raises(ValueError, match=match):
                replay(path, out)
        assert not out.exists()

    def test_a_fraction_is_never_truncated(self):
        with pytest.raises(ValueError, match="cells must be an integer, got 12.9"):
            configure(DEFAULT_CONFIG, {"cells": 12.9})
        assert configure(DEFAULT_CONFIG, {"cells": "12"}).profile.cells == 12

    @pytest.mark.parametrize("grid", [["--lf-max", "inf"], ["--lf-min", "nan"],
                                      ["--lf-min", "nan", "--lf-max", "nan"]])
    def test_sweep_grid_must_be_finite(self, grid, tmp_path, no_compute, capsys):
        argv = ["sweep", "--cells", "8", *grid, "--out", str(tmp_path / "out")]
        assert main(argv) == 2
        # the owner gets the text the command line passes, and quotes it
        ends = {"--lf-min": 0.5, "--lf-max": 100.0, **dict(zip(grid[::2], grid[1::2]))}
        with pytest.raises(ValueError) as refusal:
            focusing_grid(ends["--lf-min"], ends["--lf-max"], 25)
        assert capsys.readouterr().err == f"iplsim: {refusal.value}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv, owner, message", [
        (["sweep", "--cells", "8", "--points", "2.5"],
         lambda: focusing_grid(0.5, 100.0, "2.5"), "points must be an integer, got '2.5'"),
        (["sweep", "--cells", "8", "--lf-min", "abc"],
         lambda: focusing_grid("abc", 100.0, 25), "lf_min must be a number, got 'abc'"),
        (["oracle-check", "--instances", "1.5"],
         lambda: oracle_check(instances="1.5"), "instances must be an integer, got '1.5'"),
        (["oracle-check", "--max-sites", "1e2"],
         lambda: oracle_check(max_sites="1e2"), "max_sites must be an integer, got '1e2'"),
    ], ids=["sweep-points", "sweep-lf-min", "oracle-instances", "oracle-max-sites"])
    def test_command_line_numbers_are_read_by_their_owner(self, argv, owner, message, tmp_path,
                                                          no_compute, capsys):
        with pytest.raises(ValueError) as refusal:
            owner()
        assert str(refusal.value) == message
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out)] if argv[0] == "sweep" else argv) == 2
        assert capsys.readouterr().err == f"iplsim: {message}\n"
        assert not out.exists()

    def test_sweep_refuses_cell_parameters_that_overflow(self, tmp_path, no_compute, capsys):
        argv = ["sweep", "--cells", "8", "--points", "2", "--d1=-1e308", "--d2", "1e308",
                "--out", str(tmp_path / "out")]
        assert main(argv) == 2
        assert "float range" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag", [["--phi-start", "0.1"], ["--phi-end", "0.7"],
                                      ["--emit", "csv"]])
    def test_sweep_defines_no_phi_or_emit_flags(self, flag, capsys):
        with pytest.raises(UsageError, match="unrecognized arguments"):
            parse_args(["sweep", *flag, "--out", "x"])


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
        # a threshold out of range exits 2 too, though it is now refused
        # before the solve (TestRefusedBeforeCompute)
        assert main(["run", "--cells", "8", "--tau", "-1",
                     "--out", str(tmp_path)]) == 2

    def test_a_refused_map_band_leaves_no_directory(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["preset", "fig1", "--set", "map_selection=band:7", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "iplsim: band 7 out of range (found 2 bands)\n"
        assert not out.exists()

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

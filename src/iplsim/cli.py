"""Command-line front end.

Subcommands: run (explicit lattice), sweep (delocalized fraction vs focusing),
preset (named reproduction), oracle-check (solver cross-validation),
list-presets. Setting flags and `--set` values reach `experiments.configure` as
text (angles parsed here), and the config types read and check each one;
`focusing_grid` checks the sweep grid and `oracle_check` its own bounds. Each
refusal exits 2 with the library's message. Exit codes: 0 success, 2 usage,
3 solver failure, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import ast
import functools
import math
import operator
import re
import sys
from dataclasses import dataclass, replace
from typing import Any

from ._version import __version__
from .eigensolver import SolverError
from .experiments import (DEFAULT_CONFIG, EMIT_KINDS, PRESETS, SETTING_KEYS, configure,
                          execute, focusing_grid, oracle_check, preset_config, run_sweep)

_ANGLE_CHARS = re.compile(r"^[0-9epi+\-*/(). ]+$")
_ANGLE_BINOPS = {ast.Add: operator.add, ast.Sub: operator.sub,
                 ast.Mult: operator.mul, ast.Div: operator.truediv}
_ANGLE_UNARY = {ast.UAdd: operator.pos, ast.USub: operator.neg}


class UsageError(ValueError):
    """Bad flags or flag combinations; maps to exit code 2."""


def _angle_value(node: ast.AST) -> float:
    # only numbers, pi, unary +/-, + - * / and parentheses; anything else
    # (powers, names, calls) is refused before it is evaluated
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        return node.value
    if isinstance(node, ast.Name) and node.id == "pi":
        return math.pi
    if isinstance(node, ast.UnaryOp) and type(node.op) in _ANGLE_UNARY:
        return _ANGLE_UNARY[type(node.op)](_angle_value(node.operand))
    if isinstance(node, ast.BinOp) and type(node.op) in _ANGLE_BINOPS:
        return _ANGLE_BINOPS[type(node.op)](_angle_value(node.left), _angle_value(node.right))
    raise ValueError("unsupported angle syntax")


def parse_angle(text: str, name: str = "angle") -> float:
    """Angles as decimals or pi expressions: '0.785', 'pi/4', '3*pi/8', '3pi/8'."""
    t = text.strip().replace(" ", "")
    if not _ANGLE_CHARS.match(t):
        raise UsageError(f"cannot parse {name} {text!r}")
    t = re.sub(r"(\d)pi", r"\1*pi", t)
    try:
        value = float(_angle_value(ast.parse(t, mode="eval").body))
    except (SyntaxError, ValueError, ZeroDivisionError, OverflowError, RecursionError):
        raise UsageError(f"cannot parse {name} {text!r}") from None
    if not math.isfinite(value):
        raise UsageError(f"{name} {text!r} is not finite")
    return value


@dataclass(frozen=True)
class CliCommand:
    subcommand: str
    flags: dict[str, Any]


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # any word that starts with "-" and a digit or ".digit" is a value,
        # such as -1e-3, as in Python 3.13's argparse; before 3.13 only -N
        # and -N.N were, and "--d1 -1e-3" failed with "expected one argument"
        self._negative_number_matcher = re.compile(r"-\.?\d")

    # argparse exits 2 on its own errors, which matches the usage exit code;
    # raise instead so parse_args stays a pure function for tests
    def error(self, message):
        raise UsageError(message)


# built once per process: parse_args reads the parser and never changes it
@functools.lru_cache(maxsize=None)
def _build_parser() -> _Parser:
    parser = _Parser(prog="iplsim", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"iplsim {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    # every lattice and threshold flag is a setting for experiments.configure,
    # which fills in what is absent from the default config; values stay text
    def add_lattice_flags(p, for_sweep=False):
        for flag in ("--d1", "--d2", "--eps"):
            p.add_argument(flag)
        size = p.add_mutually_exclusive_group(required=not for_sweep)
        size.add_argument("--sites", help="total sites (even, >= 4)")
        size.add_argument("--cells", help="cell count (= sites / 2)")
        p.add_argument("--center", type=parse_angle)
        if not for_sweep:
            p.add_argument("--profile", help="default linear",
                           choices=("linear", "revolutions", "random-phase", "random-onsite"))
            p.add_argument("--revolutions", help="revolutions profile only (default 1)")
            p.add_argument("--seed")
            p.add_argument("--phi-start", type=parse_angle)
            p.add_argument("--phi-end", type=parse_angle)
            p.add_argument("--lf")

    def add_threshold_flags(p):
        for flag in ("--tau", "--delta-rel", "--gamma", "--nb"):
            p.add_argument(flag)

    def add_output_flags(p):
        p.add_argument("--out", required=True, metavar="DIR")
        p.add_argument("--emit", action="append", choices=EMIT_KINDS,
                       help="artifact kinds; repeatable; default: all")
        p.add_argument("--map", dest="map_selection",
                       help="PGM rows: full | band:I | lowest:K (default band:0)")

    p_run = sub.add_parser("run", help="diagonalize one explicit lattice")
    add_lattice_flags(p_run)
    add_threshold_flags(p_run)
    add_output_flags(p_run)

    p_sweep = sub.add_parser("sweep", help="delocalized fraction across a focusing grid")
    add_lattice_flags(p_sweep, for_sweep=True)
    add_threshold_flags(p_sweep)
    p_sweep.add_argument("--lf-min", type=float, default=0.5)
    p_sweep.add_argument("--lf-max", type=float, default=100.0)
    p_sweep.add_argument("--points", type=int, default=25)
    p_sweep.add_argument("--out", required=True, metavar="DIR")

    p_preset = sub.add_parser("preset", help="run a named bundled design")
    p_preset.add_argument("name")
    p_preset.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                          dest="overrides", help="override one parameter; repeatable")
    add_output_flags(p_preset)

    p_oracle = sub.add_parser("oracle-check", help="cross-validate the two eigensolver routes")
    p_oracle.add_argument("--instances", type=int, default=50)
    p_oracle.add_argument("--max-sites", type=int, default=64)
    p_oracle.add_argument("--seed", type=int, default=0xA5EED)

    sub.add_parser("list-presets", help="show the bundled designs")
    return parser


def parse_args(argv) -> CliCommand:
    """Validate flags fully (combinations included) before any computation; the
    oracle-check bounds are left to `oracle_check`, which refuses them before its
    first instance."""
    flags = vars(_build_parser().parse_args(argv))
    sub = flags.pop("subcommand")
    validate = {"run": _validate_run, "sweep": _validate_sweep,
                "preset": _validate_preset}.get(sub)
    try:
        if validate is not None:
            validate(flags)
    except ValueError as exc:  # the library's own checks (ProfileSpec and others)
        raise UsageError(str(exc)) from None
    return CliCommand(subcommand=sub, flags=flags)


def _settings(flags) -> dict[str, Any]:
    """The flags given, as settings for experiments.configure."""
    settings = {key: flags[key] for key in SETTING_KEYS if flags.get(key) is not None}
    if "profile" in settings:
        settings["profile"] = settings["profile"].replace("-", "_")
    return settings


def _validate_run(flags) -> None:
    # a preset may move one end of its grid; a linear run places both or neither
    phis = sum(flags[key] is not None for key in ("phi_start", "phi_end"))
    if flags["profile"] in (None, "linear") and phis == 1:
        raise UsageError("--phi-start and --phi-end must be given together")
    flags["config"] = configure(DEFAULT_CONFIG, _settings(flags))
    flags["lf_values"] = None


def _validate_sweep(flags) -> None:
    flags["lf_values"] = focusing_grid(flags["lf_min"], flags["lf_max"], flags["points"])
    config = configure(DEFAULT_CONFIG, {**_settings(flags), "lf": flags["lf_min"]})
    flags["config"] = replace(config, label="sweep")


def _validate_preset(flags) -> None:
    flags["overrides"] = _parse_overrides(flags["overrides"])
    overrides = dict(flags["overrides"])
    if flags["map_selection"] is not None:
        overrides["map_selection"] = flags["map_selection"]
    flags["config"] = preset_config(flags["name"], overrides)
    # a preset that carries a focusing grid runs as a sweep, which writes sweep.csv only
    flags["lf_values"] = PRESETS[flags["name"]].sweep_lf_values
    if flags["lf_values"] is not None:
        if "map_selection" in overrides:
            raise UsageError(f"{flags['name']} is a sweep and writes no map")
        if set(flags["emit"] or ("csv",)) != {"csv"}:
            raise UsageError(f"{flags['name']} is a sweep and writes csv only")


def _parse_overrides(pairs: list[str]) -> dict[str, Any]:
    """--set KEY=VALUE pairs as settings: text for the config types, angles parsed."""
    overrides: dict[str, Any] = {}
    for pair in pairs:
        key, sep, raw = pair.partition("=")
        if not sep or not key:
            raise UsageError(f"--set expects KEY=VALUE, got {pair!r}")
        overrides[key.replace("-", "_")] = raw
    for key in ("phi_start", "phi_end"):
        if key in overrides:
            overrides[key] = parse_angle(overrides[key], key)
    return overrides


def _dispatch(cmd: CliCommand) -> int:
    flags = cmd.flags
    if cmd.subcommand in ("run", "sweep", "preset"):
        lead = f"preset {flags['name']}: " if cmd.subcommand == "preset" else ""
        if flags["lf_values"] is not None:
            run_sweep(flags["config"], flags["lf_values"], flags["out"])
            print(f"{lead}wrote sweep.csv ({len(flags['lf_values'])} points) "
                  f"and manifest.json to {flags['out']}")
        else:
            manifest = execute(flags["config"], flags["out"], emit=flags["emit"] or EMIT_KINDS)
            print(f"{lead}wrote {', '.join(sorted(manifest.checksums))} "
                  f"and manifest.json to {flags['out']}")
    elif cmd.subcommand == "oracle-check":
        result = oracle_check(instances=flags["instances"],
                              max_sites=flags["max_sites"], seed=flags["seed"])
        print(f"oracle-check: {result.instances} instances agree; "
              f"max |dλ| = {result.max_eigenvalue_dev:.3e}, "
              f"max residual = {result.max_residual:.3e}, "
              f"max ortho = {result.max_ortho:.3e}")
    else:
        width = max(len(n) for n in PRESETS)
        for name, preset in PRESETS.items():
            sites = 2 * preset.config.profile.cells
            tag = " (sweep)" if preset.sweep_lf_values is not None else ""
            print(f"{name:<{width}}  {sites:>5} sites  eps={preset.config.params.eps}"
                  f"  {preset.note}{tag}")
    return 0


def main(argv=None) -> int:
    try:
        cmd = parse_args(sys.argv[1:] if argv is None else argv)
        return _dispatch(cmd)
    except ValueError as exc:  # UsageError and the library's refusals of bad settings
        print(f"iplsim: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"iplsim: solver failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"iplsim: I/O failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())

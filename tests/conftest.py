"""Shared fixtures: cached eigensystems for the presets the tests lean on.

Diagonalizing a preset takes from a fraction of a second (402 sites) up to a
couple of seconds (1802 sites), so every preset is solved at most once per
session and the tests share the result. Nothing here mutates a fixture value;
analysis functions return fresh objects.
"""

from __future__ import annotations

import pytest

import iplsim as ip
from vectors import gather

_ACCEPTANCE_LINES: list[str] = []


def record_criterion(line: str) -> None:
    _ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in _ACCEPTANCE_LINES:
        terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def preset_eig():
    """Solve a preset once and memoize: preset_eig("fig1") -> (config, EigenSystem, vectors),
    the (sites x states) vectors gathered by a reader (`vectors.gather`)."""
    cache = {}

    def solve(name: str, **overrides):
        key = (name, tuple(sorted(overrides.items())))
        if key not in cache:
            config = ip.preset_config(name, overrides or None)
            cache[key] = (config, *gather(ip.build_hamiltonian(config)))
        return cache[key]

    return solve

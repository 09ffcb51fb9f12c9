"""Shared fixtures: small copies of the workloads, solved once per session.

Run with ``python3 -m pytest bench/tests`` from the repository root.
"""

import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH_DIR), str(BENCH_DIR.parent / "src")]

import mfg_inverse  # noqa: E402
from workloads import WORKLOADS, generate, reconstruct, set_up  # noqa: E402

# Sizes small enough for a test, large enough for every check to bite.
SMALL = {
    "rate-1d": dict(points=16, steps=16),
    "value-1d": dict(points=16, steps=16),
    "rate-2d": dict(points=8, steps=8),
    "direct-1d": dict(points=10, steps=10),
}


def small_workload(name):
    return replace(WORKLOADS[name], **SMALL[name])


class Solved:
    """A workload, its inputs, its data and a reconstruction."""

    def __init__(self, name):
        self.wl = small_workload(name)
        self.prob, self.inp = set_up(mfg_inverse, self.wl)
        self.data = generate(mfg_inverse, self.wl, self.prob, self.inp)
        self.result = reconstruct(mfg_inverse, self.wl, self.prob, self.data)


@pytest.fixture(scope="session")
def solved():
    cache = {}

    def get(name):
        if name not in cache:
            cache[name] = Solved(name)
        return cache[name]

    return get

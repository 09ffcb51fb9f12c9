"""The command: its output matches BENCHMARK.json, it reaches the program
only through the named API, and it fails without the program."""

import contextlib
import json
import shutil
import subprocess
import sys
from types import ModuleType

import pytest

import mfg_inverse
import run
from conftest import BENCH_DIR, small_workload
from workloads import set_up

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


@pytest.fixture
def small_rate_1d(monkeypatch, tmp_path):
    monkeypatch.setitem(run.WORKLOADS, "rate-1d", small_workload("rate-1d"))
    monkeypatch.setattr(run, "OUT", tmp_path)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_output_names_every_metric_of_benchmark_json(small_rate_1d, capsys, trace, section):
    argv = ["--workload", "rate-1d", "--seed", "3", "--seconds", "1", "--trace", str(trace)]
    assert run.main(argv) == 0
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {name: m["unit"] for name, m in out["metrics"].items()} == expected
    assert all(isinstance(m["value"], (int, float)) for m in out["metrics"].values())


class Restricted:
    """Exposes only the named attributes of an object of the program."""

    def __init__(self, obj, *names):
        self._obj = obj
        self._names = names

    def __getattr__(self, name):
        if name not in self._names:
            raise AttributeError(f"the benchmark read {name!r}")
        return getattr(self._obj, name)


def _unwrap(value):
    return value._obj if isinstance(value, Restricted) else value


def restricted_api():
    """mfg_inverse cut down to the names the untraced benchmark may use."""
    api = ModuleType("restricted_api")

    def passthrough(fn, *fields):
        def call(*args, **kwargs):
            args = [_unwrap(a) for a in args]
            kwargs = {k: _unwrap(v) for k, v in kwargs.items()}
            return Restricted(fn(*args, **kwargs), *fields)

        return call

    api.make_grid = passthrough(mfg_inverse.make_grid)
    api.MFGProblem = passthrough(mfg_inverse.MFGProblem)
    api.generate_data = passthrough(mfg_inverse.generate_data, "g")
    api.policy_iteration_inverse = passthrough(mfg_inverse.policy_iteration_inverse, "b", "u", "m")
    api.direct_ls_solve = passthrough(mfg_inverse.direct_ls_solve, "b", "u", "m")
    return api


@pytest.mark.parametrize("name", ["rate-1d", "value-1d", "rate-2d", "direct-1d"])
def test_untraced_round_uses_only_the_named_api(name):
    api, wl = restricted_api(), small_workload(name)
    prob, inp = set_up(api, wl)
    _, _, fig = run.run_round(api, wl, prob, inp, lambda span: contextlib.nullcontext())
    assert run.checks.failures(fig, wl.bounds) == []


def test_command_fails_where_the_program_is_missing(tmp_path):
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "rate-1d", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout

"""Experiment driver: configuration parsing, bundled presets, output
files and the ``mfg-inverse`` command line tool.

Configuration files are flat ``key = value`` text; command line
``--key value`` pairs override file values, which override defaults.
Every run writes, per method, a reconstruction table, an error history
table and a reconstructed-observation table (CSV with a schema header
line, shortest round-trip float formatting), plus one ``summary.json``
with sorted keys.  Noiseless runs are reproducible byte for byte except
for the wall-time entries in the summary.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import os
import sys
import traceback
from dataclasses import dataclass, fields
from pathlib import Path
from typing import get_type_hints

import numpy as np

from . import __version__
from .direct_ls import direct_ls_solve, gradient_direct, objective_direct
from .grid import integrate, l2_norm, make_grid
from .inverse_policy import (
    OPT_TOL_SCHEDULES,
    InverseResult,
    policy_iteration_inverse,
    step2_gradient_u0,
    tikhonov_weight,
)
from .mfg_forward import DATA_KINDS, InverseData, generate_data, measure, policy_iteration_forward
from .pde import MFGProblem, OperatorCache, solve_fp

# bundled problems and the spatial dimension each one fixes
PRESETS = {"paper-1d": 1, "paper-2d": 2}
METHODS = ("policy", "direct", "both")

# finite-difference directions and step of run_gradcheck
GRADCHECK_DIRECTIONS = 10
GRADCHECK_STEP = 1e-5


@dataclass(frozen=True)
class ExperimentConfig:
    preset: str = "paper-1d"
    points_per_dim: int = 50
    time_steps: int = 100
    horizon: float = 1.0
    eps: float = 0.3
    coupling_exponent: float = 2.0
    data_kind: str = "utT"
    extra_observation_times: tuple[float, ...] = ()
    noise_level: float = 0.0
    seed: int = 0
    method: str = "policy"
    gamma: float | None = None
    tol: float = 1e-9
    opt_tol: float = 1e-10
    opt_tol_schedule: str = "fixed"
    max_iter: int = 60
    data_tol: float = 1e-12
    fwd_tol: float | None = None
    cold_start: bool = False
    output_dir: str = "mfg-out"

    def validate(self) -> "ExperimentConfig":
        for key, choices in _CHOICES.items():
            value = getattr(self, key)
            if value not in choices:
                raise ValueError(f"{key} must be one of {tuple(choices)}, got {value!r}")
        if self.extra_observation_times and self.data_kind != "u0":
            raise ValueError("extra_observation_times require data_kind = u0")
        if self.noise_level < 0:
            raise ValueError("noise_level must be nonnegative")
        return self


_CHOICES = {
    "preset": PRESETS,
    "data_kind": DATA_KINDS,
    "method": METHODS,
    "opt_tol_schedule": OPT_TOL_SCHEDULES,
}


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _parse_times(text: str) -> tuple[float, ...]:
    text = text.strip()
    if not text:
        return ()
    return tuple(float(part) for part in text.split(","))


def _parse_optional_float(text: str) -> float | None:
    text = text.strip().lower()
    if text in ("", "auto", "none"):
        return None
    return float(text)


_TYPE_PARSERS = {
    str: str,
    int: int,
    float: float,
    bool: _parse_bool,
    float | None: _parse_optional_float,
    tuple[float, ...]: _parse_times,
}

# Each key's parser, chosen by its field's annotation; a field whose
# annotation has no parser above makes this module fail at import.
_PARSERS = {key: _TYPE_PARSERS[hint] for key, hint in get_type_hints(ExperimentConfig).items()}


def parse_config_file(path: str | Path) -> dict:
    """Read flat ``key = value`` lines; '#' starts a comment."""
    values = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _PARSERS:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = _PARSERS[key](value.strip())
    return values


def load_config(path: str | Path | None, overrides: dict | None = None) -> ExperimentConfig:
    values = {} if path is None else parse_config_file(path)
    for key, text in (overrides or {}).items():
        if key not in _PARSERS:
            raise ValueError(f"unknown config key {key!r}")
        values[key] = _PARSERS[key](text) if isinstance(text, str) else text
    return ExperimentConfig(**values).validate()


def preset_problem(config: ExperimentConfig) -> tuple[MFGProblem, np.ndarray]:
    """Build the grid, problem data and true obstacle for a config.

    The preset fixes the dimension and the obstacle family; the grid,
    eps and the coupling exponent come from the config.
    """
    dim = PRESETS[config.preset]
    grid = make_grid(dim, config.points_per_dim, config.time_steps, config.horizon)
    x = grid.coordinates()
    if dim == 1:
        xs = x[:, 0]
        b_true = 0.1 * (np.sin(2 * np.pi * xs - np.sin(4 * np.pi * xs)) + np.exp(np.cos(2 * np.pi * xs)))
        m0 = np.exp(-40.0 * (xs - 0.5) ** 2)
    else:
        b_true = np.sin(2 * np.pi * x[:, 0]) * np.sin(2 * np.pi * x[:, 1])
        m0 = np.exp(-5.0 * ((x[:, 0] - 0.5) ** 2 + (x[:, 1] - 0.5) ** 2))
    m0 = m0 / integrate(grid, m0)
    prob = MFGProblem(
        grid=grid,
        eps=config.eps,
        m0=m0,
        uT=-m0,
        coupling_exponent=config.coupling_exponent,
    )
    return prob, b_true


def preset_data(config: ExperimentConfig) -> tuple[MFGProblem, np.ndarray, InverseData]:
    """The preset problem, its true obstacle and the configured data."""
    prob, b_true = preset_problem(config)
    data = generate_data(
        prob,
        b_true,
        config.data_kind,
        noise_level=config.noise_level,
        seed=config.seed,
        fwd_tol=config.data_tol,
        extra_observation_times=config.extra_observation_times,
    )
    return prob, b_true, data


def _format(value: float) -> str:
    return repr(float(value))


def _write_csv(path: Path, header: list[str], columns: list[np.ndarray]) -> None:
    lines = [",".join(header)]
    rows = len(columns[0])
    for i in range(rows):
        lines.append(",".join(_format(col[i]) for col in columns))
    path.write_text("\n".join(lines) + "\n")


def _write_outputs(
    out_dir: Path,
    name: str,
    prob: MFGProblem,
    b_true: np.ndarray,
    data,
    result: InverseResult,
    created: list[Path],
) -> dict:
    grid = prob.grid
    coords = grid.coordinates()
    coord_names = ["x"] if grid.dim == 1 else ["x1", "x2"]
    coord_cols = [coords[:, k] for k in range(grid.dim)]

    rec_path = out_dir / f"reconstruction_{name}.csv"
    _write_csv(
        rec_path,
        coord_names + ["b_true", "b_reconstructed", "abs_error"],
        coord_cols + [b_true, result.b, np.abs(result.b - b_true)],
    )
    created.append(rec_path)

    hist_path = out_dir / f"history_{name}.csv"
    # policy iterates are indexed from zero (see InverseResult); the
    # direct history starts after the first accepted quasi-Newton step
    first = 0 if name == "policy" else 1
    iterations = np.arange(first, first + len(result.b_error_history), dtype=float)
    gap_name = "policy_gap" if name == "policy" else "optimality"
    gaps = np.asarray(result.policy_gap_history, dtype=float)
    _write_csv(
        hist_path,
        ["iteration", "b_error", gap_name],
        [iterations, np.asarray(result.b_error_history), gaps[: len(iterations)]],
    )
    created.append(hist_path)

    gu_path = out_dir / f"observation_{name}.csv"
    predicted = measure(prob, result.u, result.m, result.b, data.kind)
    _write_csv(
        gu_path,
        coord_names + ["g_observed", "gu_reconstructed"],
        coord_cols + [data.g, predicted],
    )
    created.append(gu_path)

    b_norm = l2_norm(grid, b_true)
    return {
        "final_relative_error": l2_norm(grid, result.b - b_true) / b_norm,
        "iterations": result.iterations,
        "wall_time_seconds": result.wall_time_seconds,
    }


def run_experiment(config: ExperimentConfig) -> dict:
    """Run the configured reconstruction(s) and write all output files."""
    config = config.validate()
    prob, b_true, data = preset_data(config)
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    created: list[Path] = []
    try:
        summary = {
            "config": {f.name: _jsonable(getattr(config, f.name)) for f in fields(config)},
            "library_version": __version__,
            "methods": {},
        }
        if config.method in ("policy", "both"):
            result = policy_iteration_inverse(
                prob,
                data,
                tol=config.tol,
                max_iter=config.max_iter,
                gamma=config.gamma,
                opt_tol=config.opt_tol,
                opt_tol_schedule=config.opt_tol_schedule,
                b_true=b_true,
            )
            summary["methods"]["policy"] = _write_outputs(
                out_dir, "policy", prob, b_true, data, result, created
            )
        if config.method in ("direct", "both"):
            result = direct_ls_solve(
                prob,
                data,
                gamma=config.gamma,
                opt_tol=config.opt_tol,
                max_iter=config.max_iter,
                fwd_tol=config.fwd_tol if config.fwd_tol is not None else config.tol,
                cold_start=config.cold_start,
                b_true=b_true,
            )
            summary["methods"]["direct"] = _write_outputs(
                out_dir, "direct", prob, b_true, data, result, created
            )
        summary_path = out_dir / "summary.json"
        summary_path.write_text(json.dumps(summary, sort_keys=True, indent=2) + "\n")
        created.append(summary_path)
        return summary
    except BaseException:
        for path in created:
            path.unlink(missing_ok=True)
        raise


def _jsonable(value):
    if isinstance(value, tuple):
        return list(value)
    return value


def run_gradcheck(config: ExperimentConfig) -> dict:
    """Compare adjoint gradients with central finite differences.

    Checks the linear step (ii) gradient (tolerance 1e-4) and the
    direct-LS gradient for the configured data kind (tolerance 1e-3).
    Directional derivatives use GRADCHECK_DIRECTIONS unit L2 norm
    directions drawn from the seeded generator, with step GRADCHECK_STEP.
    """
    config = config.validate()
    rng = np.random.default_rng(config.seed)
    prob, b_true, data = preset_data(config)
    grid = prob.grid
    # a generic but physically plausible linearization point
    warm = policy_iteration_forward(prob, b_true, tol=1e-3, max_iter=50)
    ops = OperatorCache(grid, prob.eps, warm.q)
    m = solve_fp(prob, ops)
    b_point = b_true + 0.2 * rng.standard_normal(grid.num_points)
    gamma = tikhonov_weight(config.gamma, data.noise_level)

    def fd_check(fun, grad, tolerance):
        worst, h = 0.0, GRADCHECK_STEP
        for _ in range(GRADCHECK_DIRECTIONS):
            delta = rng.standard_normal(grid.num_points)
            delta /= l2_norm(grid, delta)
            fd = (fun(b_point + h * delta) - fun(b_point - h * delta)) / (2 * h)
            an = float(np.sum(grad * delta) * grid.cell_volume)
            worst = max(worst, abs(fd - an) / max(abs(fd), abs(an), 1e-30))
        return {"max_rel_error": worst, "tolerance": tolerance, "ok": worst <= tolerance}

    report = {}
    if config.data_kind == "u0":
        _, grad = step2_gradient_u0(prob, ops, m, b_point, data, gamma)
        report["step2_u0"] = fd_check(
            lambda b: step2_gradient_u0(prob, ops, m, b, data, gamma)[0], grad, 1e-4
        )

    fwd_tol = min(config.data_tol, 1e-11)
    _, base_sol = objective_direct(prob, b_point, data, gamma, fwd_tol)
    grad = gradient_direct(prob, b_point, data, base_sol, gamma, adj_tol=1e-12)
    report["direct_ls"] = fd_check(
        lambda b: objective_direct(prob, b, data, gamma, fwd_tol, base_sol.q)[0], grad, 1e-3
    )
    return report


def _run_one(args: tuple[str, dict]) -> tuple[str, bool, str]:
    path, overrides = args
    try:
        config = load_config(path, overrides)
        summary = run_experiment(config)
        parts = []
        for name, entry in summary["methods"].items():
            parts.append(f"{name}: rel_error={entry['final_relative_error']:.3e}")
        return (str(path), True, "; ".join(parts))
    except Exception as exc:  # noqa: BLE001 - worker boundary
        return (str(path), False, f"{type(exc).__name__}: {exc}")


def _collect_overrides(pairs: list[str]) -> dict:
    if len(pairs) % 2 != 0:
        raise ValueError("override arguments must come in '--key value' pairs")
    overrides = {}
    for flag, value in zip(pairs[0::2], pairs[1::2]):
        if not flag.startswith("--"):
            raise ValueError(f"expected an option starting with '--', got {flag!r}")
        overrides[flag[2:].replace("-", "_")] = value
    return overrides


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="mfg-inverse",
        description="Reconstruct the obstacle of a mean-field game from value observations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one experiment")
    run_p.add_argument("--config", default=None, help="flat key = value config file")

    sweep_p = sub.add_parser("sweep", help="run every config file in a directory")
    sweep_p.add_argument("--configs", required=True, help="directory of config files")

    grad_p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    grad_p.add_argument("--config", default=None, help="flat key = value config file")

    args, extra = parser.parse_known_args(argv)
    try:
        overrides = _collect_overrides(extra)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.command == "run":
        try:
            config = load_config(args.config, overrides)
            summary = run_experiment(config)
        except Exception as exc:  # noqa: BLE001 - CLI boundary
            traceback.print_exc()
            print(f"error: {exc}", file=sys.stderr)
            return 1
        for name, entry in summary["methods"].items():
            print(
                f"{name}: relative error {entry['final_relative_error']:.6e}"
                f" in {entry['iterations']} iterations"
                f" ({entry['wall_time_seconds']:.2f}s)"
            )
        print(f"outputs written to {config.output_dir}")
        return 0

    if args.command == "sweep":
        config_dir = Path(args.configs)
        paths = sorted(p for p in config_dir.iterdir() if p.is_file() and not p.name.startswith("."))
        if not paths:
            print(f"error: no config files in {config_dir}", file=sys.stderr)
            return 1
        jobs = []
        for path in paths:
            per_run = dict(overrides)
            file_keys = parse_config_file(path)
            if "output_dir" not in file_keys and "output_dir" not in per_run:
                per_run["output_dir"] = str(config_dir / f"{path.stem}-out")
            jobs.append((str(path), per_run))
        workers = os.environ.get("MFG_INVERSE_THREADS")
        max_workers = int(workers) if workers else (os.cpu_count() or 1)
        max_workers = max(1, min(max_workers, len(jobs)))
        failed = False
        with concurrent.futures.ProcessPoolExecutor(max_workers=max_workers) as pool:
            for path, ok, message in pool.map(_run_one, jobs):
                status = "ok" if ok else "FAILED"
                print(f"{status}: {path}: {message}")
                failed = failed or not ok
        return 1 if failed else 0

    if args.command == "gradcheck":
        try:
            config = load_config(args.config, overrides)
            report = run_gradcheck(config)
        except Exception as exc:  # noqa: BLE001 - CLI boundary
            traceback.print_exc()
            print(f"error: {exc}", file=sys.stderr)
            return 1
        all_ok = True
        for name, entry in report.items():
            status = "ok" if entry["ok"] else "FAILED"
            print(
                f"{status}: {name}: max relative error {entry['max_rel_error']:.3e}"
                f" (tolerance {entry['tolerance']:.0e})"
            )
            all_ok = all_ok and entry["ok"]
        return 0 if all_ok else 1

    return 2


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's workloads: inputs, data generation and reconstruction.

Inputs follow the formulas of the paper's presets, written out here
rather than taken from ``mfg_inverse.cli``:

* 1d: b_true = 0.1 (sin(2 pi x - sin 4 pi x) + exp(cos 2 pi x)),
  m0 proportional to exp(-40 (x - 1/2)^2);
* 2d: b_true = sin 2 pi x sin 2 pi y,
  m0 proportional to exp(-5 |x - (1/2, 1/2)|^2);
* always uT = -m0 (m0 of unit mass), eps = 0.3, alpha = 2, T = 1.

Data are noiseless, so they do not depend on the seed.  The program is
reached only through ``make_grid``, ``MFGProblem``, ``generate_data``,
``policy_iteration_inverse`` and ``direct_ls_solve``, and the checks
read only the fields ``b``, ``u`` and ``m`` of a result and ``g`` of the
data.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from checks import Bounds, Discretization

EPS = 0.3
ALPHA = 2.0
HORIZON = 1.0

# No bound on b_error is looser than the acceptance suite's 3%.
RATE_BOUNDS = Bounds(b_error=1e-6, residual=1e-7, mass=1e-12, observation=1e-10, symmetry=None)


@dataclass(frozen=True)
class Workload:
    name: str
    dim: int
    points: int
    steps: int
    kind: str  # "utT" or "u0"
    method: str  # "policy" or "direct"
    data_tol: float
    tol: float
    bounds: Bounds
    options: dict = field(default_factory=dict)  # further keyword arguments of the solver
    # data generations per untraced round: more than one where a single one is
    # too short for its median to steady over the few rounds a run holds
    datagen_calls: int = 1

    @property
    def discretization(self) -> Discretization:
        return Discretization(self.dim, self.points, self.steps, HORIZON, EPS, ALPHA)


WORKLOADS = {
    w.name: w
    for w in (
        # production 1d path: mostly step-matrix assembly, 2 level solves per LU
        Workload("rate-1d", 1, 50, 100, "utT", "policy", 1e-12, 1e-9, RATE_BOUNDS),
        # same assembly; the inner least-squares step adds solves, adjoint sweeps and BFGS work
        Workload(
            "value-1d", 1, 50, 100, "u0", "policy", 1e-12, 1e-9,
            Bounds(b_error=1e-2, residual=1e-7, mass=1e-12, observation=1e-5, symmetry=None),
            {"opt_tol_schedule": "tightening"},
        ),
        # the only workload whose time and memory are dominated by LU factorization and fill
        Workload(
            "rate-2d", 2, 30, 30, "utT", "policy", 1e-10, 1e-8,
            Bounds(b_error=1e-6, residual=1e-7, mass=1e-12, observation=1e-10, symmetry=1e-10),
        ),
        # the paper's baseline: a dozen cold forward solves and coupled adjoints
        Workload(
            "direct-1d", 1, 30, 30, "utT", "direct", 1e-12, 1e-9,
            Bounds(b_error=1e-6, residual=1e-7, mass=1e-12, observation=1e-8, symmetry=None),
            {"cold_start": True},
            datagen_calls=5,
        ),
    )
}


@dataclass(frozen=True)
class Inputs:
    b_true: np.ndarray
    m0: np.ndarray
    uT: np.ndarray


def inputs(wl: Workload) -> Inputs:
    """b_true, unit-mass m0 and uT as flat row-major fields on the grid."""
    x = np.arange(wl.points) / wl.points  # cell left endpoints on the unit torus
    if wl.dim == 1:
        b_true = 0.1 * (np.sin(2 * np.pi * x - np.sin(4 * np.pi * x)) + np.exp(np.cos(2 * np.pi * x)))
        m0 = np.exp(-40.0 * (x - 0.5) ** 2)
    else:
        X, Y = np.meshgrid(x, x, indexing="ij")
        b_true = (np.sin(2 * np.pi * X) * np.sin(2 * np.pi * Y)).ravel()
        m0 = np.exp(-5.0 * ((X - 0.5) ** 2 + (Y - 0.5) ** 2)).ravel()
    m0 = m0 / m0.mean()  # the torus has unit volume
    return Inputs(b_true, m0, -m0)


def set_up(api, wl: Workload):
    """The MFGProblem of a workload and its inputs."""
    grid = api.make_grid(dim=wl.dim, points_per_dim=wl.points, time_steps=wl.steps, horizon=HORIZON)
    data = inputs(wl)
    prob = api.MFGProblem(grid=grid, eps=EPS, m0=data.m0, uT=data.uT, coupling_exponent=ALPHA)
    return prob, data


def generate(api, wl: Workload, prob, inp: Inputs):
    return api.generate_data(
        prob, inp.b_true, wl.kind, fwd_tol=wl.data_tol, terminal_rate_mode="pde_rhs"
    )


def reconstruct(api, wl: Workload, prob, data):
    if wl.method == "direct":
        return api.direct_ls_solve(prob, data, fwd_tol=wl.tol, **wl.options)
    return api.policy_iteration_inverse(prob, data, tol=wl.tol, **wl.options)

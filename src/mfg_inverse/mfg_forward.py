"""Policy iteration for the coupled MFG system and synthetic
measurement generation.

One sweep of :func:`policy_iteration`, starting from a policy q:

    (i)   m  <- linear Fokker-Planck solve with q
    (ii)  b  <- the sweep's obstacle, from q and m
          u  <- linear HJB solve with q, m and b
    (iii) q  <- one-sided gradients of u

The loop stops when the policy update gap (max over time levels of the
spatial L2 norm of the change, all slope components) drops below tol.
The forward method holds b fixed; the inverse method
(:mod:`mfg_inverse.inverse_policy`) recomputes it from the measurement
in every sweep, which makes it the same fixed-point iteration.

A terminal rate measurement is du/dt at the final time as the HJB
equation prescribes it, -eps Lap u_T + H_hat(grad u_T) - b - F(m(T)):
affine in b with slope -1, which is what the closed-form inversion
step and the direct least-squares adjoint both rely on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .grid import eo_hamiltonian, gradient_field, l2_norm, laplacian_apply, policy_gap
from .pde import (
    ConvergenceError,
    MFGProblem,
    OperatorCache,
    hjb_sources,
    require_finite,
    solve_fp,
    solve_hjb_linear,
)

INITIAL_VALUE = "u0"
TERMINAL_RATE = "utT"
DATA_KINDS = (INITIAL_VALUE, TERMINAL_RATE)


@dataclass
class MFGSolution:
    """Coupled solution triple; ``iterations`` counts completed sweeps."""

    u: np.ndarray
    m: np.ndarray
    q: np.ndarray
    iterations: int
    policy_gap_history: list[float] = field(default_factory=list)


@dataclass
class InverseData:
    """A measurement of the value function for one unknown obstacle.

    ``kind`` is "u0" (value at the initial time) or "utT" (time
    derivative of the value at the terminal time).  ``extra`` holds
    additional interior-time value observations as (time level, data)
    pairs; they are only meaningful together with kind "u0".
    """

    kind: str
    g: np.ndarray
    noise_level: float = 0.0
    extra: tuple[tuple[int, np.ndarray], ...] = ()

    def __post_init__(self):
        if self.kind not in DATA_KINDS:
            raise ValueError(f"kind must be one of {DATA_KINDS}, got {self.kind!r}")
        if not np.all(np.isfinite(self.g)):
            raise ValueError("measurement contains non-finite values")
        for _, g_extra in self.extra:
            if not np.all(np.isfinite(g_extra)):
                raise ValueError("measurement contains non-finite values")


def zero_policy(prob: MFGProblem) -> np.ndarray:
    g = prob.grid
    return np.zeros((g.time_steps + 1, g.num_points, 2 * g.dim))


def policy_iteration(
    prob: MFGProblem,
    obstacle: Callable[[int, OperatorCache, np.ndarray], np.ndarray],
    q0: np.ndarray | None = None,
    tol: float = 1e-9,
    max_iter: int = 200,
) -> MFGSolution:
    """Policy iteration whose sweep k solves the HJB step with the
    obstacle ``obstacle(k, ops, m)``, given the sweep's operator cache
    and density.

    Raises NonFiniteError on the first sweep whose density, obstacle or
    policy gap is not finite, and ConvergenceError when ``max_iter``
    sweeps do not bring the gap below ``tol``.
    """
    q = zero_policy(prob) if q0 is None else np.asarray(q0, dtype=float).copy()
    gaps: list[float] = []
    for k in range(1, max_iter + 1):
        ops = OperatorCache(prob.grid, prob.eps, q)
        m = solve_fp(prob, ops)
        require_finite("m", m, k, gaps)
        b = obstacle(k, ops, m)
        require_finite("b", b, k, gaps)
        u = solve_hjb_linear(prob, ops, m, b)
        q_new = gradient_field(prob.grid, u)
        gap = policy_gap(prob.grid, q_new, q)
        gaps.append(gap)
        require_finite("the policy gap", gap, k, gaps)
        q = q_new
        if gap < tol:
            return MFGSolution(u, m, q, k, gaps)
    raise ConvergenceError(
        f"policy iteration did not converge in {max_iter} iterations"
        f" (last gap {gaps[-1]:.3e})",
        gaps[-1],
    )


def policy_iteration_forward(
    prob: MFGProblem,
    b: np.ndarray,
    q0: np.ndarray | None = None,
    tol: float = 1e-9,
    max_iter: int = 200,
) -> MFGSolution:
    """Solve the coupled MFG system with known obstacle by policy iteration."""
    return policy_iteration(prob, lambda k, ops, m: b, q0, tol, max_iter)


def measure(
    prob: MFGProblem,
    u: np.ndarray,
    m: np.ndarray,
    b: np.ndarray,
    kind: str,
) -> np.ndarray:
    """Extract the observation operator value from a solved state."""
    grid = prob.grid
    if kind == INITIAL_VALUE:
        return u[0].copy()
    if kind != TERMINAL_RATE:
        raise ValueError(f"unknown data kind {kind!r}")
    # du/dt at t = T as the equation prescribes it (module docstring)
    return (
        -prob.eps * laplacian_apply(grid, prob.uT)
        + eo_hamiltonian(grid, gradient_field(grid, prob.uT))
        - np.asarray(b, dtype=float)
        - prob.coupling(m[grid.time_steps])
    )


def add_measurement_noise(
    grid, clean: np.ndarray, noise_level: float, rng: np.random.Generator
) -> np.ndarray:
    """Add iid Gaussian noise scaled to the L2 norm of the clean signal.

    The standard deviation is noise_level * |clean|_L2, which makes the
    expected L2 norm of the noise equal noise_level * |clean|_L2 up to a
    factor 1 - O(1/num_points).
    """
    if noise_level == 0.0:
        return clean.copy()
    sigma = noise_level * l2_norm(grid, clean)
    return clean + sigma * rng.standard_normal(clean.shape)


def generate_data(
    prob: MFGProblem,
    b_true: np.ndarray,
    kind: str,
    noise_level: float = 0.0,
    seed: int = 0,
    fwd_tol: float = 1e-12,
    terminal_rate_mode: str = "pde_rhs",
    extra_observation_times: tuple[float, ...] = (),
) -> InverseData:
    """Solve the forward problem for a known obstacle and record data.

    Noise draws come from numpy's PCG64 generator seeded with ``seed``
    (base observation first, then the extra observations in order), so
    data sets are reproducible bit for bit.
    """
    # kept only because bench/workloads.py still passes its one value
    if terminal_rate_mode != "pde_rhs":
        raise ValueError(f"terminal_rate_mode must be 'pde_rhs', got {terminal_rate_mode!r}")
    if kind == TERMINAL_RATE and extra_observation_times:
        raise ValueError("extra observation times require kind 'u0'")
    sol = policy_iteration_forward(prob, b_true, tol=fwd_tol)
    clean = measure(prob, sol.u, sol.m, b_true, kind)
    rng = np.random.default_rng(seed)
    g = add_measurement_noise(prob.grid, clean, noise_level, rng)
    extra = []
    for t_obs in extra_observation_times:
        if not 0.0 < t_obs < prob.grid.horizon:
            raise ValueError(f"extra observation time {t_obs} outside (0, horizon)")
        level = int(round(t_obs / prob.grid.dt))
        level = min(max(level, 1), prob.grid.time_steps - 1)
        clean_extra = sol.u[level]
        extra.append((level, add_measurement_noise(prob.grid, clean_extra, noise_level, rng)))
    return InverseData(kind=kind, g=g, noise_level=noise_level, extra=tuple(extra))


def mfg_residual(
    prob: MFGProblem,
    b: np.ndarray,
    u: np.ndarray,
    m: np.ndarray,
    q: np.ndarray,
    data: InverseData | None = None,
) -> float:
    """Largest L2 residual of the discrete MFG step equations.

    Evaluates the stepped FP and HJB relations under the supplied
    policy, the consistency of q with the gradients of u, and, when
    data is given, the measurement relation.
    """
    grid = prob.grid
    ops = OperatorCache(grid, prob.eps, q)
    res = max(
        policy_gap(grid, ops.apply(m[1:], transpose=True), m[:-1]),
        policy_gap(grid, ops.apply(u[:-1]) - u[1:], grid.dt * hjb_sources(prob, q, m, b)),
        policy_gap(grid, q, gradient_field(grid, u)),
    )
    if data is not None:
        predicted = measure(prob, u, m, b, data.kind)
        res = max(res, l2_norm(grid, predicted - data.g))
    return res

"""Policy iteration for the coupled MFG system and synthetic
measurement generation.

One sweep of :func:`policy_iteration`, starting from a policy q:

    (i)   m  <- linear Fokker-Planck solve with q
    (ii)  b  <- the sweep's obstacle, from q and m
          u  <- linear HJB solve with q, m and b, unless the obstacle
                step already solved it
    (iii) q  <- one-sided gradients of u, Anderson-mixed with the
                updates of the last few sweeps

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

from . import anderson
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

# obstacle(k, ops, m) -> (b, u or None); see policy_iteration
Obstacle = Callable[[int, OperatorCache, np.ndarray], tuple[np.ndarray, np.ndarray | None]]


@dataclass
class MFGSolution:
    """Coupled solution triple; ``iterations`` counts completed sweeps.

    ``policy_gap_history`` holds |G(q_k) - q_k| of each sweep's mixed
    policy q_k, where G is one sweep (see :func:`policy_iteration`).
    """

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
    pairs; they require kind "u0".
    """

    kind: str
    g: np.ndarray
    noise_level: float = 0.0
    extra: tuple[tuple[int, np.ndarray], ...] = ()

    def __post_init__(self):
        if self.kind not in DATA_KINDS:
            raise ValueError(f"kind must be one of {DATA_KINDS}, got {self.kind!r}")
        if self.extra and self.kind != INITIAL_VALUE:
            raise ValueError(f"extra observations require kind {INITIAL_VALUE!r}, got kind {self.kind!r}")
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
    obstacle: Obstacle,
    q0: np.ndarray | None = None,
    tol: float = 1e-9,
    max_iter: int = 200,
    first_mixed: int = 1,
) -> MFGSolution:
    """Policy iteration whose sweep k solves the HJB step with the
    obstacle b of ``obstacle(k, ops, m) -> (b, u)``, given the sweep's
    operator cache and density.  A u that is not None must be
    ``solve_hjb_linear(prob, ops, m, b)`` bit for bit, and the sweep
    uses it in place of solving again.

    The policies are Anderson-mixed with history depth
    :data:`mfg_inverse.anderson.DEPTH`: the next policy combines the last
    sweeps' updates rather than taking the newest alone.  Sweeps before
    ``first_mixed`` are plain, and the mixing history starts at sweep
    ``first_mixed``.  The returned solution is the last sweep itself,
    unmixed: its u, its m and q = gradient_field(u).
    ``policy_gap_history`` holds the gap |G(q_k) - q_k| of each mixed
    iterate q_k, where G is one sweep.

    Raises ValueError when ``max_iter`` is below 1, NonFiniteError on
    the first sweep whose density, obstacle or policy gap is not finite,
    and ConvergenceError when ``max_iter`` sweeps do not bring the gap
    below ``tol``.
    """
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    grid = prob.grid
    q = zero_policy(prob) if q0 is None else np.asarray(q0, dtype=float).copy()
    # Type-II mixing combines G values alone, and each G value is the
    # gradient of a sweep's u, so each mixed policy is the gradient of a
    # mix v of value fields, and the history is kept for v.  The zero
    # policy is the gradient of v = 0; from any other q0 the first sweep
    # is plain.  As |grad d|^2 = d . (-2 Lap d) on the one-sided slopes,
    # mixing v in the metric -Lap mixes the policies in the gap's norm.
    shape = (grid.time_steps + 1, grid.num_points)
    v = np.zeros(shape) if q0 is None else None
    mixer = anderson.Anderson(anderson.DEPTH, shape, lambda d: -laplacian_apply(grid, d))
    gaps: list[float] = []
    for k in range(1, max_iter + 1):
        ops = OperatorCache(grid, prob.eps, q)
        m = solve_fp(prob, ops)
        require_finite("m", m, k, gaps)
        b, u = obstacle(k, ops, m)
        require_finite("b", b, k, gaps)
        if u is None:
            u = solve_hjb_linear(prob, ops, m, b)
        q_new = gradient_field(grid, u)
        gap = policy_gap(grid, q_new, q)
        gaps.append(gap)
        require_finite("the policy gap", gap, k, gaps)
        if gap < tol:
            return MFGSolution(u, m, q_new, k, gaps)
        v = mixer.mix(v, u, gap) if k >= first_mixed and v is not None else u
        q = q_new if v is u else gradient_field(grid, v)
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
    return policy_iteration(prob, lambda k, ops, m: (b, None), q0, tol, max_iter)


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

"""Reconstruction of the obstacle by policy iteration.

The inverse method is :func:`mfg_inverse.mfg_forward.policy_iteration`
with an obstacle that each sweep recomputes from the measurement, so
that the value function becomes consistent with it:

    (i)   m  <- linear Fokker-Planck solve with the current policy
    (ii)  b  <- closed-form update (terminal rate data) or a linear
                least-squares solve (initial value data), then
          u  <- linear HJB solve with the new b
    (iii) q  <- one-sided gradients of u, Anderson-mixed for terminal
                rate data

For terminal rate data the inversion is explicit.  For initial value
data step (ii) minimizes

    1/2 |u(.,0;b) - g|^2_L2  (+ further observation misfits)
    + gamma/2 |grad_h b|^2_L2

over b; the state map b -> u(.,0) is affine, so this is a convex
quadratic problem.  Its gradient is assembled from the adjoint sweep of
:func:`mfg_inverse.pde.solve_adjoint_w`, which is the exact transpose
of the discrete solution map (right-endpoint rectangular rule in time),
so finite differences validate it to solver precision.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import anderson, optim
from .grid import gradient_field, l2_norm, laplacian_apply
from .mfg_forward import TERMINAL_RATE, InverseData, _policy_iteration, measure
from .pde import MFGProblem, OperatorCache, solve_adjoint_w, solve_hjb_linear

# A line-search stall this far above opt_tol is treated as failure.
STALL_SLACK = 1e4

# Step (ii) tolerance schedules of policy_iteration_inverse.
OPT_TOL_SCHEDULES = ("fixed", "tightening")


class InversionError(RuntimeError):
    pass


@dataclass
class InverseResult:
    """Reconstruction output.

    Policy-iteration sweeps are indexed from zero: the first sweep
    produces iterate 0, and ``iterations`` is the index of the iterate
    the method stopped at, so the history lists hold ``iterations + 1``
    entries.  For the direct least-squares solver ``iterations`` is the
    number of accepted quasi-Newton steps instead.
    """

    b: np.ndarray
    u: np.ndarray
    m: np.ndarray
    q: np.ndarray
    iterations: int
    policy_gap_history: list[float] = field(default_factory=list)
    b_error_history: list[float] = field(default_factory=list)
    wall_time_seconds: float = 0.0
    optimizer_iterations: list[int] = field(default_factory=list)


def closed_form_b(prob: MFGProblem, m: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Explicit obstacle update from terminal rate data.

    The terminal rate measurement is affine in b with slope -1, so
    b = (measurement at b = 0) - g = -g - eps * Lap u_T + H_hat(grad u_T)
    - F(m(., T)).  The policy enters only through m; after the first
    iteration q(., T) equals grad u_T anyway, which is why the advection
    and running cost terms collapse into H_hat.
    """
    zero = np.zeros(prob.grid.num_points)
    return measure(prob, None, m, zero, TERMINAL_RATE) - g


def tikhonov_weight(gamma: float | None, noise_level: float) -> float:
    """``gamma`` if given, else the default: 0 for noiseless data, 1e-6 otherwise."""
    if gamma is not None:
        return gamma
    return 0.0 if noise_level == 0.0 else 1e-6


def _regularizer(prob: MFGProblem, b: np.ndarray, gamma: float) -> tuple[float, np.ndarray]:
    """gamma/2 |grad_h b|^2 with its exact gradient -gamma * Lap b.

    The squared norm uses the forward differences; since the transpose
    of D^+ is -D^-, the gradient of the quadratic form is exactly the
    negative discrete Laplacian.
    """
    if gamma == 0.0:
        return 0.0, np.zeros_like(b)
    grid = prob.grid
    fwd = gradient_field(grid, b)[:, grid.dim :]
    value = 0.5 * gamma * float(np.sum(fwd * fwd)) * grid.cell_volume
    return value, -gamma * laplacian_apply(grid, b)


def step2_gradient_u0(
    prob: MFGProblem,
    ops: OperatorCache,
    m: np.ndarray,
    b: np.ndarray,
    data: InverseData,
    gamma: float,
) -> tuple[float, np.ndarray]:
    """Objective and L2 gradient of the step (ii) least-squares problem
    for the policy of ``ops``.

    Each observation of ``data``, the initial value and any further
    observation times, contributes the adjoint sweep of its residual,
    started at its own time level, integrated with the right-endpoint
    rule.
    """
    grid = prob.grid
    u = solve_hjb_linear(prob, ops, m, b)
    value, gradient = _regularizer(prob, b, gamma)
    for level, g_obs in [(0, data.g), *data.extra]:
        residual = u[level] - g_obs
        value += 0.5 * l2_norm(grid, residual) ** 2
        w = solve_adjoint_w(ops, residual, start_level=level)
        gradient = gradient + grid.dt * w[level + 1 :].sum(axis=0)
    return value, gradient


def invert_step_u0(
    prob: MFGProblem,
    ops: OperatorCache,
    m: np.ndarray,
    data: InverseData,
    gamma: float,
    b_init: np.ndarray,
    opt_tol: float = 1e-10,
    max_opt_iter: int = 500,
    curvature: object | None = None,
) -> tuple[np.ndarray, optim.OptimReport]:
    """Solve step (ii) for initial-value data and the policy of ``ops``
    with a warm-started BFGS.

    The quadratic's Hessian barely changes between outer iterations, so
    the caller may feed back ``report.curvature`` to warm-start the
    quasi-Newton metric along with the iterate.
    """
    scale = prob.grid.cell_volume  # Euclidean gradient of the quadrature-weighted objective

    def fun_and_grad(bvec):
        value, gradient = step2_gradient_u0(prob, ops, m, bvec, data, gamma)
        return value, gradient * scale

    report = optim.minimize(
        fun_and_grad, np.asarray(b_init, dtype=float), opt_tol, max_opt_iter,
        curvature=curvature,
    )
    if not report.converged:
        if (
            report.message.startswith("line search")
            and report.first_order_optimality <= STALL_SLACK * opt_tol
        ):
            warnings.warn(
                f"inversion step stalled at optimality {report.first_order_optimality:.3e}"
                f" (tolerance {opt_tol:.0e})",
                RuntimeWarning,
                stacklevel=2,
            )
        else:
            raise InversionError(
                f"step (ii) optimizer failed: {report.message},"
                f" optimality {report.first_order_optimality:.3e}"
            )
    return report.minimizer, report


def policy_iteration_inverse(
    prob: MFGProblem,
    data: InverseData,
    tol: float = 1e-9,
    max_iter: int = 60,
    gamma: float | None = None,
    opt_tol: float = 1e-10,
    opt_tol_schedule: str = "fixed",
    b_true: np.ndarray | None = None,
) -> InverseResult:
    """Reconstruct the obstacle from one measurement by policy iteration,
    starting from the zero policy.

    gamma defaults to 0 for noiseless data and 1e-6 otherwise.  With
    ``opt_tol_schedule="tightening"`` the step (ii) tolerance starts at
    1e-6 and halves each outer iteration until it reaches ``opt_tol``;
    the default keeps it fixed at ``opt_tol``.  Terminal rate data
    run the Anderson-mixed loop; initial value data run it plain.
    Stops and raises as :func:`~mfg_inverse.mfg_forward.policy_iteration`
    does.
    """
    if opt_tol_schedule not in OPT_TOL_SCHEDULES:
        raise ValueError(f"opt_tol_schedule must be one of {OPT_TOL_SCHEDULES}, got {opt_tol_schedule!r}")
    gamma = tikhonov_weight(gamma, data.noise_level)
    grid = prob.grid
    start = time.perf_counter()
    b = np.zeros(grid.num_points)
    b_errors: list[float] = []
    opt_iters: list[int] = []
    curvature = None

    def obstacle(k, ops, m):
        nonlocal b, curvature
        if data.kind == TERMINAL_RATE:
            b = closed_form_b(prob, m, data.g)
        else:
            step_tol = opt_tol
            if opt_tol_schedule == "tightening":
                step_tol = max(opt_tol, 1e-6 * 0.5 ** (k - 1))
            b, report = invert_step_u0(
                prob, ops, m, data, gamma, b, step_tol, curvature=curvature
            )
            curvature = report.curvature
            opt_iters.append(report.iterations)
        if b_true is not None:
            b_errors.append(l2_norm(grid, b - b_true))
        return b

    # The u0 sweep map changes with k (its step (ii) tolerance tightens
    # and its BFGS curvature carries over), so its sweeps are not mixed.
    depth = anderson.DEPTH if data.kind == TERMINAL_RATE else 0
    sol = _policy_iteration(prob, obstacle, None, tol, max_iter, depth)
    # iterates are indexed from zero; sweep k produced iterate k - 1
    return InverseResult(
        b, sol.u, sol.m, sol.q, sol.iterations - 1, sol.policy_gap_history, b_errors,
        time.perf_counter() - start, opt_iters,
    )

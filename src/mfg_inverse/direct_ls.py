"""Direct least-squares baseline for the obstacle reconstruction.

Minimizes the measurement misfit over b with a quasi-Newton method,
where every objective evaluation solves the full coupled forward MFG
system and every gradient evaluation solves the coupled adjoint pair.
This is the standard PDE-constrained route the policy-iteration scheme
is benchmarked against: each evaluation costs about fifty linear PDE
sweeps when the forward solve starts cold, even with both fixed points
Anderson-mixed.

Terminal rate measurements are the right-hand side of the equation at
the final time (see :mod:`mfg_inverse.mfg_forward`), so the misfit
depends on b both directly and through m(., T), and the adjoint
gradient carries both terms.
"""

from __future__ import annotations

import time
import warnings

import numpy as np

from . import optim
from .grid import l2_norm
from .inverse_policy import InverseResult, _regularizer, tikhonov_weight
from .mfg_forward import (
    INITIAL_VALUE,
    TERMINAL_RATE,
    InverseData,
    MFGSolution,
    measure,
    policy_iteration_forward,
)
from .pde import MFGProblem, solve_coupled_adjoint


def objective_direct(
    prob: MFGProblem,
    b: np.ndarray,
    data: InverseData,
    gamma: float = 0.0,
    fwd_tol: float = 1e-9,
    q_init: np.ndarray | None = None,
) -> tuple[float, MFGSolution]:
    """Misfit plus regularizer at b, with the forward solution it used.

    ``q_init`` warm-starts the forward policy iteration; omit it for a
    cold start from the zero policy.
    """
    if data.extra:
        raise ValueError("the direct solver supports a single observation")
    sol = policy_iteration_forward(prob, b, q0=q_init, tol=fwd_tol, max_iter=500)
    predicted = measure(prob, sol.u, sol.m, b, data.kind)
    value = 0.5 * l2_norm(prob.grid, predicted - data.g) ** 2
    value += _regularizer(prob, b, gamma)[0]
    return value, sol


def gradient_direct(
    prob: MFGProblem,
    b: np.ndarray,
    data: InverseData,
    sol: MFGSolution,
    gamma: float = 0.0,
    adj_tol: float = 1e-10,
) -> np.ndarray:
    """L2 gradient of the direct objective via the coupled adjoint pair.

    Initial value data: w starts from the misfit u(., 0) - g and v from
    zero terminal data; the gradient is the time integral of w.
    Terminal rate data: w starts from zero, v from
    -(du/dt(., T) - g) F'(m(., T)), and the misfit itself enters the
    gradient with a minus sign because the measurement depends on b
    directly.
    """
    grid = prob.grid
    u, m = sol.u, sol.m
    gradient = _regularizer(prob, b, gamma)[1]
    if data.kind == INITIAL_VALUE:
        w_init = u[0] - data.g
        v_term = np.zeros(grid.num_points)
        w, _ = solve_coupled_adjoint(prob, u, m, w_init, v_term, tol=adj_tol)
        return gradient + grid.dt * w[1:].sum(axis=0)
    if data.kind != TERMINAL_RATE:
        raise ValueError(f"unknown data kind {data.kind!r}")
    rate = measure(prob, u, m, b, TERMINAL_RATE)
    residual = rate - data.g
    w_init = np.zeros(grid.num_points)
    v_term = -residual * prob.coupling_derivative(m[grid.time_steps])
    w, _ = solve_coupled_adjoint(prob, u, m, w_init, v_term, tol=adj_tol)
    return gradient + grid.dt * w[1:].sum(axis=0) - residual


def direct_ls_solve(
    prob: MFGProblem,
    data: InverseData,
    gamma: float | None = None,
    opt_tol: float = 1e-10,
    max_iter: int = 100,
    fwd_tol: float = 1e-9,
    cold_start: bool = False,
    b_true: np.ndarray | None = None,
) -> InverseResult:
    """Reconstruct the obstacle by quasi-Newton descent on the misfit,
    starting from b = 0.

    By default each evaluation warm-starts the forward solve from the
    previously converged policy; ``cold_start=True`` re-solves from the
    zero policy every time, which is the faithful costing of the
    baseline.  The returned u, m and q are the forward solution that the
    optimizer evaluated at the returned b.  In the returned result
    ``policy_gap_history`` holds the sup-norm gradient at each accepted
    iterate (there is no policy gap for this method) and
    ``optimizer_iterations`` is empty.  A run that stops without meeting
    ``opt_tol`` warns with a RuntimeWarning and returns its last iterate.
    """
    grid = prob.grid
    gamma = tikhonov_weight(gamma, data.noise_level)
    start = time.perf_counter()
    q_prev = None  # the last evaluation's policy, for warm starts

    def fun_and_grad(bvec):
        nonlocal q_prev
        value, sol = objective_direct(prob, bvec, data, gamma, fwd_tol, q_prev)
        gradient = gradient_direct(prob, bvec, data, sol, gamma)
        if not cold_start:
            q_prev = sol.q
        return value, gradient * grid.cell_volume, sol

    b_errors: list[float] = []
    opt_history: list[float] = []

    def record(bvec, opt):
        if b_true is not None:
            b_errors.append(l2_norm(grid, bvec - b_true))
        opt_history.append(opt)

    report = optim.minimize(
        fun_and_grad, np.zeros(grid.num_points), opt_tol, max_iter, callback=record
    )
    if not report.converged:
        warnings.warn(
            f"direct least squares stopped unconverged: {report.message},"
            f" optimality {report.first_order_optimality:.3e} (tolerance {opt_tol:.0e})",
            RuntimeWarning,
            stacklevel=2,
        )
    (sol,) = report.state  # the forward solution at the minimizer
    return InverseResult(
        report.minimizer,
        sol.u,
        sol.m,
        sol.q,
        report.iterations,
        opt_history,
        b_errors,
        time.perf_counter() - start,
        [],
    )

import numpy as np
import pytest

from mfg_inverse import generate_data, make_grid, policy_iteration_forward
from mfg_inverse.cli import ExperimentConfig, preset_problem
from mfg_inverse.grid import l2_norm
from mfg_inverse.inverse_policy import (
    InversionError,
    closed_form_b,
    invert_step_u0,
    policy_iteration_inverse,
    step2_gradient_u0,
)
from mfg_inverse.mfg_forward import (
    INITIAL_VALUE,
    PDE_RHS,
    TERMINAL_RATE,
    InverseData,
    mfg_residual,
)
from mfg_inverse import inverse_policy, mfg_forward
from mfg_inverse.pde import (
    ConvergenceError,
    MFGProblem,
    NonFiniteError,
    OperatorCache,
    solve_fp,
    solve_hjb_linear,
)

from mfg_inverse.sparse import LinearSolveError

from conftest import cache, small_problem, without_coupling
from dense_reference import fit_line


@pytest.fixture(scope="module")
def rate_problem():
    prob = small_problem(points=16, steps=20)
    x = prob.grid.coordinates()[:, 0]
    b_true = 0.3 * np.sin(2 * np.pi * x) + 0.1
    return prob, b_true


@pytest.fixture(scope="module")
def rate_result(rate_problem):
    prob, b_true = rate_problem
    data = generate_data(
        prob, b_true, TERMINAL_RATE, fwd_tol=1e-11, terminal_rate_mode=PDE_RHS
    )
    result = policy_iteration_inverse(prob, data, tol=1e-9, b_true=b_true)
    return data, result


@pytest.fixture(scope="module")
def preset_result():
    prob, b_true = preset_problem(ExperimentConfig())
    data = generate_data(
        prob, b_true, TERMINAL_RATE, fwd_tol=1e-11, terminal_rate_mode=PDE_RHS
    )
    result = policy_iteration_inverse(prob, data, tol=1e-9, b_true=b_true)
    return prob, b_true, data, result


def test_closed_form_b_reduces_to_coupling_on_flat_data():
    grid = make_grid(1, 8, 10, 1.0)
    prob = MFGProblem(grid=grid, eps=0.3, m0=np.ones(8), uT=np.zeros(8))
    m = np.ones((11, 8))
    # with flat value data only -g - F(m_T) survives
    np.testing.assert_allclose(
        closed_form_b(prob, m, np.zeros(8)), -1.0, rtol=0, atol=1e-14
    )
    np.testing.assert_allclose(
        closed_form_b(without_coupling(prob), m, np.full(8, 0.7)),
        -0.7,
        rtol=0,
        atol=1e-14,
    )


def test_closed_form_b_reextracts_obstacle_from_rate_data():
    prob = small_problem(points=8, steps=10)
    x = prob.grid.coordinates()[:, 0]
    b_true = 0.3 * np.sin(2 * np.pi * x)
    sol = policy_iteration_forward(prob, b_true, tol=1e-11)
    data = generate_data(
        prob, b_true, TERMINAL_RATE, fwd_tol=1e-11, terminal_rate_mode=PDE_RHS
    )
    b_back = closed_form_b(prob, sol.m, data.g)
    # the measurement and the update use the same discrete operators, so
    # feeding the true density back cancels everything except b itself
    np.testing.assert_allclose(b_back, b_true, rtol=0, atol=1e-12)


@pytest.fixture()
def quadratic_setup(rng):
    prob = small_problem(points=8, steps=10)
    grid = prob.grid
    ops = cache(prob, rng.uniform(-0.5, 0.5, (grid.time_steps + 1, grid.num_points, 2 * grid.dim)))
    return prob, ops, solve_fp(prob, ops)


def test_step2_objective_vanishes_on_consistent_data(quadratic_setup):
    prob, ops, m = quadratic_setup
    x = prob.grid.coordinates()[:, 0]
    b = 0.3 * np.sin(2 * np.pi * x)
    data = InverseData(kind=INITIAL_VALUE, g=solve_hjb_linear(prob, ops, m, b)[0])
    value, gradient = step2_gradient_u0(prob, ops, m, b, data, 0.0)
    assert value <= 1e-18
    assert np.max(np.abs(gradient)) <= 1e-12


def test_step2_regularizer_ignores_constant_obstacles(quadratic_setup, rng):
    prob, ops, m = quadratic_setup
    b = np.full(prob.grid.num_points, 1.3)
    data = InverseData(kind=INITIAL_VALUE, g=rng.uniform(-1.0, 1.0, prob.grid.num_points))
    plain = step2_gradient_u0(prob, ops, m, b, data, 0.0)
    regularized = step2_gradient_u0(prob, ops, m, b, data, 1.0)
    assert regularized[0] == plain[0]
    np.testing.assert_array_equal(regularized[1], plain[1])


@pytest.mark.parametrize("extra_levels", [(), (3, 7)])
def test_step2_gradient_matches_finite_differences(quadratic_setup, rng, extra_levels):
    check_step2_gradient(*quadratic_setup, rng, extra_levels)


@pytest.mark.parametrize("extra_levels", [(), (2, 4)])
def test_step2_gradient_matches_finite_differences_in_2d(rng, extra_levels):
    prob = small_problem(dim=2, points=5, steps=6)
    grid = prob.grid
    ops = cache(prob, rng.uniform(-0.5, 0.5, (grid.time_steps + 1, grid.num_points, 2 * grid.dim)))
    check_step2_gradient(prob, ops, solve_fp(prob, ops), rng, extra_levels)


def check_step2_gradient(prob, ops, m, rng, extra_levels):
    """Central differences of the step (ii) objective along ten random
    directions match its adjoint gradient."""
    grid = prob.grid
    g = rng.uniform(-1.0, 1.0, grid.num_points)
    extra = tuple((lvl, rng.uniform(-1.0, 1.0, grid.num_points)) for lvl in extra_levels)
    target = InverseData(kind=INITIAL_VALUE, g=g, extra=extra, noise_level=0.0)
    b0 = rng.uniform(-0.5, 0.5, grid.num_points)
    gamma = 1e-4
    _, gradient = step2_gradient_u0(prob, ops, m, b0, target, gamma)
    h = 1e-5
    for _ in range(10):
        d = rng.uniform(-1.0, 1.0, grid.num_points)
        up, _ = step2_gradient_u0(prob, ops, m, b0 + h * d, target, gamma)
        down, _ = step2_gradient_u0(prob, ops, m, b0 - h * d, target, gamma)
        fd = (up - down) / (2 * h)
        analytic = grid.cell_volume * np.dot(gradient, d)
        assert abs(fd - analytic) <= 1e-6 * max(abs(fd), 1.0)


@pytest.mark.filterwarnings("ignore:inversion step stalled")
def test_invert_step_matches_dense_normal_equations(quadratic_setup, rng):
    prob, ops, m = quadratic_setup
    grid = prob.grid
    n = grid.num_points
    g = rng.uniform(-1.0, 1.0, n)
    gamma = 1e-4
    u0_zero = solve_hjb_linear(prob, ops, m, np.zeros(n))[0]
    # probe the affine map b -> u(., 0) column by column
    columns = np.empty((n, n))
    for j in range(n):
        basis = np.zeros(n)
        basis[j] = 1.0
        columns[:, j] = solve_hjb_linear(prob, ops, m, basis)[0] - u0_zero
    forward_diff = np.zeros((n, n))
    for i in range(n):
        forward_diff[i, i] = -1.0 / grid.dx
        forward_diff[i, (i + 1) % n] = 1.0 / grid.dx
    normal = columns.T @ columns + gamma * forward_diff.T @ forward_diff
    b_star = np.linalg.solve(normal, columns.T @ (g - u0_zero))
    b_opt, _ = invert_step_u0(
        prob, ops, m, InverseData(kind=INITIAL_VALUE, g=g), gamma, np.zeros(n),
        opt_tol=1e-12, max_opt_iter=1000,
    )
    np.testing.assert_allclose(b_opt, b_star, rtol=0, atol=1e-6)


@pytest.mark.filterwarnings("ignore:inversion step stalled")
def test_invert_step_warm_restart_is_immediate(quadratic_setup, rng):
    prob, ops, m = quadratic_setup
    n = prob.grid.num_points
    g = InverseData(kind=INITIAL_VALUE, g=rng.uniform(-1.0, 1.0, n))
    b_opt, report = invert_step_u0(
        prob, ops, m, g, 1e-4, np.zeros(n), opt_tol=1e-12, max_opt_iter=1000
    )
    again, rerun = invert_step_u0(
        prob, ops, m, g, 1e-4, b_opt, opt_tol=1e-12, max_opt_iter=1000,
        curvature=report.curvature,
    )
    assert rerun.iterations == 0
    np.testing.assert_array_equal(again, b_opt)


def test_invert_step_raises_when_budget_exhausted(quadratic_setup, rng):
    prob, ops, m = quadratic_setup
    g = InverseData(kind=INITIAL_VALUE, g=rng.uniform(-1.0, 1.0, prob.grid.num_points))
    with pytest.raises(InversionError, match="optimizer failed"):
        invert_step_u0(
            prob, ops, m, g, 0.0, np.zeros(prob.grid.num_points),
            opt_tol=1e-12, max_opt_iter=1,
        )


def test_terminal_rate_reconstruction(rate_problem, rate_result):
    prob, b_true = rate_problem
    data, result = rate_result
    assert result.iterations <= 40
    rel = l2_norm(prob.grid, result.b - b_true) / l2_norm(prob.grid, b_true)
    assert rel <= 1e-8
    assert mfg_residual(prob, result.b, result.u, result.m, result.q, data) <= 1e-9
    assert result.wall_time_seconds > 0.0
    assert result.optimizer_iterations == []


def test_history_lengths_count_iterates(rate_result):
    _, result = rate_result
    assert len(result.policy_gap_history) == result.iterations + 1
    assert len(result.b_error_history) == result.iterations + 1
    assert result.policy_gap_history[-1] < 1e-9
    assert result.b_error_history[-1] < result.b_error_history[0]


def test_initial_value_reconstruction(rate_problem):
    prob, b_true = rate_problem
    data = generate_data(prob, b_true, INITIAL_VALUE, fwd_tol=1e-11)
    result = policy_iteration_inverse(prob, data, tol=1e-8, opt_tol=1e-11)
    rel = l2_norm(prob.grid, result.b - b_true) / l2_norm(prob.grid, b_true)
    assert rel <= 1e-7
    assert mfg_residual(prob, result.b, result.u, result.m, result.q, data) <= 1e-8
    inner = result.optimizer_iterations
    assert len(inner) == result.iterations + 1
    # warm starts make later least-squares solves nearly free
    assert inner[-1] <= 3
    assert max(inner[2:]) < inner[0]


def test_preset_reconstruction_error(preset_result):
    prob, b_true, data, result = preset_result
    rel = l2_norm(prob.grid, result.b - b_true) / l2_norm(prob.grid, b_true)
    assert rel <= 1e-8
    assert mfg_residual(prob, result.b, result.u, result.m, result.q, data) <= 1e-9


def test_preset_gap_decay_is_r_linear(preset_result):
    _, _, _, result = preset_result
    gaps = np.asarray(result.policy_gap_history)
    slope, r2 = fit_line(np.arange(3, len(gaps), dtype=float), np.log10(gaps[3:]))
    assert slope < 0
    assert r2 >= 0.9


@pytest.mark.xfail(
    reason="the gap-norm stopping rule takes a few extra sweeps", strict=False
)
def test_preset_sweep_count_in_published_range(preset_result):
    _, _, _, result = preset_result
    sweeps = result.iterations + 1
    assert 20 <= sweeps <= 25


def test_two_dimensional_reconstruction_converges():
    config = ExperimentConfig(
        preset="paper-2d", points_per_dim=20, time_steps=20, tol=1e-8
    )
    prob, b_true = preset_problem(config)
    data = generate_data(
        prob, b_true, TERMINAL_RATE, fwd_tol=1e-9, terminal_rate_mode=PDE_RHS
    )
    result = policy_iteration_inverse(prob, data, tol=1e-8, b_true=b_true)
    rel = l2_norm(prob.grid, result.b - b_true) / l2_norm(prob.grid, b_true)
    assert rel <= 1e-7
    gaps = result.policy_gap_history
    assert len(gaps) >= 15
    assert np.log10(gaps[0] / gaps[14]) >= 5.0


def test_unknown_opt_tol_schedule_rejected(rate_problem):
    prob, b_true = rate_problem
    data = generate_data(prob, b_true, TERMINAL_RATE, fwd_tol=1e-9)
    with pytest.raises(ValueError, match="opt_tol_schedule"):
        policy_iteration_inverse(prob, data, opt_tol_schedule="loose")


def test_iteration_cap_raises_with_last_gap(rate_problem):
    prob, b_true = rate_problem
    data = generate_data(
        prob, b_true, TERMINAL_RATE, fwd_tol=1e-9, terminal_rate_mode=PDE_RHS
    )
    with pytest.raises(ConvergenceError) as err:
        policy_iteration_inverse(prob, data, tol=1e-9, max_iter=2)
    assert err.value.last_gap > 1e-9


def count_fp_sweeps(monkeypatch):
    sweeps = []

    def counted_solve_fp(*args):
        sweeps.append(1)
        return solve_fp(*args)

    monkeypatch.setattr(mfg_forward, "solve_fp", counted_solve_fp)
    return sweeps


@pytest.mark.parametrize(
    "level, error, message",
    [
        # the last level enters no step matrix, only the gap to the next policy
        (-1, NonFiniteError, "the policy gap is non-finite after sweep 1"),
        (0, LinearSolveError, "level 0: factorization failed"),
    ],
    ids=["terminal-level", "first-level"],
)
def test_nan_policy_fails_on_the_first_sweep(rate_result, rate_problem, monkeypatch, level, error, message):
    prob, _ = rate_problem
    data, _ = rate_result
    sweeps = count_fp_sweeps(monkeypatch)
    q0 = np.zeros((prob.grid.time_steps + 1, prob.grid.num_points, 2))
    q0[level, 5, 0] = np.nan
    with pytest.raises(error, match=message):
        policy_iteration_inverse(prob, data, q0=q0, max_iter=60)
    assert len(sweeps) == 1


def test_non_finite_obstacle_is_named(rate_result, rate_problem, monkeypatch):
    prob, _ = rate_problem
    data, _ = rate_result
    sweeps = count_fp_sweeps(monkeypatch)
    monkeypatch.setattr(
        inverse_policy, "closed_form_b", lambda *args: np.full(prob.grid.num_points, np.inf)
    )
    with pytest.raises(NonFiniteError, match="b is non-finite after sweep 1"):
        policy_iteration_inverse(prob, data, max_iter=60)
    assert len(sweeps) == 1

import numpy as np
import pytest

from mfg_inverse import direct_ls, generate_data, policy_iteration_forward
from mfg_inverse.direct_ls import direct_ls_solve, gradient_direct, objective_direct
from mfg_inverse.grid import l2_norm
from mfg_inverse.mfg_forward import INITIAL_VALUE, TERMINAL_RATE, measure

from conftest import small_problem, without_coupling

KINDS = [TERMINAL_RATE, INITIAL_VALUE]


@pytest.fixture(scope="module")
def tiny_problem():
    prob = small_problem(points=8, steps=10)
    x = prob.grid.coordinates()[:, 0]
    return prob, 0.3 * np.sin(2 * np.pi * x) + 0.1


def make_data(prob, b_true, kind):
    return generate_data(prob, b_true, kind, fwd_tol=1e-12)


@pytest.mark.parametrize("kind", KINDS)
def test_objective_vanishes_at_the_true_obstacle(tiny_problem, kind):
    prob, b_true = tiny_problem
    value, _ = objective_direct(prob, b_true, make_data(prob, b_true, kind), fwd_tol=1e-10)
    assert value <= 1e-18


@pytest.mark.parametrize("kind", KINDS)
def test_constant_shift_costs_half_c_squared(tiny_problem, kind):
    # shifting b by a constant shifts the measurement by c (rate data)
    # or c T (initial value data, T = 1) and changes nothing else
    prob, b_true = tiny_problem
    shift = 0.2
    value, _ = objective_direct(
        prob, b_true + shift, make_data(prob, b_true, kind), fwd_tol=1e-10
    )
    np.testing.assert_allclose(value, 0.5 * shift**2, rtol=1e-6)


@pytest.mark.parametrize("kind", KINDS)
def test_gradient_matches_finite_differences(tiny_problem, rng, kind):
    check_gradient(*tiny_problem, rng, kind)


@pytest.mark.parametrize("kind", KINDS)
def test_gradient_matches_finite_differences_in_2d(rng, kind):
    prob = small_problem(dim=2, points=5, steps=6)
    x, y = prob.grid.coordinates().T
    check_gradient(prob, 0.3 * np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y) + 0.1, rng, kind)


def check_gradient(prob, b_true, rng, kind):
    """Central differences of the objective along ten random directions
    match the adjoint gradient."""
    grid = prob.grid
    data = make_data(prob, b_true, kind)
    b0 = b_true + 0.1 * rng.uniform(-1.0, 1.0, grid.num_points)
    _, sol = objective_direct(prob, b0, data, fwd_tol=1e-12)
    gradient = gradient_direct(prob, b0, data, sol, 0.0, adj_tol=1e-12)
    h = 1e-5
    for _ in range(10):
        d = rng.uniform(-1.0, 1.0, grid.num_points)
        up, _ = objective_direct(prob, b0 + h * d, data, fwd_tol=1e-12)
        down, _ = objective_direct(prob, b0 - h * d, data, fwd_tol=1e-12)
        fd = (up - down) / (2 * h)
        analytic = grid.cell_volume * np.dot(gradient, d)
        assert abs(fd - analytic) <= 1e-6 * max(abs(fd), 1.0)


def test_gradient_reduces_to_residual_without_coupling(tiny_problem):
    # with the coupling off the adjoint pair is identically zero and the
    # rate misfit feeds the gradient directly
    prob, b_true = tiny_problem
    prob = without_coupling(prob)
    x = prob.grid.coordinates()[:, 0]
    data = make_data(prob, b_true, TERMINAL_RATE)
    b_off = b_true + 0.2 * np.sin(4 * np.pi * x)
    _, sol = objective_direct(prob, b_off, data, fwd_tol=1e-11)
    gradient = gradient_direct(prob, b_off, data, sol, 0.0, adj_tol=1e-11)
    residual = measure(prob, sol.u, sol.m, b_off, TERMINAL_RATE) - data.g
    np.testing.assert_allclose(gradient, -residual, rtol=0, atol=1e-12)


@pytest.fixture(scope="module")
def rate_solve():
    prob = small_problem(points=16, steps=20)
    x = prob.grid.coordinates()[:, 0]
    b_true = 0.3 * np.sin(2 * np.pi * x) + 0.1
    data = make_data(prob, b_true, TERMINAL_RATE)
    result = direct_ls_solve(
        prob, data, opt_tol=1e-8, max_iter=100, fwd_tol=1e-10, b_true=b_true
    )
    return prob, b_true, data, result


def test_rate_data_reconstruction(rate_solve):
    prob, b_true, _, result = rate_solve
    rel = l2_norm(prob.grid, result.b - b_true) / l2_norm(prob.grid, b_true)
    assert rel <= 1e-5
    assert 1 <= result.iterations <= 100
    assert result.wall_time_seconds > 0.0
    assert result.optimizer_iterations == []


def test_histories_track_accepted_steps(rate_solve):
    _, _, _, result = rate_solve
    assert len(result.policy_gap_history) == result.iterations
    assert len(result.b_error_history) == result.iterations
    assert result.b_error_history[-1] < result.b_error_history[0]
    # the recorded figure is the sup-norm gradient at each iterate
    assert result.policy_gap_history[-1] <= 1e-8


def test_cold_start_reaches_the_same_minimizer(rate_solve):
    prob, b_true, data, warm = rate_solve
    cold = direct_ls_solve(
        prob, data, opt_tol=1e-8, max_iter=100, fwd_tol=1e-10, cold_start=True
    )
    np.testing.assert_allclose(cold.b, warm.b, rtol=0, atol=1e-6)


def test_initial_value_reconstruction(tiny_problem):
    prob, b_true = tiny_problem
    data = make_data(prob, b_true, INITIAL_VALUE)
    result = direct_ls_solve(
        prob, data, opt_tol=1e-8, max_iter=100, fwd_tol=1e-10, b_true=b_true
    )
    rel = l2_norm(prob.grid, result.b - b_true) / l2_norm(prob.grid, b_true)
    assert rel <= 5e-2
    assert result.b_error_history[-1] < result.b_error_history[0]


def test_extra_observations_are_rejected(tiny_problem):
    prob, b_true = tiny_problem
    data = generate_data(
        prob, b_true, INITIAL_VALUE, fwd_tol=1e-10,
        extra_observation_times=(0.5,),
    )
    with pytest.raises(ValueError, match="single observation"):
        objective_direct(prob, b_true, data)


def test_unconverged_solve_warns_and_returns_last_iterate(tiny_problem):
    prob, b_true = tiny_problem
    data = make_data(prob, b_true, TERMINAL_RATE)
    with pytest.warns(RuntimeWarning, match="iteration cap reached, optimality"):
        result = direct_ls_solve(prob, data, opt_tol=1e-12, max_iter=1, fwd_tol=1e-10)
    assert result.iterations == 1
    assert np.all(np.isfinite(result.b))


def test_cold_start_reuses_the_last_forward_solve(tiny_problem, monkeypatch):
    # the optimizer's last evaluation is at the minimizer, so the final
    # state needs no forward solve of its own
    prob, b_true = tiny_problem
    data = make_data(prob, b_true, TERMINAL_RATE)
    forward_solves, evaluations = [], []

    def counted_forward(*args, **kwargs):
        forward_solves.append(1)
        return policy_iteration_forward(*args, **kwargs)

    def counted_gradient(*args, **kwargs):
        evaluations.append(1)
        return gradient_direct(*args, **kwargs)

    monkeypatch.setattr(direct_ls, "policy_iteration_forward", counted_forward)
    monkeypatch.setattr(direct_ls, "gradient_direct", counted_gradient)
    result = direct_ls_solve(prob, data, opt_tol=1e-8, fwd_tol=1e-10, cold_start=True)
    assert len(evaluations) >= 2
    assert len(forward_solves) == len(evaluations)
    _, fresh = objective_direct(prob, result.b, data, fwd_tol=1e-10)
    np.testing.assert_array_equal(result.u, fresh.u)
    np.testing.assert_array_equal(result.m, fresh.m)

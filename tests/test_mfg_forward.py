import numpy as np
import pytest

from mfg_inverse import MFGProblem, generate_data, make_grid, policy_iteration_forward
from mfg_inverse.cli import ExperimentConfig, preset_problem
from mfg_inverse.grid import eo_hamiltonian, gradient_field, l2_norm, laplacian_apply
from mfg_inverse.mfg_forward import (
    INITIAL_VALUE,
    TERMINAL_RATE,
    InverseData,
    add_measurement_noise,
    measure,
    mfg_residual,
    zero_policy,
)
from mfg_inverse import mfg_forward
from mfg_inverse.pde import ConvergenceError, NonFiniteError, solve_fp
from mfg_inverse.sparse import LinearSolveError

from conftest import small_problem


@pytest.fixture(scope="module")
def preset_1d():
    prob, b_true = preset_problem(ExperimentConfig())
    return prob, b_true


@pytest.fixture(scope="module")
def preset_solution(preset_1d):
    prob, b_true = preset_1d
    return policy_iteration_forward(prob, b_true, tol=1e-9)


def test_symmetric_problem_converges_in_one_sweep():
    grid = make_grid(1, 16, 8, 1.0)
    prob = MFGProblem(grid=grid, eps=0.3, m0=np.ones(16), uT=np.zeros(16))
    sol = policy_iteration_forward(prob, np.zeros(16), tol=1e-9)
    assert sol.iterations == 1
    # the flat value field only survives the linear solves up to roundoff
    assert np.max(np.abs(sol.q)) <= 1e-13
    np.testing.assert_allclose(sol.m, 1.0, rtol=0, atol=1e-13)
    # with everything flat the value reduces to u(t) = (T - t) F(1)
    for n, t in enumerate(grid.times):
        np.testing.assert_allclose(sol.u[n], 1.0 - t, rtol=0, atol=1e-12)


def test_preset_run_decays_geometrically(preset_solution):
    gaps = np.asarray(preset_solution.policy_gap_history)
    assert gaps[-1] < 1e-9
    ratios = gaps[3:] / gaps[2:-1]
    assert np.all(ratios < 0.9)


def test_preset_fixed_point_residual(preset_1d, preset_solution):
    prob, b_true = preset_1d
    sol = preset_solution
    assert mfg_residual(prob, b_true, sol.u, sol.m, sol.q) <= 10 * 1e-9


def test_forward_reports_non_convergence():
    prob = small_problem(points=16, steps=10)
    with pytest.raises(ConvergenceError):
        policy_iteration_forward(prob, np.zeros(16), tol=1e-12, max_iter=2)


def test_zero_policy_shape():
    prob = small_problem(dim=2, points=5, steps=4)
    q = zero_policy(prob)
    assert q.shape == (5, 25, 4)
    assert np.max(np.abs(q)) == 0.0


def test_measure_initial_value_is_initial_slice(preset_1d, preset_solution):
    prob, b_true = preset_1d
    sol = preset_solution
    np.testing.assert_array_equal(
        measure(prob, sol.u, sol.m, b_true, INITIAL_VALUE), sol.u[0]
    )


def test_measure_terminal_rate_from_equation(preset_1d, preset_solution):
    prob, b_true = preset_1d
    sol = preset_solution
    grid = prob.grid
    expected = (
        -prob.eps * laplacian_apply(grid, prob.uT)
        + eo_hamiltonian(grid, gradient_field(grid, prob.uT))
        - b_true
        - prob.coupling(sol.m[grid.time_steps])
    )
    np.testing.assert_allclose(
        measure(prob, sol.u, sol.m, b_true, TERMINAL_RATE),
        expected,
        rtol=0,
        atol=1e-12,
    )


def test_noiseless_data_is_seed_independent(preset_1d):
    prob, b_true = preset_1d
    a = generate_data(prob, b_true, TERMINAL_RATE, noise_level=0.0, seed=0, fwd_tol=1e-9)
    b = generate_data(prob, b_true, TERMINAL_RATE, noise_level=0.0, seed=99, fwd_tol=1e-9)
    np.testing.assert_array_equal(a.g, b.g)


def test_noisy_data_is_reproducible(preset_1d):
    prob, b_true = preset_1d
    a = generate_data(prob, b_true, INITIAL_VALUE, noise_level=0.01, seed=5, fwd_tol=1e-9)
    b = generate_data(prob, b_true, INITIAL_VALUE, noise_level=0.01, seed=5, fwd_tol=1e-9)
    np.testing.assert_array_equal(a.g, b.g)
    c = generate_data(prob, b_true, INITIAL_VALUE, noise_level=0.01, seed=6, fwd_tol=1e-9)
    assert np.max(np.abs(a.g - c.g)) > 0.0


def test_noise_magnitude_scales_with_signal_norm():
    grid = make_grid(1, 50, 4, 1.0)
    clean = np.cos(2 * np.pi * grid.coordinates()[:, 0]) + 2.0
    level = 0.01
    ratios = []
    for seed in range(1000):
        noisy = add_measurement_noise(grid, clean, level, np.random.default_rng(seed))
        ratios.append(l2_norm(grid, noisy - clean) / l2_norm(grid, clean))
    assert np.mean(ratios) == pytest.approx(level, rel=0.05)


def test_extra_observation_times_round_to_levels(preset_1d):
    prob, b_true = preset_1d
    data = generate_data(
        prob, b_true, INITIAL_VALUE, fwd_tol=1e-9, extra_observation_times=(0.2, 0.5)
    )
    sol = policy_iteration_forward(prob, b_true, tol=1e-9)
    assert [level for level, _ in data.extra] == [20, 50]
    for level, g_extra in data.extra:
        np.testing.assert_array_equal(g_extra, sol.u[level])


def test_data_validation_errors(preset_1d):
    prob, b_true = preset_1d
    with pytest.raises(ValueError):
        generate_data(prob, b_true, TERMINAL_RATE, extra_observation_times=(0.2,))
    with pytest.raises(ValueError):
        generate_data(prob, b_true, INITIAL_VALUE, extra_observation_times=(1.5,))
    with pytest.raises(ValueError):
        generate_data(prob, b_true, "bogus")
    # pde_rhs is the only terminal rate measurement
    with pytest.raises(ValueError, match="pde_rhs"):
        generate_data(prob, b_true, TERMINAL_RATE, terminal_rate_mode="backward_diff")


def test_measurement_rejects_non_finite_values():
    bad = np.ones(8)
    bad[3] = np.nan
    with pytest.raises(ValueError):
        InverseData(kind=INITIAL_VALUE, g=bad)


def test_extra_observations_require_initial_value_data():
    g = np.zeros(16)
    with pytest.raises(ValueError, match="extra observations require kind 'u0', got kind 'utT'"):
        InverseData(kind=TERMINAL_RATE, g=g, extra=((10, np.full(16, 1e3)),))
    assert InverseData(kind=INITIAL_VALUE, g=g, extra=((10, g),)).extra[0][0] == 10


@pytest.mark.parametrize(
    "level, error, message",
    [
        # the last level enters no step matrix, only the gap to the next policy
        (-1, NonFiniteError, "the policy gap is non-finite after sweep 1"),
        (0, LinearSolveError, "level 0: factorization failed"),
    ],
    ids=["terminal-level", "first-level"],
)
def test_nan_policy_fails_on_the_first_sweep(monkeypatch, level, error, message):
    prob = small_problem(points=16, steps=10)
    sweeps = []

    def counted_solve_fp(*args):
        sweeps.append(1)
        return solve_fp(*args)

    monkeypatch.setattr(mfg_forward, "solve_fp", counted_solve_fp)
    q0 = zero_policy(prob)
    q0[level, 5, 0] = np.nan
    with pytest.raises(error, match=message):
        policy_iteration_forward(prob, np.zeros(16), q0=q0, max_iter=200)
    assert len(sweeps) == 1


def test_non_finite_obstacle_fails_on_the_first_sweep(monkeypatch):
    prob = small_problem(points=16, steps=10)
    sweeps = []

    def counted_solve_fp(*args):
        sweeps.append(1)
        return solve_fp(*args)

    monkeypatch.setattr(mfg_forward, "solve_fp", counted_solve_fp)
    b = np.zeros(16)
    b[5] = np.nan
    with pytest.raises(NonFiniteError, match="b is non-finite after sweep 1"):
        policy_iteration_forward(prob, b, max_iter=200)
    assert len(sweeps) == 1

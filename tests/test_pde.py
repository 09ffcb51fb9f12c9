import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfg_inverse import MFGProblem, make_grid, policy_iteration_forward
from mfg_inverse.grid import eo_hamiltonian, gradient_field, integrate, l2_norm, policy_gap
from mfg_inverse.pde import (
    ConvergenceError,
    OperatorCache,
    _upwind_div_m_grad,
    hjb_sources,
    solve_adjoint_w,
    solve_coupled_adjoint,
    solve_fp,
    solve_hjb_linear,
)
from mfg_inverse.sparse import LinearSolveError

from conftest import cache, random_policy, small_problem, without_coupling
from dense_reference import dense_coupled_adjoint_solve, dense_fp_solve, dense_hjb_solve

ORACLE_TOL = 1e-10
COUPLED_ORACLE_TOL = 1e-8


def test_problem_normalizes_density():
    grid = make_grid(1, 10, 4, 1.0)
    prob = MFGProblem(grid=grid, eps=0.3, m0=np.full(10, 5.0), uT=np.zeros(10))
    assert integrate(grid, prob.m0) == pytest.approx(1.0, abs=1e-12)


def test_problem_rejects_bad_data():
    grid = make_grid(1, 10, 4, 1.0)
    ones = np.ones(10)
    with pytest.raises(ValueError):
        MFGProblem(grid=grid, eps=0.0, m0=ones, uT=ones)
    with pytest.raises(ValueError):
        MFGProblem(grid=grid, eps=0.3, m0=-ones, uT=ones)
    with pytest.raises(ValueError):
        MFGProblem(grid=grid, eps=0.3, m0=ones, uT=np.ones(9))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("name", ["m0", "uT"])
def test_problem_rejects_non_finite_data_by_name(name, bad):
    grid = make_grid(1, 10, 4, 1.0)
    fields = {"m0": np.ones(10), "uT": np.ones(10)}
    fields[name][3] = bad
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        MFGProblem(grid=grid, eps=0.3, **fields)


def test_fp_uniform_density_is_steady():
    prob = small_problem(points=12, steps=8, width=0.0)
    m = solve_fp(prob, cache(prob, np.zeros((9, 12, 2))))
    np.testing.assert_allclose(m, 1.0, rtol=0, atol=1e-13)


def test_fp_conserves_mass_and_dissipates_peak():
    prob = small_problem(points=24, steps=16)
    m = solve_fp(prob, cache(prob, np.zeros((17, 24, 2))))
    for level in range(17):
        assert abs(integrate(prob.grid, m[level]) - 1.0) <= 1e-10
    peaks = m.max(axis=1)
    assert np.all(np.diff(peaks) < 0)


@pytest.mark.parametrize("dim", [1, 2])
@settings(max_examples=20, deadline=None)
@given(
    points=st.integers(4, 8),
    steps=st.integers(2, 12),
    eps=st.floats(0.05, 1.0),
    scale=st.floats(0.0, 20.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_fp_mass_and_positivity_random_policy(dim, points, steps, eps, scale, seed):
    prob = small_problem(dim=dim, points=points, steps=steps, eps=eps)
    q = random_policy(prob.grid, np.random.default_rng(seed), scale)
    m = solve_fp(prob, cache(prob, q))
    for level in range(steps + 1):
        assert abs(integrate(prob.grid, m[level]) - 1.0) <= 1e-10
    assert m.min() >= -1e-13


def test_fp_matches_dense_space_time_oracle(rng):
    prob = small_problem(points=8, steps=10)
    q = random_policy(prob.grid, rng)
    m = solve_fp(prob, cache(prob, q))
    dense = dense_fp_solve(prob.grid, q, prob.eps, prob.m0)
    assert np.max(np.abs(m - dense)) <= ORACLE_TOL


def test_hjb_constant_terminal_data_stays_constant():
    prob = without_coupling(small_problem(points=10, steps=6))
    prob = dataclasses.replace(prob, uT=np.full(10, 4.2))
    ops = cache(prob, np.zeros((7, 10, 2)))
    m = solve_fp(prob, ops)
    u = solve_hjb_linear(prob, ops, m, np.zeros(10))
    np.testing.assert_allclose(u, 4.2, rtol=0, atol=1e-13)


def test_hjb_constant_obstacle_integrates_linearly():
    prob = without_coupling(small_problem(points=10, steps=8, horizon=2.0))
    prob = dataclasses.replace(prob, uT=np.zeros(10))
    ops = cache(prob, np.zeros((9, 10, 2)))
    m = solve_fp(prob, ops)
    c = -0.7
    u = solve_hjb_linear(prob, ops, m, np.full(10, c))
    for n, t in enumerate(prob.grid.times):
        np.testing.assert_allclose(u[n], c * (2.0 - t), rtol=0, atol=1e-12)


def test_hjb_matches_dense_space_time_oracle(rng):
    prob = small_problem(points=8, steps=10)
    grid = prob.grid
    q = random_policy(grid, rng)
    m = np.abs(rng.standard_normal((11, 8))) + 0.2
    b = rng.standard_normal(8)
    u = solve_hjb_linear(prob, cache(prob, q), m, b)
    sources = [eo_hamiltonian(grid, q[n]) + b + prob.coupling(m[n]) for n in range(10)]
    dense = dense_hjb_solve(grid, q, prob.eps, sources, prob.uT)
    assert np.max(np.abs(u - dense)) <= ORACLE_TOL


def upwind_div_m_grad_of_one_level(grid, q, m, v):
    """div(m grad v) of one level, written per level: the reference of the batched form."""
    v_slopes = gradient_field(grid, v)
    out = np.zeros(grid.shape)
    for axis in range(grid.dim):
        a = ((q[:, axis] > 0) * m * v_slopes[:, axis]).reshape(grid.shape)
        c = ((q[:, grid.dim + axis] < 0) * m * v_slopes[:, grid.dim + axis]).reshape(grid.shape)
        out += (np.roll(a, -1, axis=axis) - a) / grid.dx
        out += (c - np.roll(c, 1, axis=axis)) / grid.dx
    return out.ravel()


@pytest.mark.parametrize("coupled", [True, False])
@pytest.mark.parametrize("dim", [1, 2])
def test_batched_sources_equal_the_per_level_formula(dim, coupled, rng):
    # the sweeps evaluate their sources for all levels at once; the
    # arithmetic per entry is unchanged, so the results agree bit for bit
    prob = small_problem(dim=dim, points=7, steps=9)
    if not coupled:
        prob = without_coupling(prob)
    grid = prob.grid
    q = random_policy(grid, rng, scale=2.0)
    q[rng.uniform(size=q.shape) < 0.3] = 0.0
    m = rng.uniform(0.0, 2.0, (10, grid.num_points))
    v = rng.standard_normal((10, grid.num_points))
    b = rng.standard_normal(grid.num_points)
    sources = hjb_sources(prob, q, m, b)
    transport = _upwind_div_m_grad(grid, q[:-1], m[1:], v[1:])
    fprime = prob.coupling_derivative(m)
    assert sources.shape == transport.shape == (9, grid.num_points)
    for n in range(9):
        assert np.array_equal(sources[n], eo_hamiltonian(grid, q[n]) + b + prob.coupling(m[n]))
        assert np.array_equal(transport[n], upwind_div_m_grad_of_one_level(grid, q[n], m[n + 1], v[n + 1]))
    for n in range(10):
        assert np.array_equal(fprime[n], prob.coupling_derivative(m[n]))


def test_hjb_is_monotone_in_the_obstacle(rng):
    prob = small_problem(points=12, steps=8)
    ops = cache(prob, random_policy(prob.grid, rng))
    m = solve_fp(prob, ops)
    b2 = rng.standard_normal(12)
    b1 = b2 + rng.uniform(0.0, 1.0, 12)
    u1 = solve_hjb_linear(prob, ops, m, b1)
    u2 = solve_hjb_linear(prob, ops, m, b2)
    assert np.min(u1 - u2) >= -1e-13


def test_hjb_obstacle_dependence_superposes(rng):
    prob = small_problem(points=12, steps=8)
    ops = cache(prob, random_policy(prob.grid, rng))
    m = solve_fp(prob, ops)
    b1 = rng.standard_normal(12)
    b2 = rng.standard_normal(12)
    diff = solve_hjb_linear(prob, ops, m, b1 + b2) - solve_hjb_linear(prob, ops, m, b2)
    # the value is affine in the obstacle at fixed (q, m): subtracting
    # the homogeneous solve isolates the linear part exactly
    pure = solve_hjb_linear(prob, ops, m, b1) - solve_hjb_linear(prob, ops, m, np.zeros(12))
    assert np.max(np.abs(diff - pure)) <= 1e-12


def test_adjoint_w_zero_data_stays_zero():
    prob = small_problem(points=10, steps=6)
    w = solve_adjoint_w(cache(prob, np.zeros((7, 10, 2))), np.zeros(10))
    assert np.max(np.abs(w)) == 0.0


def test_adjoint_w_reproduces_fp_for_density_data(rng):
    prob = small_problem(points=10, steps=6)
    ops = cache(prob, random_policy(prob.grid, rng))
    np.testing.assert_array_equal(solve_adjoint_w(ops, prob.m0), solve_fp(prob, ops))


def test_adjoint_w_matches_dense_oracle_with_offset_start(rng):
    prob = small_problem(points=8, steps=10)
    grid = prob.grid
    q = random_policy(grid, rng)
    w0 = rng.standard_normal(8)
    start = 3
    w = solve_adjoint_w(cache(prob, q), w0, start_level=start)
    assert np.max(np.abs(w[:start])) == 0.0
    dense = dense_fp_solve(
        make_grid(1, 8, 10 - start, grid.dt * (10 - start)), q[start:], prob.eps, w0
    )
    assert np.max(np.abs(w[start:] - dense)) <= ORACLE_TOL


def test_coupled_adjoint_zero_data_is_zero_fixed_point(rng):
    prob = small_problem(points=8, steps=6)
    state = policy_iteration_forward(prob, np.zeros(8), tol=1e-10)
    w, v = solve_coupled_adjoint(prob, state.u, state.m, np.zeros(8), np.zeros(8))
    assert np.max(np.abs(w)) == 0.0
    assert np.max(np.abs(v)) == 0.0


def test_coupled_adjoint_decouples_without_coupling(rng):
    prob = without_coupling(small_problem(points=10, steps=8))
    state = policy_iteration_forward(prob, np.full(10, 0.3), tol=1e-10)
    w_init = rng.standard_normal(10)
    w, v = solve_coupled_adjoint(prob, state.u, state.m, w_init, np.zeros(10))
    assert np.max(np.abs(v)) == 0.0
    alone = solve_adjoint_w(cache(prob, gradient_field(prob.grid, state.u)), w_init)
    assert np.max(np.abs(w - alone)) <= 1e-13


def test_coupled_adjoint_matches_dense_monolithic_solve(rng):
    prob = small_problem(points=8, steps=10)
    grid = prob.grid
    b = 0.3 * np.sin(2 * np.pi * grid.coordinates()[:, 0])
    state = policy_iteration_forward(prob, b, tol=1e-11)
    w_init = rng.standard_normal(8)
    v_term = rng.standard_normal(8)
    w, v = solve_coupled_adjoint(prob, state.u, state.m, w_init, v_term, tol=1e-12)
    q = gradient_field(grid, state.u)
    fprime = np.array([prob.coupling_derivative(state.m[n]) for n in range(11)])
    w_ref, v_ref = dense_coupled_adjoint_solve(
        grid, q, prob.eps, state.m, fprime, w_init, v_term
    )
    assert np.max(np.abs(w - w_ref)) <= COUPLED_ORACLE_TOL
    assert np.max(np.abs(v - v_ref)) <= COUPLED_ORACLE_TOL


@pytest.mark.parametrize(
    "sweep, level_solve",
    [
        ("fp", "fp_solve"),
        ("hjb", "hjb_solve"),
        ("adjoint_w", "fp_solve"),
        ("coupled_w", "fp_solve"),
        ("coupled_v", "hjb_solve"),
    ],
)
def test_every_sweep_checks_its_level_solves(monkeypatch, rng, sweep, level_solve):
    prob = small_problem(points=8, steps=6)
    state = policy_iteration_forward(prob, np.zeros(8), tol=1e-10)
    ops = cache(prob, state.q)
    original = getattr(OperatorCache, level_solve)

    def wrong_at_level_4(self, level, rhs):
        x = original(self, level, rhs)
        return x + 1e-6 if level == 4 else x

    monkeypatch.setattr(OperatorCache, level_solve, wrong_at_level_4)
    with pytest.raises(LinearSolveError, match="^level 4: residual"):
        if sweep == "fp":
            solve_fp(prob, ops)
        elif sweep == "hjb":
            solve_hjb_linear(prob, ops, state.m, np.zeros(8))
        elif sweep == "adjoint_w":
            solve_adjoint_w(ops, rng.standard_normal(8), start_level=2)
        else:
            w_init = rng.standard_normal(8) if sweep == "coupled_w" else np.zeros(8)
            solve_coupled_adjoint(prob, state.u, state.m, w_init, rng.standard_normal(8))


def test_coupled_adjoint_reports_non_convergence():
    prob = small_problem(points=8, steps=6)
    state = policy_iteration_forward(prob, np.zeros(8), tol=1e-10)
    with pytest.raises(ConvergenceError):
        solve_coupled_adjoint(
            prob, state.u, state.m, np.ones(8), np.ones(8), tol=1e-12, max_iter=1
        )


def test_l2_change_norms_used_by_coupled_adjoint(rng):
    # the stopping metric is the max over levels of the spatial L2 norm
    prob = small_problem(points=8, steps=4)
    new, old = rng.standard_normal((2, 5, 8))
    per_level = [l2_norm(prob.grid, new[n] - old[n]) for n in range(5)]
    assert policy_gap(prob.grid, new, old) == pytest.approx(max(per_level), rel=1e-14)
    assert max(per_level) == pytest.approx(
        max(np.sqrt(np.sum((new[n] - old[n]) ** 2) * prob.grid.dx) for n in range(5)), rel=1e-14
    )

"""The Anderson mixing helper and the loops that use it."""

import numpy as np
import pytest

from mfg_inverse import anderson, generate_data, inverse_policy, mfg_forward, pde, policy_iteration_forward
from mfg_inverse.anderson import Anderson
from mfg_inverse.grid import gradient_field, l2_norm, laplacian_apply, make_grid
from mfg_inverse.inverse_policy import (
    OPT_TOL_SCHEDULES,
    invert_step_u0,
    policy_iteration_inverse,
    step_tolerance,
)
from mfg_inverse.mfg_forward import INITIAL_VALUE, TERMINAL_RATE
from mfg_inverse.pde import solve_coupled_adjoint

from conftest import small_problem


def iterate(G, x0, mixer, tol=1e-12, max_iter=500):
    """Mixed fixed-point iteration of G from x0: the iterates and the gaps."""
    x, xs, gaps = x0, [x0], []
    for _ in range(max_iter):
        gx = G(x)
        gaps.append(float(np.linalg.norm(gx - x)))
        if gaps[-1] < tol:
            break
        x = mixer.mix(x, gx, gaps[-1])
        xs.append(x)
    return xs, gaps


def contraction(n=40, seed=3):
    """An affine map with three slow modes (rates 0.95, 0.9 and 0.8, the
    rest at most 0.3) and its fixed point."""
    rng = np.random.default_rng(seed)
    basis, _ = np.linalg.qr(rng.standard_normal((n, n)))
    rates = np.r_[0.95, 0.9, 0.8, 0.3 * np.linspace(0.0, 1.0, n - 3)]
    A = basis @ np.diag(rates) @ basis.T
    c = rng.standard_normal(n)
    return (lambda x: A @ x + c), np.linalg.solve(np.eye(n) - A, c)


def test_depth_zero_is_the_plain_iteration_bit_for_bit():
    rng = np.random.default_rng(0)
    M = 0.3 * rng.standard_normal((6, 6))

    def G(x):
        return np.tanh(M @ x) + 1.0

    mixed, _ = iterate(G, np.zeros(6), Anderson(0, (6,)), max_iter=30)
    plain = [np.zeros(6)]
    for _ in range(len(mixed) - 1):
        plain.append(G(plain[-1]))
    assert all(np.array_equal(a, b) for a, b in zip(mixed, plain))
    assert Anderson(0, (6,)).block.size == 0


def test_mixing_a_linear_contraction_takes_far_fewer_steps():
    G, fixed = contraction()
    plain, plain_gaps = iterate(G, np.zeros(40), Anderson(0, (40,)), max_iter=1000)
    mixed, mixed_gaps = iterate(G, np.zeros(40), Anderson(3, (40,)))
    assert plain_gaps[-1] < 1e-12 and mixed_gaps[-1] < 1e-12
    assert np.max(np.abs(mixed[-1] - fixed)) <= 1e-10
    # 530 plain steps against 95 mixed ones
    assert len(mixed_gaps) * 4 <= len(plain_gaps)


def test_history_restarts_when_the_gap_rises():
    rng = np.random.default_rng(1)
    mixer = Anderson(2, (5,))
    x = rng.standard_normal(5)
    for gap in (1.0, 0.5, 0.25):
        gx = rng.standard_normal(5)
        x = mixer.mix(x, gx, gap)
    assert mixer.size == 2
    gx = rng.standard_normal(5)
    assert mixer.mix(x, gx, 0.3) is gx  # the gap rose: plain step
    assert mixer.size == 0
    x, gx = gx, rng.standard_normal(5)
    assert mixer.mix(x, gx, 0.2) is not gx  # the gap fell: mixing resumes
    assert mixer.size == 1


def test_a_nearly_dependent_history_is_truncated(monkeypatch):
    # f differences f_2 - f_1 = f_1 - f_0 + 1e-7 noise: the Gram matrix
    # has a relative eigenvalue near 1e-14, below RCOND
    rng = np.random.default_rng(0)
    f0, step = rng.standard_normal(5), 0.1 * rng.standard_normal(5)
    xs = rng.standard_normal((3, 5))
    noise = 1e-7 * rng.standard_normal(5)

    def last_step(wobble):
        mixer = Anderson(2, (5,))
        for k, gap in enumerate((1.0, 0.9, 0.8)):
            f = f0 + k * step + (wobble if k == 2 else 0.0)
            out = mixer.mix(xs[k], xs[k] + f, gap)
        return out

    guarded = last_step(noise)
    np.testing.assert_allclose(guarded, last_step(0.0), rtol=0, atol=1e-5)
    assert np.max(np.abs(guarded)) < 10.0
    monkeypatch.setattr(anderson, "RCOND", 0.0)
    assert np.max(np.abs(last_step(noise))) > 1e4


def test_the_metric_mixes_as_if_the_mapped_fields_were_mixed():
    # v . (-Lap v) is |grad v|^2 / 2 on the one-sided slopes: mixing value
    # fields in that metric equals mixing their gradients
    grid = make_grid(2, 5, 3, 1.0)
    shape = (grid.time_steps + 1, grid.num_points)
    rng = np.random.default_rng(2)
    by_value = Anderson(3, shape, lambda d: -laplacian_apply(grid, d))
    by_slope = Anderson(3, shape + (2 * grid.dim,))
    v = np.zeros(shape)
    for gap in (1.0, 0.8, 0.6, 0.4, 0.2):
        u = rng.standard_normal(shape)
        mixed_slopes = by_slope.mix(gradient_field(grid, v), gradient_field(grid, u), gap)
        v = by_value.mix(v, u, gap)
        np.testing.assert_allclose(gradient_field(grid, v), mixed_slopes, rtol=0, atol=1e-11)


class ReferenceAnderson:
    """The mixer with the metric applied to the whole history on every mix."""

    def __init__(self, depth, metric=None):
        self.depth, self.metric = depth, metric
        self.f = self.g = self.last_gap = None
        self.df, self.dg = [None] * depth, [None] * depth  # ring buffers
        self.size = self.slot = 0

    def mix(self, x, gx, gap):
        if self.last_gap is None or gap > self.last_gap:
            self.size = self.slot = 0
            self.f = gx - x
        else:
            row = (gx - x) - self.f
            self.f = self.f + row
            self.df[self.slot], self.dg[self.slot] = row, gx - self.g
            self.slot = (self.slot + 1) % self.depth
            self.size = min(self.size + 1, self.depth)
        self.g, self.last_gap = gx.copy(), gap
        if self.size == 0:
            return gx
        rows = np.stack([self.f, *self.df[: self.size]])
        weighted = rows if self.metric is None else self.metric(rows)
        rows, weighted = rows.reshape(self.size + 1, -1), weighted.reshape(self.size + 1, -1)
        gram = rows[1:] @ weighted[1:].T
        gamma = np.linalg.lstsq(gram, rows[1:] @ weighted[0], rcond=anderson.RCOND)[0]
        return gx - np.tensordot(gamma, np.stack(self.dg[: self.size]), axes=1)


@pytest.mark.parametrize("weighted", [False, True])
def test_mixer_matches_the_reference_bit_for_bit(weighted):
    grid = make_grid(2, 6, 4, 1.0)
    shape = (grid.time_steps + 1, grid.num_points)
    metric = (lambda d: -laplacian_apply(grid, d)) if weighted else None
    mixer, reference = Anderson(3, shape, metric), ReferenceAnderson(3, metric)
    rng = np.random.default_rng(6)
    x = rng.standard_normal(shape)
    # five stored differences wrap the depth-3 ring; the gap rises once (restart)
    gaps = (1.0, 0.8, 0.6, 0.5, 0.4, 0.3, 0.35, 0.3, 0.2, 0.1, 0.05, 0.02)
    for k, gap in enumerate(gaps):
        gx = 0.5 * x + rng.standard_normal(shape) * 0.9**k
        mixed = mixer.mix(x, gx, gap)
        assert np.array_equal(mixed, reference.mix(x, gx, gap)), k
        x = mixed
    assert mixer.size == 3 and mixer.slot == 2


def plain(monkeypatch):
    monkeypatch.setattr(anderson, "DEPTH", 0)


@pytest.mark.parametrize("dim, points, steps", [(1, 16, 20), (2, 8, 10)])
def test_mixed_and_plain_forward_solutions_agree(monkeypatch, dim, points, steps):
    prob = small_problem(dim=dim, points=points, steps=steps)
    x = prob.grid.coordinates()
    b = 0.3 * np.sin(2 * np.pi * x[:, 0]) + 0.2 * np.cos(2 * np.pi * x[:, -1])
    mixed = policy_iteration_forward(prob, b, tol=1e-12)
    plain(monkeypatch)
    reference = policy_iteration_forward(prob, b, tol=1e-12)
    assert mixed.iterations < reference.iterations
    assert np.max(np.abs(mixed.u - reference.u)) <= 1e-10
    assert np.max(np.abs(mixed.m - reference.m)) <= 1e-10


def test_forward_returns_its_last_unmixed_sweep():
    prob = small_problem(points=16, steps=20)
    b = 0.3 * np.sin(2 * np.pi * prob.grid.coordinates()[:, 0])
    sol = policy_iteration_forward(prob, b, tol=1e-10)
    assert np.array_equal(sol.q, gradient_field(prob.grid, sol.u))
    # a warm start from a policy that is no gradient takes one plain sweep first
    q0 = np.random.default_rng(4).uniform(-1.0, 1.0, sol.q.shape)
    warm = policy_iteration_forward(prob, b, q0=q0, tol=1e-10)
    assert np.array_equal(warm.q, gradient_field(prob.grid, warm.u))
    assert np.max(np.abs(warm.u - sol.u)) <= 1e-8


@pytest.fixture(scope="module")
def inverse_problem():
    prob = small_problem(points=16, steps=20)
    x = prob.grid.coordinates()[:, 0]
    return prob, 0.3 * np.sin(2 * np.pi * x) + 0.1


def test_mixed_rate_inverse_takes_fewer_sweeps(inverse_problem, monkeypatch):
    prob, b_true = inverse_problem
    data = generate_data(prob, b_true, TERMINAL_RATE, fwd_tol=1e-11)
    mixed = policy_iteration_inverse(prob, data, tol=1e-9)
    assert np.array_equal(mixed.q, gradient_field(prob.grid, mixed.u))
    plain(monkeypatch)
    reference = policy_iteration_inverse(prob, data, tol=1e-9)
    assert mixed.iterations < reference.iterations
    assert np.max(np.abs(mixed.b - reference.b)) <= 1e-8


@pytest.fixture(scope="module")
def value_runs(inverse_problem):
    """Mixed and plain u0 inversions under each step (ii) tolerance schedule."""
    prob, b_true = inverse_problem
    data = generate_data(prob, b_true, INITIAL_VALUE, fwd_tol=1e-11)
    runs = {}
    for schedule in OPT_TOL_SCHEDULES:
        for depth in (anderson.DEPTH, 0):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(anderson, "DEPTH", depth)
                runs[schedule, depth > 0] = policy_iteration_inverse(
                    prob, data, tol=1e-8, opt_tol=1e-11, opt_tol_schedule=schedule
                )
    return runs


def test_value_inverse_is_plain_until_its_step_tolerance_floor(value_runs):
    mixed, reference = value_runs["tightening", True], value_runs["tightening", False]
    # the step (ii) tolerance reaches its floor 1e-11 at sweep 18
    assert step_tolerance(17, 1e-11, "tightening") > step_tolerance(18, 1e-11, "tightening") == 1e-11
    assert mixed.policy_gap_history[:17] == reference.policy_gap_history[:17]
    assert mixed.optimizer_iterations[:17] == reference.optimizer_iterations[:17]


@pytest.mark.parametrize("schedule", OPT_TOL_SCHEDULES)
def test_mixed_value_inverse_takes_fewer_sweeps(inverse_problem, value_runs, schedule):
    prob, b_true = inverse_problem
    mixed, reference = value_runs[schedule, True], value_runs[schedule, False]
    assert mixed.iterations < reference.iterations
    rel, rel_plain = (
        l2_norm(prob.grid, r.b - b_true) / l2_norm(prob.grid, b_true) for r in (mixed, reference)
    )
    # test_initial_value_reconstruction's bound; under "tightening" both loops
    # stop on the step (ii) plateau near 6.4e-6 instead (criterion 3b)
    assert rel <= (1e-7 if schedule == "fixed" else 1.01 * rel_plain)


def test_value_inverse_reuses_the_state_of_its_last_step2_evaluation(inverse_problem, monkeypatch):
    prob, b_true = inverse_problem
    data = generate_data(prob, b_true, INITIAL_VALUE, fwd_tol=1e-11)
    states = []

    def checked(p, ops, m, *args, **kwargs):
        b, report, u = invert_step_u0(p, ops, m, *args, **kwargs)
        assert u is not None and np.array_equal(u, pde.solve_hjb_linear(p, ops, m, b))
        states.append(u)
        return b, report, u

    def unused(*args):
        raise AssertionError("the policy loop solved the HJB step again")

    monkeypatch.setattr(inverse_policy, "invert_step_u0", checked)
    monkeypatch.setattr(mfg_forward, "solve_hjb_linear", unused)
    result = policy_iteration_inverse(prob, data, tol=1e-8, opt_tol=1e-11, opt_tol_schedule="tightening")
    assert len(states) == result.iterations + 1
    assert result.u is states[-1]


def test_mixed_coupled_adjoint_agrees_with_plain_in_fewer_passes(monkeypatch):
    prob = small_problem(points=16, steps=20)
    b = 0.3 * np.sin(2 * np.pi * prob.grid.coordinates()[:, 0])
    state = policy_iteration_forward(prob, b, tol=1e-11)
    rng = np.random.default_rng(5)
    w_init, v_term = rng.standard_normal((2, 16))
    passes = []
    original = pde._upwind_div_m_grad  # called once per pass

    def counted(*args):
        passes.append(1)
        return original(*args)

    monkeypatch.setattr(pde, "_upwind_div_m_grad", counted)
    w, v = solve_coupled_adjoint(prob, state.u, state.m, w_init, v_term, tol=1e-12)
    mixed_passes = len(passes)
    passes.clear()
    plain(monkeypatch)
    w_ref, v_ref = solve_coupled_adjoint(prob, state.u, state.m, w_init, v_term, tol=1e-12)
    assert mixed_passes < len(passes)
    assert np.max(np.abs(w - w_ref)) <= 1e-10
    assert np.max(np.abs(v - v_ref)) <= 1e-10

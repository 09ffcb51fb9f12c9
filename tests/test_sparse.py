import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from mfg_inverse import make_grid
from mfg_inverse import pde
from mfg_inverse.pde import OperatorCache
from mfg_inverse.sparse import PERMC_SPEC, LinearSolveError, _step_matrix, step_pattern

from dense_reference import dense_fp_step, dense_hjb_step


def random_slopes(grid, seed=11, scale=2.0):
    rng = np.random.default_rng(seed)
    return rng.uniform(-scale, scale, (grid.num_points, 2 * grid.dim))


def constant_policy(grid, slopes):
    """Policy field holding the same slopes at every time level."""
    return np.broadcast_to(slopes, (grid.time_steps + 1,) + slopes.shape)


def assemble_hjb_step(grid, slopes, eps):
    """Dense B of one level, from the batched assembly."""
    return OperatorCache(grid, eps, constant_policy(grid, slopes)).matrix(0).toarray()


def assemble_fp_step(grid, slopes, eps):
    """Dense FP step of one level: B transposed."""
    return assemble_hjb_step(grid, slopes, eps).T


def applied_matrices(ops, transpose):
    """Dense B_n (or B_n^T) of every level, column by column through ops.apply."""
    n = ops.grid.num_points
    levels = ops.grid.time_steps
    out = np.empty((levels, n, n))
    for j in range(n):
        unit = np.zeros((levels, n))
        unit[:, j] = 1.0
        out[:, :, j] = ops.apply(unit, transpose)
    return out


def test_fp_step_zero_policy_structure():
    grid = make_grid(1, 8, 10, 1.0)
    a = assemble_fp_step(grid, np.zeros((8, 2)), 0.3)
    assert np.max(np.abs(a - a.T)) <= 1e-15
    np.testing.assert_allclose(a.sum(axis=0), 1.0, rtol=0, atol=1e-15)
    np.testing.assert_allclose(a.sum(axis=1), 1.0, rtol=0, atol=1e-15)


@pytest.mark.parametrize("dim", [1, 2])
def test_fp_step_column_sums_one_any_policy(dim):
    grid = make_grid(dim, 6, 5, 1.0)
    a = assemble_fp_step(grid, random_slopes(grid), 0.3)
    np.testing.assert_allclose(a.sum(axis=0), 1.0, rtol=0, atol=1e-14)


@pytest.mark.parametrize("assemble", [assemble_fp_step, assemble_hjb_step])
@pytest.mark.parametrize("dim", [1, 2])
def test_step_operators_are_m_matrices(assemble, dim):
    grid = make_grid(dim, 6, 5, 1.0)
    a = assemble(grid, random_slopes(grid), 0.3)
    diag = np.diag(a)
    off = a - np.diag(diag)
    assert np.all(diag >= 1.0)
    assert np.all(off <= 1e-15)


@pytest.mark.parametrize("dim", [1, 2])
def test_assembly_matches_dense_stencils(dim, rng):
    grid = make_grid(dim, 6, 5, 1.0)
    q = rng.uniform(-2.0, 2.0, (grid.time_steps + 1, grid.num_points, 2 * dim))
    ops = OperatorCache(grid, 0.3, q)
    x = rng.standard_normal((grid.time_steps, grid.num_points))
    hjb_applied = ops.apply(x)
    fp_applied = ops.apply(x, transpose=True)
    for n in range(grid.time_steps):
        hjb = dense_hjb_step(grid, q[n], 0.3)
        fp = dense_fp_step(grid, q[n], 0.3)
        np.testing.assert_allclose(ops.matrix(n).toarray(), hjb, rtol=0, atol=1e-14)
        np.testing.assert_allclose(hjb_applied[n], hjb @ x[n], rtol=0, atol=1e-13)
        np.testing.assert_allclose(fp_applied[n], fp @ x[n], rtol=0, atol=1e-13)


def test_fp_equals_hjb_transpose_exactly(rng):
    grid = make_grid(1, 6, 5, 1.0)
    ops = OperatorCache(grid, 0.3, rng.uniform(-2.0, 2.0, (6, 6, 2)))
    fp = applied_matrices(ops, transpose=True)
    hjb = applied_matrices(ops, transpose=False)
    for n in range(grid.time_steps):
        assert np.max(np.abs(fp[n] - hjb[n].T)) == 0.0
        assert np.max(np.abs(hjb[n] - ops.matrix(n).toarray())) == 0.0
    # the FP solve is the transposed solve of the HJB step's LU
    r = rng.standard_normal(6)
    np.testing.assert_allclose(
        ops.fp_solve(2, r), np.linalg.solve(hjb[2].T, r), rtol=0, atol=1e-14
    )


@given(
    dim=st.sampled_from([1, 2]),
    points=st.integers(min_value=4, max_value=7),
    steps=st.integers(min_value=2, max_value=5),
    eps=st.floats(min_value=0.0, max_value=1.0),
    scale=st.sampled_from([0.0, 0.5, 3.0]),
    sparsity=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_batched_assembly_matches_dense_reference(dim, points, steps, eps, scale, sparsity, seed):
    grid = make_grid(dim, points, steps, 1.0)
    rng = np.random.default_rng(seed)
    q = scale * rng.uniform(-1.0, 1.0, (steps + 1, grid.num_points, 2 * dim))
    q[rng.uniform(size=q.shape) < sparsity] = 0.0  # hit both branches of the upwind split
    values = _step_matrix(grid, q, eps)
    pattern = step_pattern(dim, points)
    assert values.shape == (steps, pattern.indices.size)
    assert np.array_equal(np.sort(pattern.order), np.arange(grid.num_points))
    ops = OperatorCache(grid, eps, q)
    for n in range(steps):
        dense = dense_hjb_step(grid, q[n], eps)
        atol = 1e-14 * max(1.0, np.abs(dense).max())
        np.testing.assert_allclose(ops.matrix(n).toarray(), dense, rtol=0, atol=atol)
        # the factorized layout is B_n with rows and columns in the pattern's order
        ordered = sp.csc_matrix(
            (values[n][pattern.gather], pattern.ordered_indices, pattern.indptr), shape=dense.shape
        )
        p = pattern.order
        assert np.array_equal(ordered.toarray(), ops.matrix(n).toarray()[p][:, p])
        # and solving through it solves B_n and B_n^T in the grid order
        rhs = rng.standard_normal(grid.num_points)
        for solve, matrix in ((ops.hjb_solve, dense), (ops.fp_solve, dense.T)):
            x = solve(n, rhs)
            assert np.linalg.norm(matrix @ x - rhs) <= 1e-12 * np.linalg.norm(rhs)


def keep_level_lus(monkeypatch):
    """The list that every level factorization is appended to from now on."""
    lus = []
    splu = pde.spla.splu

    def keeping_splu(*args, **kwargs):
        lus.append(splu(*args, **kwargs))
        return lus[-1]

    monkeypatch.setattr(pde.spla, "splu", keeping_splu)
    return lus


@pytest.mark.parametrize("dim, points, fill", [(1, 50, 294), (2, 30, 27524)])
def test_pattern_ordering_keeps_the_per_call_fill(monkeypatch, rng, dim, points, fill):
    # the ordering computed once per grid size gives each level the fill
    # that ordering the level's own matrix would give
    splu = pde.spla.splu
    lus = keep_level_lus(monkeypatch)
    grid = make_grid(dim, points, 3, 1.0)
    ops = OperatorCache(grid, 0.3, rng.uniform(-2.0, 2.0, (4, grid.num_points, 2 * dim)))
    for n in range(grid.time_steps):
        ops.hjb_solve(n, np.ones(grid.num_points))
        per_call = splu(ops.matrix(n), permc_spec=PERMC_SPEC)
        assert lus[n].L.nnz + lus[n].U.nnz == per_call.L.nnz + per_call.U.nnz == fill
    assert len(lus) == grid.time_steps


def test_large_slopes_keep_the_pattern_fill(monkeypatch, rng):
    # B_n is strictly row diagonally dominant, so the factorization keeps
    # the diagonal pivots; partial pivoting about doubles this fill
    lus = keep_level_lus(monkeypatch)
    grid = make_grid(2, 30, 3, 1.0)
    ops = OperatorCache(grid, 0.3, rng.uniform(-60.0, 60.0, (4, grid.num_points, 4)))
    rhs = np.ones(grid.num_points)
    for n in range(grid.time_steps):
        x = ops.hjb_solve(n, rhs)
        assert lus[n].L.nnz + lus[n].U.nnz == 27524
        assert np.linalg.norm(ops.matrix(n) @ x - rhs) <= 1e-12 * np.linalg.norm(rhs)


def test_solve_identity():
    # eps = 0 and a zero policy make every step matrix the identity
    grid = make_grid(1, 5, 3, 1.0)
    ops = OperatorCache(grid, 0.0, np.zeros((4, 5, 2)))
    rhs = np.arange(5.0)
    np.testing.assert_array_equal(ops.hjb_solve(1, rhs), rhs)
    np.testing.assert_array_equal(ops.fp_solve(1, rhs), rhs)


def test_solve_recovers_known_vector(rng):
    grid = make_grid(2, 5, 4, 1.0)
    ops = OperatorCache(grid, 0.3, rng.uniform(-3.0, 3.0, (5, 25, 4)))
    x_known = rng.standard_normal(25)
    matrix = ops.matrix(3)
    assert np.max(np.abs(ops.hjb_solve(3, matrix @ x_known) - x_known)) <= 1e-12
    assert np.max(np.abs(ops.fp_solve(3, matrix.T @ x_known) - x_known)) <= 1e-12


def test_solve_residual_bound(rng):
    grid = make_grid(1, 50, 40, 1.0)
    ops = OperatorCache(grid, 0.3, constant_policy(grid, random_slopes(grid, seed=4)))
    rhs = rng.uniform(0.0, 2.0, grid.num_points)
    x = ops.fp_solve(0, rhs)
    residual = ops.matrix(0).T @ x - rhs
    assert np.linalg.norm(residual) <= 1e-12 * np.linalg.norm(rhs)


def test_lu_residual_bound_at_101x101(rng):
    # 10 201 unknowns: the largest 2d size in the suite, factorized like any other
    grid = make_grid(2, 101, 4, 1.0)
    q = rng.uniform(-1.0, 1.0, (grid.time_steps + 1, grid.num_points, 4))
    ops = OperatorCache(grid, 0.3, q)
    rhs = rng.uniform(0.5, 1.5, (grid.time_steps, grid.num_points))
    fp = np.array([ops.fp_solve(n, rhs[n]) for n in range(grid.time_steps)])
    hjb = np.array([ops.hjb_solve(n, rhs[n]) for n in range(grid.time_steps)])
    for n in range(grid.time_steps):
        matrix = ops.matrix(n)
        assert np.linalg.norm(matrix.T @ fp[n] - rhs[n]) <= 1e-12 * np.linalg.norm(rhs[n])
        assert np.linalg.norm(matrix @ hjb[n] - rhs[n]) <= 1e-12 * np.linalg.norm(rhs[n])
    ops.check(fp, rhs, transpose=True)
    ops.check(hjb, rhs)


def test_solve_preserves_total_mass():
    grid = make_grid(1, 20, 10, 1.0)
    ops = OperatorCache(grid, 0.3, constant_policy(grid, random_slopes(grid, seed=6)))
    m_prev = np.abs(np.random.default_rng(1).standard_normal(20)) + 0.1
    m_next = ops.fp_solve(0, m_prev)
    assert np.sum(m_next) == pytest.approx(np.sum(m_prev), rel=1e-13)


def test_solve_rejects_singular_operator():
    # with eps = -dx^2 / (4 dt) the zero-policy step on 4 points is the
    # circulant (1/2, 1/4, 0, 1/4), whose alternating mode has eigenvalue 0
    grid = make_grid(1, 4, 2, 1.0)
    ops = OperatorCache(grid, -(grid.dx**2) / (4 * grid.dt), np.zeros((3, 4, 2)))
    np.testing.assert_array_equal(
        ops.matrix(0).toarray()[0], [0.5, 0.25, 0.0, 0.25]
    )
    with pytest.raises(LinearSolveError, match="level 0"):
        ops.fp_solve(1, np.ones(4))  # level 1 shares the LU of level 0
    with pytest.raises(LinearSolveError):
        ops.hjb_solve(0, np.ones(4))


def test_sweep_check_rejects_a_wrong_level(rng):
    grid = make_grid(1, 8, 6, 1.0)
    ops = OperatorCache(grid, 0.3, rng.uniform(-1.0, 1.0, (7, 8, 2)))
    rhs = rng.standard_normal((6, 8))
    x = np.array([ops.hjb_solve(n, rhs[n]) for n in range(6)])
    ops.check(x, rhs)
    wrong = x.copy()
    wrong[4, 3] += 1e-9
    with pytest.raises(LinearSolveError, match="level 4"):
        ops.check(wrong, rhs)
    wrong = x.copy()
    wrong[3, 0] = np.nan
    with pytest.raises(LinearSolveError, match="level 3"):
        ops.check(wrong, rhs)
    w = np.array([ops.fp_solve(n, rhs[n]) for n in range(2, 6)])
    ops.check(w, rhs[2:], transpose=True, first_level=2)
    with pytest.raises(LinearSolveError, match="level 0"):
        ops.check(w, rhs[2:], transpose=True)  # checked against levels 0..3


def test_identical_levels_share_one_lu(monkeypatch, rng):
    calls = []
    splu = pde.spla.splu

    def counting_splu(*args, **kwargs):
        calls.append(1)
        return splu(*args, **kwargs)

    monkeypatch.setattr(pde.spla, "splu", counting_splu)
    grid = make_grid(1, 8, 6, 1.0)
    q = np.zeros((7, 8, 2))
    q[3:5] = rng.uniform(-1.0, 1.0, (8, 2))  # levels 3 and 4 equal, the rest zero
    ops = OperatorCache(grid, 0.3, q)
    for n in range(grid.time_steps):
        ops.fp_solve(n, np.ones(8))
        ops.hjb_solve(n, np.ones(8))
    assert len(calls) == 3  # levels 0-2, 3-4 and 5

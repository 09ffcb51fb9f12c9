import numpy as np
import pytest

from mfg_inverse import make_grid
from mfg_inverse.grid import (
    eo_hamiltonian,
    gradient_field,
    integrate,
    l2_norm,
    laplacian_apply,
    policy_gap,
)
from mfg_inverse.pde import OperatorCache

from dense_reference import dense_advection


def test_make_grid_spacing_at_standard_sizes():
    g1 = make_grid(1, 50, 100, 1.0)
    assert g1.dx == pytest.approx(0.02, abs=0)
    assert g1.dt == pytest.approx(0.01, abs=0)
    g2 = make_grid(2, 50, 100, 1.0)
    assert g2.num_points == 2500
    assert g2.dx == pytest.approx(0.02, abs=0)
    tiny = make_grid(1, 4, 2, 0.5)
    assert tiny.dx == pytest.approx(0.25, abs=0)
    assert tiny.dt == pytest.approx(0.25, abs=0)


@pytest.mark.parametrize(
    "args",
    [(3, 8, 4, 1.0), (0, 8, 4, 1.0), (1, 3, 4, 1.0), (1, 8, 1, 1.0), (1, 8, 4, 0.0)],
)
def test_make_grid_rejects_bad_sizes(args):
    with pytest.raises(ValueError):
        make_grid(*args)


def test_laplacian_of_constant_is_zero():
    grid = make_grid(2, 6, 4, 1.0)
    out = laplacian_apply(grid, np.full(grid.num_points, 3.7))
    assert np.max(np.abs(out)) <= 1e-12


def test_laplacian_single_stencil_wraparound():
    grid = make_grid(1, 4, 2, 1.0)
    f = np.array([1.0, 0.0, 0.0, 0.0])
    expected = np.array([-2.0, 1.0, 0.0, 1.0]) / grid.dx**2
    np.testing.assert_allclose(laplacian_apply(grid, f), expected, rtol=0, atol=1e-12)


def test_laplacian_second_order_on_sine():
    errors = []
    for points in (32, 64):
        grid = make_grid(1, points, 2, 1.0)
        x = grid.coordinates()[:, 0]
        f = np.sin(2 * np.pi * x)
        exact = -((2 * np.pi) ** 2) * f
        errors.append(np.max(np.abs(laplacian_apply(grid, f) - exact)))
    order = np.log2(errors[0] / errors[1])
    assert order >= 1.9


def test_laplacian_sums_to_zero():
    rng = np.random.default_rng(3)
    for dim in (1, 2):
        grid = make_grid(dim, 7, 2, 1.0)
        f = rng.standard_normal(grid.num_points)
        assert abs(np.sum(laplacian_apply(grid, f)) * grid.cell_volume) <= 1e-10


def test_one_sided_gradients_constant():
    grid = make_grid(2, 5, 2, 1.0)
    slopes = gradient_field(grid, np.full(grid.num_points, -2.2))
    assert np.max(np.abs(slopes)) == 0.0


def test_one_sided_gradients_unit_bump():
    grid = make_grid(1, 4, 2, 1.0)
    slopes = gradient_field(grid, np.array([0.0, 1.0, 0.0, 0.0]))
    # backward components first, forward components after
    assert slopes[1, 0] == pytest.approx(1.0 / grid.dx, abs=0)
    assert slopes[1, 1] == pytest.approx(-1.0 / grid.dx, abs=0)


def test_one_sided_gradients_first_order():
    errors = []
    for points in (32, 64):
        grid = make_grid(1, points, 2, 1.0)
        x = grid.coordinates()[:, 0]
        slopes = gradient_field(grid, np.sin(2 * np.pi * x))
        exact = 2 * np.pi * np.cos(2 * np.pi * x)
        err = max(
            np.max(np.abs(slopes[:, 0] - exact)), np.max(np.abs(slopes[:, 1] - exact))
        )
        errors.append(err)
    order = np.log2(errors[0] / errors[1])
    assert order >= 0.9


def test_eo_hamiltonian_zero_slopes():
    grid = make_grid(2, 5, 2, 1.0)
    out = eo_hamiltonian(grid, np.zeros((grid.num_points, 4)))
    assert np.max(np.abs(out)) == 0.0


def test_eo_hamiltonian_point_formula():
    grid = make_grid(1, 4, 2, 1.0)
    slopes = np.zeros((4, 2))
    slopes[2, 0] = 2.0   # backward slope
    slopes[2, 1] = -1.0  # forward slope
    out = eo_hamiltonian(grid, slopes)
    assert out[2] == pytest.approx(2.5, abs=0)
    assert np.all(out[[0, 1, 3]] == 0.0)


def test_eo_hamiltonian_consistency_first_order():
    errors = []
    for points in (64, 128):
        grid = make_grid(1, points, 2, 1.0)
        x = grid.coordinates()[:, 0]
        f = np.sin(2 * np.pi * x)
        out = eo_hamiltonian(grid, gradient_field(grid, f))
        exact = 0.5 * (2 * np.pi * np.cos(2 * np.pi * x)) ** 2
        errors.append(np.max(np.abs(out - exact)))
    order = np.log2(errors[0] / errors[1])
    assert order >= 0.9


def divergence_matrix(grid, slopes):
    """Matrix of m -> div(m q), the transport of the Fokker-Planck step.

    With eps = 0 and dt = 1 the step matrix is Id + T[q], and the FP
    transport is -T[q]^T, read off the batched assembly.
    """
    unit_step = make_grid(grid.dim, grid.points_per_dim, 2, 2.0)
    q = np.broadcast_to(slopes, (3,) + slopes.shape)
    step = OperatorCache(unit_step, 0.0, q).matrix(0).toarray()
    return np.eye(grid.num_points) - step.T


def test_divergence_zero_slopes():
    grid = make_grid(1, 6, 2, 1.0)
    m = np.arange(6, dtype=float)
    out = divergence_matrix(grid, np.zeros((6, 2))) @ m
    assert np.max(np.abs(out)) == 0.0


@pytest.mark.parametrize("dim", [1, 2])
def test_divergence_is_conservative(dim, rng):
    grid = make_grid(dim, 6, 2, 1.0)
    m = rng.uniform(0.1, 2.0, grid.num_points)
    slopes = rng.uniform(-3.0, 3.0, (grid.num_points, 2 * dim))
    total = np.sum(divergence_matrix(grid, slopes) @ m) * grid.cell_volume
    assert abs(total) <= 1e-12


@pytest.mark.parametrize("dim", [1, 2])
def test_divergence_matrix_is_negative_transpose_of_advection(dim, rng):
    grid = make_grid(dim, 6, 2, 1.0)
    slopes = rng.uniform(-2.0, 2.0, (grid.num_points, 2 * dim))
    np.testing.assert_allclose(
        divergence_matrix(grid, slopes), -dense_advection(grid, slopes).T, rtol=0, atol=1e-14
    )


def test_integrate_basics():
    grid = make_grid(2, 9, 2, 1.0)
    assert integrate(grid, np.ones(grid.num_points)) == pytest.approx(1.0, abs=1e-14)
    assert integrate(grid, np.zeros(grid.num_points)) == 0.0
    g1 = make_grid(1, 50, 2, 1.0)
    x = g1.coordinates()[:, 0]
    assert abs(integrate(g1, np.sin(2 * np.pi * x))) <= 1e-14


def test_l2_norm_matches_quadrature(rng):
    grid = make_grid(1, 12, 2, 1.0)
    f = rng.standard_normal(grid.num_points)
    assert l2_norm(grid, f) == pytest.approx(np.sqrt(np.sum(f * f) * grid.dx), rel=1e-14)


def test_gradient_field_stacks_all_levels(rng):
    for dim in (1, 2):
        grid = make_grid(dim, 5, 3, 1.0)
        u = rng.standard_normal((4, grid.num_points))
        stacked = gradient_field(grid, u)
        assert stacked.shape == (4, grid.num_points, 2 * dim)
        for n in range(4):
            np.testing.assert_array_equal(stacked[n], gradient_field(grid, u[n]))


def test_gradient_field_rejects_a_field_of_the_wrong_size():
    grid = make_grid(1, 8, 3, 1.0)
    with pytest.raises(ValueError, match="expected field of shape"):
        gradient_field(grid, np.zeros((4, 7)))


def test_policy_gap_is_max_over_levels(rng):
    grid = make_grid(1, 8, 3, 1.0)
    q_old = rng.standard_normal((4, 8, 2))
    q_new = q_old.copy()
    q_new[2] += 0.5
    expected = l2_norm(grid, (q_new[2] - q_old[2]).ravel())
    assert policy_gap(grid, q_new, q_old) == pytest.approx(expected, rel=1e-14)

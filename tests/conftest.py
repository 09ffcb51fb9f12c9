import numpy as np
import pytest

from mfg_inverse import MFGProblem, make_grid
from mfg_inverse.grid import integrate
from mfg_inverse.pde import OperatorCache


def bump_density(grid, width=40.0):
    """Normalized Gaussian-like bump centered at the middle of the torus."""
    coords = grid.coordinates()
    m0 = np.exp(-width * np.sum((coords - 0.5) ** 2, axis=1))
    return m0 / integrate(grid, m0)


def small_problem(dim=1, points=8, steps=10, horizon=1.0, eps=0.3, width=40.0):
    grid = make_grid(dim, points, steps, horizon)
    m0 = bump_density(grid, width)
    return MFGProblem(grid=grid, eps=eps, m0=m0, uT=-m0, coupling_exponent=2.0)


class UncoupledProblem(MFGProblem):
    """The same problem with the coupling F switched off."""

    def coupling(self, m):
        return np.zeros_like(m)

    def coupling_derivative(self, m):
        return np.zeros_like(m)


def without_coupling(prob):
    return UncoupledProblem(prob.grid, prob.eps, prob.m0, prob.uT, prob.coupling_exponent)


def random_policy(grid, rng, scale=1.0):
    """Bounded random policy field over all time levels."""
    return scale * rng.uniform(-1.0, 1.0, size=(grid.time_steps + 1, grid.num_points, 2 * grid.dim))


def cache(prob, q):
    """The operator cache of a policy on a problem's grid and diffusion."""
    return OperatorCache(prob.grid, prob.eps, q)


@pytest.fixture
def rng():
    return np.random.default_rng(7)

"""Uniform periodic grids on the flat torus and the finite-difference
operators used by every solver in this package.

Conventions, fixed once here and relied on everywhere else:

* Spatial points sit at cell left endpoints ``x_i = i * dx`` with
  ``dx = 1 / points_per_dim``; there are no ghost cells, periodic
  wraparound is done by modular indexing.
* Spatial fields are flat arrays of length ``num_points`` in row-major
  order over dimensions.  Space-time fields stack ``time_steps + 1``
  spatial fields along axis 0.
* Policy fields carry ``2 * dim`` one-sided slope components per point:
  components ``0 .. dim-1`` are backward differences ``D^-_k``,
  components ``dim .. 2*dim-1`` are forward differences ``D^+_k``.
* Integrals use the rectangular rule ``sum(f) * dx**dim``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Grid:
    """Uniform discretization of the unit torus times [0, horizon]."""

    dim: int
    points_per_dim: int
    time_steps: int
    horizon: float

    @property
    def dx(self) -> float:
        return 1.0 / self.points_per_dim

    @property
    def dt(self) -> float:
        return self.horizon / self.time_steps

    @property
    def num_points(self) -> int:
        return self.points_per_dim ** self.dim

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.points_per_dim,) * self.dim

    @property
    def cell_volume(self) -> float:
        return self.dx ** self.dim

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.time_steps + 1) * self.dt

    def coordinates(self) -> np.ndarray:
        """Return the (num_points, dim) array of grid point coordinates."""
        axes = [np.arange(self.points_per_dim) * self.dx] * self.dim
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.column_stack([m.ravel() for m in mesh])


def make_grid(dim: int, points_per_dim: int, time_steps: int, horizon: float) -> Grid:
    """Validate sizes and build a :class:`Grid`."""
    if dim not in (1, 2):
        raise ValueError(f"dim must be 1 or 2, got {dim}")
    if points_per_dim < 4:
        raise ValueError(f"points_per_dim must be >= 4, got {points_per_dim}")
    if time_steps < 2:
        raise ValueError(f"time_steps must be >= 2, got {time_steps}")
    if horizon <= 0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    return Grid(dim, points_per_dim, time_steps, horizon)


def _mesh(grid: Grid, f: np.ndarray) -> tuple[np.ndarray, int]:
    """``f`` reshaped to its leading axes followed by the grid's shape,
    and the number of leading axes."""
    f = np.asarray(f, dtype=float)
    if f.shape[-1:] != (grid.num_points,):
        raise ValueError(f"expected field of shape (..., {grid.num_points}), got {f.shape}")
    return f.reshape(f.shape[:-1] + grid.shape), f.ndim - 1


def laplacian_apply(grid: Grid, f: np.ndarray) -> np.ndarray:
    """Centered second-order periodic Laplacian of a field.

    Leading axes of ``f``, such as the time levels of a space-time
    field, are kept.
    """
    mesh, lead = _mesh(grid, f)
    out = np.zeros_like(mesh)
    for axis in range(lead, lead + grid.dim):
        out += np.roll(mesh, 1, axis=axis) - 2.0 * mesh + np.roll(mesh, -1, axis=axis)
    return (out / grid.dx**2).reshape(mesh.shape[:lead] + (-1,))


def gradient_field(grid: Grid, f: np.ndarray) -> np.ndarray:
    """Backward and forward difference quotients of a field.

    Returns an array of shape (..., num_points, 2*dim); see the module
    docstring for the component layout.  Leading axes of ``f``, such as
    the time levels of a space-time field, are kept.
    """
    mesh, lead = _mesh(grid, f)
    shape = mesh.shape[:lead]
    slopes = np.empty(shape + (grid.num_points, 2 * grid.dim))
    for axis in range(grid.dim):
        back = (mesh - np.roll(mesh, 1, axis=lead + axis)) / grid.dx
        fwd = (np.roll(mesh, -1, axis=lead + axis) - mesh) / grid.dx
        slopes[..., axis] = back.reshape(shape + (-1,))
        slopes[..., grid.dim + axis] = fwd.reshape(shape + (-1,))
    return slopes


def _split_slopes(grid: Grid, slopes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    slopes = np.asarray(slopes, dtype=float)
    if slopes.shape[-2:] != (grid.num_points, 2 * grid.dim):
        raise ValueError(
            f"expected slopes of shape (..., {grid.num_points}, {2 * grid.dim}), got {slopes.shape}"
        )
    return slopes[..., : grid.dim], slopes[..., grid.dim :]


def eo_hamiltonian(grid: Grid, slopes: np.ndarray) -> np.ndarray:
    """Upwind (Engquist-Osher) value of the quadratic Hamiltonian.

    H_hat = 1/2 * sum_k [ max(D^-_k, 0)^2 + min(D^+_k, 0)^2 ], evaluated
    on a slope representation.  For slopes of a field u this is the
    monotone numerical counterpart of |grad u|^2 / 2; the same quadratic
    form doubles as the discrete running cost of a policy.  Leading axes
    of ``slopes``, such as the time levels of a policy field, are kept.
    """
    back, fwd = _split_slopes(grid, slopes)
    return 0.5 * (
        np.maximum(back, 0.0) ** 2 + np.minimum(fwd, 0.0) ** 2
    ).sum(axis=-1)


def integrate(grid: Grid, f: np.ndarray) -> float:
    """Rectangular-rule integral of a spatial field over the torus."""
    f = np.asarray(f, dtype=float)
    if f.shape != (grid.num_points,):
        raise ValueError(f"expected spatial field of shape ({grid.num_points},), got {f.shape}")
    return float(f.sum() * grid.cell_volume)


def l2_norm(grid: Grid, f: np.ndarray) -> float:
    """L2 norm with rectangular quadrature weights."""
    f = np.asarray(f, dtype=float)
    return float(np.sqrt(np.sum(f * f) * grid.cell_volume))


def policy_gap(grid: Grid, new: np.ndarray, old: np.ndarray) -> float:
    """max over time levels (axis 0) of the spatial L2 norm of new - old.

    The norm uses rectangular quadrature weights and runs over every
    trailing axis, such as the 2*dim slope components of a policy field.
    This is the stopping metric of both policy iterations and of the
    coupled adjoint.
    """
    diff = np.asarray(new) - np.asarray(old)
    per_level = np.sqrt(np.sum(diff * diff, axis=tuple(range(1, diff.ndim))) * grid.cell_volume)
    return float(per_level.max())

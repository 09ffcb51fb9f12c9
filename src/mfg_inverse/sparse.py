"""Implicit-Euler step matrices for the linear HJB and Fokker-Planck
sweeps, assembled for all time levels of a policy at once.

The two step matrices of level n are built from one transport stencil:

    B_n = Id + dt * (-eps * Lap + T[q^n])        (HJB, backward in time)
    A_n = B_n^T                                  (FP, forward in time)

where ``T[q] u = sum_k max(q^-_k, 0) D^-_k u + min(q^+_k, 0) D^+_k u``
is the upwind advection associated with the Engquist-Osher flux.  The
FP matrix is never built: its solves are the transposed solves of B_n,
which is what makes the scheme conservative (column sums of A_n are 1)
and keeps the forward and adjoint problems discretely dual.  B_n is an
M-matrix: diagonal at least one, nonpositive off-diagonal entries.

Every B_n has the same sparsity: a point couples to itself and to its
two periodic neighbours along each axis.  That pattern depends only on
``(dim, points_per_dim)`` and is built once; :func:`_step_matrix` then
fills the values of every level in one vectorised pass, as a
``(time_steps, nnz)`` array whose rows share the pattern's CSC order.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .grid import Grid

RESIDUAL_TOL = 1e-12


class LinearSolveError(RuntimeError):
    """Raised when a step system cannot be solved to tolerance."""


class StepPattern(NamedTuple):
    """CSC sparsity of the step matrices of one grid size.

    Row i of ``stencil`` lists the columns that point i couples to, in
    stencil order: itself, then the minus and the plus neighbour along
    each axis.  ``slot`` has the same shape and gives the position of
    each of those entries in CSC order.
    """

    indptr: np.ndarray
    indices: np.ndarray
    stencil: np.ndarray
    slot: np.ndarray


@lru_cache(maxsize=8)
def step_pattern(dim: int, points_per_dim: int) -> StepPattern:
    n = points_per_dim
    index = np.arange(n**dim).reshape((n,) * dim)
    columns = [index]
    for axis in range(dim):
        columns += [np.roll(index, 1, axis=axis), np.roll(index, -1, axis=axis)]
    stencil = np.stack([c.ravel() for c in columns], axis=1)
    width = stencil.shape[1]
    rows = np.repeat(np.arange(n**dim), width)
    order = np.lexsort((rows, stencil.ravel()))  # by column, then by row
    slot = np.empty(order.size, dtype=np.intp)
    slot[order] = np.arange(order.size)
    # each column holds `width` entries: point j is the diagonal of row j
    # and, along each axis, the minus neighbour of one row and the plus
    # neighbour of another (distinct rows, as points_per_dim >= 4)
    pattern = StepPattern(
        indptr=np.arange(0, order.size + 1, width, dtype=np.int32),
        indices=rows[order].astype(np.int32),
        stencil=stencil,
        slot=slot.reshape(stencil.shape),
    )
    for array in pattern:
        array.setflags(write=False)
    return pattern


def _step_matrix(grid: Grid, q: np.ndarray, eps: float) -> np.ndarray:
    """Values of B_n for every level n < time_steps of the policy field q.

    Returns a ``(time_steps, nnz)`` array in the CSC order of
    :func:`step_pattern`.
    """
    dim, dx, dt = grid.dim, grid.dx, grid.dt
    q = np.asarray(q, dtype=float)[: grid.time_steps]
    a = np.maximum(q[..., :dim], 0.0)
    c = np.minimum(q[..., dim:], 0.0)
    diffusion = eps / dx**2
    stencil = np.empty(q.shape[:2] + (1 + 2 * dim,))
    stencil[..., 0] = 1.0 + dt * (2 * dim * diffusion + (a - c).sum(axis=-1) / dx)
    stencil[..., 1::2] = dt * (-diffusion - a / dx)
    stencil[..., 2::2] = dt * (-diffusion + c / dx)
    pattern = step_pattern(dim, grid.points_per_dim)
    values = np.empty((len(q), pattern.indices.size))
    values[:, pattern.slot.ravel()] = stencil.reshape(len(q), -1)
    return values

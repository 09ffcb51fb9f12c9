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

The fill-reducing ordering of the LU factorizations is a property of
the pattern too.  The pattern is symmetric, so the multiple minimum
degree ordering of B + B^T does not depend on the values; it is
computed once per grid size, on the first request for the pattern,
together with the CSC layout of the symmetrically permuted matrix
B[p][:, p].  Each level is then factorized in that layout with no
ordering step of its own.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

# Bound once here, so that code wrapping ``scipy.sparse.linalg.splu`` to
# count the level factorizations does not count the one-time ordering.
from scipy.sparse.linalg import splu

from .grid import Grid

RESIDUAL_TOL = 1e-12

# Fill-reducing ordering of every step factorization.  It halves the fill
# of the 2d five-point stencil against COLAMD and is on par in 1d.
PERMC_SPEC = "MMD_AT_PLUS_A"


class LinearSolveError(RuntimeError):
    """Raised when a step system cannot be solved to tolerance."""


class StepPattern(NamedTuple):
    """CSC sparsity of the step matrices of one grid size.

    Row i of ``stencil`` lists the columns that point i couples to, in
    stencil order: itself, then the minus and the plus neighbour along
    each axis.  ``slot`` has the same shape and gives the position of
    each of those entries in CSC order.

    ``order`` is the fill-reducing symmetric ordering p: the matrix that
    is factorized is B[p][:, p], whose CSC values are ``values[gather]``
    for the CSC values ``values`` of B, with row indices
    ``ordered_indices`` and the same ``indptr``.
    """

    indptr: np.ndarray
    indices: np.ndarray
    stencil: np.ndarray
    slot: np.ndarray
    order: np.ndarray
    gather: np.ndarray
    ordered_indices: np.ndarray


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
    indptr = np.arange(0, order.size + 1, width, dtype=np.int32)
    indices = rows[order].astype(np.int32)
    # position in B[p][:, p] of each point: perm_c maps a column of B to
    # its column in the ordered matrix, and the ordering is symmetric
    position = _symmetric_ordering(indptr, indices, slot[::width])
    column_of = np.repeat(np.arange(n**dim), width)  # the column of each CSC entry
    gather = np.lexsort((position[indices], position[column_of]))  # by column, then by row
    pattern = StepPattern(
        indptr=indptr,
        indices=indices,
        stencil=stencil,
        slot=slot.reshape(stencil.shape),
        order=np.argsort(position),
        gather=gather,
        ordered_indices=position[indices][gather].astype(np.int32),
    )
    for array in pattern:
        array.setflags(write=False)
    return pattern


def _symmetric_ordering(indptr: np.ndarray, indices: np.ndarray, diagonal: np.ndarray) -> np.ndarray:
    """SuperLU's column permutation ``perm_c`` for the pattern, from a
    nonsingular, diagonally dominant stand-in with the same entries."""
    values = np.full(indices.size, -1.0)
    values[diagonal] = 2.0 * (indptr[1] - indptr[0])
    size = indptr.size - 1
    stand_in = sp.csc_matrix((values, indices, indptr), shape=(size, size))
    return splu(stand_in, permc_spec=PERMC_SPEC).perm_c


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

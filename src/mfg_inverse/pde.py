"""Problem container and the linear PDE sweeps.

All four solvers share the same per-level step matrices (see
:mod:`mfg_inverse.sparse`).  Since the FP matrix is exactly the HJB
matrix transposed, one LU factorization per time level serves the
forward density sweep, the backward value sweep and the adjoint sweeps;
:class:`OperatorCache` holds those factorizations for one fixed policy
and is invalidated simply by building a new cache when the policy
changes.  Each factorization reuses the ordering that the step pattern
fixes for its grid size, so no level pays for an ordering of its own.
The sources of a sweep that do not depend on its own unknowns are
evaluated for all levels at once, before the sweep.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import sparse
from .grid import Grid, eo_hamiltonian, gradient_field, integrate, l2_norm

# Options of every level factorization.  The matrix is already in its
# fill-reducing order (NATURAL keeps it, and makes scipy prefer diagonal
# pivots); the smallest supernode relaxation and panel size factorize
# these small five- and three-point matrices fastest, at unchanged fill.
FACTOR_OPTIONS = {"permc_spec": "NATURAL", "relax": 1, "panel_size": 1}


class ConvergenceError(RuntimeError):
    """An iterative loop hit its cap; carries the last residual or gap."""

    def __init__(self, message: str, last_gap: float):
        super().__init__(message)
        self.last_gap = last_gap


class NonFiniteError(ConvergenceError):
    """A policy iteration produced a NaN or infinite iterate."""


def require_finite(name: str, value, sweep: int, gaps: list[float]) -> None:
    """Raise NonFiniteError, naming the iterate, unless value is finite."""
    if not np.all(np.isfinite(value)):
        raise NonFiniteError(
            f"{name} is non-finite after sweep {sweep}", gaps[-1] if gaps else np.nan
        )


@dataclass(frozen=True)
class MFGProblem:
    """Mean-field game data on a periodic grid.

    The Hamiltonian is quadratic, H(p) = |p|^2 / 2, and the coupling is
    the power law F(m) = m ** coupling_exponent.
    """

    grid: Grid
    eps: float
    m0: np.ndarray
    uT: np.ndarray
    coupling_exponent: float = 2.0

    def __post_init__(self):
        if self.eps <= 0:
            raise ValueError(f"eps must be positive, got {self.eps}")
        if self.coupling_exponent < 1:
            raise ValueError(f"coupling_exponent must be >= 1, got {self.coupling_exponent}")
        m0 = np.asarray(self.m0, dtype=float)
        uT = np.asarray(self.uT, dtype=float)
        n = self.grid.num_points
        if m0.shape != (n,) or uT.shape != (n,):
            raise ValueError(f"m0 and uT must have shape ({n},)")
        for name, value in (("m0", m0), ("uT", uT)):
            if not np.all(np.isfinite(value)):
                raise ValueError(f"{name} must be finite")
        if m0.min() < 0:
            raise ValueError("m0 must be nonnegative pointwise")
        mass = integrate(self.grid, m0)
        if mass <= 0:
            raise ValueError("m0 must have positive mass")
        object.__setattr__(self, "m0", m0 / mass)
        object.__setattr__(self, "uT", uT)

    def coupling(self, m: np.ndarray) -> np.ndarray:
        """F(m)."""
        return np.power(m, self.coupling_exponent)

    def coupling_derivative(self, m: np.ndarray) -> np.ndarray:
        """F'(m)."""
        a = self.coupling_exponent
        return a * np.power(m, a - 1.0)


class OperatorCache:
    """Factorized step matrices, one per time level, for a fixed policy.

    The values of every level are assembled when the cache is built;
    each level is factorized on first use, as B_n[p][:, p] with the
    ordering p of the step pattern.  A level whose values equal those of
    the level before it bit for bit shares that level's LU.
    ``hjb_solve`` applies B_n^{-1} and ``fp_solve`` applies
    (B_n^T)^{-1} through the transposed triangular solves of the same
    LU, permuting the right-hand side by p and the solution back.
    ``values``, ``matrix``, ``apply`` and ``check`` keep the grid order;
    ``check`` verifies a whole sweep of either kind at once.
    """

    def __init__(self, grid: Grid, eps: float, q: np.ndarray):
        q = np.asarray(q, dtype=float)
        expected = (grid.time_steps + 1, grid.num_points, 2 * grid.dim)
        if q.shape != expected:
            raise ValueError(f"expected policy field of shape {expected}, got {q.shape}")
        self.grid = grid
        self.pattern = sparse.step_pattern(grid.dim, grid.points_per_dim)
        self.values = sparse._step_matrix(grid, q, eps)
        repeat = np.r_[False, np.all(self.values[1:] == self.values[:-1], axis=1)]
        # the level whose LU each level uses: the first of its run of repeats
        self._lu_level = np.maximum.accumulate(np.where(repeat, 0, np.arange(len(repeat))))
        self._lus: list = [None] * len(repeat)
        # one matrix in the ordered layout; each factorization sets its values
        n = grid.num_points
        self._ordered = sp.csc_matrix(
            (np.zeros(self.pattern.indices.size), self.pattern.ordered_indices, self.pattern.indptr),
            shape=(n, n),
        )

    def matrix(self, level: int) -> sp.csc_matrix:
        """B_n of one level."""
        n = self.grid.num_points
        return sp.csc_matrix(
            (self.values[level], self.pattern.indices, self.pattern.indptr), shape=(n, n)
        )

    def _lu(self, level: int):
        level = self._lu_level[level]
        lu = self._lus[level]
        if lu is None:
            self._ordered.data = self.values[level][self.pattern.gather]
            try:
                lu = spla.splu(self._ordered, **FACTOR_OPTIONS)
            except RuntimeError as exc:  # singular factorization
                raise sparse.LinearSolveError(f"level {level}: factorization failed: {exc}") from exc
            self._lus[level] = lu
        return lu

    def _solve(self, level: int, rhs: np.ndarray, trans: str) -> np.ndarray:
        order = self.pattern.order
        x = np.empty(order.size)
        x[order] = self._lu(level).solve(np.asarray(rhs, dtype=float)[order], trans=trans)
        return x

    def hjb_solve(self, level: int, rhs: np.ndarray) -> np.ndarray:
        return self._solve(level, rhs, "N")

    def fp_solve(self, level: int, rhs: np.ndarray) -> np.ndarray:
        return self._solve(level, rhs, "T")

    def apply(self, x: np.ndarray, transpose: bool = False, first_level: int = 0) -> np.ndarray:
        """B_n x[i], or B_n^T x[i], with n = first_level + i, for every row i of x at once."""
        values = self.values[first_level : first_level + len(x)]
        pattern = self.pattern
        if transpose:  # CSC keeps each column of B_n, i.e. each row of B_n^T, together
            terms = values * x[:, pattern.indices]
        else:
            terms = values[:, pattern.slot.ravel()] * x[:, pattern.stencil.ravel()]
        return terms.reshape(len(x), -1, pattern.stencil.shape[1]).sum(axis=-1)

    def check(self, x: np.ndarray, rhs: np.ndarray, transpose: bool = False, first_level: int = 0) -> None:
        """Raise LinearSolveError unless x[i] solves level first_level + i
        with right-hand side rhs[i] to RESIDUAL_TOL, for every row i."""
        residual = np.linalg.norm(self.apply(x, transpose, first_level) - rhs, axis=1)
        scale = np.linalg.norm(rhs, axis=1)
        failed = np.flatnonzero(~(residual <= sparse.RESIDUAL_TOL * scale))  # NaN fails too
        if failed.size:
            i = failed[0]
            raise sparse.LinearSolveError(
                f"level {first_level + i}: residual {residual[i]:.3e} above"
                f" {sparse.RESIDUAL_TOL:.0e} times the right-hand side norm {scale[i]:.3e}"
            )


def _cache(prob: MFGProblem, q: np.ndarray, ops: OperatorCache | None) -> OperatorCache:
    if ops is not None:
        return ops
    return OperatorCache(prob.grid, prob.eps, q)


def solve_fp(prob: MFGProblem, q: np.ndarray, ops: OperatorCache | None = None) -> np.ndarray:
    """Forward Fokker-Planck sweep for a fixed policy.

    Step n -> n+1 solves A[q^n] m^{n+1} = m^n; mass is conserved exactly
    because the column sums of A are 1.
    """
    ops = _cache(prob, q, ops)
    grid = prob.grid
    m = np.empty((grid.time_steps + 1, grid.num_points))
    m[0] = prob.m0
    for n in range(grid.time_steps):
        m[n + 1] = ops.fp_solve(n, m[n])
    ops.check(m[1:], m[:-1], transpose=True)
    return m


def solve_hjb_linear(
    prob: MFGProblem,
    q: np.ndarray,
    m: np.ndarray,
    b: np.ndarray,
    ops: OperatorCache | None = None,
) -> np.ndarray:
    """Backward linear HJB sweep for a fixed policy and density.

    Step n+1 -> n solves B[q^n] u^n = u^{n+1} + dt (L_h(q^n) + b + F(m^n))
    where L_h is the upwind quadratic form of the policy slopes, so that
    at the fixed point q = grad u the discrete identity
    q . grad u - L(q) = H_hat(grad u) holds exactly.
    """
    ops = _cache(prob, q, ops)
    grid = prob.grid
    u = np.empty((grid.time_steps + 1, grid.num_points))
    u[grid.time_steps] = prob.uT
    source = grid.dt * hjb_sources(prob, q, m, b)
    rhs = np.empty((grid.time_steps, grid.num_points))
    for n in range(grid.time_steps - 1, -1, -1):
        rhs[n] = u[n + 1] + source[n]
        u[n] = ops.hjb_solve(n, rhs[n])
    ops.check(u[:-1], rhs)
    return u


def hjb_sources(prob: MFGProblem, q: np.ndarray, m: np.ndarray, b: np.ndarray) -> np.ndarray:
    """L_h(q^n) + b + F(m^n), the source of the HJB step of every level
    n < time_steps, as one ``(time_steps, num_points)`` array."""
    levels = prob.grid.time_steps
    return eo_hamiltonian(prob.grid, q[:levels]) + np.asarray(b, dtype=float) + prob.coupling(m[:levels])


def solve_adjoint_w(
    prob: MFGProblem,
    q: np.ndarray,
    w0: np.ndarray,
    ops: OperatorCache | None = None,
    start_level: int = 0,
) -> np.ndarray:
    """Forward sweep of the light adjoint: same operator as solve_fp,
    initial value w0 injected at ``start_level``, zero before it."""
    ops = _cache(prob, q, ops)
    grid = prob.grid
    w = np.zeros((grid.time_steps + 1, grid.num_points))
    w[start_level] = np.asarray(w0, dtype=float)
    for n in range(start_level, grid.time_steps):
        w[n + 1] = ops.fp_solve(n, w[n])
    ops.check(w[start_level + 1 :], w[start_level:-1], transpose=True, first_level=start_level)
    return w


def _upwind_div_m_grad(grid: Grid, q: np.ndarray, m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """div(m grad v) with the upwind splitting of the transport, for
    every level of the space-time fields q, m and v at once.

    The masks follow the active branches of the Engquist-Osher flux at
    the policy q, so this is the exact transpose of the policy
    sensitivity of the advection, applied to m.
    """
    shape = (len(v),) + grid.shape
    v_slopes = gradient_field(grid, v)
    out = np.zeros(shape)
    for axis in range(grid.dim):
        fwd = grid.dim + axis  # the D^+ component of this axis; D^- is component `axis`
        a = ((q[..., axis] > 0) * m * v_slopes[..., axis]).reshape(shape)
        c = ((q[..., fwd] < 0) * m * v_slopes[..., fwd]).reshape(shape)
        out += (np.roll(a, -1, axis=axis + 1) - a) / grid.dx
        out += (c - np.roll(c, 1, axis=axis + 1)) / grid.dx
    return out.reshape(len(v), -1)


def solve_coupled_adjoint(
    prob: MFGProblem,
    u: np.ndarray,
    m: np.ndarray,
    w_init: np.ndarray,
    v_term: np.ndarray,
    tol: float = 1e-10,
    max_iter: int = 200,
) -> tuple[np.ndarray, np.ndarray]:
    """Fixed-point solve of the coupled adjoint pair around a state (u, m).

    w runs forward with the FP-type operator, transported by grad u and
    sourced by div(m grad v); v runs backward with the HJB-type
    operator, advected by grad u and sourced by F'(m) w.  The sweeps
    alternate (w given v, then v given w, v seeded at zero) until the
    combined L2 change of both fields drops below tol.

    The time-level placements follow the exact adjoint of the discrete
    forward system: the w step n -> n+1 uses the policy at level n and
    the density at level n+1, the v step for level n uses the policy at
    level n-1, and the terminal datum enters as the right-hand side of
    the last v step.
    """
    grid = prob.grid
    n_steps = grid.time_steps
    q = gradient_field(grid, u)
    ops = OperatorCache(grid, prob.eps, q)
    w = np.zeros((n_steps + 1, grid.num_points))
    v = np.zeros((n_steps + 1, grid.num_points))
    w_init = np.asarray(w_init, dtype=float)
    v_term = np.asarray(v_term, dtype=float)
    fprime = prob.coupling_derivative(m)

    # row n of each holds the right-hand side of the level-n solve
    w_rhs = np.empty((n_steps, grid.num_points))
    v_rhs = np.empty((n_steps, grid.num_points))
    v_rhs[n_steps - 1] = v_term
    last_change = np.inf
    for _ in range(max_iter):
        # the sources of each half-sweep depend only on the other field
        w_source = grid.dt * _upwind_div_m_grad(grid, q[:-1], m[1:], v[1:])
        w_new = np.empty_like(w)
        w_new[0] = w_init
        for n in range(n_steps):
            w_rhs[n] = w_new[n] + w_source[n]
            w_new[n + 1] = ops.fp_solve(n, w_rhs[n])
        ops.check(w_new[1:], w_rhs, transpose=True)
        v_source = grid.dt * fprime[1:-1] * w_new[2:]  # row n - 1 feeds the level n - 1 step
        v_new = np.empty_like(v)
        v_new[n_steps] = ops.hjb_solve(n_steps - 1, v_term)
        for n in range(n_steps - 1, 0, -1):
            v_rhs[n - 1] = v_new[n + 1] + v_source[n - 1]
            v_new[n] = ops.hjb_solve(n - 1, v_rhs[n - 1])
        ops.check(v_new[1:], v_rhs)
        v_new[0] = v_new[1]
        last_change = max(
            max(l2_norm(grid, w_new[n] - w[n]) for n in range(n_steps + 1)),
            max(l2_norm(grid, v_new[n] - v[n]) for n in range(n_steps + 1)),
        )
        w, v = w_new, v_new
        if last_change < tol:
            return w, v
    raise ConvergenceError(
        f"coupled adjoint did not converge in {max_iter} sweeps"
        f" (last change {last_change:.3e})",
        last_change,
    )

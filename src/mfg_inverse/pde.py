"""Problem container and the linear PDE sweeps.

Every linear solve of the package is one of two sweeps over the same
per-level step matrices (see :mod:`mfg_inverse.sparse`): a forward
sweep with the FP-type operator, which serves the density and the light
adjoint w, and a backward sweep with the HJB-type operator, which serves
the value function and the adjoint v.  Since the FP matrix is exactly
the HJB matrix transposed, one LU factorization per time level serves
both.  :class:`OperatorCache` holds those factorizations for one fixed
policy, carries that policy as ``q``, and owns the only level loop of
each direction; a new policy means a new cache.  Each factorization
reuses the ordering that the step pattern fixes for its grid size, so no
level pays for an ordering of its own.  The sources of a sweep do not
depend on its own unknowns and are evaluated for all levels at once,
before the sweep.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import anderson, sparse
from .grid import Grid, eo_hamiltonian, gradient_field, integrate, policy_gap

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
    """Factorized step matrices, one per time level, for one fixed policy,
    which the cache keeps as ``q``.

    The values of every level are assembled when the cache is built;
    each level is factorized on first use, as B_n[p][:, p] with the
    ordering p of the step pattern.  A level whose values equal those of
    the level before it bit for bit shares that level's LU.
    ``hjb_solve`` applies B_n^{-1} and ``fp_solve`` applies
    (B_n^T)^{-1} through the transposed triangular solves of the same
    LU, permuting the right-hand side by p and the solution back.
    ``values``, ``matrix``, ``apply`` and ``check`` keep the grid order;
    ``check`` verifies a whole sweep of either kind at once.
    ``sweep_forward`` and ``sweep_backward`` are the level loops of the
    package: each solves one level at a time through ``fp_solve`` or
    ``hjb_solve`` and checks the whole sweep with ``check``.
    """

    def __init__(self, grid: Grid, eps: float, q: np.ndarray):
        q = np.asarray(q, dtype=float)
        expected = (grid.time_steps + 1, grid.num_points, 2 * grid.dim)
        if q.shape != expected:
            raise ValueError(f"expected policy field of shape {expected}, got {q.shape}")
        self.grid = grid
        self.q = q
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

    def sweep_forward(self, x0: np.ndarray, sources: np.ndarray | None = None, start: int = 0) -> np.ndarray:
        """Solve B_n^T x[n+1] = x[n] + sources[n] for n = start, ..., time_steps - 1.

        x[start] = x0 and the rows before ``start`` are zero; ``sources``
        has one row per level, and None means no source.
        """
        grid = self.grid
        x = np.zeros((grid.time_steps + 1, grid.num_points))
        x[start] = x0
        rhs = np.empty((grid.time_steps - start, grid.num_points))
        for n in range(start, grid.time_steps):
            rhs[n - start] = x[n] if sources is None else x[n] + sources[n]
            x[n + 1] = self.fp_solve(n, rhs[n - start])
        self.check(x[start + 1 :], rhs, transpose=True, first_level=start)
        return x

    def sweep_backward(self, x_end: np.ndarray, sources: np.ndarray) -> np.ndarray:
        """Solve B_n x[n] = x[n+1] + sources[n] for n = time_steps - 1, ..., 0,
        down from x[time_steps] = x_end."""
        grid = self.grid
        x = np.empty((grid.time_steps + 1, grid.num_points))
        x[grid.time_steps] = x_end
        rhs = np.empty((grid.time_steps, grid.num_points))
        for n in range(grid.time_steps - 1, -1, -1):
            rhs[n] = x[n + 1] + sources[n]
            x[n] = self.hjb_solve(n, rhs[n])
        self.check(x[:-1], rhs)
        return x


def solve_fp(prob: MFGProblem, ops: OperatorCache) -> np.ndarray:
    """Forward Fokker-Planck sweep for the policy of ``ops``.

    Step n -> n+1 solves A[q^n] m^{n+1} = m^n; mass is conserved exactly
    because the column sums of A are 1.
    """
    return ops.sweep_forward(prob.m0)


def solve_hjb_linear(prob: MFGProblem, ops: OperatorCache, m: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Backward linear HJB sweep for the policy of ``ops`` and a density.

    Step n+1 -> n solves B[q^n] u^n = u^{n+1} + dt (L_h(q^n) + b + F(m^n))
    where L_h is the upwind quadratic form of the policy slopes, so that
    at the fixed point q = grad u the discrete identity
    q . grad u - L(q) = H_hat(grad u) holds exactly.
    """
    return ops.sweep_backward(prob.uT, prob.grid.dt * hjb_sources(prob, ops.q, m, b))


def hjb_sources(prob: MFGProblem, q: np.ndarray, m: np.ndarray, b: np.ndarray) -> np.ndarray:
    """L_h(q^n) + b + F(m^n), the source of the HJB step of every level
    n < time_steps, as one ``(time_steps, num_points)`` array."""
    levels = prob.grid.time_steps
    return eo_hamiltonian(prob.grid, q[:levels]) + np.asarray(b, dtype=float) + prob.coupling(m[:levels])


def solve_adjoint_w(ops: OperatorCache, w0: np.ndarray, start_level: int = 0) -> np.ndarray:
    """Forward sweep of the light adjoint: same operator as solve_fp,
    initial value w0 injected at ``start_level``, zero before it."""
    return ops.sweep_forward(w0, start=start_level)


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
    combined L2 change of both fields drops below tol.  The pairs (w, v)
    are Anderson-mixed with history depth
    :data:`mfg_inverse.anderson.DEPTH`, and the last pass is returned
    unmixed.

    The time-level placements follow the exact adjoint of the discrete
    forward system: the w step n -> n+1 uses the policy at level n and
    the density at level n+1, the v step for level n uses the policy at
    level n-1, and the terminal datum enters as the right-hand side of
    the last v step.
    """
    grid = prob.grid
    ops = OperatorCache(grid, prob.eps, gradient_field(grid, u))
    w = np.zeros((grid.time_steps + 1, grid.num_points))
    v = np.zeros((grid.time_steps + 1, grid.num_points))
    fprime = prob.coupling_derivative(m)

    # row n of v_source feeds the level-n step, whose solution is v at
    # level n + 1; the last step's right-hand side is the terminal datum
    v_source = np.zeros((grid.time_steps, grid.num_points))
    mixer = anderson.Anderson(anderson.DEPTH, (2,) + w.shape)
    last_change = np.inf
    for _ in range(max_iter):
        # the sources of each half-sweep depend only on the other field
        w_source = grid.dt * _upwind_div_m_grad(grid, ops.q[:-1], m[1:], v[1:])
        w_new = ops.sweep_forward(w_init, w_source)
        v_source[:-1] = grid.dt * fprime[1:-1] * w_new[2:]
        shifted = ops.sweep_backward(v_term, v_source)
        v_new = np.concatenate((shifted[:1], shifted[:-1]))  # v^0 = v^1
        last_change = max(policy_gap(grid, w_new, w), policy_gap(grid, v_new, v))
        if last_change < tol:
            return w_new, v_new
        w, v = mixer.mix(np.stack((w, v)), np.stack((w_new, v_new)), last_change)
    raise ConvergenceError(
        f"coupled adjoint did not converge in {max_iter} sweeps"
        f" (last change {last_change:.3e})",
        last_change,
    )

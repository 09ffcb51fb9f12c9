"""Quasi-Newton minimizer used by both inversion routes.

BFGS with a strong Wolfe line search (c1 = 1e-4, c2 = 0.9), terminating
on the sup norm of the gradient.  The dense inverse Hessian is kept at
every problem size.  The initial inverse Hessian is the identity scaled
by 1 / |g0|, and it is rescaled by the standard s.y / y.y factor before
the first update.
Updates that violate the curvature condition s.y > 0 are skipped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

WOLFE_C1 = 1e-4
WOLFE_C2 = 0.9


@dataclass
class OptimReport:
    minimizer: np.ndarray
    objective: float
    first_order_optimality: float
    iterations: int
    function_evals: int
    converged: bool
    message: str
    curvature: object | None = None


class _CountedFun:
    def __init__(self, fun):
        self.fun = fun
        self.evals = 0

    def __call__(self, x):
        self.evals += 1
        f, g = self.fun(x)
        return float(f), np.asarray(g, dtype=float)


def _zoom(fun, x, p, alpha_lo, phi_lo, dphi_lo, alpha_hi, phi_hi, dphi_hi, phi0, dphi0):
    """Shrink a bracketing interval until strong Wolfe holds.

    Trial points come from a secant step on the directional derivative
    (exact for quadratics), safeguarded towards bisection.
    """
    for _ in range(60):
        alpha = None
        denom = dphi_hi - dphi_lo
        if denom != 0.0:
            alpha = alpha_lo - dphi_lo * (alpha_hi - alpha_lo) / denom
        lo, hi = min(alpha_lo, alpha_hi), max(alpha_lo, alpha_hi)
        if alpha is None or not (lo + 0.01 * (hi - lo) <= alpha <= hi - 0.01 * (hi - lo)):
            alpha = 0.5 * (alpha_lo + alpha_hi)
        if hi - lo < 1e-16 * max(1.0, abs(alpha_lo)):
            return None
        phi, g = fun(x + alpha * p)
        dphi = float(g @ p)
        if phi > phi0 + WOLFE_C1 * alpha * dphi0 or phi >= phi_lo:
            alpha_hi, phi_hi, dphi_hi = alpha, phi, dphi
        else:
            if abs(dphi) <= -WOLFE_C2 * dphi0:
                return alpha, phi, g
            if dphi * (alpha_hi - alpha_lo) >= 0:
                alpha_hi, phi_hi, dphi_hi = alpha_lo, phi_lo, dphi_lo
            alpha_lo, phi_lo, dphi_lo = alpha, phi, dphi
    return None


def _line_search(fun, x, p, phi0, g0, max_expansions=30):
    """Strong Wolfe search along p starting from unit step."""
    dphi0 = float(g0 @ p)
    if dphi0 >= 0:
        return None
    alpha_prev, phi_prev, dphi_prev = 0.0, phi0, dphi0
    alpha = 1.0
    for i in range(max_expansions):
        phi, g = fun(x + alpha * p)
        dphi = float(g @ p)
        if phi > phi0 + WOLFE_C1 * alpha * dphi0 or (i > 0 and phi >= phi_prev):
            return _zoom(fun, x, p, alpha_prev, phi_prev, dphi_prev, alpha, phi, dphi, phi0, dphi0)
        if abs(dphi) <= -WOLFE_C2 * dphi0:
            return alpha, phi, g
        if dphi >= 0:
            return _zoom(fun, x, p, alpha, phi, dphi, alpha_prev, phi_prev, dphi_prev, phi0, dphi0)
        alpha_prev, phi_prev, dphi_prev = alpha, phi, dphi
        alpha *= 2.0
    return None


class _DenseInverseHessian:
    def __init__(self, n, scale):
        self.h = np.eye(n) * scale
        self.updates = 0

    def direction(self, g):
        return -(self.h @ g)

    def update(self, s, y):
        sy = float(s @ y)
        if sy <= 1e-14 * np.linalg.norm(s) * np.linalg.norm(y):
            return False
        if self.updates == 0:
            self.h = np.eye(len(s)) * (sy / float(y @ y))
        rho = 1.0 / sy
        hy = self.h @ y
        self.h -= rho * (np.outer(s, hy) + np.outer(hy, s))
        self.h += rho * rho * float(y @ hy) * np.outer(s, s) + rho * np.outer(s, s)
        self.updates += 1
        return True


def _compatible(curvature, n):
    return isinstance(curvature, _DenseInverseHessian) and curvature.h.shape == (n, n)


def minimize(
    fun_and_grad: Callable[[np.ndarray], tuple[float, np.ndarray]],
    x0: np.ndarray,
    opt_tol: float = 1e-10,
    max_iter: int = 500,
    callback: Callable[[np.ndarray], None] | None = None,
    curvature: object | None = None,
) -> OptimReport:
    """Minimize a smooth function given a (value, gradient) callback.

    ``curvature`` accepts the field of the same name from a previous
    report; reusing it warm-starts the quasi-Newton metric, which pays
    off when minimizing a slowly changing family of objectives.
    """
    fun = _CountedFun(fun_and_grad)
    x = np.asarray(x0, dtype=float).copy()
    f, g = fun(x)
    opt = float(np.abs(g).max()) if g.size else 0.0
    if opt <= opt_tol:
        return OptimReport(x, f, opt, 0, fun.evals, True, "optimal at start", curvature)

    if _compatible(curvature, len(x)):
        hess = curvature
    else:
        hess = _DenseInverseHessian(len(x), 1.0 / np.linalg.norm(g))

    for k in range(1, max_iter + 1):
        p = hess.direction(g)
        result = _line_search(fun, x, p, f, g)
        if result is None:
            # retry once along steepest descent with a fresh metric
            gnorm = np.linalg.norm(g)
            p = -g / gnorm
            hess = _DenseInverseHessian(len(x), 1.0 / gnorm)
            result = _line_search(fun, x, p, f, g)
        if result is None:
            opt = float(np.abs(g).max())
            return OptimReport(
                x, f, opt, k - 1, fun.evals, opt <= opt_tol,
                "line search could not make further progress", hess,
            )
        alpha, f_new, g_new = result
        s = alpha * p
        x_new = x + s
        y = g_new - g
        hess.update(s, y)
        x, f, g = x_new, f_new, g_new
        if callback is not None:
            callback(x)
        opt = float(np.abs(g).max())
        if opt <= opt_tol:
            return OptimReport(x, f, opt, k, fun.evals, True, "gradient below tolerance", hess)

    return OptimReport(x, f, opt, max_iter, fun.evals, False, "iteration cap reached", hess)

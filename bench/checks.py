"""Correctness checks of a reconstruction, made apart from the program.

Every stencil here is written with ``np.roll`` on the mesh-shaped field
and shares no code with ``mfg_inverse``: the Engquist-Osher upwind
transport, its transpose, the centred Laplacian and the upwind
Hamiltonian.  The checks take the returned ``(u, m, b)`` and

(a) measure the relative L2 error of ``b`` against ``b_true``;
(b) put the one-sided slopes of ``u`` in for the policy and evaluate the
    implicit-Euler HJB and Fokker-Planck steps, plus the terminal and
    initial conditions;
(c) check that every density level has unit mass and no negative entry;
(d) recompute the observation from ``(u, m, b)`` and compare it with the
    data: ``u(., 0)`` for ``u0``, the equation's right-hand side at the
    final time for ``utT``;
(e) in 2d with axis-symmetric inputs, check that ``b`` and every level
    of ``m`` are symmetric under swapping the axes.

Each check returns one figure; :func:`failures` compares the figures
with the bounds of a workload.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Discretization:
    """What the checks know of the problem: grid sizes and coefficients."""

    dim: int
    points: int
    steps: int
    horizon: float
    eps: float
    alpha: float

    @property
    def dx(self) -> float:
        return 1.0 / self.points

    @property
    def dt(self) -> float:
        return self.horizon / self.steps

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.points,) * self.dim

    def norm(self, f: np.ndarray) -> float:
        """L2 norm on the torus with rectangular weights."""
        return float(np.sqrt(np.sum(np.square(f)) * self.dx**self.dim))


def laplacian(d: Discretization, v: np.ndarray) -> np.ndarray:
    return sum(
        (np.roll(v, 1, axis) - 2.0 * v + np.roll(v, -1, axis)) / d.dx**2 for axis in range(d.dim)
    )


def slopes(d: Discretization, v: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """(backward, forward) difference quotients of v along each axis."""
    return [
        ((v - np.roll(v, 1, axis)) / d.dx, (np.roll(v, -1, axis) - v) / d.dx)
        for axis in range(d.dim)
    ]


def hamiltonian(q: list[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """Engquist-Osher value of |p|^2 / 2 at the slopes q."""
    return 0.5 * sum(np.maximum(back, 0.0) ** 2 + np.minimum(fwd, 0.0) ** 2 for back, fwd in q)


def transport(d: Discretization, q, v: np.ndarray) -> np.ndarray:
    """Upwind advection sum_k max(q-_k, 0) D-_k v + min(q+_k, 0) D+_k v."""
    return sum(
        np.maximum(back, 0.0) * dm + np.minimum(fwd, 0.0) * dp
        for (back, fwd), (dm, dp) in zip(q, slopes(d, v))
    )


def transport_transpose(d: Discretization, q, m: np.ndarray) -> np.ndarray:
    """Exact transpose of :func:`transport`, using (D-)^T = -D+ and (D+)^T = -D-."""
    out = np.zeros_like(m)
    for axis, (back, fwd) in enumerate(q):
        a = np.maximum(back, 0.0) * m
        c = np.minimum(fwd, 0.0) * m
        out -= (np.roll(a, -1, axis) - a) / d.dx
        out -= (c - np.roll(c, 1, axis)) / d.dx
    return out


def _levels(d: Discretization, field: np.ndarray) -> np.ndarray:
    return np.asarray(field, dtype=float).reshape((-1,) + d.shape)


def relative_b_error(d: Discretization, b: np.ndarray, b_true: np.ndarray) -> float:
    """Check (a)."""
    return d.norm(np.asarray(b) - b_true) / d.norm(b_true)


def step_residual(d: Discretization, u, m, b, m0, uT) -> float:
    """Check (b): largest L2 residual of the discrete HJB and FP steps.

    With q^n the slopes of u^n, step n of the scheme reads

        u^n + dt (-eps Lap u^n + T[q^n] u^n) = u^{n+1} + dt (H(q^n) + b + m^n ** alpha)
        m^{n+1} + dt (-eps Lap m^{n+1} + T[q^n]^T m^{n+1}) = m^n

    and the end conditions are u^N = uT and m^0 = m0.
    """
    u, m = _levels(d, u), _levels(d, m)
    b = np.reshape(b, d.shape)
    worst = max(d.norm(u[-1] - np.reshape(uT, d.shape)), d.norm(m[0] - np.reshape(m0, d.shape)))
    for n in range(d.steps):
        q = slopes(d, u[n])
        hjb = (
            u[n]
            + d.dt * (-d.eps * laplacian(d, u[n]) + transport(d, q, u[n]))
            - u[n + 1]
            - d.dt * (hamiltonian(q) + b + m[n] ** d.alpha)
        )
        fp = (
            m[n + 1]
            + d.dt * (-d.eps * laplacian(d, m[n + 1]) + transport_transpose(d, q, m[n + 1]))
            - m[n]
        )
        worst = max(worst, d.norm(hjb), d.norm(fp))
    return worst


def mass_drift(d: Discretization, m) -> float:
    """Check (c), first half: largest |integral of m(t_n) - 1|."""
    m = _levels(d, m)
    mass = m.reshape(len(m), -1).sum(axis=1) * d.dx**d.dim
    return float(np.abs(mass - 1.0).max())


def min_density(m) -> float:
    """Check (c), second half: the smallest density value."""
    return float(np.min(m))


def observation(d: Discretization, kind: str, u, m, b, uT) -> np.ndarray:
    """The measurement the state (u, m, b) predicts."""
    if kind == "u0":
        return _levels(d, u)[0].ravel()
    if kind != "utT":
        raise ValueError(f"unknown data kind {kind!r}")
    u_end = np.reshape(uT, d.shape)
    m_end = _levels(d, m)[-1]
    rate = (
        -d.eps * laplacian(d, u_end)
        + hamiltonian(slopes(d, u_end))
        - np.reshape(b, d.shape)
        - m_end**d.alpha
    )
    return rate.ravel()


def observation_misfit(d: Discretization, kind: str, u, m, b, uT, g) -> float:
    """Check (d): relative L2 misfit of the predicted observation."""
    g = np.asarray(g, dtype=float)
    return d.norm(observation(d, kind, u, m, b, uT) - g) / d.norm(g)


def asymmetry(d: Discretization, b, m) -> float:
    """Check (e): relative size of the part of b and m(t_n) odd under x <-> y."""
    fields = [np.reshape(b, d.shape)] + list(_levels(d, m))
    return max(d.norm(f - f.T) / d.norm(f) for f in fields)


@dataclass(frozen=True)
class Bounds:
    """Largest accepted figure of each check for one workload."""

    b_error: float
    residual: float
    mass: float
    observation: float
    symmetry: float | None  # None where the inputs are not axis-symmetric


def figures(d: Discretization, kind: str, result, b_true, m0, uT, g) -> dict[str, float]:
    """Every check's figure for one reconstruction; result needs b, u and m."""
    out = {
        "b_error": relative_b_error(d, result.b, b_true),
        "residual": step_residual(d, result.u, result.m, result.b, m0, uT),
        "mass": mass_drift(d, result.m),
        "min_density": min_density(result.m),
        "observation": observation_misfit(d, kind, result.u, result.m, result.b, uT, g),
    }
    if d.dim == 2:
        out["symmetry"] = asymmetry(d, result.b, result.m)
    return out


def failures(fig: dict[str, float], bounds: Bounds) -> list[str]:
    """The checks whose figure is out of bounds, each with its figure."""
    limits = {
        "b_error": bounds.b_error,
        "residual": bounds.residual,
        "mass": bounds.mass,
        "observation": bounds.observation,
    }
    if bounds.symmetry is not None:
        limits["symmetry"] = bounds.symmetry
    failed = [
        f"{name} {fig[name]:.3e} above {limit:.0e}"
        for name, limit in limits.items()
        if not fig[name] <= limit  # also catches NaN
    ]
    if not fig["min_density"] >= 0.0:
        failed.append(f"min_density {fig['min_density']:.3e} below 0")
    return failed

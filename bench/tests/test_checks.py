"""The benchmark's checks pass on real reconstructions and fail on corrupted ones."""

from types import SimpleNamespace

import numpy as np
import pytest

import checks


def failed_checks(s, b=None, u=None, m=None):
    """Names of the checks that fail when parts of the result are replaced."""
    result = SimpleNamespace(
        b=s.result.b if b is None else b,
        u=s.result.u if u is None else u,
        m=s.result.m if m is None else m,
    )
    fig = checks.figures(
        s.wl.discretization, s.wl.kind, result, s.inp.b_true, s.inp.m0, s.inp.uT, s.data.g
    )
    return {failure.split()[0] for failure in checks.failures(fig, s.wl.bounds)}


@pytest.mark.parametrize("name", ["rate-1d", "value-1d", "rate-2d", "direct-1d"])
def test_reconstructions_pass_every_check(solved, name):
    assert failed_checks(solved(name)) == set()


@pytest.mark.parametrize("name", ["rate-1d", "value-1d"])
def test_a_bump_in_b_fails_check_a(solved, name):
    s = solved(name)
    x = np.arange(s.wl.points) / s.wl.points
    bump = 0.05 * np.abs(s.inp.b_true).max() * np.exp(-50.0 * (x - 0.3) ** 2)
    assert "b_error" in failed_checks(s, b=s.result.b + bump)


@pytest.mark.parametrize("name", ["rate-1d", "rate-2d"])
def test_u_shifted_at_one_level_fails_check_b(solved, name):
    s = solved(name)
    u = s.result.u.copy()
    u[s.wl.steps // 2] += 1e-3
    assert "residual" in failed_checks(s, u=u)


def test_negative_density_fails_check_c(solved):
    s = solved("rate-1d")
    m = s.result.m.copy()
    m[3, 5] = -1e-6
    assert "min_density" in failed_checks(s, m=m)


def test_mass_off_by_1e8_fails_check_c(solved):
    s = solved("rate-1d")
    m = s.result.m.copy()
    m[s.wl.steps // 2] *= 1.0 + 1e-8
    assert "mass" in failed_checks(s, m=m)


def test_u0_shifted_fails_check_d(solved):
    s = solved("value-1d")
    u = s.result.u.copy()
    u[0] += 1e-3
    assert "observation" in failed_checks(s, u=u)


def test_terminal_density_off_fails_check_d(solved):
    s = solved("rate-1d")
    m = s.result.m.copy()
    m[-1] *= 1.0 + 1e-6
    assert "observation" in failed_checks(s, m=m)


def test_asymmetric_b_fails_check_e(solved):
    s = solved("rate-2d")
    b = s.result.b.copy()
    b[1] += 1e-6  # grid point (0, 1) and not its mirror (1, 0)
    assert "symmetry" in failed_checks(s, b=b)


def test_transport_transpose_is_exact(solved):
    d = solved("rate-2d").wl.discretization
    rng = np.random.default_rng(0)
    q = checks.slopes(d, rng.standard_normal(d.shape))
    v, m = rng.standard_normal(d.shape), rng.standard_normal(d.shape)
    lhs = np.sum(checks.transport(d, q, v) * m)
    rhs = np.sum(v * checks.transport_transpose(d, q, m))
    assert abs(lhs - rhs) <= 1e-12 * np.sum(np.abs(v)) * np.sum(np.abs(m)) / d.dx

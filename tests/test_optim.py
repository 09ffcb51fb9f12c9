import numpy as np
import pytest
import scipy.optimize

from mfg_inverse.optim import minimize


def quadratic(target):
    def fun(x):
        d = x - target
        return 0.5 * float(d @ d), d

    return fun


def rosenbrock(x):
    value = (1 - x[0]) ** 2 + 100 * (x[1] - x[0] ** 2) ** 2
    grad = np.array(
        [
            -2 * (1 - x[0]) - 400 * x[0] * (x[1] - x[0] ** 2),
            200 * (x[1] - x[0] ** 2),
        ]
    )
    return value, grad


def with_state(fun):
    """fun, also returning a copy of the point it was evaluated at."""
    return lambda x: (*fun(x), x.copy())


def test_identity_quadratic_in_two_iterations():
    target = np.array([1.0, -2.0, 3.0])
    report = minimize(quadratic(target), np.zeros(3), opt_tol=1e-10)
    assert report.converged
    assert report.iterations <= 2
    assert report.first_order_optimality <= 1e-10
    np.testing.assert_allclose(report.minimizer, target, rtol=0, atol=1e-9)


def test_rosenbrock_matches_reference_optimizer():
    x0 = np.array([-1.2, 1.0])
    report = minimize(with_state(rosenbrock), x0, opt_tol=1e-9, max_iter=100)
    assert report.converged
    assert report.iterations <= 100
    np.testing.assert_allclose(report.minimizer, [1.0, 1.0], rtol=0, atol=1e-6)
    np.testing.assert_array_equal(report.state[0], report.minimizer)
    reference = scipy.optimize.minimize(
        lambda x: rosenbrock(x)[0], x0, jac=lambda x: rosenbrock(x)[1], method="BFGS",
        options={"gtol": 1e-9},
    )
    assert report.objective <= reference.fun + 1e-12


def test_starting_at_the_optimum_returns_immediately():
    target = np.array([0.5, 0.25])
    report = minimize(with_state(quadratic(target)), target.copy(), opt_tol=1e-10)
    assert report.converged
    assert report.iterations == 0
    np.testing.assert_array_equal(report.minimizer, target)
    np.testing.assert_array_equal(report.state[0], target)


def test_objective_decreases_on_every_accepted_step():
    values = []

    def watch(x, opt):
        assert opt == np.abs(rosenbrock(x)[1]).max()
        values.append(rosenbrock(x)[0])

    minimize(rosenbrock, np.array([-1.2, 1.0]), opt_tol=1e-9, max_iter=100, callback=watch)
    assert all(b < a for a, b in zip(values, values[1:]))


def test_spd_quadratic_converges_within_linear_algebra_bound(rng):
    n = 20
    basis = rng.standard_normal((n, n))
    hess = basis @ basis.T + n * np.eye(n)
    target = rng.standard_normal(n)

    def fun(x):
        d = x - target
        g = hess @ d
        return 0.5 * float(d @ g), g

    report = minimize(fun, np.zeros(n), opt_tol=1e-10, max_iter=200)
    assert report.converged
    assert report.iterations <= 3 * n
    assert report.first_order_optimality <= 1e-10


def test_max_iter_reports_without_converging():
    report = minimize(with_state(rosenbrock), np.array([-1.2, 1.0]), opt_tol=1e-12, max_iter=3)
    assert not report.converged
    assert report.iterations == 3
    assert "iteration" in report.message
    np.testing.assert_array_equal(report.state[0], report.minimizer)


def test_line_search_failure_reports_last_iterate():
    # the strong Wolfe curvature condition is unsatisfiable on |x|, so
    # the search must give up and hand back a self-consistent report
    def kink(x):
        return float(np.abs(x[0])), np.array([1.0 if x[0] >= 0 else -1.0])

    report = minimize(with_state(kink), np.array([1.0]), opt_tol=1e-12, max_iter=50)
    assert not report.converged
    assert "line search" in report.message
    assert report.iterations < 50
    assert report.objective == kink(report.minimizer)[0]
    # the trial points after the minimizer's evaluation do not leak into its state
    assert report.function_evals > report.iterations + 1
    np.testing.assert_array_equal(report.state[0], report.minimizer)


def test_curvature_reuse_shortens_warm_restarts(rng):
    n = 12
    basis = rng.standard_normal((n, n))
    hess = basis @ basis.T + n * np.eye(n)

    def make(target):
        def fun(x):
            d = x - target
            g = hess @ d
            return 0.5 * float(d @ g), g

        return fun

    first = minimize(make(np.ones(n)), np.zeros(n), opt_tol=1e-10, max_iter=200)
    assert first.converged and first.curvature is not None
    # chain of nearby problems with the same Hessian: the carried metric
    # keeps absorbing curvature and beats a fresh start every time
    curvature, x = first.curvature, first.minimizer
    warm_counts = []
    for _ in range(4):
        target = np.ones(n) + 0.01 * rng.standard_normal(n)
        cold = minimize(make(target), x, opt_tol=1e-10, max_iter=200)
        warm = minimize(make(target), x, opt_tol=1e-10, max_iter=200, curvature=curvature)
        assert warm.converged
        assert warm.iterations < cold.iterations
        warm_counts.append(warm.iterations)
        curvature, x = warm.curvature, warm.minimizer
    assert warm_counts[-1] <= warm_counts[0]
    assert warm_counts[-1] <= cold.iterations // 2


def test_incompatible_curvature_is_ignored(rng):
    small = minimize(quadratic(np.ones(3)), np.zeros(3), opt_tol=1e-10)
    report = minimize(
        quadratic(np.ones(5)), np.zeros(5), opt_tol=1e-10, curvature=small.curvature
    )
    assert report.converged
    np.testing.assert_allclose(report.minimizer, np.ones(5), rtol=0, atol=1e-9)

import math
import tracemalloc

import numpy as np
import pytest

from amrbeam import gauss_hermite, gauss_laguerre, quadrature


def _integrate(rule, fn):
    """sum_i w_i fn(x_i)"""
    return float(np.dot(rule.weights, fn(rule.nodes)))


def test_laguerre_order_one():
    r = gauss_laguerre(1)
    assert r.nodes == pytest.approx([1.0])
    assert r.weights == pytest.approx([1.0])


def test_laguerre_order_two_closed_form():
    r = gauss_laguerre(2)
    assert r.nodes == pytest.approx([2 - math.sqrt(2), 2 + math.sqrt(2)], abs=1e-14)
    assert r.weights == pytest.approx([(2 + math.sqrt(2)) / 4, (2 - math.sqrt(2)) / 4], abs=1e-14)
    assert r.weights.sum() == pytest.approx(1.0, abs=1e-15)
    assert _integrate(r, lambda x: x) == pytest.approx(1.0, abs=1e-14)


def test_laguerre_first_moment_at_order_50():
    assert abs(_integrate(gauss_laguerre(50), lambda x: x) - 1.0) < 1e-12


def test_hermite_order_one_and_two():
    r1 = gauss_hermite(1)
    assert r1.nodes == pytest.approx([0.0], abs=1e-15)
    assert r1.weights == pytest.approx([math.sqrt(math.pi)], abs=1e-14)
    r2 = gauss_hermite(2)
    assert r2.nodes == pytest.approx([-1 / math.sqrt(2), 1 / math.sqrt(2)], abs=1e-14)
    assert r2.weights == pytest.approx([math.sqrt(math.pi) / 2] * 2, abs=1e-14)


def test_hermite_second_moment_at_order_30():
    assert abs(_integrate(gauss_hermite(30), lambda x: x * x) - math.sqrt(math.pi) / 2) < 1e-12


@pytest.mark.parametrize("order", range(1, 41))
def test_laguerre_moments_exact(order):
    r = gauss_laguerre(order)
    for k in range(2 * order):
        exact = math.factorial(k)
        assert abs(_integrate(r, lambda x: x**float(k)) - exact) < 1e-10 * exact


@pytest.mark.parametrize("order", range(1, 41))
def test_hermite_moments_exact(order):
    r = gauss_hermite(order)
    for k in range(0, 2 * order, 2):
        exact = math.gamma((k + 1) / 2)
        assert abs(_integrate(r, lambda x: x**float(k)) - exact) < 1e-10 * exact
    for k in range(1, 2 * order, 2):
        scale = math.gamma(k / 2 + 1)  # odd moments vanish; compare against the half-moment scale
        assert abs(_integrate(r, lambda x: x**float(k))) < 1e-10 * scale


def test_laguerre_rule_invariants():
    for order in (5, 50, 200):
        r = gauss_laguerre(order)
        assert np.all(r.nodes > 0)
        assert np.all(np.diff(r.nodes) > 0)
        assert abs(r.weights.sum() - 1.0) < 1e-12


def test_hermite_rule_invariants():
    for order in (5, 51, 200):
        r = gauss_hermite(order)
        assert np.allclose(r.nodes, -r.nodes[::-1], atol=0.0)
        assert abs(r.weights.sum() - math.sqrt(math.pi)) < 1e-10


def test_converged_integrals_stable_between_orders():
    gl = abs(_integrate(gauss_laguerre(50), np.cos) - _integrate(gauss_laguerre(100), np.cos))
    assert gl < 1e-12  # exact value 1/2
    gh = abs(_integrate(gauss_hermite(50), np.cos) - _integrate(gauss_hermite(100), np.cos))
    assert gh < 1e-12  # exact value sqrt(pi) e^{-1/4}


@pytest.mark.parametrize("order", [0, -3, 201])
def test_order_bounds(order):
    with pytest.raises(ValueError):
        gauss_laguerre(order)
    with pytest.raises(ValueError):
        gauss_hermite(order)


def test_rules_are_cached_and_read_only():
    for make in (gauss_laguerre, gauss_hermite):
        rule = make(150)
        assert make(150) is rule
        with pytest.raises(ValueError):
            rule.nodes[0] = 1.0
        with pytest.raises(ValueError):
            rule.weights[0] = 1.0


@pytest.mark.parametrize("kind", ["hermite", "laguerre"])
def test_jacobi_matrix_is_the_sum_of_three_diagonals(kind, monkeypatch):
    # the matrix eigvalsh receives is bitwise the three-diag sum, so the rule is too
    cached = {order: quadrature._rule(kind, order) for order in (2, 3, 40, 121, 200)}
    eigvalsh = np.linalg.eigvalsh
    orders = []

    def checking(a):
        diag, off, _ = quadrature._recurrence(kind, a.shape[0])
        assert np.array_equal(a, np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
        orders.append(a.shape[0])
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", checking)
    for order, rule in cached.items():
        assert np.array_equal(quadrature._rule.__wrapped__(kind, order).nodes, rule.nodes)
    assert orders == list(cached)


def test_order_200_rule_builds_one_dense_matrix():
    # the 200 x 200 matrix is 320 KB; summing three np.diag matrices held two
    quadrature._rule.__wrapped__("hermite", 200)
    tracemalloc.start()
    try:
        quadrature._rule.__wrapped__("hermite", 200)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 8 * 200**2

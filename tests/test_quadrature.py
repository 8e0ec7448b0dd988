"""The package's Gauss rules: shipped copies of numpy's rules behind two cached helpers.

channel_info._noise_rule gives the Hermite rule for N(0, 1/2), whose weights
sum to 1 (the e^{-x^2} weights divided by sqrt(pi)); amr._laguerre_rule the
Laguerre rule for the e^{-x} measure. The orders the package uses, and the
8-node Legendre panel rule, load from the .npy files in amrbeam/rules. Any
other Hermite order is numpy's hermgauss, computed on the call; no other
Laguerre order ships, so the tests below take numpy's laggauss for those
(_laguerre). So the property tests run on the shipped rules at the package's
orders and on numpy's elsewhere, and test_shipped_rules_are_numpys compares
the two.
"""

import math
import os
import tracemalloc

import numpy as np
import pytest

from numpy.polynomial.laguerre import laggauss

from amrbeam import amr, channel_info

SQRT_PI = math.sqrt(math.pi)


def _laguerre(order):
    """The package's Laguerre rule at a shipped order, numpy's laggauss at any other."""
    return amr._laguerre_rule(order) if order in amr._SHIPPED_LAGUERRE else laggauss(order)


def _hermite(order):
    """Nodes and weights of the e^{-x^2} measure, from the kernel's noise rule."""
    (nodes,), weights = channel_info._noise_rule(order)
    return nodes, weights * SQRT_PI


def _integrate(rule, fn):
    """sum_i w_i fn(x_i)"""
    nodes, weights = rule
    return float(np.dot(weights, fn(nodes)))


# Largest relative error of any moment below, measured with numpy 2.4.6
# (the log-space sum itself rounds by about k * 1e-16 * ln x per term):
# Laguerre 2.1e-13 (order 50), 8.5e-13 (100), 1.5e-12 (150); Hermite
# 1.5e-14 (order 40), 9.2e-14 (120), 1.6e-13 (200). Each tolerance is about
# twice that.
_LAGUERRE = {50: 5e-13, amr._TAIL_CHECK_ORDER: 2e-12, amr._TAIL_ORDER: 3e-12}
_HERMITE = {channel_info._HERMITE_ORDER: 4e-14, 120: 2e-13, 200: 3e-13}


def _relative_moments(log_nodes, weights, log_exact):
    """sum_i w_i x_i^k / exact_k - 1 for each row k, summed in log space to stay finite."""
    k = np.arange(log_exact.size)[:, None]
    return np.exp(np.log(weights) + k * log_nodes - log_exact[:, None]).sum(axis=1) - 1.0


@pytest.mark.parametrize("kind", ["laguerre", "hermite"])
def test_package_rules_integrate_every_exact_moment(kind):
    # the rules the package sums with: amr's rate rule and Mellin far tail and
    # its check; the kernel's noise rule out of band and at the band orders,
    # whose order-200 rule make_correlation also takes
    if kind == "laguerre":
        rules = {50: (amr._RATE_NODES, amr._RATE_WEIGHTS)}
        rules.update((n, amr._laguerre_rule(n)) for n in (amr._TAIL_ORDER, amr._TAIL_CHECK_ORDER))
        tolerance = _LAGUERRE
    else:
        rules = {n: channel_info._noise_rule(n) for n in _HERMITE}
        tolerance = _HERMITE
    for order, (nodes, weights) in rules.items():
        nodes = np.ravel(nodes)
        assert nodes.size == weights.size == order
        assert not (nodes.flags.writeable or weights.flags.writeable)
        if kind == "laguerre":
            # int_0^inf x^k e^{-x} dx = k!, exact for k < 2 order
            log_exact = np.array([math.lgamma(k + 1.0) for k in range(2 * order)])
            err = _relative_moments(np.log(nodes), weights, log_exact)
        else:
            # the N(0, 1/2) moments E x^(2k) = Gamma(k + 1/2) / sqrt(pi), exact
            # for 2k < 2 order; the odd ones vanish by the rule's exact symmetry
            assert np.array_equal(nodes, -nodes[::-1]) and np.array_equal(weights, weights[::-1])
            log_exact = np.array([math.lgamma(k + 0.5) for k in range(order)]) - 0.5 * math.log(math.pi)
            err = _relative_moments(np.log(nodes * nodes), weights, log_exact)
        assert np.max(np.abs(err)) <= tolerance[order], (kind, order)


# Largest difference in units of the last place allowed between a shipped
# rule and numpy's rule of its order. It is 0 with numpy 2.4.6, which wrote
# the files. A later numpy or LAPACK may move numpy's bits, while the
# package's outputs stay those of the files. numpy refines the eigenvalues
# of a companion matrix by one Newton step, and perturbing them by 1e-15 of
# the largest (about LAPACK's accuracy) moved laggauss(150) by up to 1.9e3
# ulps in a node and 6.5e5 ulps in a weight (the tiny tail weights), and
# hermgauss(200) by 2 and 1.5e3 ulps. The bound, 2**21 ulps (4.7e-10
# relative), allows that and still refuses a file of another rule or order.
_SHIPPED_MAX_ULP = 2**21


def test_shipped_rules_are_numpys():
    from numpy.polynomial import hermite, laguerre, legendre

    shipped = {f"hermite_{n}": hermite.hermgauss(n) for n in channel_info._SHIPPED_HERMITE}
    shipped.update((f"laguerre_{n}", laguerre.laggauss(n)) for n in amr._SHIPPED_LAGUERRE)
    x, w = legendre.leggauss(amr._PANEL_NODES)
    shipped[f"legendre_{amr._PANEL_NODES}"] = (x, w, *legendre.legvander(x, amr._PANEL_NODES - 1))
    # the rules directory holds these files and no other
    assert sorted(os.listdir(channel_info._RULES_DIR)) == sorted(name + ".npy" for name in shipped)
    for name, rows in shipped.items():
        loaded = channel_info._shipped_rule(name)
        assert loaded.dtype == np.float64 and loaded.shape == (len(rows), rows[0].size), name
        np.testing.assert_array_max_ulp(loaded, np.stack(rows), maxulp=_SHIPPED_MAX_ULP)
    # the helpers and amr's constants hold exactly the loaded arrays
    for n in channel_info._SHIPPED_HERMITE:
        (nodes,), weights = channel_info._noise_rule(n)
        loaded = channel_info._shipped_rule(f"hermite_{n}")
        assert np.array_equal(nodes, loaded[0]) and np.array_equal(weights, loaded[1] / SQRT_PI)
    for n in amr._SHIPPED_LAGUERRE:
        assert np.array_equal(np.stack(amr._laguerre_rule(n)), channel_info._shipped_rule(f"laguerre_{n}"))
    assert np.array_equal(np.stack((amr._GL_NODES, amr._GL_WEIGHTS)),
                          channel_info._shipped_rule(f"legendre_{amr._PANEL_NODES}")[:2])


def test_laguerre_order_one():
    nodes, weights = _laguerre(1)
    assert nodes == pytest.approx([1.0])
    assert weights == pytest.approx([1.0])


def test_laguerre_order_two_closed_form():
    r = _laguerre(2)
    nodes, weights = r
    assert nodes == pytest.approx([2 - math.sqrt(2), 2 + math.sqrt(2)], abs=1e-14)
    assert weights == pytest.approx([(2 + math.sqrt(2)) / 4, (2 - math.sqrt(2)) / 4], abs=1e-14)
    assert weights.sum() == pytest.approx(1.0, abs=1e-15)
    assert _integrate(r, lambda x: x) == pytest.approx(1.0, abs=1e-14)


def test_laguerre_first_moment_at_order_50():
    assert abs(_integrate(_laguerre(50), lambda x: x) - 1.0) < 1e-12


def test_hermite_order_one_and_two():
    nodes, weights = _hermite(1)
    assert nodes == pytest.approx([0.0], abs=1e-15)
    assert weights == pytest.approx([SQRT_PI], abs=1e-14)
    nodes, weights = _hermite(2)
    assert nodes == pytest.approx([-1 / math.sqrt(2), 1 / math.sqrt(2)], abs=1e-14)
    assert weights == pytest.approx([SQRT_PI / 2] * 2, abs=1e-14)


def test_hermite_second_moment_at_order_30():
    assert abs(_integrate(_hermite(30), lambda x: x * x) - SQRT_PI / 2) < 1e-12


@pytest.mark.parametrize("order", range(1, 41))
def test_laguerre_moments_exact(order):
    r = _laguerre(order)
    for k in range(2 * order):
        exact = math.factorial(k)
        assert abs(_integrate(r, lambda x: x**float(k)) - exact) < 1e-10 * exact


@pytest.mark.parametrize("order", range(1, 41))
def test_hermite_moments_exact(order):
    r = _hermite(order)
    for k in range(0, 2 * order, 2):
        exact = math.gamma((k + 1) / 2)
        assert abs(_integrate(r, lambda x: x**float(k)) - exact) < 1e-10 * exact
    for k in range(1, 2 * order, 2):
        scale = math.gamma(k / 2 + 1)  # odd moments vanish; compare against the half-moment scale
        assert abs(_integrate(r, lambda x: x**float(k))) < 1e-10 * scale


def test_laguerre_rule_invariants():
    # the Mellin far tail sums log weights, so every weight must be positive;
    # numpy's weights overflow to nan from order 187, past the package's 150
    for order in (5, 50, amr._TAIL_ORDER):
        nodes, weights = _laguerre(order)
        assert np.all(nodes > 0) and np.all(weights > 0)
        assert np.all(np.diff(nodes) > 0)
        assert abs(weights.sum() - 1.0) < 1e-12


def test_hermite_rule_invariants():
    # the kernel folds its 2-D grids by symmetry, which needs the 1-D rule
    # exactly symmetric (see channel_info._folded_rule)
    for order in (5, 51, 200):
        nodes, weights = _hermite(order)
        assert np.array_equal(nodes, -nodes[::-1])
        assert np.array_equal(weights, weights[::-1])
        assert abs(weights.sum() - SQRT_PI) < 1e-10


def test_converged_integrals_stable_between_orders():
    gl = abs(_integrate(_laguerre(50), np.cos) - _integrate(_laguerre(100), np.cos))
    assert gl < 1e-12  # exact value 1/2
    gh = abs(_integrate(_hermite(50), np.cos) - _integrate(_hermite(100), np.cos))
    assert gh < 1e-12  # exact value sqrt(pi) e^{-1/4}


@pytest.mark.parametrize("order", [0, -3])
def test_order_bounds(order):
    with pytest.raises(ValueError):
        _laguerre(order)
    with pytest.raises(ValueError):
        _hermite(order)


def test_rules_are_cached_and_read_only():
    for make in (amr._laguerre_rule, channel_info._noise_rule):
        rule = make(150)
        assert make(150) is rule
        for array in rule:
            with pytest.raises(ValueError):
                array[0] = 1.0


def test_order_200_rule_builds_one_dense_matrix():
    # the order-200 rule is first loaded inside a kernel pass, where its
    # transients can set the process's peak memory. Loading its shipped file
    # peaks at about 20 KB under tracemalloc; the bound is the one its build
    # by hermgauss had to meet, one 200 x 200 matrix (320 KB)
    channel_info._noise_rule.__wrapped__(200)
    tracemalloc.start()
    try:
        channel_info._noise_rule.__wrapped__(200)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 8 * 200**2


def test_laguerre_rule_loads_only_the_shipped_orders():
    # the package sums on three Laguerre orders, all shipped; no other is computed
    assert sorted(amr._SHIPPED_LAGUERRE) == [50, 100, 150]
    with pytest.raises(FileNotFoundError):
        amr._laguerre_rule(51)

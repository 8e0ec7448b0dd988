import math

import numpy as np
import pytest

from amrbeam import (
    ChannelEnsemble,
    CompositeSnrObjective,
    LogGainSumObjective,
    PhaseVector,
    make_ensemble,
    retract,
    riemannian_grad,
    rm_cgd,
)
from amrbeam.manifold_opt import ARMIJO_C1


def _random_tangent(phi, rng):
    return riemannian_grad(rng.standard_normal(phi.size) + 1j * rng.standard_normal(phi.size), phi)


def test_projection_examples(rng):
    phi = PhaseVector.random(6, rng).phi
    assert np.max(np.abs(riemannian_grad(phi, phi))) < 1e-14
    assert np.allclose(riemannian_grad(1j * phi, phi), 1j * phi, atol=1e-15)
    v = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    t = riemannian_grad(v, phi)
    assert np.max(np.abs(np.real(t * np.conj(phi)))) < 1e-14


def test_transport_examples(rng):
    # rm_cgd carries a tangent vector to a new point by projecting it there
    phi, phi_new = (PhaseVector.random(6, rng).phi for _ in range(2))
    eta = _random_tangent(phi, rng)
    assert np.allclose(riemannian_grad(eta, phi), eta, atol=1e-15)
    t = riemannian_grad(eta, phi_new)
    assert np.max(np.abs(np.real(t * np.conj(phi_new)))) < 1e-14
    assert np.allclose(riemannian_grad(t, phi_new), t, atol=1e-15)


def test_retract_examples(rng):
    phi = PhaseVector.random(5, rng).phi
    d = _random_tangent(phi, rng)
    assert np.allclose(retract(phi, d, 0.0), phi, atol=0.0)
    ones = np.ones(4, dtype=complex)
    stepped = retract(ones, 1j * ones, 1.0)
    assert np.allclose(stepped, (1 + 1j) / math.sqrt(2) * np.ones(4), atol=1e-15)
    # radial shrink to zero recovers via step halving
    assert np.allclose(retract(phi, -phi, 1.0), phi, atol=1e-15)


def test_retract_second_order(rng):
    s = 1e-8
    for _ in range(100):
        phi = PhaseVector.random(8, rng).phi
        d = _random_tangent(phi, rng)
        err = np.linalg.norm(retract(phi, d, s) - (phi + s * d))
        assert err <= 3.0 * s**2 * np.linalg.norm(d) ** 2


def test_gradients_match_directional_derivatives(rng):
    e = make_ensemble(4, 5, seed=42)
    for objective in (CompositeSnrObjective(e, 1.0), LogGainSumObjective(e)):
        for _ in range(20):
            phi = PhaseVector.random(5, rng).phi
            d = _random_tangent(phi, rng)
            d /= np.linalg.norm(d)
            h = 1e-6
            fd = (objective.value(phi + h * d) - objective.value(phi - h * d)) / (2 * h)
            an = 2.0 * np.real(np.vdot(objective.euclid_grad(phi), d))
            assert abs(fd - an) <= 1e-5 * max(abs(an), 1e-9)


def test_gradient_scaling_invariances(rng):
    e = make_ensemble(3, 5, seed=11)
    phi = PhaseVector.random(5, rng).phi
    # composite-SNR: normalized direction invariant to common scaling of all R_k
    g1 = CompositeSnrObjective(e, 1.0).euclid_grad(phi)
    e2 = ChannelEnsemble(2.0 * e.correlations)
    g2 = CompositeSnrObjective(e2, 1.0).euclid_grad(phi)
    assert np.allclose(g1 / np.linalg.norm(g1), g2 / np.linalg.norm(g2), atol=1e-13)
    # log-gain-sum: gradient exactly invariant to scaling any single R_k
    scaled = e.correlations.copy()
    scaled[1] *= 2.0
    e3 = ChannelEnsemble(scaled)
    g3 = LogGainSumObjective(e3).euclid_grad(phi)
    assert np.allclose(LogGainSumObjective(e).euclid_grad(phi), g3, atol=1e-14)


def test_radial_gradient_projects_to_zero(rng):
    e = ChannelEnsemble(np.eye(5, dtype=complex)[None, :, :])
    phi = PhaseVector.random(5, rng).phi
    for objective in (CompositeSnrObjective(e, 1.0), LogGainSumObjective(e)):
        assert np.max(np.abs(riemannian_grad(objective.euclid_grad(phi), phi))) < 1e-14


def test_flat_landscape_terminates_immediately(rng):
    e = ChannelEnsemble(np.eye(5, dtype=complex)[None, :, :])
    res = rm_cgd(CompositeSnrObjective(e, 1.0), PhaseVector.random(5, rng))
    assert res.converged and res.iterations == 0
    assert res.grad_norms[0] < 1e-12
    assert len(res.objective_trace) == 1


def test_rank_one_alignment(rng):
    a = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    e = ChannelEnsemble(np.outer(a, a.conj())[None, :, :])
    res = rm_cgd(CompositeSnrObjective(e, 1.0), PhaseVector.random(5, rng), max_iters=500)
    q = float(np.real(np.conj(res.phases.phi) @ np.outer(a, a.conj()) @ res.phases.phi))
    assert q >= 0.999 * np.sum(np.abs(a)) ** 2


def test_rank_one_against_grid_search(rng):
    # coarse exhaustive search over the 3-torus confirms the aligned optimum
    a = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    target = np.sum(np.abs(a)) ** 2
    step = np.deg2rad(2.0)
    angles = np.arange(-np.pi, np.pi, step)
    phis = np.exp(-1j * angles)
    inner12 = np.conj(a[0]) * phis[:, None] + np.conj(a[1]) * phis[None, :]
    best = 0.0
    for p3 in phis:
        best = max(best, float(np.max(np.abs(inner12 + np.conj(a[2]) * p3) ** 2)))
    assert best <= target * (1 + 1e-12)
    assert best >= 0.999 * target
    e = ChannelEnsemble(np.outer(a, a.conj())[None, :, :])
    res = rm_cgd(CompositeSnrObjective(e, 1.0), PhaseVector.random(3, rng), max_iters=500)
    q = float(np.real(np.conj(res.phases.phi) @ np.outer(a, a.conj()) @ res.phases.phi))
    assert q >= best - 1e-6 * target


def test_multistart_convergence_and_ascent():
    e = make_ensemble(4, 5, seed=7)
    for objective in (CompositeSnrObjective(e, 1.0), LogGainSumObjective(e)):
        rng = np.random.default_rng(123)
        results = [rm_cgd(objective, PhaseVector.random(5, rng)) for _ in range(20)]
        assert sum(r.converged for r in results) >= 19
        for r in results:
            assert np.all(np.diff(r.objective_trace) >= 0.0)
            assert not r.line_search_failed
            if r.converged:
                assert r.grad_norms[-1] < 1e-6


def test_sufficient_increase_invariant():
    e = make_ensemble(4, 5, seed=19)
    rng = np.random.default_rng(4)
    res = rm_cgd(CompositeSnrObjective(e, 1.0), PhaseVector.random(5, rng))
    f = res.objective_trace
    for i in range(res.iterations):
        gain = f[i + 1] - f[i]
        floor = ARMIJO_C1 * res.step_sizes[i] * res.grad_norms[i] ** 2
        assert gain >= floor * (1 - 1e-9)


def test_iterates_stay_feasible(rng):
    e = make_ensemble(4, 5, seed=23)
    base = CompositeSnrObjective(e, 1.0)
    seen = []

    class Spy:
        def value(self, phi):
            seen.append(np.max(np.abs(np.abs(phi) - 1.0)))
            return base.value(phi)

        def euclid_grad(self, phi):
            return base.euclid_grad(phi)

    res = rm_cgd(Spy(), PhaseVector.random(5, rng))
    assert res.converged
    assert max(seen) < 1e-14


def test_scale_invariant_iterates(rng):
    # common scaling of all R_k leaves the log-gain-sum iterate sequence intact
    e = make_ensemble(3, 5, seed=31)
    e_scaled = ChannelEnsemble(2.0 * e.correlations)
    start = PhaseVector.random(5, rng)
    r1 = rm_cgd(LogGainSumObjective(e), start)
    r2 = rm_cgd(LogGainSumObjective(e_scaled), start)
    assert r1.iterations == r2.iterations
    assert np.allclose(r1.phases.thetas, r2.phases.thetas, atol=1e-9)
    # composite-SNR iterates match when the average SNR is rescaled to compensate
    db_shift = 10.0 * math.log10(2.0)
    r3 = rm_cgd(CompositeSnrObjective(e, 1.0), start)
    r4 = rm_cgd(CompositeSnrObjective(e_scaled, 10.0 ** (-db_shift / 10.0)), start)
    assert r3.iterations == r4.iterations
    assert np.allclose(r3.phases.thetas, r4.phases.thetas, atol=1e-9)


def test_line_search_failure_flag(rng):
    class Hostile:
        """Positive gradient but a flat value: no step can satisfy Armijo."""

        def value(self, phi):
            return 0.0

        def euclid_grad(self, phi):
            return 1j * phi  # purely tangent, unit norm per entry

    res = rm_cgd(Hostile(), PhaseVector.random(4, rng))
    assert res.line_search_failed
    assert not res.converged
    assert len(res.objective_trace) == 1


def test_config_validation(rng):
    e = make_ensemble(2, 3, seed=5)
    with pytest.raises(ValueError, match="max_iters"):
        rm_cgd(CompositeSnrObjective(e, 1.0), PhaseVector.random(3, rng), max_iters=0)

import dataclasses
import math
import os
import subprocess
import sys
import time
from itertools import accumulate
from operator import mul

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import gammainc, gammaln
from scipy.stats import expon, gamma as sgamma, kstest

from amrbeam import (
    ChannelEnsemble,
    NulledUserError,
    PhaseVector,
    TruncationError,
    make_correlation,
    make_ensemble,
    min_snr_law,
    mrc_law,
    quadratic_forms,
    wrap_phase,
)
from amrbeam.channel_model import _CASCADE_BLOCK, _MAX_SERIES_TERMS, MrcLaw, _nulled, log_gamma_range


def test_wrap_phase_edges():
    assert wrap_phase(np.pi) == pytest.approx(np.pi)
    assert wrap_phase(-np.pi) == pytest.approx(np.pi)
    assert wrap_phase(3 * np.pi) == pytest.approx(np.pi)
    assert wrap_phase(0.3) == pytest.approx(0.3)
    vals = wrap_phase(np.linspace(-20, 20, 101))
    assert np.all(vals > -np.pi) and np.all(vals <= np.pi)


def test_phase_vector_properties(rng):
    p = PhaseVector.random(6, rng)
    assert p.n == 6
    assert np.allclose(np.abs(p.phi), 1.0, atol=0.0)
    assert np.linalg.norm(p.f) == pytest.approx(1.0, abs=1e-15)
    back = PhaseVector.from_phi(p.phi)
    assert np.allclose(back.thetas, p.thetas, atol=1e-12)
    with pytest.raises(ValueError):
        PhaseVector(np.array([]))


def test_exponential_correlation_examples():
    assert np.allclose(make_correlation("exponential", 5, rho=0.0), np.eye(5))
    r = make_correlation("exponential", 3, rho=0.9)
    assert np.allclose(r, [[1, 0.9, 0.81], [0.9, 1, 0.9], [0.81, 0.9, 1]], atol=1e-15)
    mu = 0.4
    r2 = make_correlation("exponential", 3, rho=0.5, mu=mu)
    assert r2[0, 1] == pytest.approx(0.5 * np.exp(-1j * mu), abs=1e-15)
    assert np.allclose(r2, r2.conj().T)


@pytest.mark.parametrize("bad", [{"rho": -0.1}, {"rho": 1.0}, {"rho": None}])
def test_exponential_rejects_bad_rho(bad):
    with pytest.raises(ValueError):
        make_correlation("exponential", 4, **bad)


def test_local_scattering_against_mc_oracle():
    angle, spread, n = 0.0, 0.1, 4
    r = make_correlation("local_scattering", n, angle=angle, spread=spread)
    assert np.allclose(r, r.conj().T, atol=1e-14)
    assert np.max(np.abs(np.diag(r) - 1.0)) < 1e-6
    assert np.linalg.eigvalsh(r).min() >= -1e-14
    rng = np.random.default_rng(0)
    sines = np.sin(angle + rng.normal(0.0, spread, 10**6))
    lags = np.array([np.mean(np.exp(1j * np.pi * d * sines)) for d in range(n)])
    idx = np.arange(n)
    lag = idx[:, None] - idx[None, :]
    r_mc = lags[np.abs(lag)]
    r_mc = np.where(lag < 0, np.conj(r_mc), r_mc)
    assert np.max(np.abs(r - r_mc)) < 1e-3


def test_local_scattering_rejects_bad_spread():
    with pytest.raises(ValueError):
        make_correlation("local_scattering", 4, angle=0.0, spread=0.0)
    with pytest.raises(ValueError):
        make_correlation("unknown", 4)


def test_ensemble_validation():
    bad = np.stack([np.array([[1.0, 0.5j], [0.4j, 1.0]])])
    with pytest.raises(ValueError):
        ChannelEnsemble(bad)
    negative = np.stack([np.array([[1.0, 0.0], [0.0, -1e-3]], dtype=complex)])
    with pytest.raises(ValueError):
        ChannelEnsemble(negative)


def test_ensemble_refuses_each_defect_and_names_the_user():
    eye = np.eye(3, dtype=complex)
    skew = eye.copy()
    skew[0, 1] = 1e-11  # R - R^H has a 1e-11 entry
    with pytest.raises(ValueError, match="not Hermitian"):
        ChannelEnsemble(np.stack([eye, skew]))
    with pytest.raises(ValueError, match="not Hermitian"):
        ChannelEnsemble(np.stack([eye, np.full((3, 3), np.nan)]))
    # eigenvalues 1 +- 1.0000001: the smallest is -1e-7, of user 2 only
    dipped = eye + 1.0000001 * np.fliplr(eye)
    dipped[1, 1] = 1.0
    with pytest.raises(ValueError, match=r"correlation 2 has eigenvalue -1\.00e-07"):
        ChannelEnsemble(np.stack([eye, eye, dipped]))
    with pytest.raises(ValueError, match="correlation 1 has non-positive trace"):
        ChannelEnsemble(np.stack([eye, np.zeros((3, 3))]))
    with pytest.raises(ValueError, match=r"must be \(K, N, N\)"):
        ChannelEnsemble(eye)
    # roundoff below the thresholds passes, and only the Hermitian part is kept
    near = eye + 1e-13 * np.triu(np.ones((3, 3)), 1)
    kept = ChannelEnsemble(near[None]).correlations[0]
    assert np.array_equal(kept, kept.conj().T)
    assert np.array_equal(kept, 0.5 * (near + near.conj().T))


def test_ensemble_holds_no_snr_and_caches_its_roots():
    e = make_ensemble(3, 4, seed=7)
    for name in ("snr_db", "gamma_bar", "with_snr_db"):
        assert not hasattr(e, name)
    assert [f.name for f in dataclasses.fields(e)] == ["correlations"]
    root = e.sqrt_correlations()
    assert e.sqrt_correlations() is root
    assert np.allclose(np.einsum("kij,kjl->kil", root, root), e.correlations, atol=1e-12)


def test_assigning_an_ensemble_field_raises():
    # the traces that scale the nulled-user threshold are taken once, from
    # the matrices the ensemble holds, which can be neither replaced nor edited
    e = make_ensemble(3, 4, seed=1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        e.correlations = 1e6 * e.correlations
    with pytest.raises(ValueError, match="read-only"):
        e.correlations[0, 0, 0] = 2.0
    scaled = ChannelEnsemble(1e6 * e.correlations)
    assert np.array_equal(scaled._traces, 1e6 * e._traces)
    # a form between the two thresholds nulls its user only under the larger
    q = 1e-9 * e._traces
    assert _nulled(scaled, q, scaled.N).all() and not _nulled(e, q, e.N).any()


def test_building_an_ensemble_rebuilds_no_matrix_from_eigh(monkeypatch):
    # eigvalsh only checks; the stored matrices never pass through eigh
    def refuse(*args, **kwargs):
        raise AssertionError("eigh called while building an ensemble")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    for model in ("exponential", "local_scattering"):
        make_ensemble(4, 16, model=model, seed=2)


def test_exponential_ensemble_is_the_closed_form_bitwise():
    n, rho = 16, 0.7
    e = make_ensemble(6, n, seed=4, rho=rho)
    lag = np.subtract.outer(np.arange(n), np.arange(n))
    for r, mu in zip(e.correlations, np.random.default_rng(4).uniform(-np.pi, np.pi, 6)):
        assert r.tobytes() == (rho ** np.abs(lag) * np.exp(1j * lag * mu)).tobytes()


@pytest.mark.parametrize("n", [5, 128, 256])
def test_local_scattering_is_exactly_hermitian_and_psd(n):
    for spread in (0.01, 0.1745, 0.5):
        for angle in np.random.default_rng(n).uniform(-np.pi / 2, np.pi / 2, 4):
            r = make_correlation("local_scattering", n, angle=float(angle), spread=spread)
            assert np.array_equal(r, r.conj().T) and not np.diag(r).imag.any()
            assert np.linalg.eigvalsh(r).min() > -1e-10


_THREAD_PROBE = """
import hashlib, numpy as np
from amrbeam import PhaseVector, make_ensemble, quadratic_forms
phases = PhaseVector.random(128, np.random.default_rng(11))
for model in ("exponential", "local_scattering"):
    e = make_ensemble(32, 128, model=model, seed=3)
    q = quadratic_forms(e, phases)
    print(model, hashlib.sha256(e.correlations.tobytes() + q.tobytes()).hexdigest())
"""


def test_ensemble_and_gains_do_not_depend_on_the_blas_thread_count():
    # from N = 128 OpenBLAS splits its products and LAPACK's eigh over
    # threads; neither may reach the stored matrices or the gains
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    outs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        run = subprocess.run([sys.executable, "-c", _THREAD_PROBE], env=env,
                             capture_output=True, text=True, check=True)
        outs.append(run.stdout)
    assert outs[0].count("\n") == 2 and outs[0] == outs[1]


def test_effective_snrs_identity_correlations(rng):
    # identity correlations give every user the gain ||f||^2 = 1, so
    # gamma_bar * q_k is the average SNR itself
    e = ChannelEnsemble(np.stack([np.eye(5, dtype=complex)] * 4))
    p = PhaseVector.random(5, rng)
    assert np.allclose(10.0 * quadratic_forms(e, p), 10.0, atol=1e-12)


def test_effective_snrs_rank_one_oracle(rng):
    # direct loop evaluation of gamma = gbar |a^H phi|^2 / N over small vectors
    a = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    e = ChannelEnsemble(np.outer(a, a.conj())[None, :, :])
    p = PhaseVector.random(3, rng)
    gamma_bar = 10.0 ** 0.3
    inner = sum(np.conj(a[i]) * p.phi[i] for i in range(3))
    expect = gamma_bar * abs(inner) ** 2 / 3.0
    assert gamma_bar * quadratic_forms(e, p)[0] == pytest.approx(expect, rel=1e-12)


def test_nulled_user_error():
    a = np.array([1.0, -1.0], dtype=complex)
    e = ChannelEnsemble(np.outer(a, a.conj())[None, :, :])
    aligned = PhaseVector(np.array([0.0, 0.0]))  # phi = (1, 1) is orthogonal to a
    with pytest.raises(NulledUserError):
        quadratic_forms(e, aligned)


def test_min_snr_law_examples():
    assert min_snr_law([2.0]) == pytest.approx(2.0)
    assert min_snr_law([1.0, 1.0, 1.0, 1.0]) == pytest.approx(0.25)
    gamma_non = min_snr_law([1.0, 2.0])
    assert gamma_non == pytest.approx(2.0 / 3.0)
    # the minimum is exponential with mean gamma_non: CDF 1 - 1/e at its mean
    assert -math.expm1(-(2.0 / 3.0) / gamma_non) == pytest.approx(1 - math.exp(-1), abs=1e-12)
    with pytest.raises(ValueError):
        min_snr_law([1.0, 0.0])


def test_min_snr_law_against_mc(rng):
    gamma_non = min_snr_law([1.0, 2.0])
    draws = np.minimum(rng.exponential(1.0, 10**6), rng.exponential(2.0, 10**6))
    assert kstest(draws, lambda x: -np.expm1(-x / gamma_non)).statistic < 0.002


def test_harmonic_min_sum_ordering(rng):
    for _ in range(100):
        k = int(rng.integers(1, 7))
        gammas = rng.uniform(0.05, 5.0, k)
        gn = min_snr_law(gammas)
        assert gn <= gammas.min() + 1e-15
        assert gammas.min() <= gammas.sum() + 1e-15


def test_log_gamma_table_matches_gammaln():
    ref = gammaln(np.arange(1, 2700.0))
    vals = log_gamma_range(1, 2700)
    assert vals.size == ref.size
    assert np.all(np.abs(vals - ref) <= 1e-15 * np.abs(ref))
    assert np.array_equal(log_gamma_range(40, 45), vals[39:44])  # indexed by the argument


def mrc_cdf(law, x):
    """CDF of the gamma-series law: sum_l c_l P(K + l, x / gamma_min), 0 for x <= 0."""
    x = np.maximum(np.atleast_1d(np.asarray(x, dtype=float)), 0.0)
    shape = law.K + np.arange(law.L + 1)
    return law.coeffs @ gammainc(shape[:, None], x[None, :] / law.gamma_min)


def test_mrc_law_equal_gammas_is_erlang():
    law = mrc_law([2.0, 2.0, 2.0], 1e-10)
    assert law.L == 0
    assert np.array_equal(law.coeffs, [1.0])
    assert law.tail_bound == 0.0
    xs = np.linspace(0.05, 30, 50)
    assert np.allclose(law.pdf(xs), sgamma.pdf(xs, a=3, scale=2.0), atol=1e-14)
    assert np.allclose(mrc_cdf(law, xs), sgamma.cdf(xs, a=3, scale=2.0), atol=1e-12)


def test_mrc_law_hypoexponential_closed_form():
    # sum of Exp(mean 1) + Exp(mean 2): pdf = e^{-x/2} - e^{-x}
    law = mrc_law([1.0, 2.0], 1e-10)
    xs = np.linspace(0.1, 20.0, 200)
    assert np.max(np.abs(law.pdf(xs) - (np.exp(-xs / 2) - np.exp(-xs)))) < 1e-8


def test_mrc_law_invariants(rng):
    for _ in range(5):
        k = int(rng.integers(2, 7))
        gammas = rng.uniform(0.1, 4.0, k)
        law = mrc_law(gammas, 1e-10)
        assert law.coeffs[0] == pytest.approx(np.prod(gammas.min() / gammas), rel=1e-14)
        assert np.all(law.coeffs >= 0.0)
        assert law.coeffs.sum() == pytest.approx(1.0, abs=10 * law.tail_bound + 1e-13)
        xs = np.linspace(0.0, 50.0, 300)
        assert np.all(law.pdf(xs) >= 0.0)
        assert mrc_cdf(law, 1e3 * gammas.sum())[0] == pytest.approx(1.0, abs=1e-8)


def test_mrc_law_normalization_by_quadrature():
    law = mrc_law([0.5, 1.0, 2.5], 1e-10)
    from scipy.integrate import quad

    total, _ = quad(lambda x: law.pdf(x), 0.0, 200.0, limit=200)
    assert abs(total - 1.0) <= 10 * law.tail_bound + 1e-8


def test_mrc_law_ks_against_mc(rng):
    for _ in range(2):
        k = int(rng.integers(2, 7))
        gammas = rng.uniform(0.2, 3.0, k)
        law = mrc_law(gammas, 1e-10)
        draws = rng.exponential(gammas, size=(10**6, k)).sum(axis=1)
        assert kstest(draws, lambda x: mrc_cdf(law, x)).statistic < 0.002


def test_mrc_law_k1_degenerates_to_exponential():
    law = mrc_law([1.7], 1e-10)
    assert law.pdf(0.0) == pytest.approx(1 / 1.7)
    xs = np.linspace(0.0, 10, 50)
    assert np.allclose(law.pdf(xs), expon(scale=1.7).pdf(xs), atol=1e-14)


def test_mrc_law_truncation_failure():
    with pytest.raises(TruncationError):
        mrc_law([1e-9, 1.0], 1e-10)
    with pytest.raises(ValueError):
        mrc_law([1.0, 2.0], -1.0)
    with pytest.raises(ValueError):
        mrc_law([], 1e-10)


def test_mrc_law_series_length_boundary():
    # K=2 has masses (1 - b) b^l and tail b^(l+1): b^10000.5 = tol needs
    # exactly 10 001 masses, the most allowed; b^10001.5 = tol needs one more
    tol = 1e-3
    b = tol ** (1 / 10000.5)
    law = mrc_law([1.0, 1.0 / (1.0 - b)], tol)
    assert law.L == 10_000 and law.coeffs.size == 10_001
    b = tol ** (1 / 10001.5)
    with pytest.raises(TruncationError):
        mrc_law([1.0, 1.0 / (1.0 - b)], tol)


def _power_sum_masses(gammas, tol):
    """Reference masses by the power-sum recursion c_l = sum_i s_i c_{l-i} / l.

    s_i = sum_k beta_k^i. This O(L^2) recursion shares no arithmetic with the
    cascade in mrc_law. Returns the masses and the tail 1 - sum c[:l+1] after
    each term.
    """
    g = np.asarray(gammas, dtype=float)
    gmin = g.min()
    beta = 1.0 - gmin / g
    c = np.empty(10_001)
    s = np.empty(10_000)
    c[0] = np.exp(np.sum(np.log(gmin / g)))
    acc = c[0]
    tails = [1.0 - acc]
    beta_pow = np.ones_like(beta)
    l = 0
    while tails[-1] >= tol:
        l += 1
        beta_pow = beta_pow * beta
        s[l - 1] = beta_pow.sum()
        c[l] = float(np.dot(s[:l], c[l - 1 :: -1])) / l
        acc += c[l]
        tails.append(1.0 - acc)
    return c[: l + 1], tails


@st.composite
def _gain_sets(draw):
    k = draw(st.integers(1, 32))
    spread = draw(st.floats(1.0, 100.0))
    scale = draw(st.floats(1e-3, 1e3))
    u = draw(st.lists(st.floats(0.0, 1.0), min_size=k, max_size=k))
    return scale * spread ** np.asarray(u)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(gammas=_gain_sets(), tol=st.sampled_from([1e-8, 1e-10, 1e-12]))
def test_mrc_law_matches_power_sum_recursion(gammas, tol):
    law = mrc_law(gammas, tol)
    ref, tails = _power_sum_masses(gammas, tol)
    n = min(law.L, ref.size - 1) + 1
    np.testing.assert_allclose(law.coeffs[:n], ref[:n], rtol=1e-13, atol=0.0)
    assert 0.0 <= law.tail_bound < tol
    if law.L != ref.size - 1:
        # the two running sums of masses that sum to 1 may differ by the
        # coefficient tolerance, so only a reference tail that close to tol
        # can stop one series a term before the other
        assert abs(law.L - (ref.size - 1)) == 1
        assert abs(tails[n - 1] - tol) <= 1e-13


def _term_by_term_law(gammas, tol):
    """(coeffs, L, tail_bound) of the cascade advanced one term at a time over all users.

    The reference for mrc_law's blocked cascade: each step runs every user's
    recursion y_k[l] = y_{k-1}[l] + beta_k y_k[l-1] for one l, then adds the
    mass to the running sum and stops once 1 minus it is below tol.
    """
    g = np.asarray(gammas, dtype=float)
    gmin = float(g.min())
    beta = [b for b in (1.0 - gmin / g).tolist() if b > 0.0]
    c0 = float(np.exp(np.sum(np.log(gmin / g))))
    coeffs = [c0]
    y = [c0] * len(beta)
    acc = c0
    while 1.0 - acc >= tol:
        if len(coeffs) > _MAX_SERIES_TERMS:
            raise TruncationError(
                f"gamma series needs more than {_MAX_SERIES_TERMS} terms to reach "
                f"tail mass {tol} (extreme SNR disparity)"
            )
        y = list(accumulate(map(mul, beta, y)))
        coeffs.append(y[-1])
        acc += y[-1]
    return np.asarray(coeffs), len(coeffs) - 1, max(1.0 - acc, 0.0)


@st.composite
def _cascade_inputs(draw):
    """K in 1..32, spreads up to 100x (and a few that truncate), some users tied at the minimum."""
    k = draw(st.integers(1, 32))
    spread = draw(st.floats(1.0, 100.0) | st.sampled_from([1e3, 1e4]))
    u = np.asarray(draw(st.lists(st.floats(0.0, 1.0), min_size=k, max_size=k)))
    u[: draw(st.integers(0, k - 1))] = u.min()  # tied minima: beta = 0
    return draw(st.floats(1e-3, 1e3)) * spread**u


def _two_users_with_terms(l, tol):
    """K = 2 gains whose series stops after exactly l + 1 masses at tol."""
    b = tol ** (1.0 / (l + 0.5))  # the tail after l + 1 masses is b^(l+1)
    return np.array([1.0, 1.0 / (1.0 - b)])


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(gammas=_cascade_inputs(), tol=st.sampled_from([1e-10, 1e-12]))
@example(gammas=_two_users_with_terms(5, 1e-10), tol=1e-10)
@example(gammas=_two_users_with_terms(_CASCADE_BLOCK - 1, 1e-10), tol=1e-10)
@example(gammas=_two_users_with_terms(_CASCADE_BLOCK, 1e-12), tol=1e-12)
@example(gammas=_two_users_with_terms(_CASCADE_BLOCK + 1, 1e-10), tol=1e-10)
@example(gammas=_two_users_with_terms(3 * _CASCADE_BLOCK + 7, 1e-12), tol=1e-12)
def test_mrc_law_matches_term_by_term_cascade(gammas, tol):
    try:
        ref = _term_by_term_law(gammas, tol)
    except TruncationError as ex:
        with pytest.raises(TruncationError) as err:
            mrc_law(gammas, tol)
        assert str(err.value) == str(ex)
        return
    law = mrc_law(gammas, tol)
    assert law.coeffs.tobytes() == ref[0].tobytes()
    assert (law.L, law.tail_bound) == ref[1:]


def _pdf_out_of_place(law, x):
    """MrcLaw.pdf as one out-of-place expression over (L+1, x) temporaries: the reference."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.zeros_like(x)
    pos = x > 0.0
    if pos.any():
        xl = x[pos]
        shape = law.K + np.arange(law.L + 1)
        with np.errstate(divide="ignore"):
            logc = np.where(law.coeffs > 0.0, np.log(law.coeffs), -np.inf)
        logt = (
            logc[:, None]
            + (shape[:, None] - 1.0) * np.log(xl)[None, :]
            - xl[None, :] / law.gamma_min
            - shape[:, None] * math.log(law.gamma_min)
            - log_gamma_range(law.K, law.K + law.L + 1)[:, None]
        )
        out[pos] = np.exp(logt).sum(axis=0)
    if law.K == 1 and np.any(x == 0.0):
        out[x == 0.0] = law.coeffs[0] / law.gamma_min
    return out


def test_mrc_law_pdf_is_bitwise_the_out_of_place_expression():
    xs = np.concatenate([[-3.0, -1e-300, 0.0, 5e-324, 1e-12], np.geomspace(1e-8, 1e4, 400),
                         np.linspace(0.1, 80.0, 300), [-0.5, 0.0, 1e300]])
    laws = [mrc_law([1.7]), mrc_law([2.0, 2.0, 2.0]), mrc_law([0.3, 1.0, 2.5, 4.0]),
            mrc_law(100.0 ** (np.arange(16) / 15), 1e-10)]
    # a mass that underflowed to 0 takes ln 0 = -inf
    laws.append(MrcLaw(np.array([1.0, 2.0]), 1.0, 2, 0.0, np.array([0.5, 0.0, 0.5])))
    assert laws[0].L == laws[1].L == 0 and 0 < laws[2].L < 2000 < laws[3].L
    for law in laws:
        assert law.pdf(xs).tobytes() == _pdf_out_of_place(law, xs).tobytes(), law.L
        for x in (-1.0, 0.0, 2.5):
            assert law.pdf(x) == _pdf_out_of_place(law, x)[0]
    assert laws[0].pdf(0.0) == laws[0].coeffs[0] / 1.7 and laws[1].pdf(0.0) == 0.0


def test_mrc_law_large_series_is_fast():
    # K=16 with a 100x geometric gain spread needs L > 2000 terms; the
    # quadratic power-sum recursion needs about 0.4 s for it
    gammas = 100.0 ** (np.arange(16) / 15)
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        law = mrc_law(gammas, 1e-10)
        times.append(time.perf_counter() - t0)
    assert law.L > 2000
    assert isinstance(law.L, int) and isinstance(law.tail_bound, float)
    assert 0.0 <= law.tail_bound < 1e-10
    assert math.fsum(law.coeffs) + law.tail_bound == pytest.approx(1.0, abs=1e-13)
    assert min(times) < 0.1


def test_channel_law_realization(rng):
    # sampled f^H h must carry variance f^H R f per user
    e = make_ensemble(4, 5, seed=3)
    p = PhaseVector.random(5, rng)
    a = np.einsum("kij,j->ki", e.sqrt_correlations(), p.f)
    g = (rng.standard_normal((10**6, 4, 5)) + 1j * rng.standard_normal((10**6, 4, 5))) / math.sqrt(2)
    z = np.einsum("mki,ki->mk", g, np.conj(a))
    q = np.real(np.einsum("i,kij,j->k", np.conj(p.f), e.correlations, p.f))
    assert np.max(np.abs(z.var(axis=0) / q - 1.0)) < 0.01

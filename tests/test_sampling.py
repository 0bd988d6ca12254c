import logging

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

from mcarma_ou import matpoly, mcarma, rational, sampling, tolerances, verify
from mcarma_ou.exceptions import (
    AliasedSamplingError,
    CertificationError,
    ImaginaryLeakError,
    NoConvergenceError,
    NotPDError,
    SingularVandermondeError,
)

from conftest import random_stable_model
from oracles import (
    components,
    eigenbasis,
    innovations_ma,
    ma_acvf_loop,
    noise_acvf_loop,
    noise_acvf_quadrature,
    quad_finite_gramian,
    vandermonde,
)

# Corpus inputs (model index, h) on which the innovations recursion does not
# settle in its 10^4 steps: their MA zeros lie 8e-5 to 4e-4 outside the unit
# circle, where its linear rate tends to 1.
INNOVATIONS_STALLS = [(14, 0.01), (34, 0.01), (35, 0.01), (61, 0.01), (77, 0.01),
                      (79, 0.01), (139, 0.01), (26, 0.01), (26, 0.05)]
# The gamma_U of corpus #143 at h = 0.01 has a spectral density that is
# slightly negative near frequency 0 (about -5e-11 of its largest
# eigenvalue): no invertible MA factor of it exists.  At h = 0.05 it dips
# by about -1e-10, below the rounding of gamma_U itself, and the gamma_U
# formed in the latent eigenbases has a factor (test_h_sweep_certificates).
NO_MA_FACTOR = [(143, 0.01)]


def roundtrip_certified(sv):
    """The kept MA round trip record measures the round trip error of the
    fitted factor and holds against ``tolerances.MA_ROUNDTRIP``."""
    record = sv.ma_roundtrip
    error = sampling.ma_roundtrip_error(sv.gamma_U, sv.theta, sv.sigma_eps)
    return record.measured == error <= record.bound == tolerances.MA_ROUNDTRIP


# The fit ops of the hard-regime sample (conftest.hard_regime; models 0-11
# are d=4 p=3, 12-23 d=5 p=4, 24-35 d=6 p=4, 36-47 d=4 p=6, 48-59 d=8 p=3)
# that fail, by (model index, h).  The block Vandermonde of the sampled
# solvents loses rank or realness as h -> 0 at p = 6, and the MA fit does
# not converge or meets a gamma_U with no PD factor at small h.
HARD_REGIME_FAILURES = {
    **{(i, 0.01): NoConvergenceError
       for i in (12, 13, 14, 15, 16, 18, 19, 24, 25, 26, 28, 32, 35)},
    **{(i, h): NoConvergenceError
       for i, h in ((23, 0.25), (23, 1.0), (36, 0.25), (37, 0.05), (42, 0.05), (44, 0.05))},
    **{(i, 0.01): NotPDError for i in (17, 21, 29, 30, 31, 33, 34)},
    (23, 0.05): NotPDError,
    (23, 0.01): ImaginaryLeakError,
    **{(i, 0.05): ImaginaryLeakError for i in (36, 38, 39, 40, 41, 43, 45, 46, 47)},
    **{(i, 0.01): SingularVandermondeError for i in range(36, 48)},
}
# The (model index, h) of the hard-regime sample where the stationary ACVF
# fails the acvf-lyapunov-oracle row at h in {0.25, 1}: #23 measures
# 1.256e-7 against tolerances.ORACLE = 1e-8 at h = 1.
HARD_REGIME_ACVF_FAILURES = {(23, 1.0)}


@pytest.fixture(scope="module")
def corpus_decomps(corpus):
    """Corpus index -> decomposition, for the models with an MA part (p >= 2)."""
    return {i: mcarma.decompose(m, m.solvent_set())
            for i, m in enumerate(corpus) if m.p >= 2}


def scalar_poly(*coeffs):
    return matpoly.LambdaMatrix(tuple(np.array([[c]], dtype=float) for c in coeffs))


def scalar_model(a_coeffs, b_coeffs, sigma=1.0):
    return mcarma.McarmaModel.build(
        scalar_poly(*a_coeffs), scalar_poly(*b_coeffs), np.array([[sigma]]))


def monic_psi(psi):
    d = psi[0].shape[0]
    return matpoly.LambdaMatrix(tuple([np.eye(d, dtype=complex)] +
                                      [np.asarray(c, dtype=complex) for c in psi]))


class TestVarmaAr:
    def test_first_order_is_exponential(self):
        rng = np.random.default_rng(11)
        M = rng.standard_normal((2, 2)) - 3 * np.eye(2)
        model = mcarma.McarmaModel.build(
            matpoly.LambdaMatrix((np.eye(2), -M)),
            matpoly.LambdaMatrix((np.eye(2),)), np.eye(2))
        S = model.solvent_set()
        h = 0.25
        _, phi, *_ = sampling.varma_ar(S, h)
        assert_allclose(phi[0], scipy.linalg.expm(h * M).real, atol=1e-12)

    def test_scalar_coefficients(self):
        model = scalar_model([1, 3, 2], [1.0])
        S = model.solvent_set()
        h = 0.5
        _, phi, *_ = sampling.varma_ar(S, h)
        assert_allclose(phi[0][0, 0], np.exp(-0.5) + np.exp(-1.0), atol=1e-12)
        assert_allclose(phi[1][0, 0], -np.exp(-1.5), atol=1e-12)

    def test_scalar_ar_polynomial_product(self):
        # the scalar AR polynomial is prod_k (1 - e^{r_k h} z), coefficientwise
        model = scalar_model([1, 3, 2], [1.0])
        S = model.solvent_set()
        for h in (0.1, 0.5, 1.0):
            _, phi, *_ = sampling.varma_ar(S, h)
            poly = np.polynomial.polynomial.polyfromroots(
                [np.exp(1.0 * h), np.exp(2.0 * h)])
            poly = poly / poly[0]  # normalize constant term: 1 - phi1 z - phi2 z^2
            assert abs(-poly[1] - phi[0][0, 0]) < 1e-10
            assert abs(-poly[2] - phi[1][0, 0]) < 1e-10

    @pytest.mark.parametrize("h", [0.1, 0.5, 1.0])
    def test_example_ar_structure(self, example_set_12, h):
        psi, _, cond_V, residual = sampling.varma_ar(example_set_12, h)
        poly = monic_psi(psi)
        for R in example_set_12.matrices:
            E = scipy.linalg.expm(-h * R)
            assert np.linalg.norm(poly.eval_right(E)) <= 1e-8
        assert residual.measured <= 1e-8
        assert residual.bound == tolerances.AR_RESIDUAL * max(
            1.0, np.linalg.norm(psi, axis=(1, 2)).max())
        mats = sampling.sampled_solvent_matrices(example_set_12, h)
        assert cond_V == ("cond(V)", np.linalg.cond(vandermonde(mats)),
                          tolerances.CONDITION, True)

    def test_sampled_companion_spectrum(self, example_set_12):
        h = 0.3
        psi, _, *_ = sampling.varma_ar(example_set_12, h)
        comp = matpoly.companion_matrix(monic_psi(psi))
        got = np.linalg.eigvals(comp)
        want = np.exp(-h * example_set_12.roots)
        assert matpoly.eig_multiset_distance(got, want) < 1e-7

    @pytest.mark.parametrize("h", [0.0, -0.1, np.nan, np.inf])
    def test_step_outside_positive_reals_rejected(self, example_set_12, h):
        with pytest.raises(ValueError, match="positive and finite"):
            sampling.varma_ar(example_set_12, h)

    def test_aliasing_detected(self):
        h = 1.0
        model = scalar_model([1, 2, 1 + np.pi ** 2], [1.0])
        S = model.solvent_set()
        with pytest.raises(AliasedSamplingError):
            sampling.varma_ar(S, h)

    def test_solvent_sets_give_same_phi(self, example_set_12, example_set_34):
        h = 0.1
        _, phi_a, *_ = sampling.varma_ar(example_set_12, h)
        _, phi_b, *_ = sampling.varma_ar(example_set_34, h)
        for a, b in zip(phi_a, phi_b):
            assert np.max(np.abs(a - b)) <= 1e-8

    @pytest.mark.parametrize("h", [0.01, 0.25])
    def test_stacked_phi_equals_per_lag_solve(self, corpus, h):
        # the reference: Phi_j = -Psi_p^{-1} Psi_{p-j} (Psi_0 = I), one solve per j
        for i, model in enumerate(corpus[:30]):
            psi, phi, *_ = sampling.varma_ar(model.solvent_set(), h)
            p, d = psi.shape[:2]
            for j in range(1, p + 1):
                prev = np.eye(d) if j == p else psi[p - j - 1]
                assert np.array_equal(phi[j - 1], -np.linalg.solve(psi[-1], prev)), (i, j)

    @pytest.mark.parametrize("seed", range(5))
    def test_phi_real_random(self, seed):
        rng = np.random.default_rng(1000 + seed)
        model = random_stable_model(rng)
        _, phi, *_ = sampling.varma_ar(model.solvent_set(), 0.2)
        for f in phi:
            assert np.isrealobj(f)


class TestGramians:
    def test_finite_gramian_vs_quadrature(self, example_model, example_set_12):
        B_star = example_model.statespace.B_star
        h = 0.4
        pairs = list(zip(components(example_set_12), rational.residues(B_star, example_set_12)))
        for (s_nu, res_nu) in pairs:
            for (s_mu, res_mu) in pairs:
                got = mcarma.ou_gramian(s_nu, s_mu, res_nu @ res_mu.conj().T, h)
                want = quad_finite_gramian(s_nu.R, res_nu, s_mu.R, res_mu,
                                           np.eye(2), h)
                assert np.max(np.abs(got - want)) < 1e-9

    def test_spectra_collision_vs_quadrature(self):
        # R_nu = 0.5, R_mu = -0.5: sigma(R_nu) meets sigma(-R_mu^H), the
        # Sylvester operator is singular and the weight of z = 0 is h
        R_nu = np.array([[0.5 + 0j]])
        R_mu = np.array([[-0.5 + 0j]])
        res = np.array([[1.0 + 0j]])
        sigma = np.array([[1.0]])
        h = 0.7
        got = mcarma.ou_gramian(eigenbasis(R_nu), eigenbasis(R_mu),
                                res @ sigma @ res.conj().T, h)
        want = quad_finite_gramian(R_nu, res, R_mu, res, sigma, h)
        assert np.max(np.abs(got - want)) < 1e-10
        # analytic: int_0^h e^{0.5u} e^{-0.5u} du = h
        assert abs(got[0, 0] - h) < 1e-12

    def test_matches_block_exponential(self):
        rng = np.random.default_rng(13)
        R_nu = rng.standard_normal((2, 2)) - 2 * np.eye(2)
        R_mu = rng.standard_normal((2, 2)) - 2 * np.eye(2)
        res_nu = rng.standard_normal((2, 2))
        res_mu = rng.standard_normal((2, 2))
        sigma = np.eye(2)
        h = 0.3
        M = res_nu @ sigma @ res_mu.conj().T
        modal = mcarma.ou_gramian(eigenbasis(R_nu), eigenbasis(R_mu), M, h)
        d = 2
        block = np.zeros((2 * d, 2 * d), dtype=complex)
        block[:d, :d] = -R_nu
        block[:d, d:] = M
        block[d:, d:] = R_mu.conj().T
        vanloan = scipy.linalg.expm(h * R_nu) @ scipy.linalg.expm(h * block)[:d, d:]
        assert np.max(np.abs(modal - vanloan)) < 1e-11


class TestNoiseAcvf:
    def test_first_order_single_gramian(self):
        model = scalar_model([1, 2], [1.5], sigma=0.8)
        S = model.solvent_set()
        B_star = model.statespace.B_star
        residues = rational.residues(B_star, S)
        _, phi, *_ = sampling.varma_ar(S, 0.5)
        gamma = sampling.noise_acvf(S, residues, phi, model.sigma_L, 0.5)
        assert len(gamma) == 1
        want = 1.5 ** 2 * 0.8 * (1 - np.exp(-2 * 2 * 0.5)) / (2 * 2)
        assert abs(gamma[0][0, 0] - want) < 1e-12

    def test_scalar_carma20_vs_quadrature(self):
        model = scalar_model([1, 3, 2], [1.0])
        S = model.solvent_set()
        residues = rational.residues(model.statespace.B_star, S)
        h = 0.5
        _, phi, *_ = sampling.varma_ar(S, h)
        got = sampling.noise_acvf(S, residues, phi, model.sigma_L, h)
        want = noise_acvf_quadrature(S, residues, phi, model.sigma_L, h)
        for g, w in zip(got, want):
            assert np.max(np.abs(g - w)) < 1e-7 * max(1.0, np.max(np.abs(w)))

    def test_example_vs_continuous_route(self, example_model, example_set_12):
        decomp = mcarma.decompose(example_model, example_set_12)
        h = 0.1
        _, phi, *_ = sampling.varma_ar(example_set_12, h)
        got = sampling.noise_acvf(example_set_12, decomp.residues, phi,
                                  example_model.sigma_L, h)
        sampled = verify.sampled_state_space(decomp.statespace, example_model.sigma_L, h)
        want = verify.sampled_noise_acvf(sampled, phi)
        for g, w in zip(got, want):
            assert np.max(np.abs(g - w)) < 1e-7 * max(1.0, np.max(np.abs(w)))

    def test_solvent_sets_agree(self, example_model, example_set_12, example_set_34):
        h = 0.1
        d12 = mcarma.decompose(example_model, example_set_12)
        d34 = mcarma.decompose(example_model, example_set_34)
        _, phi, *_ = sampling.varma_ar(example_set_12, h)
        a = sampling.noise_acvf(example_set_12, d12.residues, phi,
                                example_model.sigma_L, h)
        b = sampling.noise_acvf(example_set_34, d34.residues, phi,
                                example_model.sigma_L, h)
        for x, y in zip(a, b):
            assert np.max(np.abs(x - y)) <= 1e-8

    @pytest.mark.parametrize("h", [0.01, 0.05, 0.25, 2.0])
    def test_h_sweep_vs_quadrature(self, example_model, h):
        S = example_model.solvent_set()
        decomp = mcarma.decompose(example_model, S)
        _, phi, *_ = sampling.varma_ar(S, h)
        got = sampling.noise_acvf(S, decomp.residues, phi,
                                  example_model.sigma_L, h)
        want = noise_acvf_quadrature(S, decomp.residues, phi,
                                     example_model.sigma_L, h)
        for g, w in zip(got, want):
            assert np.max(np.abs(g - w)) <= 1e-10 * max(1.0, np.max(np.abs(w)))

    @pytest.mark.parametrize("h", [0.01, 0.05, 0.25, 1.0])
    def test_batched_sum_equals_loop(self, corpus_decomps, h):
        # the batched products and the ordered cumulative sum round exactly
        # as one 2-d product per term summed in a loop
        for i, decomp in corpus_decomps.items():
            S, residues, sigma_L = decomp.solvent_set, decomp.residues, decomp.model.sigma_L
            _, phi, *_ = sampling.varma_ar(S, h)
            got = sampling.noise_acvf(S, residues, phi, sigma_L, h)
            want = noise_acvf_loop(S, residues, phi, sigma_L, h)
            assert all(np.array_equal(g, w) for g, w in zip(got, want)), i

    @pytest.mark.parametrize("seed", range(4))
    def test_random_vs_continuous_route(self, seed):
        rng = np.random.default_rng(1100 + seed)
        model = random_stable_model(rng, d=2, p=2)
        S = model.solvent_set()
        decomp = mcarma.decompose(model, S)
        h = 0.3
        _, phi, *_ = sampling.varma_ar(S, h)
        got = sampling.noise_acvf(S, decomp.residues, phi, model.sigma_L, h)
        sampled = verify.sampled_state_space(decomp.statespace, model.sigma_L, h)
        want = verify.sampled_noise_acvf(sampled, phi)
        for g, w in zip(got, want):
            assert np.max(np.abs(g - w)) < 1e-6 * max(1.0, np.max(np.abs(w)))


class TestFitMa:
    def test_first_order_passthrough(self):
        g0 = np.array([[2.0]])
        theta, sigma_eps, margin, *_ = sampling.fit_ma([g0])
        assert theta.shape == (0, 1, 1)
        assert_allclose(sigma_eps, g0)
        assert margin == np.inf

    def test_scalar_ma1_identity(self):
        theta = 0.5
        gammas = [np.array([[1 + theta ** 2]]), np.array([[theta]])]
        fitted, sigma_eps, margin, *_ = sampling.fit_ma(gammas)
        assert abs(fitted[0][0, 0] - theta) < 1e-8
        assert abs(sigma_eps[0, 0] - 1.0) < 1e-8
        assert margin > 1e-6  # zero at -2, outside the unit disc

    def test_noninvertible_acvf_picks_invertible_branch(self):
        # theta = 2 and theta = 0.5 share the ACVF shape; the invertible
        # representative has theta = 0.5 with rescaled innovation variance
        gammas = [np.array([[1 + 4.0]]), np.array([[2.0]])]
        fitted, sigma_eps, _, *_ = sampling.fit_ma(gammas)
        assert abs(fitted[0][0, 0] - 0.5) < 1e-6
        assert abs(sigma_eps[0, 0] - 4.0) < 1e-5

    def test_scalar_carma_roundtrip(self):
        model = scalar_model([1, 3, 2], [1.0])
        sv = sampling.sampled_varma(mcarma.decompose(model, model.solvent_set()), 0.5)
        assert roundtrip_certified(sv)
        assert sv.ma_margin > 1e-6

    def test_rejects_indefinite_gamma0(self):
        with pytest.raises(NotPDError):
            sampling.fit_ma([np.array([[0.0]]), np.array([[1.0]])])

    def test_rejects_invalid_sequence(self):
        # |gamma(1)| > gamma(0)/2 cannot come from any MA(1)
        with pytest.raises((NotPDError, NoConvergenceError)):
            sampling.fit_ma([np.array([[1.0]]), np.array([[0.9]])])

    @pytest.mark.parametrize("seed", range(5))
    def test_roundtrip_random(self, seed):
        rng = np.random.default_rng(1200 + seed)
        model = random_stable_model(rng, d=2, p=int(rng.integers(2, 4)))
        sv = sampling.sampled_varma(mcarma.decompose(model, model.solvent_set()), 0.25)
        assert roundtrip_certified(sv)
        assert sv.ma_margin > 1e-6

    @pytest.mark.parametrize("h", [0.01, 0.25])
    def test_ma_acvf_equals_loop(self, corpus_decomps, h):
        # the stacked products and the ordered cumulative sum round exactly
        # as one 2-d product per term summed in a loop; zero beyond lag p-1
        for i, decomp in corpus_decomps.items():
            if (i, h) in NO_MA_FACTOR:
                continue
            sv = sampling.sampled_varma(decomp, h)
            for lag in range(decomp.p + 1):
                got = sampling.ma_acvf(sv.theta, sv.sigma_eps, lag)
                assert np.array_equal(got, ma_acvf_loop(sv.theta, sv.sigma_eps, lag)), (i, lag)

    @pytest.mark.parametrize("h", [0.25, 2.0])
    def test_matches_innovations_oracle(self, corpus_decomps, h):
        for i, decomp in corpus_decomps.items():
            sv = sampling.sampled_varma(decomp, h)
            theta, sigma_eps = innovations_ma(sv.gamma_U)
            theta_scale = max(1.0, max(np.max(np.abs(t)) for t in theta))
            for got, want in zip(sv.theta, theta):
                assert np.max(np.abs(got - want)) <= 1e-6 * theta_scale, i
            assert np.max(np.abs(sv.sigma_eps - sigma_eps)) <= 1e-6 * max(
                1.0, np.max(np.abs(sv.gamma_U[0]))), i

    @pytest.mark.parametrize("h", [0.01, 0.05, 0.25, 2.0])
    def test_h_sweep_certificates(self, corpus_decomps, h):
        for i, decomp in corpus_decomps.items():
            if (i, h) in NO_MA_FACTOR:
                continue
            sv = sampling.sampled_varma(decomp, h)
            assert roundtrip_certified(sv), i
            assert verify.check_ma_invertibility(sv.ma_margin).ok, i
            assert 1 <= sv.ma_steps <= sampling.DOUBLING_MAXIT

    @pytest.mark.parametrize("index, h", INNOVATIONS_STALLS)
    def test_near_unit_circle_zeros_fit(self, corpus_decomps, index, h):
        sv = sampling.sampled_varma(corpus_decomps[index], h)
        assert roundtrip_certified(sv)
        assert sv.ma_margin >= 1e-6

    @pytest.mark.parametrize("index, h", NO_MA_FACTOR)
    def test_no_invertible_factor_raises(self, corpus_decomps, index, h):
        with pytest.raises(NoConvergenceError):
            sampling.sampled_varma(corpus_decomps[index], h)

    def test_unit_root_settles_on_the_circle(self):
        # theta = 1: the factor exists but is not invertible; doubling
        # converges linearly there, and the margin shows it
        theta, sigma_eps, margin, _, roundtrip = sampling.fit_ma(
            [np.array([[2.0]]), np.array([[1.0]])])
        assert abs(theta[0][0, 0] - 1.0) < 1e-6
        assert abs(sigma_eps[0, 0] - 1.0) < 1e-6
        assert margin < 1e-6
        assert roundtrip.measured <= roundtrip.bound == 1e-6


class TestSampledVarma:
    def test_summary_fields(self, example_model, example_set_12):
        decomp = mcarma.decompose(example_model, example_set_12)
        sv = sampling.sampled_varma(decomp, 0.1)
        assert sv.schur_stable
        assert len(sv.phi) == 2 and len(sv.psi) == 2
        assert len(sv.gamma_U) == 2 and len(sv.theta) == 1
        assert sv.sigma_eps.shape == (2, 2)
        assert sv.ar_residual.measured <= 1e-8
        assert np.isfinite(sv.cond_sampled_V.measured)
        assert 1 <= sv.ma_steps <= sampling.DOUBLING_MAXIT
        assert roundtrip_certified(sv)

    def test_logs_stage_times_at_debug(self, example_model, caplog):
        decomp = mcarma.decompose(example_model, example_model.solvent_set())
        with caplog.at_level(logging.INFO, logger="mcarma_ou.sampling"):
            sampling.sampled_varma(decomp, 0.1)
        assert caplog.records == []
        with caplog.at_level(logging.DEBUG, logger="mcarma_ou.sampling"):
            sv = sampling.sampled_varma(decomp, 0.1)
        (record,) = caplog.records
        assert record.levelno == logging.DEBUG
        message = record.getMessage()
        for stage in ("varma_ar", "noise_acvf", "fit_ma"):
            assert stage in message
        assert f"{sv.ma_steps} doubling steps" in message

    def test_zero_driver_has_no_ma_factor(self, example_model):
        # gamma_U(0) = 0 meets the PSD floor of noise_acvf with equality and
        # fails the strict positive-definite floor of fit_ma
        model = mcarma.McarmaModel.build(example_model.A, example_model.B, np.zeros((2, 2)))
        decomp = mcarma.decompose(model, model.solvent_set())
        with pytest.raises(NotPDError, match="gamma_U\\(0\\) min eig = 0.000e\\+00"):
            sampling.sampled_varma(decomp, 0.1)

    def test_schur_flag_tracks_stability(self):
        model = scalar_model([1, -0.5], [1.0])  # unstable root +0.5
        decomp = mcarma.decompose(model, model.solvent_set())
        sv = sampling.sampled_varma(decomp, 0.1)
        assert not sv.schur_stable

    def test_takes_no_expm_or_sylvester(self, example_model, monkeypatch):
        calls = []
        for name in ("expm", "solve_sylvester"):
            original = getattr(scipy.linalg, name)

            def counting(*args, _name=name, _original=original, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(scipy.linalg, name, counting)
        decomp = mcarma.decompose(example_model, example_model.solvent_set())
        mcarma.stationary_acvf(decomp, [0.1 * k for k in range(11)])
        sampling.sampled_varma(decomp, 0.1)
        assert calls == []


class TestHardRegime:
    def test_every_fit_certifies_or_fails_typed(self, hard_regime):
        # each model is fitted at four h, so the later ops reuse what the
        # model built at the first
        failures = {}
        for index, model in enumerate(hard_regime):
            for h in (0.01, 0.05, 0.25, 1.0):
                try:
                    decomp = mcarma.decompose(model, model.solvent_set())
                    gammas = mcarma.stationary_acvf(decomp, [k * h for k in range(11)])
                    sv = sampling.sampled_varma(decomp, h)
                except CertificationError as exc:
                    assert type(exc) is not CertificationError
                    failures[index, h] = type(exc)
                    continue
                # the varma-ar-structure and ma-roundtrip rows are the records
                records = [sv.ar_residual, sv.ma_roundtrip]
                checks = [verify.check_acvf_symmetry(gammas[0]), *records,
                          verify.check_ma_invertibility(sv.ma_margin)]
                assert all(check.ok for check in checks), (index, h, checks)
                assert all(r.measured <= r.bound for r in records), (index, h, records)
        assert failures == HARD_REGIME_FAILURES

    def test_acvf_lyapunov_verdict(self, hard_regime):
        failures = set()
        for index, model in enumerate(hard_regime):
            decomp = mcarma.decompose(model, model.solvent_set())
            for h in (0.25, 1.0):
                gammas = mcarma.stationary_acvf(decomp, [k * h for k in range(11)])
                sampled = verify.sampled_state_space(decomp.statespace, model.sigma_L, h)
                if not verify.check_acvf_lyapunov(sampled, gammas).ok:
                    failures.add((index, h))
        assert failures == HARD_REGIME_ACVF_FAILURES

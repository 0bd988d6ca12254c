import logging

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

from mcarma_ou import matpoly, mcarma, rational, sampling, tolerances, verify
from mcarma_ou.exceptions import (
    AliasedSamplingError,
    CertificationError,
    NoConvergenceError,
    NotPDError,
    SingularVandermondeError,
)

import mp_oracles
from conftest import random_stable_model, rescale_time, rotate, scalar_model
from oracles import (
    innovations_ma,
    ma_acvf_loop,
    noise_acvf_loop,
    noise_acvf_quadrature,
    quad_finite_gramian,
    stack,
)

# Corpus inputs (model index, h) on which the innovations recursion does not
# settle in its 10^4 steps: their MA zeros lie 8e-5 to 4e-4 outside the unit
# circle, where its linear rate tends to 1.
INNOVATIONS_STALLS = [(14, 0.01), (34, 0.01), (35, 0.01), (61, 0.01), (77, 0.01),
                      (79, 0.01), (139, 0.01), (26, 0.01), (26, 0.05)]
# Corpus inputs whose gamma_U is small against the component Gramians it
# is a projection of: #143 at h = 0.01 has MA zeros 1.3e-3 outside the unit
# circle, and projecting Gramians integrated first errs by 4.7e-9 of
# max|gamma_U(0)| against the 50-digit reference, enough to make its
# spectral density negative.  Projected inside the integral, gamma_U errs by
# 1.6e-12 and has its invertible factor.
SMALL_NOISE_FITS = [(143, 0.01)]


def roundtrip_certified(sv):
    """The kept MA round trip record measures the round trip error of the
    fitted factor and holds against ``tolerances.MA_ROUNDTRIP``."""
    record = sv.ma_roundtrip
    error = sampling.ma_roundtrip_error(sv.gamma_U, sv.theta, sv.sigma_eps)
    return record.measured == error <= record.bound == tolerances.MA_ROUNDTRIP


# The fit ops of the hard-regime sample (conftest.hard_regime; models 0-11
# are d=4 p=3, 12-23 d=5 p=4, 24-35 d=6 p=4, 36-47 d=4 p=6, 48-59 d=8 p=3)
# that fail, by (model index, h).  All are MA fits at h <= 0.05, where the
# MA zeros approach the unit circle: the doubling does not settle, settles
# on a non-stabilizing solution, or leaves a round trip or Sigma_eps beyond
# its bound.  These are failures of the double-precision fit, not of the
# method: nine of the 18 also fail when fit_ma runs on their 50-digit
# gamma_U rounded to double, and the others fail on the error of their
# gamma_U, up to 2e-6 of max|gamma_U(0)| at p = 6, or on the rounding of the
# doubling.  Where it was checked (#14, #17, #38, #40, #42 at h = 0.01), a
# 40-digit doubling on a 40-digit gamma_U settles on a stabilizing factor.
HARD_REGIME_FAILURES = {
    **{(i, 0.01): NoConvergenceError
       for i in (14, 17, 23, 26, 32, 38, 39, 40, 41, 42, 45, 46)},
    **{(i, 0.05): NoConvergenceError for i in (36, 41, 44, 46)},
    **{(i, 0.01): NotPDError for i in (36, 44)},
}

# Errors of (Phi, gamma_U) against the 50-digit state-space reference
# (mp_oracles), relative to max|Phi| and max|gamma_U(0)|, measured 2.1e-14
# and 5.3e-10 on corpus #88 at h = 0.01, 1.4e-14 and 1.1e-11 at h = 0.05,
# and 5.9e-13 and 1.6e-12 on #143 at h = 0.01; the bounds are about ten
# times those.  Phi from the block Vandermonde of the sampled solvents errs
# by 1.2e-10, 6.5e-13 and 1.3e-9, and gamma_U projected from component
# Gramians integrated first by 4.6e-4, 7.3e-7 and 4.7e-9.  Theta and
# Sigma_eps, relative to max|Theta| and max|Sigma_eps|, measured 9.5e-10 and
# 9.8e-10, 2.8e-11 and 3.7e-11, and 1.7e-5 and 4.2e-7 (#143 at h = 0.01 has
# an MA zero 1.25e-3 from the unit circle, and fit_ma on the rounded
# reference gamma_U alone already errs by 2.3e-7); bounds again about ten
# times those.
REFERENCE_BOUNDS = {(88, 0.01): (2e-13, 6e-9, 1e-8, 1e-8),
                    (88, 0.05): (2e-13, 1.2e-10, 3e-10, 4e-10),
                    (143, 0.01): (6e-12, 2e-11, 2e-4, 5e-6)}
# gamma_U from the reference Phi, where the quadrature is not small: corpus
# #88 at h = 2 (one panel, h max|lam_a + conj lam_b| = 7.8) measured 1.7e-13
# and with its roots times 10 at h = 0.5 (two panels) 1.3e-13
PANEL_BOUND = 2e-12

# The (model index, h) of the hard-regime sample where the stationary ACVF
# fails the acvf-lyapunov-oracle row at h in {0.25, 1}: #23 measures
# 1.256e-7 against tolerances.ORACLE = 1e-8 at h = 1.
HARD_REGIME_ACVF_FAILURES = {(23, 1.0)}


# The corpus fits at h in {8, 12} whose Phi the AR residual rejects, by h.
# There |z| = |e^{-h lam}| reaches e^30 and the delta-form solve loses the
# digits of Phi: against the 50-digit Phi each rejected Phi errs by 3.5e-8
# (#131 at h = 12) to 3.45 (#151 at h = 12) of max|Phi|, while the 320 fits
# that pass err by at most 8.1e-8 (#134 at h = 12).  Corpus #7, #35, #178 and
# #188 at h = 12 fail cond(Q) first.
LARGE_H_REJECTIONS = {
    8.0: {7, 17, 26, 35, 44, 53, 71, 79, 80, 89, 122, 124, 125, 151, 152, 161, 169, 178,
          188, 196, 197},
    12.0: {4, 13, 16, 17, 23, 25, 26, 38, 43, 44, 50, 53, 61, 70, 71, 76, 77, 79, 80, 83, 86,
           88, 89, 95, 98, 104, 106, 107, 110, 113, 115, 116, 122, 124, 125, 131, 133, 142,
           143, 146, 151, 152, 158, 160, 161, 169, 170, 173, 176, 183, 185, 186, 192, 196,
           197},
}
LARGE_H_PASS_ERROR = 2e-7


@pytest.fixture(scope="module")
def corpus_decomps(corpus):
    """Corpus index -> decomposition, for the models with an MA part (p >= 2)."""
    return {i: mcarma.decompose(m, m.solvent_set())
            for i, m in enumerate(corpus) if m.p >= 2}


@pytest.fixture(scope="module")
def references(corpus_decomps):
    """(index, h) -> the 50-digit (Phi, gamma_U, Theta, Sigma_eps) of each
    ``REFERENCE_BOUNDS`` case, about 0.8 s in all."""
    return {(index, h): mp_oracles.sampled_varma_reference(corpus_decomps[index].model, h)
            for index, h in REFERENCE_BOUNDS}


def monic_psi(psi):
    d = psi[0].shape[0]
    return matpoly.LambdaMatrix(tuple([np.eye(d, dtype=complex)] +
                                      [np.asarray(c, dtype=complex) for c in psi]))


def phi_error(phi, want):
    """max|Phi - want| relative to max|want|."""
    return float(np.max(np.abs(phi - want)) / np.max(np.abs(want)))


def phi_backward_error(model, phi, h):
    """The AR residual of ``varma_ar`` over its scale, one latent pair at a
    time: the largest ``||x - sum_j Phi_j x z^j|| / (||I||_F + sum_j
    ||Phi_j||_F |z|^j)`` over the pairs (lam, x) of the model's modes,
    z = e^{-h lam}."""
    modes = model.modes
    worst = 0.0
    for lam, x in zip(modes.roots, modes.X.T):
        z = np.exp(-h * lam)
        residual = x - sum(f @ x * z ** j for j, f in enumerate(phi, 1))
        scale = np.sqrt(model.d) + sum(np.linalg.norm(f) * abs(z) ** j
                                       for j, f in enumerate(phi, 1))
        worst = max(worst, np.linalg.norm(residual) / scale)
    return worst


class TestVarmaAr:
    def test_first_order_is_exponential(self):
        rng = np.random.default_rng(11)
        M = rng.standard_normal((2, 2)) - 3 * np.eye(2)
        model = mcarma.McarmaModel.build(
            matpoly.LambdaMatrix((np.eye(2), -M)),
            matpoly.LambdaMatrix((np.eye(2),)), np.eye(2))
        h = 0.25
        _, phi, *_ = sampling.varma_ar(model, h)
        assert_allclose(phi[0], scipy.linalg.expm(h * M).real, atol=1e-12)

    def test_scalar_coefficients(self):
        model = scalar_model([1, 3, 2], [1.0])
        h = 0.5
        _, phi, *_ = sampling.varma_ar(model, h)
        assert_allclose(phi[0][0, 0], np.exp(-0.5) + np.exp(-1.0), atol=1e-12)
        assert_allclose(phi[1][0, 0], -np.exp(-1.5), atol=1e-12)

    def test_scalar_ar_polynomial_product(self):
        # the scalar AR polynomial is prod_k (1 - e^{r_k h} z), coefficientwise
        model = scalar_model([1, 3, 2], [1.0])
        for h in (0.1, 0.5, 1.0):
            _, phi, *_ = sampling.varma_ar(model, h)
            poly = np.polynomial.polynomial.polyfromroots(
                [np.exp(1.0 * h), np.exp(2.0 * h)])
            poly = poly / poly[0]  # normalize constant term: 1 - phi1 z - phi2 z^2
            assert abs(-poly[1] - phi[0][0, 0]) < 1e-10
            assert abs(-poly[2] - phi[1][0, 0]) < 1e-10

    @pytest.mark.parametrize("h", [0.1, 0.5, 1.0])
    def test_example_ar_structure(self, example_model, example_set_12, h):
        psi, phi, cond_Q, residual = sampling.varma_ar(example_model, h)
        poly = monic_psi(psi)
        for R in example_set_12.matrices:
            E = scipy.linalg.expm(-h * R)
            assert np.linalg.norm(poly.eval_right(E)) <= 1e-8
        # each latent pair's residual against the rounding of Phi at its
        # sampled root z: ||I||_F + sum_j ||Phi_j||_F |z|^j
        lam = example_model.modes.roots
        z = np.abs(np.exp(-h * lam))
        scales = np.sqrt(2.0) + sum(np.linalg.norm(f) * z ** j for j, f in enumerate(phi, 1))
        assert residual.measured <= 1e-8
        assert np.isclose(residual.bound, tolerances.AR_RESIDUAL * scales, rtol=1e-14).any()
        # Q = [X; X diag(w)] with the modes' latent vectors X and the delta
        # roots w scaled to unit largest modulus
        X = example_model.modes.X
        w = np.expm1(-h * lam)
        Q = np.vstack([X, X * (w / np.abs(w).max())])
        assert cond_Q == ("cond(Q)", np.linalg.cond(Q), tolerances.CONDITION, True)

    def test_sampled_companion_spectrum(self, example_model, example_set_12):
        h = 0.3
        psi, _, *_ = sampling.varma_ar(example_model, h)
        comp = matpoly.companion_matrix(monic_psi(psi))
        got = np.linalg.eigvals(comp)
        want = np.exp(-h * example_set_12.roots)
        assert matpoly.eig_multiset_distance(got, want) < 1e-7

    @pytest.mark.parametrize("h", [0.0, -0.1, np.nan, np.inf])
    def test_step_outside_positive_reals_rejected(self, example_model, h):
        with pytest.raises(ValueError, match="positive and finite"):
            sampling.varma_ar(example_model, h)

    def test_aliasing_detected(self):
        h = 1.0
        model = scalar_model([1, 2, 1 + np.pi ** 2], [1.0])
        with pytest.raises(AliasedSamplingError):
            sampling.varma_ar(model, h)

    @pytest.mark.parametrize("c", [1e-3, 1.0, 1e3])
    def test_overflow_guard_is_scale_free(self, c):
        # roots -c and -2c: p h max(-Re lam) = 4 c h, judged before any
        # exponential, so roots times c and h over c keep the verdict; just
        # below the guard Phi, whose scale stays finite, is still the closed
        # form Phi_1 = e^{-ch} + e^{-2ch}, Phi_2 = -e^{-3ch}
        model = scalar_model([1, 3 * c, 2 * c * c], [1.0])
        for ch in (10.0, 170.0):
            _, phi, *_ = sampling.varma_ar(model, ch / c)
            assert_allclose(phi[:, 0, 0], [np.exp(-ch) + np.exp(-2 * ch), -np.exp(-3 * ch)],
                            rtol=1e-12)
        with pytest.raises(SingularVandermondeError,
                           match=r"sampled exponent p h max\(-Re lam\) = 8\.000e\+02 "
                                 r"exceeds 7\.098e\+02"):
            sampling.varma_ar(model, 200.0 / c)

    def test_ar_residual_judged_by_rounding_at_large_h(self, corpus):
        # corpus #148 (roots -0.31 +- 1.60i, -1.66 +- 1.78i) at h = 12: |z|
        # reaches e^20, so Phi(z) x rounds at sum_j ||Phi_j|| |z|^j and not
        # at max ||Phi_j||; it reads 3.7e-2 of that backward scale
        _, _, _, residual = sampling.varma_ar(corpus[148], 12.0)
        assert residual.ok and residual.measured <= 0.1 * residual.bound

    @pytest.mark.parametrize("h", [0.01, 0.25, 1.0])
    def test_planted_phi_error_rejected(self, corpus, monkeypatch, h):
        # Phi_1 times 1 + 1e-6 after its solve leaves Phi(z_a) x_a at about
        # 1e-6 of Phi_1 x_a z_a, far above the rounding of Phi(z_a): every
        # corpus fit that passes is rejected
        for model in corpus:  # each passes, and builds its modes before the patch
            sampling.varma_ar(model, h)
        solve = np.linalg.solve

        def planted(a, b):
            out = solve(a, b)
            if np.ndim(b) == 3:  # the Phi solve, against the stack of Psi_{p-j}
                out[0] *= 1.0 + 1e-6
            return out

        monkeypatch.setattr(np.linalg, "solve", planted)
        for model in corpus:
            with pytest.raises(SingularVandermondeError, match="AR residual"):
                sampling.varma_ar(model, h)

    def test_wrong_phi_at_large_h_rejected(self, corpus):
        # corpus #161 at h = 12: the fit's Phi errs by 12% of max|Phi| and is
        # rejected, while the 50-digit Phi reads 1.0e-13 on the same residual
        model = corpus[161]
        with pytest.raises(SingularVandermondeError, match="AR residual"):
            sampling.varma_ar(model, 12.0)
        want = mp_oracles.sampled_phi_reference(model, 12.0)
        assert phi_backward_error(model, want, 12.0) <= 1e-12

    @pytest.mark.parametrize("h", [0.25, 1.0])
    def test_ar_residual_is_scale_and_rotation_free(self, corpus, h):
        # Phi of the rotated model is Q Phi_j Q^T and of the rescaled one
        # Phi itself, so the record moves only by rounding: its measured over
        # its scale (bound / AR_RESIDUAL) by at most 1.1e-14, here 1e-13, and
        # its bound by 3.5e-11 relative, here 1e-9; every fit passes
        for index, model in enumerate(corpus):
            if model.d == 1:
                continue
            Q = np.linalg.qr(np.random.default_rng(1).standard_normal((model.d, model.d)))[0]
            base = sampling.varma_ar(model, h)[3]
            for moved, step in ((rotate(model, Q), h), (rescale_time(model, 1e-3), 1e3 * h),
                                (rescale_time(model, 1e3), 1e-3 * h)):
                record = sampling.varma_ar(moved, step)[3]
                assert abs(record.measured / record.bound
                           - base.measured / base.bound) <= 1e-5, index
                assert abs(record.bound / base.bound - 1.0) <= 1e-9, index

    @pytest.mark.slow
    def test_large_h_rejections_are_wrong_phis(self, corpus, monkeypatch):
        # each rejected Phi, formed with the certificate skipped, errs by
        # more than 1e-8 against the 50-digit Phi; each passing Phi by less
        # than LARGE_H_PASS_ERROR
        certify = tolerances.certify

        def skip_ar_residual(error, what, measured, bound, at_least=False):
            if what != "AR residual":
                return certify(error, what, measured, bound, at_least)

        for h, want_rejected in LARGE_H_REJECTIONS.items():
            rejected = set()
            for index, model in enumerate(corpus):
                try:
                    phi = sampling.varma_ar(model, h)[1]
                except SingularVandermondeError as exc:
                    if "AR residual" not in str(exc):
                        continue  # cond(Q) fails first
                    rejected.add(index)
                    with monkeypatch.context() as patch:
                        patch.setattr(tolerances, "certify", skip_ar_residual)
                        phi = sampling.varma_ar(model, h)[1]
                error = phi_error(phi, mp_oracles.sampled_phi_reference(model, h))
                if index in rejected:
                    assert error > 1e-8, (index, h, error)
                else:
                    assert error <= LARGE_H_PASS_ERROR, (index, h, error)
            assert rejected == want_rejected, h

    def test_solvent_sets_give_same_phi(self, example_model, example_set_12, example_set_34):
        # each set's sampled solvents e^{-h R_k} give Psi by the block
        # Vandermonde inversion; both equal the standard pair's
        h = 0.1
        _, phi, *_ = sampling.varma_ar(example_model, h)
        for S in (example_set_12, example_set_34):
            coeffs = matpoly.coeffs_from_solvent_matrices(
                [scipy.linalg.expm(-h * R) for R in S.matrices]).coeffs
            want = -np.linalg.solve(coeffs[-1], coeffs[-2::-1])
            assert np.max(np.abs(phi - want)) <= 1e-8

    @pytest.mark.parametrize("h", [0.01, 0.1, 1.0])
    def test_grouping_does_not_change_the_fit(self, example_model, example_set_12,
                                              example_set_34, h):
        # the fit reads the model's modes, not the grouping: every output of
        # the sampled VARMA is bit-identical along both sets
        a, b = (sampling.sampled_varma(mcarma.decompose(example_model, S), h)
                for S in (example_set_12, example_set_34))
        for name in ("psi", "phi", "gamma_U", "theta", "sigma_eps"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name

    @pytest.mark.parametrize("h", [0.01, 0.25])
    def test_stacked_phi_equals_per_lag_solve(self, corpus, h):
        # the reference: Phi_j = -Psi_p^{-1} Psi_{p-j} (Psi_0 = I), one solve per j
        for i, model in enumerate(corpus[:30]):
            psi, phi, *_ = sampling.varma_ar(model, h)
            p, d = psi.shape[:2]
            for j in range(1, p + 1):
                prev = np.eye(d) if j == p else psi[p - j - 1]
                assert np.array_equal(phi[j - 1], -np.linalg.solve(psi[-1], prev)), (i, j)

    @pytest.mark.parametrize("seed", range(5))
    def test_phi_real_random(self, seed):
        rng = np.random.default_rng(1000 + seed)
        model = random_stable_model(rng)
        _, phi, *_ = sampling.varma_ar(model, 0.2)
        for f in phi:
            assert np.isrealobj(f)


class TestGramians:
    def test_finite_gramian_vs_quadrature(self, example_model, example_set_12):
        B_star = example_model.statespace.B_star
        h = 0.4
        residues = rational.residues(B_star, example_set_12)
        got = mcarma.component_gramians(example_set_12, residues, np.eye(2), h)
        pairs = list(zip(example_set_12.matrices, residues))
        for nu, (R_nu, res_nu) in enumerate(pairs):
            for mu, (R_mu, res_mu) in enumerate(pairs):
                want = quad_finite_gramian(R_nu, res_nu, R_mu, res_mu, np.eye(2), h)
                assert np.max(np.abs(got[nu, mu] - want)) < 1e-9

    def test_spectra_collision_vs_quadrature(self):
        # R_nu = 0.5, R_mu = -0.5: sigma(R_nu) meets sigma(-R_mu^H), the
        # Sylvester operator is singular and the weight of z = 0 is h
        R_nu = np.array([[0.5 + 0j]])
        R_mu = np.array([[-0.5 + 0j]])
        res = np.array([[1.0 + 0j]])
        sigma = np.array([[1.0]])
        h = 0.7
        got = mcarma.component_gramians(stack([R_nu, R_mu]), [res, res], sigma, h)[0, 1]
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
        modal = mcarma.component_gramians(stack([R_nu, R_mu]), [res_nu, res_mu], sigma, h)[0, 1]
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
        _, phi, *_ = sampling.varma_ar(model, 0.5)
        gamma = sampling.noise_acvf(model, phi, 0.5)
        assert len(gamma) == 1
        want = 1.5 ** 2 * 0.8 * (1 - np.exp(-2 * 2 * 0.5)) / (2 * 2)
        assert abs(gamma[0][0, 0] - want) < 1e-12

    def test_scalar_carma20_vs_quadrature(self):
        model = scalar_model([1, 3, 2], [1.0])
        S = model.solvent_set()
        residues = rational.residues(model.statespace.B_star, S)
        h = 0.5
        _, phi, *_ = sampling.varma_ar(model, h)
        got = sampling.noise_acvf(model, phi, h)
        want = noise_acvf_quadrature(S, residues, phi, model.sigma_L, h)
        for g, w in zip(got, want):
            assert np.max(np.abs(g - w)) < 1e-7 * max(1.0, np.max(np.abs(w)))

    def test_example_vs_continuous_route(self, example_model, example_set_12):
        decomp = mcarma.decompose(example_model, example_set_12)
        h = 0.1
        _, phi, *_ = sampling.varma_ar(example_model, h)
        got = sampling.noise_acvf(example_model, phi, h)
        sampled = verify.sampled_state_space(decomp.statespace, example_model.sigma_L, h)
        want = verify.sampled_noise_acvf(sampled, phi)
        for g, w in zip(got, want):
            assert np.max(np.abs(g - w)) < 1e-7 * max(1.0, np.max(np.abs(w)))

    def test_solvent_sets_agree(self, example_model, example_set_12, example_set_34):
        h = 0.1
        d12 = mcarma.decompose(example_model, example_set_12)
        d34 = mcarma.decompose(example_model, example_set_34)
        _, phi, *_ = sampling.varma_ar(example_model, h)
        got = sampling.noise_acvf(example_model, phi, h)
        # each set's independent quadrature route agrees with the modal one
        for decomp in (d12, d34):
            want = noise_acvf_quadrature(decomp.solvent_set, decomp.residues, phi,
                                         example_model.sigma_L, h)
            for x, y in zip(got, want):
                assert np.max(np.abs(x - y)) <= 1e-8

    @pytest.mark.parametrize("h", [0.01, 0.05, 0.25, 2.0])
    def test_h_sweep_vs_quadrature(self, example_model, h):
        S = example_model.solvent_set()
        decomp = mcarma.decompose(example_model, S)
        _, phi, *_ = sampling.varma_ar(example_model, h)
        got = sampling.noise_acvf(example_model, phi, h)
        want = noise_acvf_quadrature(S, decomp.residues, phi,
                                     example_model.sigma_L, h)
        for g, w in zip(got, want):
            assert np.max(np.abs(g - w)) <= 1e-10 * max(1.0, np.max(np.abs(w)))

    @pytest.mark.parametrize("h", [0.01, 0.05, 0.25, 1.0])
    def test_batched_sum_equals_loop(self, corpus_decomps, h):
        # the batched kernels and products and the ordered cumulative sum
        # round exactly as one 2-d product per (r, node) summed in a loop
        for i, decomp in corpus_decomps.items():
            model = decomp.model
            _, phi, *_ = sampling.varma_ar(model, h)
            got = sampling.noise_acvf(model, phi, h)
            want = noise_acvf_loop(model, phi, h)
            assert all(np.array_equal(g, w) for g, w in zip(got, want)), i

    @pytest.mark.parametrize("sample, hs", [("corpus", (0.01, 0.05, 0.25, 1.0)),
                                            ("hard_regime", (0.01, 0.05))])
    def test_lag_zero_is_psd(self, request, sample, hs):
        # noise_acvf certifies gamma_U(0) symmetric only; each lag-0 term is
        # a Gramian with positive weights, so its least eigenvalue stays above
        # -PSD_FLOOR max|gamma_U(0)| (measured: at least +1.6e-8 of it)
        for i, model in enumerate(request.getfixturevalue(sample)):
            for h in hs:
                try:
                    _, phi, *_ = sampling.varma_ar(model, h)
                except CertificationError:
                    continue
                g0 = sampling.noise_acvf(model, phi, h)[0]
                floor = -tolerances.PSD_FLOOR * np.abs(g0).max()
                assert np.linalg.eigvalsh(g0).min() >= floor, (sample, i, h)

    def test_fast_oscillation_in_chunks(self, monkeypatch):
        # roots -0.5 +- 300i at h = 1: 37 panels, 592 nodes, taken 128 at a
        # time, against the sampled state space
        model = scalar_model([1, 1.0, 0.25 + 300.0 ** 2], [1.0])
        S = model.solvent_set()
        decomp = mcarma.decompose(model, S)
        h = 1.0
        assert len(sampling._panels(h, S.roots)[0]) == 592
        _, phi, *_ = sampling.varma_ar(model, h)
        whole = sampling.noise_acvf(model, phi, h)
        monkeypatch.setattr(sampling, "QUADRATURE_CHUNK", 128)
        chunked = sampling.noise_acvf(model, phi, h)
        assert np.max(np.abs(chunked - whole)) <= 1e-14 * np.max(np.abs(whole[0]))
        sampled = verify.sampled_state_space(decomp.statespace, model.sigma_L, h)
        want = verify.sampled_noise_acvf(sampled, phi)
        assert np.max(np.abs(chunked - np.array(want))) <= 1e-10 * np.max(np.abs(want[0]))

    @pytest.mark.parametrize("seed", range(4))
    def test_random_vs_continuous_route(self, seed):
        rng = np.random.default_rng(1100 + seed)
        model = random_stable_model(rng, d=2, p=2)
        S = model.solvent_set()
        decomp = mcarma.decompose(model, S)
        h = 0.3
        _, phi, *_ = sampling.varma_ar(model, h)
        got = sampling.noise_acvf(model, phi, h)
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
            sv = sampling.sampled_varma(decomp, h)
            assert roundtrip_certified(sv), i
            assert verify.check_ma_invertibility(sv.ma_margin).ok, i
            assert 1 <= sv.ma_steps <= sampling.DOUBLING_MAXIT

    @pytest.mark.parametrize("index, h", INNOVATIONS_STALLS)
    def test_near_unit_circle_zeros_fit(self, corpus_decomps, index, h):
        sv = sampling.sampled_varma(corpus_decomps[index], h)
        assert roundtrip_certified(sv)
        assert sv.ma_margin >= 1e-6

    @pytest.mark.parametrize("index, h", SMALL_NOISE_FITS)
    def test_small_noise_fits(self, corpus_decomps, index, h):
        sv = sampling.sampled_varma(corpus_decomps[index], h)
        assert roundtrip_certified(sv)
        assert sv.ma_margin >= 1e-6

    @pytest.mark.parametrize("case", ["scalar-ma1", "hard-14-h0.01"])
    def test_no_invertible_factor_raises(self, hard_regime, case):
        # gamma_U = [1, 0.6] has the spectral density 1 + 1.2 cos w, negative
        # near w = pi.  Hard-regime #14 at h = 0.01 pins a failure of the
        # double-precision fit: fit_ma fails on its 50-digit gamma_U rounded
        # to double as well, while a 40-digit doubling finds a stabilizing
        # factor (closed-loop margin 1.04e-3)
        with pytest.raises(NoConvergenceError):
            if case == "scalar-ma1":
                sampling.fit_ma([np.array([[1.0]]), np.array([[0.6]])])
            else:
                model = hard_regime[14]
                sampling.sampled_varma(mcarma.decompose(model, model.solvent_set()), 0.01)

    def test_non_stabilizing_solution_raises(self, hard_regime):
        # hard-regime #42 at h = 0.01: the double-precision doubling settles
        # where the closed loop has spectral radius above 1, so its Theta is
        # not invertible.  A failure of double precision, not of the method:
        # a 40-digit doubling finds a stabilizing factor (margin 2.0e-3)
        model = hard_regime[42]
        decomp = mcarma.decompose(model, model.solvent_set())
        with pytest.raises(NoConvergenceError, match="non-stabilizing solution: closed-loop "
                                                     "spectral radius rho = "):
            sampling.sampled_varma(decomp, 0.01)

    def test_unit_root_settles_on_the_circle(self):
        # theta = 1: the factor exists but is not invertible; doubling
        # converges linearly there, and the margin shows it
        theta, sigma_eps, margin, _, roundtrip = sampling.fit_ma(
            [np.array([[2.0]]), np.array([[1.0]])])
        assert abs(theta[0][0, 0] - 1.0) < 1e-6
        assert abs(sigma_eps[0, 0] - 1.0) < 1e-6
        assert -tolerances.MA_MARGIN <= margin < 1e-6
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
        # gamma_U(0) = 0 is symmetric, so noise_acvf returns it, and fails the
        # strict positive-definite floor of fit_ma, its one definiteness check
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


class TestFiftyDigitReference:
    @pytest.mark.parametrize("index, h", sorted(REFERENCE_BOUNDS))
    def test_phi_and_gamma_U(self, corpus_decomps, references, index, h):
        phi_ref, gamma_ref, *_ = references[index, h]
        sv = sampling.sampled_varma(corpus_decomps[index], h)
        phi_bound, gamma_bound, *_ = REFERENCE_BOUNDS[index, h]
        assert np.max(np.abs(sv.phi - phi_ref)) <= phi_bound * np.max(np.abs(phi_ref))
        assert np.max(np.abs(sv.gamma_U - gamma_ref)) <= gamma_bound * np.max(
            np.abs(gamma_ref[0]))

    @pytest.mark.parametrize("index, h", sorted(REFERENCE_BOUNDS))
    def test_theta_and_sigma_eps(self, corpus_decomps, references, index, h):
        *_, theta_ref, sigma_ref = references[index, h]
        sv = sampling.sampled_varma(corpus_decomps[index], h)
        *_, theta_bound, sigma_bound = REFERENCE_BOUNDS[index, h]
        assert np.max(np.abs(sv.theta - theta_ref)) <= theta_bound * np.max(np.abs(theta_ref))
        assert np.max(np.abs(sv.sigma_eps - sigma_ref)) <= sigma_bound * np.max(
            np.abs(sigma_ref))

    @pytest.mark.parametrize("c, h, nodes", [(1.0, 2.0, 16), (10.0, 0.5, 32)])
    def test_quadrature_where_h_lam_is_not_small(self, corpus, c, h, nodes):
        model = rescale_time(corpus[88], c)
        decomp = mcarma.decompose(model, model.solvent_set())
        S = decomp.solvent_set
        assert len(sampling._panels(h, S.roots)[0]) == nodes
        phi_ref, gamma_ref, *_ = mp_oracles.sampled_varma_reference(model, h)
        got = sampling.noise_acvf(model, phi_ref, h)
        assert np.max(np.abs(got - gamma_ref)) <= PANEL_BOUND * np.max(np.abs(gamma_ref[0]))

    @pytest.mark.parametrize("reach", [1.0, 10.0, 16.0, 17.0, 50.0, 200.0])
    def test_panels_integrate_exponentials(self, reach):
        # int_0^1 e^{s z} ds for |z| = reach on the closed left half-plane,
        # z = lam_a + conj(lam_b) of the roots (z, 0)
        for angle in np.linspace(0.5 * np.pi, 1.5 * np.pi, 31):
            z = reach * np.exp(1j * angle)
            nodes, weights = sampling._panels(1.0, np.array([z, 0.0]))
            assert abs(weights @ np.exp(nodes * z) - np.expm1(z) / z) <= 1e-14, z


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

import dataclasses
import re
import warnings

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose
from scipy.stats import chi2

from mcarma_ou import matpoly, mcarma, sampling, sim, tolerances, verify
from mcarma_ou.exceptions import (
    CholeskyFailError,
    ImaginaryLeakError,
    NotStationaryError,
    TooShortError,
)

from conftest import fresh, random_stable_model, rescale_time, scalar_model
from oracles import component_recursion, simulate_statespace_twin


@pytest.fixture(scope="module")
def example_decomp(example_model, example_set_12):
    return mcarma.decompose(example_model, example_set_12)


def brownian(seed, sigma):
    return sim.DriverSpec(kind="brownian", seed=seed, sigma_L=sigma)


def without_driver(model):
    """The model's A and B with Sigma_L = 0: its paths are the free response."""
    return mcarma.McarmaModel.build(model.A, model.B, np.zeros_like(model.sigma_L))


def reference_gap(decomp, driver, h, n_steps, stationary_start=True, chunk=sim.CHUNK):
    """max|Y - Y_ref| / max|Y_ref| against the per-step component recursion."""
    got = sim.simulate(decomp, driver, h, n_steps, stationary_start=stationary_start)
    want = component_recursion(decomp, driver, h, n_steps, stationary_start, chunk)
    assert got.Y.shape == want.shape
    return float(np.max(np.abs(got.Y - want)) / np.max(np.abs(want)))


class TestReproducibility:
    def test_same_seed_bit_identical(self, example_decomp):
        driver = brownian(7, np.eye(2))
        a = sim.simulate(example_decomp, driver, 0.1, 500, stationary_start=True)
        b = sim.simulate(example_decomp, driver, 0.1, 500, stationary_start=True)
        assert np.array_equal(a.Y, b.Y)

    def test_different_seed_differs(self, example_decomp):
        a = sim.simulate(example_decomp, brownian(7, np.eye(2)), 0.1, 500)
        b = sim.simulate(example_decomp, brownian(8, np.eye(2)), 0.1, 500)
        assert not np.array_equal(a.Y, b.Y)

    @pytest.mark.parametrize("stationary_start", [False, True])
    @pytest.mark.parametrize("index", [None, 8], ids=["carma2x2", "corpus-8"])
    def test_path_is_prefix_of_longer_path(self, example_decomp, corpus, index,
                                           stationary_start):
        # the Brownian normals are drawn time-major, so a seeded path takes the
        # draws of the start of every longer one; the scans of a path shorter
        # than CHUNK and of a shorter last chunk differ only in rounding
        decomp = (example_decomp if index is None
                  else mcarma.decompose(corpus[index], corpus[index].solvent_set()))
        driver = brownian(6, decomp.model.sigma_L)
        long = sim.simulate(decomp, driver, 0.1, 3000, stationary_start=stationary_start).Y
        for n in (10, 1500):
            short = sim.simulate(decomp, driver, 0.1, n, stationary_start=stationary_start).Y
            assert np.max(np.abs(short - long[:n])) <= 1e-12 * np.max(np.abs(long[:n]))

    def test_compound_poisson_reproducible(self, example_decomp):
        driver = sim.DriverSpec(kind="compound_poisson", seed=3, rate=2.0,
                                jump_cov=0.5 * np.eye(2))
        a = sim.simulate(example_decomp, driver, 0.1, 300)
        b = sim.simulate(example_decomp, driver, 0.1, 300)
        assert np.array_equal(a.Y, b.Y)


class TestDegenerateCases:
    def test_zero_driver_zero_path(self, example_model, example_set_12):
        decomp = mcarma.decompose(without_driver(example_model), example_set_12)
        driver = brownian(0, np.zeros((2, 2)))
        path = sim.simulate(decomp, driver, 0.1, 200)
        assert np.max(np.abs(path.Y)) == 0.0

    def test_zero_driver_stationary_start_zero_path(self, example_model):
        # the all-zero state covariance and Gramian factor to zero
        model = mcarma.McarmaModel.build(example_model.A, example_model.B, np.zeros((2, 2)))
        decomp = mcarma.decompose(model, model.solvent_set())
        path = sim.simulate(decomp, brownian(0, model.sigma_L), 0.1, 200,
                            stationary_start=True)
        assert np.max(np.abs(path.Y)) == 0.0

    @pytest.mark.parametrize("rate", [0.0, -1.0, np.nan, np.inf])
    def test_rate_outside_positive_reals_rejected(self, rate):
        # NaN and inf would otherwise reach numpy's Poisson sampler
        with pytest.raises(ValueError, match="finite rate > 0"):
            sim.DriverSpec(kind="compound_poisson", seed=0, rate=rate, jump_cov=np.eye(2))

    def test_negative_seed_rejected(self):
        # numpy's SeedSequence would raise its own ValueError only at simulate
        with pytest.raises(ValueError, match="seed must be at least 0"):
            brownian(-1, np.eye(2))

    @pytest.mark.parametrize("h", [0.0, -0.1, np.nan, np.inf])
    def test_step_outside_positive_reals_rejected(self, example_decomp, h):
        with pytest.raises(ValueError, match="finite h > 0"):
            sim.simulate(example_decomp, brownian(0, np.eye(2)), h, 10)

    def test_stationary_start_needs_stability(self):
        model = scalar_model([1, -0.5], [1.0])
        decomp = mcarma.decompose(model, model.solvent_set())
        with pytest.raises(NotStationaryError):
            sim.simulate(decomp, brownian(0, np.array([[1.0]])), 0.1, 100,
                         stationary_start=True)

    def test_path_shape_and_grid(self, example_decomp):
        path = sim.simulate(example_decomp, brownian(1, np.eye(2)), 0.25, 64)
        assert path.Y.shape == (64, 2)
        assert path.h == 0.25
        assert path.fold_residual.measured <= 1e-8


class TestInitialState:
    X0 = np.array([1.0, 2.0, 3.0, 4.0])

    @staticmethod
    def unstable_model(example_model):
        """carma2x2 with time reversed, A_i -> (-1)^i A_i: roots +1 .. +4."""
        A = matpoly.LambdaMatrix(tuple((-1) ** i * a
                                       for i, a in enumerate(example_model.A.coeffs)))
        return mcarma.McarmaModel.build(A, example_model.B, example_model.sigma_L)

    @pytest.mark.parametrize("unstable", [False, True])
    def test_zero_driver_follows_state_space(self, example_model, unstable):
        # Y_n = C* e^{n h A*} x0, the paper's representation for any roots
        model = without_driver(self.unstable_model(example_model) if unstable else example_model)
        decomp = mcarma.decompose(model, model.solvent_set(), self.X0)
        h, n = 0.1, 40
        path = sim.simulate(decomp, brownian(0, np.zeros((2, 2))), h, n)
        ss = decomp.statespace
        want = np.array([ss.C_star @ scipy.linalg.expm(k * h * ss.A_star) @ self.X0
                         for k in range(n)])
        assert np.max(np.abs(path.Y - want)) <= 1e-11 * np.max(np.abs(want))

    @pytest.mark.parametrize("kind", ["brownian", "compound_poisson"])
    def test_initial_state_superposes(self, example_model, example_decomp, kind):
        # same seed, same noise: the paths from x0 and from zero differ by
        # the deterministic response, and a zero x0 changes nothing
        driver = (brownian(5, np.eye(2)) if kind == "brownian" else
                  sim.DriverSpec(kind="compound_poisson", seed=5, rate=2.0,
                                 jump_cov=0.5 * np.eye(2)))
        S = example_decomp.solvent_set
        zero = sim.simulate(example_decomp, driver, 0.1, 300)
        explicit_zero = sim.simulate(mcarma.decompose(example_model, S, np.zeros(4)),
                                     driver, 0.1, 300)
        assert np.array_equal(zero.Y, explicit_zero.Y)
        assert np.all(zero.Y[0] == 0.0)
        moved = sim.simulate(mcarma.decompose(example_model, S, self.X0), driver, 0.1, 300)
        free = sim.simulate(mcarma.decompose(without_driver(example_model), S, self.X0),
                            brownian(0, np.zeros((2, 2))), 0.1, 300)
        assert np.max(np.abs(moved.Y - zero.Y - free.Y)) <= 1e-12 * np.max(np.abs(moved.Y))

    def test_stationary_start_with_initial_state_rejected(self, example_model,
                                                          example_set_12):
        decomp = mcarma.decompose(example_model, example_set_12, self.X0)
        with pytest.raises(ValueError, match="stationary_start"):
            sim.simulate(decomp, brownian(0, np.eye(2)), 0.1, 10, stationary_start=True)


class TestScalarOu:
    def test_lag_one_autocorrelation(self):
        a, h, n = 1.0, 0.2, 100_000
        model = scalar_model([1, a], [1.0])
        decomp = mcarma.decompose(model, model.solvent_set())
        path = sim.simulate(decomp, brownian(12345, np.array([[1.0]])), h, n,
                            stationary_start=True)
        gammas = sim.empirical_acvf(path, 1)
        rho = gammas[1][0, 0] / gammas[0][0, 0]
        want = np.exp(-a * h)
        band = 3.0 * np.sqrt((1 - want ** 2) / n)
        assert abs(rho - want) < band

    def test_noise_variance(self):
        a, res, h, n = 2.0, 1.5, 0.5, 100_000
        model = scalar_model([1, a], [res])
        decomp = mcarma.decompose(model, model.solvent_set())
        path = sim.simulate(decomp, brownian(99, np.array([[1.0]])), h, n,
                            stationary_start=True)
        _, phi, *_ = sampling.varma_ar(decomp.model, h)
        U = sim.extract_noise(path, phi)
        want = res ** 2 * (1 - np.exp(-2 * a * h)) / (2 * a)
        got = U.var()
        band = 3.0 * want * np.sqrt(2.0 / U.shape[0])
        assert abs(got - want) < band


class TestEmpiricalAcvf:
    def test_constant_path(self):
        Y = np.ones((1000, 2))
        gammas = sim.empirical_acvf(Y, 3)
        for g in gammas:
            assert np.max(np.abs(g)) == 0.0

    def test_white_noise(self):
        rng = np.random.default_rng(5)
        Y = rng.standard_normal((100_000, 2))
        gammas = sim.empirical_acvf(Y, 1)
        band = 3.0 / np.sqrt(Y.shape[0])
        assert np.max(np.abs(gammas[0] - np.eye(2))) < 3.0 * np.sqrt(2.0 / Y.shape[0])
        assert np.max(np.abs(gammas[1])) < band

    def test_too_short(self):
        with pytest.raises(TooShortError):
            sim.empirical_acvf(np.zeros((50, 1)), 5)
        with pytest.raises(TooShortError, match="got 50"):
            sim.empirical_acvf(iter(np.split(np.zeros((50, 1)), [1, 7])), 5)

    @pytest.mark.parametrize("offset", [0.0, 1e6])
    def test_blocks_match_two_pass(self, offset):
        # a path read once in uneven blocks against the two-pass centred sums;
        # offset by 1e6 the path's own rounding is 1e6 eps = 2.2e-10, and an
        # uncentred one-pass sum would lose about 1e12 eps = 1e-4
        rng = np.random.default_rng(17)
        Y = offset + np.cumsum(rng.standard_normal((3000, 3)), axis=0) / 30
        centered = Y - Y.mean(axis=0)
        want = np.array([centered[lag:].T @ centered[:3000 - lag] for lag in range(7)]) / 3000
        rtol = 1e-13 if offset == 0.0 else 1e-9
        for path in (Y, iter(np.split(Y, [1, 8, 1032]))):
            got = sim.empirical_acvf(path, 6)
            assert np.max(np.abs(got - want)) <= rtol * np.max(np.abs(want))


class TestExtractNoise:
    def test_shape(self, example_decomp):
        path = sim.simulate(example_decomp, brownian(2, np.eye(2)), 0.1, 1000)
        _, phi, *_ = sampling.varma_ar(example_decomp.model, 0.1)
        U = sim.extract_noise(path, phi)
        assert U.shape == (998, 2)

    def test_blocks_match_array(self, corpus):
        # one U block per Y block, aligned with its last rows; the first
        # blocks, shorter than p = 3 in all, have none
        rng = np.random.default_rng(4)
        Y = rng.standard_normal((3000, 3))
        phi = sampling.varma_ar(corpus[8], 0.1)[1]
        blocks = np.split(Y, [1, 2, 9, 1033])
        U = list(sim.extract_noise(iter(blocks), phi))
        assert [len(u) for u in U] == [0, 0, 6, 1024, 1967]
        assert np.max(np.abs(np.concatenate(U) - sim.extract_noise(Y, phi))) == 0.0
        with pytest.raises(TooShortError, match="got 2"):
            list(sim.extract_noise(iter(blocks[:2]), phi))

    def test_recursion_inverts(self, example_decomp):
        path = sim.simulate(example_decomp, brownian(2, np.eye(2)), 0.1, 50)
        _, phi, *_ = sampling.varma_ar(example_decomp.model, 0.1)
        U = sim.extract_noise(path, phi)
        n = 10
        want = path.Y[n] - phi[0] @ path.Y[n - 1] - phi[1] @ path.Y[n - 2]
        assert_allclose(U[n - 2], want, atol=1e-12)

    def test_noise_acvf_matches_analytic(self, example_model, example_decomp):
        h, n = 0.1, 100_000
        path = sim.simulate(example_decomp, brownian(2024, np.eye(2)), h, n,
                            stationary_start=True)
        sv = sampling.sampled_varma(example_decomp, h)
        U = sim.extract_noise(path, sv.phi)
        centered = U - U.mean(axis=0)
        n_eff = U.shape[0]
        # lags 0..p-1 match the analytic values inside a generous CLT band:
        # four standard deviations of a sample ACVF beyond lag p-1, plus four
        # of the lag's own value
        p = len(sv.gamma_U)
        diag = [np.diag(sv.gamma_U[abs(u)]) for u in range(1 - p, p)]
        sd = np.sqrt(sum(np.outer(g, g) for g in diag) / n_eff)
        for lag in range(p):
            est = centered[lag:].T @ centered[:n_eff - lag] / n_eff
            band = 4.0 * sd + 4.0 * np.abs(sv.gamma_U[lag]) / np.sqrt(n_eff)
            assert np.all(np.abs(est - sv.gamma_U[lag]) < band)

    def test_noise_vanishes_beyond_lag_p(self, example_model, example_decomp):
        h, n = 0.1, 100_000
        path = sim.simulate(example_decomp, brownian(31337, np.eye(2)), h, n,
                            stationary_start=True)
        sv = sampling.sampled_varma(example_decomp, h)
        check = verify.check_noise_lag_p_zero(sim.extract_noise(path, sv.phi),
                                              sv.gamma_U)
        assert check.measured < check.bound

    def test_noise_whiteness_on_statespace_recursion(self, example_model,
                                                     example_decomp):
        # the AR coefficients also whiten paths from the exact sampled state
        # recursion, which never touches the solvent machinery
        h, n = 0.1, 100_000
        path = simulate_statespace_twin(example_decomp, np.eye(2), h, n,
                                            seed=90210, stationary_start=True)
        sv = sampling.sampled_varma(example_decomp, h)
        check = verify.check_noise_lag_p_zero(sim.extract_noise(path, sv.phi),
                                              sv.gamma_U)
        assert check.measured < check.bound


def bartlett_covariance(gamma_U, n, lags=4):
    """n Cov of the sample ACVF entries at lags p..p+lags-1, both Bartlett
    terms summed entry by entry over every u."""
    p, d = len(gamma_U), gamma_U[0].shape[0]

    def gamma(k):
        return np.zeros((d, d)) if abs(k) >= p else gamma_U[k] if k >= 0 else gamma_U[-k].T

    idx = [(l, a, b) for l in range(p, p + lags) for a in range(d) for b in range(d)]
    us = range(-2 * (p + lags), 2 * (p + lags))
    return np.array([[sum(gamma(u + l - m)[a, c] * gamma(u)[b, e]
                          + gamma(u + l)[a, e] * gamma(u - m)[b, c] for u in us)
                      for m, c, e in idx] for l, a, b in idx]) / n


class TestNoiseLagStatistic:
    """The ``noise-lag-p-zero`` row: a chi^2 statistic of the noise's sample
    ACVF at lags p..p+3 against its Gaussian covariance."""

    def test_covariance_p1_closed_form(self):
        g0 = np.array([[2.0, 0.3], [0.3, 0.5]])
        want = np.kron(np.eye(4), np.kron(g0, g0)) / 1000
        assert_allclose(verify.lag_p_covariance(g0[None], 1000), want, rtol=1e-15, atol=0)

    @pytest.mark.parametrize("index", [None, 8], ids=["carma2x2", "corpus-8"])
    def test_covariance_matches_bartlett(self, example_decomp, corpus, index):
        model = example_decomp.model if index is None else corpus[index]
        gamma_U = sampling.sampled_varma(mcarma.decompose(model, model.solvent_set()),
                                         0.1).gamma_U
        want = bartlett_covariance(gamma_U, 500)
        got = verify.lag_p_covariance(gamma_U, 500)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    @pytest.mark.parametrize("df, rel", [(4, 2.5e-3), (16, 1e-3), (36, 4e-4), (64, 2e-4)])
    def test_wilson_hilferty_quantile(self, df, rel):
        # measured 2.2e-3, 8.4e-4, 3.5e-4 and 1.7e-4 relative to scipy
        assert abs(verify.chi2_quantile_99(df) / chi2.ppf(0.99, df) - 1.0) <= rel

    @pytest.mark.parametrize("index", [None, 8], ids=["carma2x2", "corpus-8"])
    def test_false_rejections_near_one_percent(self, example_decomp, corpus, index):
        # 500 short paths of a correct model: a 1% test rejects Binomial(500,
        # 0.01) of them, 1..12 with probability 0.991 (5 on carma2x2, 8 on #8)
        model = example_decomp.model if index is None else corpus[index]
        decomp = mcarma.decompose(model, model.solvent_set())
        sv = sampling.sampled_varma(decomp, 0.1)
        rejected = 0
        for seed in range(500):
            path = sim.simulate(decomp, brownian(seed, model.sigma_L), 0.1, 2000,
                                stationary_start=True)
            rejected += not verify.check_noise_lag_p_zero(sim.extract_noise(path, sv.phi),
                                                          sv.gamma_U).ok
        assert 1 <= rejected <= 12

    def test_perturbed_phi_rejected(self, corpus):
        model = corpus[8]
        decomp = mcarma.decompose(model, model.solvent_set())
        sv = sampling.sampled_varma(decomp, 0.1)
        path = sim.simulate(decomp, brownian(1000, model.sigma_L), 0.1, 100_000,
                            stationary_start=True)
        checks = [verify.check_noise_lag_p_zero(sim.extract_noise(path, phi), sv.gamma_U)
                  for phi in (sv.phi, 1.005 * sv.phi)]
        assert [c.ok for c in checks] == [True, False]

    def test_singular_covariance_fails(self):
        U = np.random.default_rng(0).standard_normal((200, 2))
        check = verify.check_noise_lag_p_zero(U, np.zeros((1, 2, 2)))
        assert check.measured == np.inf and not check.ok


class TestDistributionalExactness:
    def test_matches_statespace_twin(self, example_model, example_decomp):
        h, n = 0.1, 60_000
        a = sim.simulate(example_decomp, brownian(51, np.eye(2)), h, n,
                         stationary_start=True)
        b = simulate_statespace_twin(example_decomp, np.eye(2), h, n,
                                         seed=52, stationary_start=True)
        ga = sim.empirical_acvf(a, 1)
        gb = sim.empirical_acvf(b, 1)
        # two-sample comparison: each estimate carries its own CLT noise
        band = 4.0 * np.sqrt(2.0) * np.linalg.norm(ga[0]) / np.sqrt(n / 10)
        for x, y in zip(ga, gb):
            assert np.max(np.abs(x - y)) < band

    def test_solvent_sets_statistically_equivalent(
            self, example_model, example_set_12, example_set_34):
        h, n = 0.1, 60_000
        d12 = mcarma.decompose(example_model, example_set_12)
        d34 = mcarma.decompose(example_model, example_set_34)
        a = sim.simulate(d12, brownian(61, np.eye(2)), h, n, stationary_start=True)
        b = sim.simulate(d34, brownian(62, np.eye(2)), h, n, stationary_start=True)
        ga = sim.empirical_acvf(a, 2)
        gb = sim.empirical_acvf(b, 2)
        band = 4.0 * np.sqrt(2.0) * np.linalg.norm(ga[0]) / np.sqrt(n / 10)
        for x, y in zip(ga, gb):
            assert np.max(np.abs(x - y)) < band

    def test_empirical_acvf_matches_analytic(self, example_model, example_decomp):
        h, n = 0.1, 100_000
        path = sim.simulate(example_decomp, brownian(8080, np.eye(2)), h, n,
                            stationary_start=True)
        got = sim.empirical_acvf(path, 3)
        want = mcarma.stationary_acvf(example_decomp, [k * h for k in range(4)])
        scale = np.linalg.norm(want[0])
        # integrated autocorrelation time of the slowest mode inflates the band
        tau = 2.0 / (1.0 - np.exp(-h))
        band = 4.0 * scale * np.sqrt(tau / n)
        for g, w in zip(got, want):
            assert np.max(np.abs(g - w)) < band

    def test_compound_poisson_variance(self):
        # CP driver with Var L(1) = rate * jump_cov matches the Brownian ACVF
        a, h, n = 1.0, 0.25, 80_000
        model = scalar_model([1, a], [1.0], sigma=1.0)
        decomp = mcarma.decompose(model, model.solvent_set())
        driver = sim.DriverSpec(kind="compound_poisson", seed=404, rate=4.0,
                                jump_cov=np.array([[0.25]]))
        path = sim.simulate(decomp, driver, h, n, stationary_start=True)
        got = sim.empirical_acvf(path, 1)
        want = mcarma.stationary_acvf(decomp, [0.0, h])
        tau = 2.0 / (1.0 - np.exp(-a * h))
        band = 5.0 * want[0][0, 0] * np.sqrt(tau / n)
        assert abs(got[0][0, 0] - want[0][0, 0]) < band
        assert abs(got[1][0, 0] - want[1][0, 0]) < band


class TestPsdRepair:
    def test_tiny_negative_eigenvalue_clipped(self, caplog):
        mat = np.diag([1.0, -5e-13])
        factor = mcarma.psd_factor(mat, "test matrix")
        assert np.allclose(factor @ factor.T, np.diag([1.0, 0.0]), atol=1e-12)

    def test_large_negative_eigenvalue_aborts(self):
        with pytest.raises(CholeskyFailError):
            mcarma.psd_factor(np.diag([1.0, -1e-6]), "test matrix")

    # corpus #143 at h = 0.1: the innovation Gramian has eigenvalues from
    # -1.8e-9 to 9.7e6, so Cholesky fails on it and succeeds on Q + cI from
    # c = 2e-9; #178 and #188 at h = 0.01 are as near that switch from the
    # other side (min eig 5e-16 against 1e2, 4e-15 against 4e3)
    @pytest.mark.parametrize("index, h", [(143, 0.1), (178, 0.01), (188, 0.01)])
    def test_factor_is_continuous(self, corpus, index, h):
        model = corpus[index]
        decomp = mcarma.decompose(model, model.solvent_set())
        Q = decomp.model.modes.gramian(h)
        factor = mcarma.psd_factor(Q, "innovation Gramian")
        vals, vecs = np.linalg.eigh(0.5 * (Q + Q.T))
        clipped = (vecs * np.clip(vals, 0.0, None)) @ vecs.T
        scale = np.max(np.abs(Q))
        assert np.max(np.abs(factor @ factor.T - clipped)) <= 1e-12 * scale
        # across the switch of #143 (Q + cI), and along random directions
        moves = [Q + c * np.eye(len(Q)) for c in (1e-9, 2e-9, 3e-9, 1e-8) if index == 143]
        for seed in range(3):
            E = np.random.default_rng(seed).standard_normal(Q.shape)
            E = (E + E.T) / np.linalg.norm(E + E.T, 2)
            moves += [Q + eps * scale * E for eps in (1e-15, 1e-14, 1e-13, 1e-12)]
        for moved in moves:
            diff = mcarma.psd_factor(moved, "innovation Gramian") - factor
            assert np.max(np.abs(diff)) <= 1e-6 * np.max(np.abs(factor))

    @pytest.mark.parametrize("mat", [np.diag([1.0, -5e-13]), np.diag([1.0, -1e-6]),
                                     np.diag([2.0, 1.0]), np.zeros((2, 2))])
    def test_scale_invariant(self, mat):
        def passes(m):
            try:
                mcarma.psd_factor(m, "test matrix")
            except CholeskyFailError:
                return False
            return True

        want = passes(mat)
        for c in 10.0 ** np.arange(-8, 9):
            assert passes(c * mat) == want

    def test_large_gramian_clipped(self, corpus):
        # corpus model #143: the innovation Gramian at h = 0.1 has eigenvalue
        # -2.2e-9 against a largest one of 9.7e6, rounding at that scale
        model = corpus[143]
        decomp = mcarma.decompose(model, model.solvent_set())
        path = sim.simulate(decomp, brownian(143, model.sigma_L), 0.1, 2000,
                            stationary_start=True)
        assert np.all(np.isfinite(path.Y))
        assert path.fold_residual.measured <= tolerances.PATH_LEAK

    def test_small_step_gramian_factors(self, corpus):
        # corpus model #125 at h = 0.01: a Gramian solved from the Sylvester
        # right-hand side e^{hR} M e^{hR^H} - M lost its small eigenvalues to
        # cancellation (-1.2e-12 against a largest one of 0.21) and failed to
        # factor; the expm1 weights of mcarma._gramian do not cancel
        model = corpus[125]
        decomp = mcarma.decompose(model, model.solvent_set())
        vals = np.linalg.eigvalsh(decomp.model.modes.gramian(0.01))
        assert vals[0] >= -tolerances.PSD_CLIP * vals[-1]
        path = sim.simulate(decomp, brownian(125, model.sigma_L), 0.01, 2000,
                            stationary_start=True)
        assert np.all(np.isfinite(path.Y))


class TestModalEngine:
    """``sim.simulate`` against the per-step component recursion."""

    def test_brownian_matches_reference_carma2x2(self, example_decomp):
        gap = reference_gap(example_decomp, brownian(5, np.eye(2)), 0.1, 5000)
        assert gap <= 1e-11

    @pytest.mark.parametrize("index", [8, 17])
    def test_brownian_matches_reference_d3p3(self, corpus, index):
        model = corpus[index]
        assert (model.d, model.p) == (3, 3)
        decomp = mcarma.decompose(model, model.solvent_set())
        gap = reference_gap(decomp, brownian(index, model.sigma_L), 0.1, 5000)
        assert gap <= 1e-11

    @pytest.mark.parametrize("n_steps", [1, 2, sim.BLOCK + 1, sim.BLOCK + 2,
                                         sim.CHUNK - sim.BLOCK, sim.CHUNK, sim.CHUNK + 1,
                                         sim.CHUNK + 2, 2 * sim.CHUNK + 1])
    def test_chunk_boundaries(self, example_decomp, n_steps):
        gap = reference_gap(example_decomp, brownian(11, np.eye(2)), 0.1, n_steps)
        assert gap <= 1e-11

    @pytest.mark.parametrize("kind", ["brownian", "compound_poisson"])
    def test_innovations_formed_a_chunk_at_a_time(self, example_decomp, corpus, monkeypatch,
                                                  kind):
        # the innovations of a whole path would add pd * n numbers to the
        # peak memory (about 14 MB at pd = 9, n = 1e5): no _scan call and no
        # innovations draw may see more than CHUNK steps, and each mode group
        # scans all n - 1 steps: carma2x2 has 4 real modes and no pair,
        # corpus #8 3 real modes and 3 pairs.  A Brownian draw is split into
        # the groups by the modal form's split, which also splits the start,
        # one state vector
        seen = []

        def spy(fn):
            def wrapped(*args):
                out = fn(*args)
                for arr in (out if isinstance(out, list) else [out]):
                    if arr.ndim == 2:
                        seen.append((fn.__name__, arr.dtype.type, arr.shape))
                return out
            return wrapped

        draw = "split" if kind == "brownian" else "_jump_innovations"
        owner = mcarma.ModalForm if kind == "brownian" else sim
        monkeypatch.setattr(sim, "_scan", spy(sim._scan))
        monkeypatch.setattr(owner, draw, spy(getattr(owner, draw)))
        n_steps = 3 * sim.CHUNK + 7
        for decomp, groups in (
                (example_decomp, {np.float64: 4}),
                (mcarma.decompose(corpus[8], corpus[8].solvent_set()),
                 {np.float64: 3, np.complex128: 3})):
            sigma = decomp.model.sigma_L
            driver = (brownian(4, sigma) if kind == "brownian" else
                      sim.DriverSpec(kind="compound_poisson", seed=4, rate=2.0,
                                     jump_cov=0.5 * sigma))
            seen.clear()
            sim.simulate(decomp, driver, 0.1, n_steps)
            assert {name for name, *_ in seen} == {"_scan", draw}
            assert max(width for *_, (_, width) in seen) <= sim.CHUNK
            scanned = {}
            for name, dtype, (modes, width) in seen:
                if name == "_scan":
                    assert modes == groups[dtype]
                    scanned[dtype] = scanned.get(dtype, 0) + width
            assert scanned == {dtype: n_steps - 1 for dtype in groups}

    def test_compound_poisson_matches_reference(self, example_decomp):
        driver = sim.DriverSpec(kind="compound_poisson", seed=21, rate=10.0,
                                jump_cov=0.1 * np.eye(2))
        assert reference_gap(example_decomp, driver, 0.1, sim.CHUNK + 5) <= 1e-11

    def test_compound_poisson_empty_chunks(self, example_decomp, monkeypatch):
        # about 0.5 jumps per 16-step chunk: some chunks draw none; jump_cov
        # makes rate * jump_cov the model's Sigma_L = I
        monkeypatch.setattr(sim, "CHUNK", 16)
        empty, widths = [], []
        draw = sim._jump_innovations

        def spy(*args):
            w = draw(*args)
            empty.append(not any(np.any(g) for g in w))
            widths.append([g.shape[1] for g in w])
            return w

        monkeypatch.setattr(sim, "_jump_innovations", spy)
        driver = sim.DriverSpec(kind="compound_poisson", seed=8, rate=0.3,
                                jump_cov=np.eye(2) / 0.3)
        gap = reference_gap(example_decomp, driver, 0.1, 400, stationary_start=False,
                            chunk=16)
        assert gap <= 1e-11
        assert any(empty) and not all(empty)
        # the one mode group, carma2x2's real modes, takes all 399 steps, 16
        # at a time
        assert max(map(max, widths)) <= 16
        assert np.sum(widths, axis=0).tolist() == [399]

    def test_compound_poisson_takes_no_expm(self, example_decomp, monkeypatch):
        calls = []
        expm = scipy.linalg.expm

        def counting(*args, **kwargs):
            calls.append(1)
            return expm(*args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "expm", counting)
        driver = sim.DriverSpec(kind="compound_poisson", seed=2, rate=10.0,
                                jump_cov=0.1 * np.eye(2))
        sim.simulate(example_decomp, driver, 0.1, 1000)
        assert calls == []

    @pytest.mark.parametrize("h", [1.0, 2.0])
    def test_non_stationary_no_overflow(self, h):
        # root +0.5: in 100 steps the path reaches about 2e21 (h = 1) or 3e43
        # (h = 2), finite, while e^{0.5 h CHUNK} overflows at h = 2; no power
        # of e^{h lam} beyond the path length may be formed
        model = scalar_model([1, -0.5], [1.0])
        decomp = mcarma.decompose(model, model.solvent_set())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            gap = reference_gap(decomp, brownian(3, np.array([[1.0]])), h, 100,
                                stationary_start=False)
        assert gap <= 1e-11

    def test_short_unstable_path_no_overflow(self):
        # root +0.5 at h = 100: e^{50 n} is finite for the 2 steps of this
        # path but not for a block of BLOCK steps, so the transfer stacks
        # must clip their powers at the path length
        model = scalar_model([1, -0.5], [1.0])
        decomp = mcarma.decompose(model, model.solvent_set())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            gap = reference_gap(decomp, brownian(3, np.array([[1.0]])), 100.0, 3,
                                stationary_start=False)
        assert gap <= 1e-11

    def test_transfer_stacks_clip_at_the_path_length(self):
        # an unstable path forms its stacks with overflow ignored, so the
        # clipping is checked here: root +50 at 2 steps forms no power
        # beyond e^{100}, where a block of BLOCK steps would reach e^{1600}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stacks = sim._transfer_stacks(np.array([50.0]), 2)
        assert all(np.isfinite(st).all() for st in stacks)

    @pytest.mark.parametrize("kind", ["brownian", "compound_poisson"])
    def test_overflowing_path_is_a_typed_failure(self, kind):
        # A(z) = z - 1, root +1, at h = 1: the powers and the states of its
        # first chunk overflow.  Under the suite's error::RuntimeWarning filter that is the
        # typed failure of the finite check, and the caller's floating-point
        # error state is its own between blocks
        model = scalar_model([1, -1], [1.0])
        driver = sim.DriverSpec(kind=kind, seed=0, rate=None if kind == "brownian" else 2.0)
        blocks = sim.path_blocks(mcarma.decompose(model, model.solvent_set()), driver,
                                 1.0, 2000)
        before = np.geterr()
        assert np.array_equal(next(blocks), [[0.0]])
        assert np.geterr() == before
        with pytest.raises(CholeskyFailError, match="non-finite"):
            next(blocks)
        assert np.geterr() == before

    def test_compound_poisson_cross_acvf(self, example_decomp):
        # d = 2: the cross terms of gamma(l) match the stationary ACVF too
        h, n = 0.1, 100_000
        driver = sim.DriverSpec(kind="compound_poisson", seed=606, rate=10.0,
                                jump_cov=0.1 * np.eye(2))
        path = sim.simulate(example_decomp, driver, h, n, stationary_start=True)
        got = sim.empirical_acvf(path, 3)
        want = mcarma.stationary_acvf(example_decomp, [k * h for k in range(4)])
        tau = 2.0 / (1.0 - np.exp(-h))
        band = 4.0 * np.linalg.norm(want[0]) * np.sqrt(tau / n)
        for g, w in zip(got, want):
            assert np.max(np.abs(g - w)) < band


class TestModalFold:
    """Folded paths against the per-step component recursion, which runs
    every component in complex and folds nothing."""

    # corpus #8's default grouping splits one of its three pairs across two
    # solvents; SPLIT splits two, (1, 2) and (3, 4)
    SPLIT = [[0, 1, 3], [2, 4, 5], [6, 7, 8]]
    CASES = {"all-complex": (22, None, 0, 2), "mixed": (8, None, 3, 3),
             "split-pairs": (8, SPLIT, 3, 3)}

    @pytest.mark.parametrize("kind", ["brownian", "compound_poisson"])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_component_recursion(self, corpus, case, kind):
        index, grouping, n_real, n_pairs = self.CASES[case]
        model = corpus[index]
        S = model.solvent_set(grouping)
        decomp = mcarma.decompose(model, S)
        form = model.modes.modal_form
        assert (form.real_roots.size, form.pair_roots.size) == (n_real, n_pairs)
        assert form.real_roots.dtype == form.to_modes.dtype == form.from_modes.dtype == float
        assert form.to_modes.shape == form.from_modes.shape == (model.p * model.d,) * 2
        assert form.fold.ok and form.fold.measured <= 1e-12
        if kind == "brownian":
            driver, n_steps = brownian(index, model.sigma_L), sim.CHUNK + 5
        else:
            driver = sim.DriverSpec(kind="compound_poisson", seed=index, rate=10.0,
                                    jump_cov=model.sigma_L / 10.0)
            n_steps = 300
        assert reference_gap(decomp, driver, 0.1, n_steps) <= 1e-11

    @pytest.mark.parametrize("c", [1e-4, 1e-2, 1.0, 1e2, 1e4])
    def test_fold_is_scale_free(self, corpus, c):
        # latent roots times c rescale W and B by powers of c row by row; the
        # fold is measured relative to |B| |W| and max|lam|, so it stays at
        # rounding (5e-15 to 6e-14 here)
        for index in (8, 17, 22):
            model = rescale_time(corpus[index], c)
            form = model.modes.modal_form
            assert form.fold.measured <= 1e-12

    def test_modal_form_is_kept(self, corpus):
        model = fresh(corpus[8])
        decomp = mcarma.decompose(model, model.solvent_set())
        a = sim.simulate(decomp, brownian(1, model.sigma_L), 0.1, 50)
        form = model.modes.modal_form
        b = sim.simulate(decomp, brownian(1, model.sigma_L), 0.1, 50)
        assert model.modes.modal_form is form and a.fold_residual is b.fold_residual is form.fold
        assert not any(arr.flags.writeable for arr in (form.real_roots, form.pair_roots,
                                                       form.to_modes, form.from_modes))

    def test_change_of_basis_packs_the_modes(self, corpus):
        # to_modes @ x = [u; Re v; Im v]: the real modes of W x scaled to
        # real, then the real and imaginary parts of one mode per pair; the
        # first d rows of from_modes read Y = C* x back out
        model = corpus[8]
        form, modes = model.modes.modal_form, model.modes
        x = np.random.default_rng(0).standard_normal(model.p * model.d)
        u, v = form.split(form.to_modes @ x)
        z, near = modes.W @ x, matpoly._distinct_tol(modes.roots)
        assert_allclose(np.abs(u), np.abs(z[np.abs(modes.roots.imag) <= near]), rtol=1e-12)
        assert_allclose(v, z[modes.roots.imag > near], rtol=1e-12)
        assert_allclose(form.from_modes[:model.d] @ form.pack([u, v]), x[:model.d],
                        atol=1e-12 * np.max(np.abs(z)))

    def test_broken_fold_raises(self, corpus, broken_fold):
        model = fresh(corpus[8])
        decomp = mcarma.decompose(model, model.solvent_set())
        for _ in range(2):
            with pytest.raises(ImaginaryLeakError, match="modal fold residual = "):
                sim.simulate(decomp, brownian(0, model.sigma_L), 0.1, 10)
        assert "modal_form" not in vars(model.modes)

    def test_unpaired_complex_root_raises(self, corpus, monkeypatch):
        # a pair whose partner is not its conjugate cannot fold
        model = fresh(corpus[22])
        decomp = mcarma.decompose(model, model.solvent_set())
        roots = model.modes.roots.copy()
        roots[roots.imag < 0] *= 1.0 + 1e-3
        monkeypatch.setitem(vars(model), "modes", dataclasses.replace(model.modes, roots=roots))
        with pytest.raises(ImaginaryLeakError, match="do not pair with their conjugates"):
            sim.simulate(decomp, brownian(0, model.sigma_L), 0.1, 10)


class TestBlockedScan:
    # modes: fast (|a| = e^-20), slow (h |lam| = 1e-4), a rotation near
    # Nyquist, an unstable root, and a damped rotation; the real modes alone
    # run in float
    H_LAM = np.array([-20.0, -1e-4, -0.01 + 1j * (np.pi - 1e-3), 0.05, -0.3 + 0.7j])

    @pytest.mark.parametrize("length", [1, sim.BLOCK - 1, sim.BLOCK, sim.BLOCK + 1,
                                        sim.CHUNK - 1, sim.CHUNK])
    def test_matches_step_recursion(self, length):
        rng = np.random.default_rng(length)
        shape = (self.H_LAM.size, length)
        w = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        z_prev = rng.standard_normal(self.H_LAM.size) + 1j * rng.standard_normal(self.H_LAM.size)
        real = self.H_LAM.imag == 0
        for h_lam, w, z_prev in ((self.H_LAM, w, z_prev),
                                 (self.H_LAM[real].real, w[real].real, z_prev[real].real)):
            got = sim._scan(w, z_prev, sim._transfer_stacks(h_lam, length))
            a, z = np.exp(h_lam), z_prev
            want = np.empty_like(w)
            for j in range(length):
                z = a * z + w[:, j]
                want[:, j] = z
            assert got.shape == want.shape and got.dtype == want.dtype
            gap = np.max(np.abs(got - want), axis=1) / np.max(np.abs(want), axis=1)
            assert np.all(gap <= 1e-12)


class TestObservability:
    def test_path_carries_certificate_and_logs(self, example_decomp, caplog):
        with caplog.at_level("DEBUG", logger=sim.log.name):
            path = sim.simulate(example_decomp, brownian(6, np.eye(2)), 0.1, 3000)
            sim.simulate(example_decomp, brownian(6, np.eye(2)), 0.1, 20)
        record = path.fold_residual
        assert record is example_decomp.model.modes.modal_form.fold
        assert record.name == "modal fold residual" and record.ok
        assert record.measured <= record.bound == tolerances.PATH_LEAK
        records = [r for r in caplog.records
                   if r.name == sim.log.name and r.levelname == "DEBUG"]
        assert len(records) == 2
        assert "brownian" in records[0].getMessage()
        assert "3000 steps, pd=4 (4 real, 0 pairs)," in records[0].getMessage()

    def test_log_counts_real_modes_and_pairs(self, corpus, caplog):
        model = corpus[8]
        decomp = mcarma.decompose(model, model.solvent_set())
        with caplog.at_level("DEBUG", logger=sim.log.name):
            sim.simulate(decomp, brownian(6, model.sigma_L), 0.1, 20)
        lines = [r.getMessage() for r in caplog.records if r.name == sim.log.name]
        assert "pd=9 (3 real, 3 pairs)," in lines[-1]


class TestDriverMatch:
    """A path reads Var L(1) off its model; a driver that states another
    fails before anything is drawn."""

    @pytest.mark.parametrize("index", [8, 17])
    def test_brownian_driver_is_a_seed(self, corpus, index):
        # sigma_L = the model's, or off by rounding, or not given: one path
        model = corpus[index]
        decomp = mcarma.decompose(model, model.solvent_set())
        for start in (False, True):
            paths = [sim.simulate(decomp, driver, 0.1, 300, stationary_start=start).Y
                     for driver in (sim.DriverSpec(kind="brownian", seed=9),
                                    brownian(9, model.sigma_L),
                                    brownian(9, model.sigma_L * (1.0 + 1e-13)))]
            assert all(np.array_equal(paths[0], Y) for Y in paths[1:])

    @pytest.mark.parametrize("index", [8, 17])
    def test_compound_poisson_driver_is_a_seed_and_a_rate(self, corpus, index):
        # jump_cov = sigma_L / rate, off by rounding, or not given: one path,
        # whose jumps the model's sigma_L / rate gives
        model = corpus[index]
        decomp = mcarma.decompose(model, model.solvent_set())
        for start in (False, True):
            paths = [sim.simulate(decomp, sim.DriverSpec(
                         kind="compound_poisson", seed=9, rate=3.0, jump_cov=jump_cov),
                         0.1, 300, stationary_start=start).Y
                     for jump_cov in (None, model.sigma_L / 3.0,
                                      model.sigma_L / 3.0 * (1.0 + 1e-13))]
            assert all(np.array_equal(paths[0], Y) for Y in paths[1:])

    @pytest.mark.parametrize("kind, field, value", [
        ("brownian", "rate", 2.0), ("brownian", "jump_cov", np.eye(2)),
        ("compound_poisson", "sigma_L", np.eye(2))],
        ids=["brownian-rate", "brownian-jump-cov", "cp-sigma-L"])
    def test_field_its_kind_does_not_read_rejected(self, kind, field, value):
        # a Brownian driver is a seed and a compound-Poisson one a seed and a
        # rate; each may restate Var L(1) only in its own field
        rate = {"rate": 2.0} if kind == "compound_poisson" else {}
        with pytest.raises(ValueError, match=f"^a {kind} driver takes no {field}$"):
            sim.DriverSpec(kind=kind, seed=0, **rate, **{field: value})

    @pytest.mark.parametrize("driver, message", [
        (brownian(0, 2.0 * np.eye(2)), "driver.sigma_L must equal sigma_L (Var L(1))"),
        (brownian(0, np.eye(2) + 2e-10), "driver.sigma_L must equal sigma_L (Var L(1))"),
        (brownian(0, np.eye(3)), "driver.sigma_L must have the shape of sigma_L, (2, 2)"),
        (sim.DriverSpec(kind="compound_poisson", seed=0, rate=2.0, jump_cov=np.eye(2)),
         "rate * jump_cov must equal sigma_L (Var L(1))"),
        (sim.DriverSpec(kind="compound_poisson", seed=0, rate=1.0, jump_cov=np.eye(1)),
         "driver.jump_cov must have the shape of sigma_L, (2, 2)")],
        ids=["brownian-scale", "brownian-offset", "brownian-shape", "cp-scale", "cp-shape"])
    def test_mismatched_driver_rejected(self, example_decomp, driver, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            sim.simulate(example_decomp, driver, 0.1, 10)


class TestRectangularDriver:
    def test_driving_dimension_differs(self):
        # d = 2 output, m = 1 driver channel
        rng = np.random.default_rng(77)
        model_base = random_stable_model(rng, d=2, p=2, q=0)
        B = matpoly.LambdaMatrix((np.array([[1.0], [0.5]]),))
        model = mcarma.McarmaModel.build(model_base.A, B, np.array([[1.0]]))
        decomp = mcarma.decompose(model, model.solvent_set())
        driver = sim.DriverSpec(kind="brownian", seed=5, sigma_L=np.array([[1.0]]))
        path = sim.simulate(decomp, driver, 0.1, 2000, stationary_start=True)
        assert path.Y.shape == (2000, 2)
        cp = sim.DriverSpec(kind="compound_poisson", seed=5, rate=2.0,
                            jump_cov=np.array([[0.5]]))
        path2 = sim.simulate(decomp, cp, 0.1, 500)
        assert path2.Y.shape == (500, 2)


class TestGramianConsistency:
    def test_state_gramian_matches_block_transform(self, example_decomp):
        # T [Sigma_{nu,mu}] T^H is the Gramian of the real state innovation
        h = 0.1
        Q = example_decomp.model.modes.gramian(h)
        ss = example_decomp.statespace
        import scipy.linalg as sla
        nd = ss.dim
        block = np.zeros((2 * nd, 2 * nd))
        block[:nd, :nd] = -ss.A_star
        block[:nd, nd:] = ss.B_star @ np.eye(2) @ ss.B_star.T
        block[nd:, nd:] = ss.A_star.T
        want = sla.expm(h * ss.A_star) @ sla.expm(h * block)[:nd, nd:]
        assert np.max(np.abs(Q - want)) < 1e-12

    def test_stationary_covariance_matches_lyapunov(self, corpus):
        # h = inf gives the stationary start's Pi without a Lyapunov solve
        for index, model in enumerate(corpus):
            decomp = mcarma.decompose(model, model.solvent_set())
            got = decomp.model.modes.gramian(np.inf)
            want = verify.sampled_state_space(decomp.statespace, model.sigma_L, 1.0).pi
            assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want), index

    @pytest.mark.parametrize("seed", range(3))
    def test_state_gramian_random(self, seed):
        rng = np.random.default_rng(1300 + seed)
        model = random_stable_model(rng, d=2, p=2)
        decomp = mcarma.decompose(model, model.solvent_set())
        h = 0.2
        Q = decomp.model.modes.gramian(h)
        assert np.max(np.abs(Q - Q.T)) < 1e-10 * max(1.0, np.max(np.abs(Q)))
        assert np.min(np.linalg.eigvalsh(Q)) > -1e-12

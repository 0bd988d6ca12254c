import dataclasses
import logging
import math

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

from mcarma_ou import matpoly, mcarma, rational, sampling, sim, tolerances, verify
from mcarma_ou.exceptions import (
    DuplicateLatentRootError,
    ImaginaryLeakError,
    NotIrreducibleError,
    NotStationaryError,
    SharpIdentityError,
)

import mp_oracles
from conftest import R1, R2, R3, RES1, RES2, fresh, random_stable_model, rescale_time
from oracles import components, expm_eig, quad_infinite_gramian, stack

# Corpus models whose stationary ACVF is judged against the 50-digit
# reference rather than the per-component route, with the bound relative to
# max|gamma(0)| (see ``test_matches_per_component_sum``)
REFERENCE_JUDGED = {143: 3.5e-12}


def scalar_poly(*coeffs):
    return matpoly.LambdaMatrix(tuple(np.array([[c]], dtype=float) for c in coeffs))


def scalar_model(a_coeffs, b_coeffs, sigma=1.0):
    return mcarma.McarmaModel.build(
        scalar_poly(*a_coeffs), scalar_poly(*b_coeffs), np.array([[sigma]]))


def sharp_relative_residual(ss):
    """max|A# B* - B#| / max(|A#| |B*|), recomputed from the matrices."""
    err = np.max(np.abs(ss.A_sharp @ ss.B_star - ss.B_sharp))
    return err / np.max(np.abs(ss.A_sharp) @ np.abs(ss.B_star))


def sampled(decomp, h):
    """The oracles' state space of ``decomp`` sampled at step h."""
    return verify.sampled_state_space(decomp.statespace, decomp.model.sigma_L, h)


@pytest.fixture(scope="module")
def example_decomp_12(example_model, example_set_12):
    return mcarma.decompose(example_model, example_set_12)


@pytest.fixture(scope="module")
def example_decomp_34(example_model, example_set_34):
    return mcarma.decompose(example_model, example_set_34)


class TestStateSpace:
    def test_example_b_star(self, example_model):
        ss = mcarma.build_state_space(example_model)
        assert_allclose(ss.B_star[:2], np.zeros((2, 2)))
        assert_allclose(ss.B_star[2:], np.eye(2))
        assert_allclose(ss.C_star, np.hstack([np.eye(2), np.zeros((2, 2))]))

    def test_first_order(self):
        rng = np.random.default_rng(7)
        M = rng.standard_normal((2, 2)) - 3 * np.eye(2)
        model = mcarma.McarmaModel.build(
            matpoly.LambdaMatrix((np.eye(2), -M)),
            matpoly.LambdaMatrix((np.eye(2),)), np.eye(2))
        ss = mcarma.build_state_space(model)
        assert_allclose(ss.A_star, M, atol=1e-14)
        assert_allclose(ss.B_star, np.eye(2))
        assert_allclose(ss.C_star, np.eye(2))

    @pytest.mark.parametrize("seed", range(10))
    def test_sharp_identity_random(self, seed):
        rng = np.random.default_rng(600 + seed)
        model = random_stable_model(rng)
        ss = mcarma.build_state_space(model)
        assert sharp_relative_residual(ss) <= tolerances.SHARP_IDENTITY

    def test_sharp_identity_large_coefficients(self, corpus):
        # corpus model #143 (d=3, p=3) has coefficients up to ~6e6: its
        # rounding residual (1.7e-12) exceeds any absolute bound of 1e-12
        model = corpus[143]
        assert (model.d, model.p) == (3, 3)
        ss = mcarma.build_state_space(model)
        assert sharp_relative_residual(ss) <= tolerances.SHARP_IDENTITY
        mcarma.decompose(model, model.solvent_set())

    @pytest.mark.parametrize("c", [1e-4, 1e-2, 1.0, 1e2, 1e4])
    def test_sharp_identity_time_rescaling_example(self, example_model, c):
        ss = mcarma.build_state_space(rescale_time(example_model, c))
        assert sharp_relative_residual(ss) <= tolerances.SHARP_IDENTITY

    # c = 1e4 is left out: McarmaModel.build rejects the rescaled #143 in
    # latent_roots (DefectiveCompanion) before the state space is formed.
    @pytest.mark.parametrize("c", [1e-4, 1e-2, 1.0, 1e2])
    def test_sharp_identity_time_rescaling_corpus(self, corpus, c):
        ss = mcarma.build_state_space(rescale_time(corpus[143], c))
        assert sharp_relative_residual(ss) <= tolerances.SHARP_IDENTITY

    def test_sharp_identity_violation_is_typed(self, example_model, monkeypatch):
        exact = rational.solve_sharp

        def perturbed(A, B):
            X = exact(A, B)
            X[-A.order[0]:] += 1e-6  # the last block of B*
            return X

        monkeypatch.setattr(rational, "solve_sharp", perturbed)
        # a fresh model: the session fixture may already hold its exact B*
        model = fresh(example_model)
        with pytest.raises(SharpIdentityError, match="SharpIdentity"):
            mcarma.build_state_space(model)

    def test_companion_spectrum_is_latent(self, example_model):
        ss = mcarma.build_state_space(example_model)
        got = np.sort(np.linalg.eigvals(ss.A_star).real)
        assert_allclose(got, [-4, -3, -2, -1], atol=1e-8)


class TestDecompose:
    @pytest.mark.parametrize("c", [1e-4, 1e-2, 1.0, 1e2, 1e4])
    def test_time_rescaling_example(self, example_model, c):
        # [A(lam) | I] has full rank at every c, however large A(lam) gets
        model = rescale_time(example_model, c)
        mcarma.decompose(model, model.solvent_set())  # builds model.statespace

    def test_example_residues(self, example_decomp_12):
        R = example_decomp_12.solvent_set.matrices
        assert_allclose(example_decomp_12.residues[0].real, RES1, atol=1e-9)
        assert_allclose(example_decomp_12.residues[1].real, RES2, atol=1e-9)
        assert_allclose(R[0].real, R1, atol=1e-12)
        assert_allclose(R[1].real, R2, atol=1e-12)

    def test_zero_initial_state(self, example_decomp_12):
        assert example_decomp_12.y0.shape == (2, 2)
        assert np.max(np.abs(example_decomp_12.y0)) == 0.0

    def test_initial_state_blocks(self, example_model, example_set_12):
        x0 = np.array([1.0, 2.0, 3.0, 4.0])
        decomp = mcarma.decompose(example_model, example_set_12, x0)
        stacked = decomp.y0.reshape(-1)
        assert_allclose(example_set_12.V @ stacked, x0, atol=1e-10)
        assert np.max(np.abs((example_set_12.V @ stacked).imag)) <= 1e-10

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_initial_state_rejected(self, example_model, example_set_12, bad):
        with pytest.raises(ValueError, match="finite"):
            mcarma.decompose(example_model, example_set_12, np.array([1.0, bad, 0.0, 0.0]))

    # the rounding of Im(T y0) scales with x0: on corpus #8 it is 1.2e-10 at
    # c = 1e4 and 7.2e-7 at c = 1e8, both about 7e-17 of max(|T| |y0|)
    @pytest.mark.parametrize("c", [1.0, 1e4, 1e8])
    def test_initial_state_scale(self, example_model, corpus, c):
        rng = np.random.default_rng(31)
        for model in (example_model, corpus[8]):
            S = model.solvent_set()
            x0 = c * rng.standard_normal(model.p * model.d)
            decomp = mcarma.decompose(model, S, x0)
            stacked = decomp.y0.reshape(-1)
            assert np.max(np.abs(S.V @ stacked - x0)) <= 1e-10 * np.max(np.abs(x0))

    def test_one_sharp_solve_per_decompose(self, example_model, example_set_12,
                                           example_set_34, monkeypatch):
        calls = []
        for name in ("check_irreducible", "solve_sharp", "sharp_matrices"):
            original = getattr(rational, name)

            def counted(*args, name=name, original=original):
                calls.append(name)
                return original(*args)

            monkeypatch.setattr(rational, name, counted)
        model = fresh(example_model)
        decomp = mcarma.decompose(model, example_set_12)
        assert sorted(calls) == ["check_irreducible", "sharp_matrices", "solve_sharp"]
        # a second decomposition, along the other solvent set, reuses them all
        calls.clear()
        other = mcarma.decompose(model, example_set_34)
        assert calls == []
        assert other.statespace is decomp.statespace
        # the residues and B* come from the same forward substitution
        assert np.array_equal(decomp.statespace.B_star,
                              rational.solve_sharp(model.A, model.B).real)

    def test_decomposition_is_read_only(self, example_model, example_set_12):
        decomp = mcarma.decompose(example_model, example_set_12, np.ones(4))
        with pytest.raises(ValueError):
            decomp.residues[0, 0, 0] = 0.0
        with pytest.raises(ValueError):
            decomp.y0[0, 0] = 0.0

    def test_first_order_single_component(self):
        model = scalar_model([1, 2], [1.5])
        decomp = mcarma.decompose(model, model.solvent_set())
        assert decomp.p == 1
        assert_allclose(decomp.transform.real, np.eye(1))
        assert_allclose(decomp.residues[0].real, [[1.5]], atol=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_similarity_certificates_random(self, seed):
        rng = np.random.default_rng(700 + seed)
        model = random_stable_model(rng)
        decomp = mcarma.decompose(model, model.solvent_set())
        T = decomp.transform
        ss = decomp.statespace
        R_diag = scipy.linalg.block_diag(*decomp.solvent_set.matrices)
        assert np.linalg.norm(ss.A_star @ T - T @ R_diag) <= 1e-9 * max(
            1.0, np.linalg.norm(ss.A_star) * np.linalg.norm(T))
        stacked = decomp.residues.reshape(T.shape[0], -1)
        assert np.linalg.norm(ss.B_star - T @ stacked) <= 1e-9 * max(
            1.0, np.linalg.norm(ss.B_star))


    def test_similarity_certificate_is_kept(self, corpus, monkeypatch):
        model = fresh(corpus[8])
        decomp = mcarma.decompose(model, model.solvent_set())
        record = decomp.similarity
        assert record.name == "similarity residual" and record.ok
        assert record.bound == tolerances.SIMILARITY
        assert 0.0 < record.measured <= record.bound
        # the stored value is the one the certificate measures
        monkeypatch.setattr(tolerances, "SIMILARITY", 0.0)
        model = fresh(corpus[8])
        with pytest.raises(ImaginaryLeakError,
                           match=f"similarity residual = {record.measured:.3e}"):
            mcarma.decompose(model, model.solvent_set())

    def test_similarity_is_scale_free(self, corpus):
        # corpus #88 with its roots times 1e-4: ||T|| |Res|| grows to 3e10
        # while ||B*|| stays near 3, and B* - T Res read 5.7e-7 against
        # max(1, ||B*||); against the rounding |T| |Res| of the product it
        # stays at rounding
        model = rescale_time(corpus[88], 1e-4)
        record = mcarma.decompose(model, model.solvent_set()).similarity
        assert record.ok and record.measured <= 1e-12

    def test_perturbed_residues_fail_similarity(self, corpus, monkeypatch):
        # a residue stack off by 1e-7 relative is not rounding: on corpus #8
        # B* - T Res reads 2e-8 of the rounding |T| |Res| of the product
        def perturbed(B_star, S, _fn=rational.residues):
            return _fn(B_star, S) * (1.0 + 1e-7)

        monkeypatch.setattr(rational, "residues", perturbed)
        model = fresh(corpus[8])
        with pytest.raises(ImaginaryLeakError, match="similarity residual"):
            mcarma.decompose(model, model.solvent_set())


class TestModelCache:
    """What depends on the model alone is built once, on first use."""

    def test_default_solvent_set_is_kept(self, example_model):
        model = fresh(example_model)
        S = model.solvent_set()
        assert model.solvent_set() is S
        # an explicit grouping builds a new set and leaves the default alone
        grouping = [[0, 3], [1, 2]]
        other = model.solvent_set(grouping)
        assert other is not S and model.solvent_set(grouping) is not other
        assert_allclose(other.matrices[0].real, R3, atol=1e-9)
        assert model.solvent_set() is S

    def test_state_space_is_kept(self, example_model):
        model = fresh(example_model)
        a = mcarma.decompose(model, model.solvent_set())
        b = mcarma.decompose(model, model.solvent_set([[0, 3], [1, 2]]))
        assert model.statespace is a.statespace is b.statespace
        assert not model.statespace.B_star.flags.writeable

    def test_not_coprime_raises_on_every_decompose(self):
        # A = (z + 1)(z + 2) and B = z + 1 share the root -1, which the
        # state space names; the solvents need no coprimeness
        model = scalar_model([1, 3, 2], [1, 1])
        S = model.solvent_set()
        for _ in range(2):
            with pytest.raises(NotIrreducibleError, match=r"latent root \(-1"):
                model.statespace
            with pytest.raises(NotIrreducibleError, match=r"latent root \(-1"):
                mcarma.decompose(model, S)

    def test_failing_default_set_raises_on_every_call(self):
        # diag((z + 1)(z + 2), (z + 1)(z + 3)): the root -1 is double
        model = mcarma.McarmaModel.build(
            matpoly.LambdaMatrix((np.eye(2), np.diag([3.0, 4.0]), np.diag([2.0, 3.0]))),
            matpoly.LambdaMatrix((np.eye(2),)), np.eye(2))
        for _ in range(2):
            with pytest.raises(DuplicateLatentRootError):
                model.solvent_set()

    def test_default_decomposition_is_kept(self, example_model):
        model = fresh(example_model)
        # another set builds a new decomposition and leaves the default unbuilt
        S = model.solvent_set([[0, 3], [1, 2]])
        other = mcarma.decompose(model, S)
        assert mcarma.decompose(model, S) is not other
        assert "_default_solvent_set" not in vars(model)
        kept = mcarma.decompose(model, model.solvent_set())
        assert mcarma.decompose(model, model.solvent_set()) is kept
        assert kept.solvent_set is model.solvent_set() and not kept.y0.any()
        assert not kept.x0.any() and kept.x0.shape == (4,)
        # an initial state builds a new one along the same set, which keeps
        # its own read-only copy of x0
        x0 = np.arange(1.0, 5.0)
        started = mcarma.decompose(model, model.solvent_set(), x0)
        assert started is not kept and started.y0.any()
        assert np.array_equal(started.x0, x0) and started.x0 is not x0
        assert not started.x0.flags.writeable and x0.flags.writeable
        assert mcarma.decompose(model, model.solvent_set()) is kept

    def test_failing_decomposition_raises_on_every_call(self, example_model, monkeypatch):
        monkeypatch.setattr(tolerances, "SIMILARITY", 0.0)
        model = fresh(example_model)
        for _ in range(2):
            with pytest.raises(ImaginaryLeakError, match="similarity residual"):
                mcarma.decompose(model, model.solvent_set())
        assert "_default_decomposition" not in vars(model)

    def test_modes_are_kept(self, example_model, monkeypatch):
        model = fresh(example_model)
        decomp = mcarma.decompose(model, model.solvent_set())
        lags = [0.0, 0.5]
        first = mcarma.stationary_acvf(decomp, lags)
        modes = model.modes
        assert mcarma.decompose(model, model.solvent_set([[0, 3], [1, 2]])).model.modes is modes
        for arr in (modes.roots, modes.X, modes.B, modes.residues,
                    modes._stationary_gramian, modes._stationary):
            assert not arr.flags.writeable
        steps = []

        def counted(M, sigma_L, roots, h, _fn=mcarma._gramian):
            steps.append(h)
            return _fn(M, sigma_L, roots, h)

        monkeypatch.setattr(mcarma, "_gramian", counted)
        assert np.array_equal(mcarma.stationary_acvf(decomp, lags), first)
        driver = sim.DriverSpec(kind="brownian", seed=3, sigma_L=model.sigma_L)
        sim.simulate(decomp, driver, 0.1, 20, stationary_start=True)
        sim.simulate(decomp, driver, 0.1, 20, stationary_start=True)
        # Pi reads the stationary G that gamma kept; the first path at a step
        # forms the Gramian of its innovations, which the modal form keeps
        assert steps == [0.1]

    def test_default_decomposition_logs_once(self, example_model, caplog):
        model = fresh(example_model)
        with caplog.at_level(logging.DEBUG, logger="mcarma_ou.mcarma"):
            for h in (0.25, 1.0):
                decomp = mcarma.decompose(model, model.solvent_set())
                mcarma.stationary_acvf(decomp, [k * h for k in range(11)])
                sampling.sampled_varma(decomp, h)
        lines = [r.getMessage() for r in caplog.records if r.name == "mcarma_ou.mcarma"]
        assert len(lines) == 1
        assert lines[0].startswith("default decomposition: d=2, p=2, ")
        assert lines[0].endswith(" s")

    def test_modal_form_logs_once(self, example_model, caplog):
        model = fresh(example_model)
        decomp = mcarma.decompose(model, model.solvent_set())
        driver = sim.DriverSpec(kind="brownian", seed=3, sigma_L=model.sigma_L)
        with caplog.at_level(logging.DEBUG, logger="mcarma_ou.mcarma"):
            for _ in range(2):
                sim.simulate(decomp, driver, 0.1, 20, stationary_start=True)
        lines = [r.getMessage() for r in caplog.records if r.name == "mcarma_ou.mcarma"]
        assert len(lines) == 1
        assert lines[0].startswith("modal form: pd=4 (4 real, 0 pairs), fold ")
        assert lines[0].endswith(" s")

    def test_second_fit_equals_first(self, corpus):
        # the second op on a model runs at another h and reuses what the
        # first kept; it equals the same op on a model that kept nothing
        def fit(model, h):
            decomp = mcarma.decompose(model, model.solvent_set())
            sv = sampling.sampled_varma(decomp, h)
            return [decomp.residues, mcarma.stationary_acvf(decomp, [k * h for k in range(11)]),
                    sv.psi, sv.phi, sv.gamma_U, sv.theta, sv.sigma_eps]

        for index, model in enumerate(corpus):
            warm = fresh(model)
            fit(warm, 0.25)
            for first, second in zip(fit(fresh(model), 1.0), fit(warm, 1.0)):
                assert np.array_equal(first, second), index


class TestGroupingInvariance:
    """No fit or path route reads the grouping of the roots into solvents."""

    @pytest.mark.parametrize("case", ["carma2x2", "corpus-22"])
    def test_fit_and_paths_are_bit_identical(self, example_model, example_set_12,
                                             example_set_34, corpus, case):
        # carma2x2 along the paper's sets {R1, R2} and {R3, R4} and its
        # default set; corpus #22 (d = 2, p = 2, two conjugate pairs) along
        # its default grouping and one that splits both pairs; each
        # decomposition on a fresh model
        if case == "carma2x2":
            runs = [(fresh(example_model), S) for S in (example_set_12, example_set_34)]
            runs.append((fresh(example_model), None))
        else:
            runs = [(model, model.solvent_set(grouping)) for model, grouping in
                    ((fresh(corpus[22]), None), (fresh(corpus[22]), [[0, 2], [1, 3]]))]
        outputs = []
        for model, S in runs:
            S = model.solvent_set() if S is None else S
            decomp = mcarma.decompose(model, S)
            out = [mcarma.stationary_acvf(decomp, [0.3 * k for k in range(11)]),
                   mcarma.kernel(decomp, np.linspace(0.0, 5.0, 11))]
            for h in (0.05, 0.25):
                sv = sampling.sampled_varma(decomp, h)
                out += [getattr(sv, f.name) for f in dataclasses.fields(sv)]
            for driver in (sim.DriverSpec(kind="brownian", seed=5, sigma_L=model.sigma_L),
                           sim.DriverSpec(kind="compound_poisson", seed=5, rate=4.0,
                                          jump_cov=model.sigma_L / 4.0)):
                out.append(sim.simulate(decomp, driver, 0.1, 500, stationary_start=True).Y)
                # from x0: the path starts at x0 itself, not at T y0
                started = mcarma.decompose(model, S, np.linspace(-1.0, 2.0, 4))
                out.append(sim.simulate(started, driver, 0.1, 500).Y)
            outputs.append(out)
        first, *others = outputs
        assert not np.array_equal(runs[0][1].matrices, runs[1][1].matrices)
        for other in others:
            for a, b in zip(first, other):
                assert np.array_equal(a, b)


class TestKernel:
    def test_zero_time_sum_vanishes(self, example_decomp_12):
        # q < p-1 makes C* B* = 0, so the residues cancel at t = 0
        assert_allclose(mcarma.kernel(example_decomp_12, 0.0), np.zeros((2, 2)),
                        atol=1e-12)

    def test_matches_state_space_exponential(self, example_decomp_12):
        assert verify.check_kernel_identity(example_decomp_12).ok

    def test_imaginary_leak_fails_rows_without_raising(self, example_model, monkeypatch):
        # a modal residue scaled by 1j breaks conjugate closure of the OU sum
        model = fresh(example_model)
        decomp = mcarma.decompose(model, model.solvent_set())
        modes = model.modes
        residues = modes.residues * np.array([1j, 1, 1, 1])[:, None]
        monkeypatch.setitem(vars(model), "modes", dataclasses.replace(modes, residues=residues))
        identity = verify.check_kernel_identity(decomp)
        assert identity.measured == np.inf and not identity.ok
        assert not verify.check_kernel_realness(decomp).ok

    def test_solvent_sets_agree(self, example_decomp_12, example_decomp_34):
        for t in np.linspace(0.0, 5.0, 21):
            a = mcarma.kernel(example_decomp_12, t)
            b = mcarma.kernel(example_decomp_34, t)
            assert np.max(np.abs(a - b)) <= 1e-8

    def test_scalar_carma20_closed_form(self):
        model = scalar_model([1, 3, 2], [1.0])
        decomp = mcarma.decompose(model, model.solvent_set())
        for t in np.linspace(0.0, 4.0, 17):
            want = np.exp(-t) - np.exp(-2 * t)
            assert abs(mcarma.kernel(decomp, t)[0, 0] - want) < 1e-12

    def test_scalar_carma21_closed_form(self):
        # residues B(r)/A'(r): (b1 - b0) at -1 and -(b1 - 2 b0) at -2
        b0, b1 = 0.7, 1.9
        model = scalar_model([1, 3, 2], [b0, b1])
        decomp = mcarma.decompose(model, model.solvent_set())
        for t in np.linspace(0.0, 4.0, 9):
            want = (b1 - b0) * np.exp(-t) - (b1 - 2 * b0) * np.exp(-2 * t)
            assert abs(mcarma.kernel(decomp, t)[0, 0] - want) < 1e-12

    def test_zero_time_full_order_gives_leading_ma(self):
        # for q = p-1 the residues sum to B_0 instead of cancelling
        rng = np.random.default_rng(21)
        model = random_stable_model(rng, d=2, p=2, q=1)
        decomp = mcarma.decompose(model, model.solvent_set())
        assert_allclose(mcarma.kernel(decomp, 0.0),
                        model.B.coeffs[0].real, atol=1e-9)

    @pytest.mark.parametrize("t", [np.nan, np.inf, -1.0])
    def test_bad_time_rejected(self, example_decomp_12, t):
        with pytest.raises(ValueError, match="finite t >= 0"):
            mcarma.kernel(example_decomp_12, t)

    def test_time_grid_matches_scalar_calls(self, example_decomp_12, corpus):
        # one modal sum over the grid; each entry is the call at its time
        for decomp in [example_decomp_12] + [mcarma.decompose(m, m.solvent_set())
                                             for m in corpus[:30]]:
            grid = mcarma.kernel(decomp, verify.KERNEL_TIMES)
            assert grid.shape == (len(verify.KERNEL_TIMES), decomp.d, decomp.residues.shape[2])
            scale = max(1.0, np.max(np.abs(decomp.residues)))
            for t, got in zip(verify.KERNEL_TIMES, grid):
                assert np.max(np.abs(got - mcarma.kernel(decomp, t))) <= 1e-14 * scale
        assert mcarma.kernel(example_decomp_12, np.full((2, 3), 0.5)).shape == (2, 3, 2, 2)

    @pytest.mark.parametrize("seed", range(6))
    def test_kernel_identity_random(self, seed):
        rng = np.random.default_rng(800 + seed)
        model = random_stable_model(rng)
        decomp = mcarma.decompose(model, model.solvent_set())
        assert verify.check_kernel_identity(decomp).ok


class TestStationaryAcvf:
    def test_scalar_ou_closed_form(self):
        a, res, sigma = 1.7, 2.0, 1.3
        model = scalar_model([1, a], [res], sigma=sigma ** 2)
        decomp = mcarma.decompose(model, model.solvent_set())
        lags = [0.0, 0.3, 1.0, 2.5]
        got = mcarma.stationary_acvf(decomp, lags)
        for lag, g in zip(lags, got):
            want = np.exp(-a * lag) * sigma ** 2 * res ** 2 / (2 * a)
            assert abs(g[0, 0] - want) < 1e-12 * max(1.0, want)

    def test_scalar_carma20_closed_form(self):
        # gamma(l) = sum_{i,j} e^{l r_i} res_i res_j / (-r_i - r_j)
        # with roots -1, -2 and residues 1, -1: e^{-l}/6 - e^{-2l}/12
        model = scalar_model([1, 3, 2], [1.0])
        decomp = mcarma.decompose(model, model.solvent_set())
        lags = [0.0, 0.5, 1.0, 3.0]
        got = mcarma.stationary_acvf(decomp, lags)
        for lag, g in zip(lags, got):
            want = np.exp(-lag) / 6.0 - np.exp(-2 * lag) / 12.0
            assert abs(g[0, 0] - want) < 1e-14

    def test_example_lag_zero_vs_lyapunov(self, example_decomp_12):
        got = mcarma.stationary_acvf(example_decomp_12, [0.0])
        assert verify.check_acvf_lyapunov(sampled(example_decomp_12, 0.1), got).ok

    def test_lyapunov_oracle_on_lag_grid(self, example_decomp_12):
        lags = [k * 0.1 for k in range(11)]
        got = mcarma.stationary_acvf(example_decomp_12, lags)
        assert verify.check_acvf_lyapunov(sampled(example_decomp_12, 0.1), got).ok

    def test_solvent_sets_agree(self, example_decomp_12, example_decomp_34):
        lags = [0.0, 0.25, 1.0]
        a = mcarma.stationary_acvf(example_decomp_12, lags)
        b = mcarma.stationary_acvf(example_decomp_34, lags)
        for x, y in zip(a, b):
            assert np.max(np.abs(x - y)) <= 1e-8

    def test_decay(self, example_model, example_decomp_12):
        rate = max(pr.root.real for pr in example_model.latent_pairs)
        horizon = 40.0 / abs(rate)
        tail = mcarma.stationary_acvf(example_decomp_12, [horizon])[0]
        assert np.linalg.norm(tail) <= 1e-6

    def test_symmetry_and_psd(self, example_decomp_12):
        g0 = mcarma.stationary_acvf(example_decomp_12, [0.0])[0]
        assert np.max(np.abs(g0 - g0.T)) <= 1e-10
        assert np.min(np.linalg.eigvalsh(g0)) >= -1e-12

    def test_zero_driver_zero_acvf(self, example_model):
        # the PSD floor of gamma(0) is met with equality
        model = mcarma.McarmaModel.build(example_model.A, example_model.B, np.zeros((2, 2)))
        decomp = mcarma.decompose(model, model.solvent_set())
        gammas = mcarma.stationary_acvf(decomp, [0.0, 0.5])
        assert all(np.all(g == 0.0) for g in gammas)

    @pytest.mark.parametrize("lag", [-0.1, np.nan, np.inf])
    def test_lag_outside_nonnegative_reals_rejected(self, example_decomp_12, lag):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            mcarma.stationary_acvf(example_decomp_12, [0.0, lag])

    def test_not_stationary_rejected(self):
        model = scalar_model([1, -0.5], [1.0])  # root +0.5
        decomp = mcarma.decompose(model, model.solvent_set())
        with pytest.raises(NotStationaryError):
            mcarma.stationary_acvf(decomp, [0.0])

    def test_component_gramian_vs_quadrature(self, example_decomp_12):
        S, residues = example_decomp_12.solvent_set, example_decomp_12.residues
        got = mcarma.component_gramians(S, residues, np.eye(2))
        for i, (R_i, res_i) in enumerate(zip(S.matrices, residues)):
            for j, (R_j, res_j) in enumerate(zip(S.matrices, residues)):
                want = quad_infinite_gramian(R_i, res_i, R_j, res_j, np.eye(2))
                assert np.max(np.abs(got[i, j] - want)) < 1e-9

    @pytest.mark.parametrize("z", [0.0, 1e-9, 1e-7, 1e-5])
    def test_gramian_near_collision(self, z):
        # roots z and 0 meet at z_01 = z: the weight int_0^h e^{uz} du =
        # expm1(hz)/z must keep full relative accuracy as z -> 0, where
        # e^{hz} - 1 cancels
        h = 0.7
        got = mcarma._gramian(np.ones((2, 1)), np.eye(1), np.array([z, 0.0]), h)[0, 1]
        want = h if z == 0.0 else math.expm1(h * z) / z
        assert abs(got - want) <= 1e-13 * want

    @pytest.mark.parametrize("c", [1e-4, 1e-2, 1.0, 1e2, 1e4])
    def test_gramian_time_rescaling(self, c):
        # u -> u / c: c G(c R_i, c R_j, h / c) = G(R_i, R_j, h)
        h = 0.4
        sols, scaled = stack([R1, R2]), stack([c * R1, c * R2])
        residues = np.array([RES1, RES2])
        for horizon in (h, np.inf):
            want = mcarma.component_gramians(sols, residues, np.eye(2), horizon)
            got = c * mcarma.component_gramians(scaled, residues, np.eye(2), horizon / c)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("h", [0.05, 1.0, np.inf])
    def test_stacked_gramians_equal_pair_calls(self, corpus, h):
        # against the eigenbasis formula P_i ((P_i^{-1} M P_j^{-H}) o w) P_j^H
        # of each pair, M = Res_i Sigma_L Res_j^H, as the Gramians were
        # formed solvent pair by solvent pair
        for index, model in enumerate(corpus):
            decomp = mcarma.decompose(model, model.solvent_set())
            got = mcarma.component_gramians(decomp.solvent_set, decomp.residues,
                                            model.sigma_L, h)
            comps = list(zip(components(decomp.solvent_set), decomp.residues))
            scale = np.max(np.abs(got))
            for i, (s_i, res_i) in enumerate(comps):
                for j, (s_j, res_j) in enumerate(comps):
                    z = s_i.spectrum[:, None] + s_j.spectrum.conj()
                    w = -1.0 / z if np.isinf(h) else np.expm1(h * z) / z
                    M = res_i @ model.sigma_L @ res_j.conj().T
                    want = s_i.P @ ((s_i.P_inv @ M @ s_j.P_inv.conj().T) * w) @ s_j.P.conj().T
                    assert np.max(np.abs(got[i, j] - want)) <= 3e-12 * scale, (index, i, j)

    def test_matches_per_component_sum(self, corpus):
        # gamma(l) = sum_i e^{l R_i} Sigma_i, one component at a time.  On
        # corpus #143 the two routes differ by 1.6e-12 of max|gamma(0)|
        # while each is within 1.8e-12 of the 50-digit gamma (components
        # 1.3e-12, modes 1.75e-12), so there the modes are judged against
        # that reference, at twice their measured error
        step, count = 0.25, 11
        lags = [step * k for k in range(count)]
        for index, model in enumerate(corpus):
            decomp = mcarma.decompose(model, model.solvent_set())
            got = mcarma.stationary_acvf(decomp, lags)
            if index in REFERENCE_JUDGED:
                want = mp_oracles.stationary_acvf_reference(model, step, count)
                bound = REFERENCE_JUDGED[index]
            else:
                sigmas = mcarma.component_gramians(decomp.solvent_set, decomp.residues,
                                                   model.sigma_L).sum(axis=1)
                comps = components(decomp.solvent_set)
                want = [sum(expm_eig(s, lag) @ sig for s, sig in zip(comps, sigmas)).real
                        for lag in lags]
                bound = 1e-12
            scale = np.max(np.abs(want[0]))
            for g, w in zip(got, want):
                assert np.max(np.abs(g - w)) <= bound * scale, index

    @pytest.mark.parametrize("seed", range(6))
    def test_lyapunov_oracle_random(self, seed):
        rng = np.random.default_rng(900 + seed)
        model = random_stable_model(rng)
        decomp = mcarma.decompose(model, model.solvent_set())
        lags = [k * 0.35 for k in range(5)]
        got = mcarma.stationary_acvf(decomp, lags)
        assert verify.check_acvf_lyapunov(sampled(decomp, 0.35), got).ok


class TestModelValidation:
    def test_rejects_nonzero_mean(self, example_poly):
        with pytest.raises(ValueError, match="mean"):
            mcarma.McarmaModel.build(
                example_poly, matpoly.LambdaMatrix((np.eye(2),)), np.eye(2),
                mean_L=np.array([1.0, 0.0]))

    def test_rejects_improper_orders(self):
        with pytest.raises(ValueError, match="p > q"):
            scalar_model([1, 2], [1.0, 1.0])

    def test_rejects_indefinite_sigma(self, example_poly):
        with pytest.raises(ValueError, match="semidefinite"):
            mcarma.McarmaModel.build(
                example_poly, matpoly.LambdaMatrix((np.eye(2),)),
                np.array([[1.0, 0.0], [0.0, -1.0]]))

    def test_stationary_flag(self, example_model):
        assert example_model.stationary
        assert not scalar_model([1, -0.5], [1.0]).stationary

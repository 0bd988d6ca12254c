import numpy as np
import pytest
import scipy.linalg
import scipy.optimize
from numpy.testing import assert_allclose

from mcarma_ou import matpoly, rational, tolerances
from mcarma_ou.exceptions import (
    DefectiveCompanionError,
    DuplicateLatentRootError,
    IncompleteSetError,
    NonSquareError,
    SingularGroupError,
    SolventResidualError,
)

from conftest import (A1, A2, R1, R2, R3, R4, RES1, RES2, random_stable_model,
                      scalar_poly)
from oracles import expand_factors, greedy_grouping, linear_factorization, vandermonde


class TestEval:
    def test_example_at_zero(self, example_poly):
        assert_allclose(example_poly.eval(0.0).real, A2, atol=0)

    def test_constant_term(self):
        rng = np.random.default_rng(1)
        A = matpoly.LambdaMatrix(tuple(rng.standard_normal((3, 2)) for _ in range(4)))
        assert_allclose(A.eval(0.0), A.coeffs[-1])

    def test_scalar_root(self):
        A = scalar_poly(1, 3, 2)
        assert abs(A.eval(-1.0)[0, 0]) < 1e-15

    def test_horner_matches_powers(self):
        rng = np.random.default_rng(2)
        A = matpoly.LambdaMatrix(tuple(rng.standard_normal((2, 2)) for _ in range(4)))
        lam = 0.7 - 1.3j
        direct = sum(c * lam ** (3 - k) for k, c in enumerate(A.coeffs))
        assert_allclose(A.eval(lam), direct, rtol=1e-14)


class TestEvalRight:
    @pytest.mark.parametrize("R", [R1, R2, R3, R4], ids=["R1", "R2", "R3", "R4"])
    def test_example_solvents(self, example_poly, R):
        assert np.linalg.norm(example_poly.eval_right(R)) < 1e-12

    def test_zero_matrix(self, example_poly):
        assert_allclose(example_poly.eval_right(np.zeros((2, 2))).real, A2)

    def test_non_square_rejected(self):
        A = matpoly.LambdaMatrix((np.ones((2, 3)), np.ones((2, 3))))
        with pytest.raises(NonSquareError):
            A.eval_right(np.eye(3))

    def test_differs_from_scalar_eval(self, example_poly):
        # right substitution at a matrix is not evaluation at its eigenvalues
        Z = np.array([[1.0, 1.0], [0.0, 2.0]])
        assert np.linalg.norm(example_poly.eval_right(Z)) > 1.0


def _stack(kind):
    rng = np.random.default_rng(5)
    stack = rng.standard_normal((4, 3, 3))
    return stack + 1j * rng.standard_normal((4, 3, 3)) if kind == "complex" else stack


class TestBackwardScale:
    """``backward_scale`` and ``_norms`` are numpy's own arithmetic without its
    wrappers, so they must equal the wrapped calls bit for bit."""

    @pytest.mark.parametrize("kind", ["real", "complex"])
    @pytest.mark.parametrize("lam", [
        0.7 - 1.3j, 0.0, -2.5, np.array([0.0, 1e-3, -4.0 + 2.0j, 1e3j]),
        1e102 * (0.6 + 0.8j), np.array([1e102, 1e103, 1e200])],
        ids=["complex", "zero", "real", "array", "near-overflow", "overflowing"])
    def test_is_polyval_of_the_norms(self, kind, lam):
        coeffs = _stack(kind)
        with np.errstate(over="ignore"):  # as in varma_ar, near the overflow guard
            got = matpoly.backward_scale(coeffs, lam)
            want = np.polyval(np.linalg.norm(coeffs, axis=(1, 2)), np.abs(lam))
        assert type(got) is type(want)
        assert np.array_equal(got, want)

    def test_overflow_reaches_inf(self):
        with np.errstate(over="ignore"):
            assert np.isinf(matpoly.backward_scale(_stack("real"), 1e200))

    @pytest.mark.parametrize("kind", ["real", "complex"])
    @pytest.mark.parametrize("axis", [0, (1, 2)], ids=["axis-0", "axes-1-2"])
    def test_norms_are_linalg_norm(self, kind, axis):
        x = _stack(kind) * np.logspace(-150, 150, 4)[:, None, None]
        got = matpoly._norms(x, axis)
        assert got.dtype == np.float64
        assert np.array_equal(got, np.linalg.norm(x, axis=axis))


class TestLatentRoots:
    def test_example_roots(self, example_poly):
        roots = sorted(pr.root.real for pr in matpoly.latent_roots(example_poly))
        assert_allclose(roots, [-4.0, -3.0, -2.0, -1.0], atol=1e-10)

    def test_scalar_quadratic(self):
        roots = sorted(pr.root.real for pr in matpoly.latent_roots(scalar_poly(1, 3, 2)))
        assert_allclose(roots, [-2.0, -1.0], atol=1e-12)

    @pytest.mark.parametrize("c", [1e-4, 1e-2, 1.0, 1e2, 1e4])
    def test_scalar_quadratic_time_rescaling(self, c):
        # (z + c)(z + 2c): A(lam) vanishes at a root, so the latent residual
        # is judged against the backward-error scale of the coefficients
        A = scalar_poly(1, 3 * c, 2 * c * c)
        roots = sorted(pr.root.real for pr in matpoly.latent_roots(A))
        assert_allclose(roots, [-2 * c, -c], rtol=1e-12)

    def test_first_order(self):
        rng = np.random.default_rng(3)
        M = rng.standard_normal((3, 3))
        A = matpoly.LambdaMatrix((np.eye(3), M))
        got = np.sort_complex(np.array([pr.root for pr in matpoly.latent_roots(A)]))
        want = np.sort_complex(np.linalg.eigvals(-M))
        assert_allclose(got, want, atol=1e-10)

    def test_vector_residuals(self, example_poly):
        for pr in matpoly.latent_roots(example_poly):
            assert np.linalg.norm(example_poly.eval(pr.root) @ pr.vector) < 1e-8
            assert abs(np.linalg.norm(pr.vector) - 1.0) < 1e-12

    def test_sorted_descending(self, example_poly):
        roots = [pr.root for pr in matpoly.latent_roots(example_poly)]
        keys = [(-z.real, -z.imag) for z in roots]
        assert keys == sorted(keys)

    def test_defective_companion_rejected(self):
        # scalar (z+1)^6: one long Jordan chain, eigenvector matrix numerically singular
        A = scalar_poly(1.0, 6.0, 15.0, 20.0, 15.0, 6.0, 1.0)
        with pytest.raises(DefectiveCompanionError):
            matpoly.latent_roots(A)

    def test_repeated_block_root_rejected_at_grouping(self):
        # (z+1)^2 I perturbs into root clusters below the distinctness tolerance
        A = matpoly.LambdaMatrix((np.eye(2), 2 * np.eye(2), np.eye(2)))
        with pytest.raises((DuplicateLatentRootError, DefectiveCompanionError)):
            matpoly.solvents_from_latents(A)


class TestSolventsFromLatents:
    def test_example_grouping_recovers_known_pairs(self, example_poly):
        pairs = matpoly.latent_roots(example_poly)
        # roots sorted descending: -1, -2, -3, -4
        S = matpoly.solvents_from_latents(example_poly, pairs, [[0, 1], [2, 3]])
        assert np.all(S.residual_norms < 1e-9 * np.linalg.norm(A2))
        spectra = [np.sort(s.real) for s in S.spectrum]
        assert_allclose(spectra[0], [-2, -1], atol=1e-9)
        assert_allclose(spectra[1], [-4, -3], atol=1e-9)
        # with simple latent roots the solvent of a given spectrum is unique
        assert_allclose(S.matrices[0].real, R1, atol=1e-9)
        assert_allclose(S.matrices[1].real, R2, atol=1e-9)

    def test_alternative_grouping(self, example_poly):
        pairs = matpoly.latent_roots(example_poly)
        S = matpoly.solvents_from_latents(example_poly, pairs, [[0, 3], [1, 2]])
        assert_allclose(S.matrices[0].real, R3, atol=1e-9)
        assert_allclose(S.matrices[1].real, R4, atol=1e-9)

    def test_first_order_reconstruction(self):
        rng = np.random.default_rng(4)
        M = rng.standard_normal((3, 3))
        A = matpoly.LambdaMatrix((np.eye(3), M))
        S = matpoly.solvents_from_latents(A)
        assert_allclose(S.matrices[0].real, -M, atol=1e-9)

    def test_split_conjugate_pair_is_valid(self):
        # d=1, p=2 with a conjugate root pair: groups of size one must split it
        A = scalar_poly(1.0, 2.0, 1.0 + np.pi ** 2)
        S = matpoly.solvents_from_latents(A)
        assert len(S) == 2
        assert max(np.max(np.abs(R.imag)) for R in S.matrices) > 0.1

    def test_duplicate_root_rejected(self, example_poly):
        pairs = matpoly.latent_roots(example_poly)
        doubled = [pairs[0]] * 2 + pairs[2:]
        with pytest.raises(DuplicateLatentRootError):
            matpoly.solvents_from_latents(example_poly, doubled, [[0, 1], [2, 3]])

    def test_singular_group_rejected(self, example_poly):
        # force one group whose latent vectors are numerically parallel
        pairs = matpoly.latent_roots(example_poly)
        v = pairs[0].vector
        tweaked = [
            pairs[0],
            matpoly.LatentPair(pairs[1].root, v + 1e-14 * pairs[1].vector, 0.0),
            pairs[2],
            pairs[3],
        ]
        with pytest.raises(SingularGroupError):
            matpoly.solvents_from_latents(example_poly, tweaked, [[0, 1], [2, 3]])


class TestCompanion:
    @pytest.mark.parametrize("A, message", [
        (scalar_poly(2, 1), "requires a monic lambda-matrix"),
        (scalar_poly(1), "requires degree >= 1")], ids=["non-monic", "degree-0"])
    def test_needs_monic_degree_one(self, A, message):
        with pytest.raises(ValueError, match=message):
            matpoly.companion_matrix(A)


class TestDefaultGrouping:
    """The grouping scores only real choices and keeps the greedy groups."""

    @staticmethod
    def groups(model, grouping):
        return grouping(list(model.latent_pairs), model.d, conjugate_closed=model.A.is_real)

    def test_count_not_a_multiple_of_d_rejected(self, example_poly):
        with pytest.raises(ValueError, match="multiple of d"):
            matpoly.default_grouping(matpoly.latent_roots(example_poly)[:3], 2)

    def test_same_groups_as_greedy_on_corpus(self, corpus):
        for model in corpus:
            assert (self.groups(model, matpoly.default_grouping)
                    == self.groups(model, greedy_grouping))

    def test_same_groups_as_greedy_on_hard_regime(self, hard_regime):
        for model in hard_regime:
            assert (self.groups(model, matpoly.default_grouping)
                    == self.groups(model, greedy_grouping))

    def test_no_factorization_without_a_choice(self, corpus, linalg_calls):
        unique = [m for m in corpus if m.d == 1 or m.p == 1]
        assert {m.d for m in unique} == {1, 2, 3} and {m.p for m in unique} == {1, 2, 3}
        for model in unique:
            got = self.groups(model, matpoly.default_grouping)
            assert got == [list(range(k * model.d, (k + 1) * model.d)) for k in range(model.p)]
        assert sum(linalg_calls.values()) == 0


class TestStackedRepresentation:
    @staticmethod
    def assert_consistent(S, roots):
        rebuilt = (S.P * S.spectrum[:, None, :]) @ S.P_inv
        scale = np.max(np.abs(S.matrices), axis=(1, 2))
        assert np.all(np.max(np.abs(rebuilt - S.matrices), axis=(1, 2)) <= 1e-12 * scale)
        assert matpoly.eig_multiset_distance(S.roots, roots) <= 1e-12 * max(
            1.0, np.max(np.abs(roots)))

    def test_both_routes_on_corpus(self, corpus):
        for index, model in enumerate(corpus):
            roots = model.latent_root_values
            S = model.solvent_set()
            self.assert_consistent(S, roots)
            certified = matpoly.certify_solvent_set(model.A, S.matrices)
            self.assert_consistent(certified, roots)
            for name in ("matrices", "spectrum", "P", "P_inv"):
                assert np.array_equal(getattr(certified, name), getattr(S, name)), (index, name)
            assert np.array_equal(certified.residual_norms, S.residual_norms), index
            assert certified.residual == S.residual, index
            assert certified.cond_V == S.cond_V, index

    def test_latent_route_agrees_with_certified_matrices(self, example_poly):
        # against the exact solvents R1, R2 and what they give by other routes
        pairs = matpoly.latent_roots(example_poly)
        S = matpoly.solvents_from_latents(example_poly, pairs, [[0, 1], [2, 3]])
        # R = P diag(lam) P^{-1} rounds at about cond(P) eps max|lam| (1.8e-13)
        tol = 1e-12
        given = np.array([R1, R2])
        assert_allclose(S.matrices, given, rtol=0, atol=tol)
        assert_allclose(S.V, vandermonde(given), rtol=0, atol=tol)
        assert_allclose(S.residual_norms, np.linalg.norm(
            example_poly.eval_right(given), axis=(1, 2)), rtol=0, atol=tol)
        want = np.linalg.cond(vandermonde(given))
        assert abs(S.cond_V.measured - want) <= tol * want
        assert_allclose(np.sort_complex(S.roots), [-4, -3, -2, -1], rtol=0, atol=tol)
        eigenbasis = (S.P * np.exp(0.3 * S.spectrum)[:, None, :]) @ S.P_inv
        assert_allclose(eigenbasis, [scipy.linalg.expm(0.3 * R) for R in given],
                        rtol=0, atol=tol)

    def test_latent_route_takes_no_eig(self, example_poly, monkeypatch):
        pairs = matpoly.latent_roots(example_poly)

        def no_eig(*args, **kwargs):
            raise AssertionError("eig called on the latent route")

        monkeypatch.setattr(np.linalg, "eig", no_eig)
        S = matpoly.solvents_from_latents(example_poly, pairs)
        assert S.spectrum.shape == (2, 2)

    def test_stacks_are_read_only(self, example_set_12):
        S = example_set_12
        for name in ("matrices", "spectrum", "P", "P_inv", "residual_norms", "V"):
            with pytest.raises(ValueError):
                getattr(S, name).flat[0] = 0.0
        assert (len(S), S.block_dim) == (2, 2)


class TestCertify:
    def test_wrong_matrix_rejected(self, example_poly):
        with pytest.raises(SolventResidualError):
            matpoly.certify_solvent_set(example_poly, [R1, R1 + 0.5])

    def test_overlapping_spectra_rejected(self, example_poly):
        with pytest.raises((IncompleteSetError, SolventResidualError)):
            matpoly.certify_solvent_set(example_poly, [R1, R1])

    @pytest.mark.parametrize("mats, message", [
        ([R1], "need 2 solvents, got 1"), ([R1, np.eye(3)], "solvent block shape mismatch")],
        ids=["count", "block-shape"])
    def test_incomplete_set_rejected(self, example_poly, mats, message):
        with pytest.raises(IncompleteSetError, match=f"^IncompleteSet: {message}$"):
            matpoly.certify_solvent_set(example_poly, mats)

    def test_nan_entry_rejected(self, example_poly):
        # the NaN residual fails its bound before eigvals would meet the NaN
        R = R2.copy()
        R[0, 1] = np.nan
        with pytest.raises(SolventResidualError):
            matpoly.certify_solvent_set(example_poly, [R1, R])

    def test_example_pairs_certify(self, example_set_12, example_set_34):
        # each set keeps the records of the certificates it passed
        for S in (example_set_12, example_set_34):
            assert S.residual == ("||A_R(R)||_F", S.residual_norms.max(),
                                  tolerances.SOLVENT_RESIDUAL * np.linalg.norm(A2), True)
            assert S.cond_V == ("cond(V)", np.linalg.cond(S.V), tolerances.CONDITION, True)

    @staticmethod
    def grouping(S, A):
        """The latent indices of each solvent's spectrum, in its order."""
        roots = np.array([pr.root for pr in matpoly.latent_roots(A)])
        return np.abs(S.spectrum[..., None] - roots).argmin(axis=-1).tolist()

    @pytest.mark.parametrize("mats, grouping", [
        ([R1, R2], [[0, 1], [2, 3]]),
        ([R3, R4], [[0, 3], [1, 2]]),
    ], ids=["12", "34"])
    def test_example_sets_are_built_from_their_grouping(self, example_poly, mats, grouping):
        S = matpoly.certify_solvent_set(example_poly, mats)
        assert self.grouping(S, example_poly) == grouping
        built = matpoly.solvents_from_latents(example_poly, grouping=grouping)
        for name in ("matrices", "spectrum", "P", "P_inv", "residual_norms", "V"):
            assert np.array_equal(getattr(S, name), getattr(built, name)), name

    def test_given_order_is_kept(self, example_poly, example_model):
        S = matpoly.certify_solvent_set(example_poly, [R2, R1])
        assert self.grouping(S, example_poly) == [[2, 3], [0, 1]]
        assert_allclose(S.matrices, [R2, R1], rtol=0, atol=1e-12)
        res = rational.residues(example_model.statespace.B_star, S)
        assert_allclose(res, [RES2, RES1], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("c", [1e-4, 1e-2, 1.0, 1e2, 1e4])
    def test_time_rescaling(self, c):
        # A_i -> c^i A_i, R -> c R: the verdict and the grouping stay, and
        # each built solvent stays as close to its given one, relatively
        A = matpoly.LambdaMatrix((np.eye(2), c * A1, c * c * A2))
        for mats, grouping in (([R1, R2], [[0, 1], [2, 3]]), ([R3, R4], [[0, 3], [1, 2]])):
            given = c * np.array(mats)
            S = matpoly.certify_solvent_set(A, given)
            assert self.grouping(S, A) == grouping
            err = np.linalg.norm(S.matrices - given, axis=(1, 2))
            assert np.all(err <= 1e-12 * np.linalg.norm(given, axis=(1, 2)))
        with pytest.raises(IncompleteSetError, match="one to one"):
            matpoly.certify_solvent_set(A, c * np.array([R1, R1]))

    def test_small_scale_perturbation_rejected(self):
        # at c = 1e-4 a move of 1e-10 passes the absolute residual bound and
        # the eigenvalue match, but not the bound relative to ||R_k||_F
        c = 1e-4
        A = matpoly.LambdaMatrix((np.eye(2), c * A1, c * c * A2))
        given = c * np.array([R1, R2])
        given[0, 0, 0] += 1e-10
        residuals = np.linalg.norm(A.eval_right(given), axis=(1, 2))
        assert residuals.max() <= tolerances.SOLVENT_RESIDUAL
        with pytest.raises(SolventResidualError, match=r"built - given"):
            matpoly.certify_solvent_set(A, given)

    @pytest.mark.parametrize("size", [1e-10, 1e-3, 1.0])
    def test_multiset_distance_is_assignment_distance(self, size):
        # small moves take the nearest-point path, a unit move the assignment
        rng = np.random.default_rng(17)
        roots = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        moved = roots + size * (rng.standard_normal(6) + 1j * rng.standard_normal(6))
        spectrum = rng.permutation(moved)
        cost = np.abs(spectrum[:, None] - roots[None, :])
        rows, cols = scipy.optimize.linear_sum_assignment(cost)
        assert matpoly.eig_multiset_distance(spectrum, roots) == cost[rows, cols].max()
        assert matpoly.eig_multiset_distance(spectrum[1:], roots) == np.inf


class TestVandermonde:
    def test_first_order(self):
        assert_allclose(vandermonde([R1]).real, np.eye(2))

    def test_example_blocks(self):
        V = vandermonde([R1, R2]).real
        assert_allclose(V[:2, :2], np.eye(2))
        assert_allclose(V[:2, 2:], np.eye(2))
        assert_allclose(V[2:, :2], R1)
        assert_allclose(V[2:, 2:], R2)

    def test_scalar(self):
        V = vandermonde([np.array([[-1.0]]), np.array([[-2.0]])]).real
        assert_allclose(V, [[1, 1], [-1, -2]])

    def test_solvent_sets_keep_the_oracle_matrix(self, corpus):
        # stacked products against one matrix_power per block
        for index, model in enumerate(corpus):
            S = model.solvent_set()
            want = vandermonde(S.matrices)
            assert np.max(np.abs(S.V - want)) <= 1e-12 * np.max(np.abs(want)), index

    def test_non_finite_matrix_reads_infinite_condition(self):
        # the SVD of an overflowed Vandermonde matrix does not converge; its
        # condition number reads inf, so the cond(V) certificate fails typed
        bad = np.array([[np.inf, 1.0], [np.nan, 1.0]])
        assert matpoly._cond(bad) == np.inf


class TestCoeffsFromSolvents:
    def test_example_pair_12(self, example_set_12):
        A = matpoly.coeffs_from_solvent_matrices(example_set_12.matrices)
        assert_allclose(A.coeffs[1].real, A1, atol=1e-10)
        assert_allclose(A.coeffs[2].real, A2, atol=1e-10)

    def test_example_pair_34(self, example_set_34):
        A = matpoly.coeffs_from_solvent_matrices(example_set_34.matrices)
        assert_allclose(A.coeffs[1].real, A1, atol=1e-10)
        assert_allclose(A.coeffs[2].real, A2, atol=1e-10)

    def test_scalar_roots(self):
        A = matpoly.coeffs_from_solvent_matrices(
            [np.array([[-1.0]]), np.array([[-2.0]])])
        assert_allclose(A.coeffs[1].real, [[3.0]], atol=1e-13)
        assert_allclose(A.coeffs[2].real, [[2.0]], atol=1e-13)

    @pytest.mark.parametrize("seed", range(8))
    def test_round_trip(self, seed):
        rng = np.random.default_rng(100 + seed)
        model = random_stable_model(rng, d=int(rng.integers(2, 4)),
                                    p=int(rng.integers(2, 4)))
        A = model.A
        S = matpoly.solvents_from_latents(A)
        back = matpoly.coeffs_from_solvent_matrices(S.matrices)
        for got, want in zip(back.coeffs, A.coeffs):
            scale = max(1.0, np.linalg.norm(want))
            assert np.linalg.norm(got - want) < 1e-8 * scale

    @pytest.mark.parametrize("seed", range(6))
    def test_real_output_for_conjugate_closed_grouping(self, seed):
        rng = np.random.default_rng(200 + seed)
        model = random_stable_model(rng, d=2, p=2)
        S = matpoly.solvents_from_latents(model.A)  # default grouping is conjugate closed
        back = matpoly.coeffs_from_solvent_matrices(S.matrices)
        assert max(np.max(np.abs(c.imag)) for c in back.coeffs) < 1e-10

    def test_spectrum_matches_latent_roots(self, example_poly, example_set_12):
        got = np.sort_complex(example_set_12.roots)
        want = np.sort_complex(
            np.array([pr.root for pr in matpoly.latent_roots(example_poly)]))
        assert np.max(np.abs(got - want)) < 1e-8


class TestLinearFactorization:
    def test_first_order(self):
        factors = linear_factorization([R1])
        assert len(factors) == 1
        assert_allclose(factors[0].real, R1)

    def test_scalar_factors_are_roots(self):
        factors = linear_factorization(
            [np.array([[-1.0]]), np.array([[-2.0]])])
        assert_allclose(sorted(f[0, 0].real for f in factors), [-2.0, -1.0])

    def test_example_product(self, example_poly, example_set_12):
        factors = linear_factorization(example_set_12.matrices)
        product = expand_factors(factors)
        for got, want in zip(product.coeffs, example_poly.coeffs):
            assert np.linalg.norm(got - want) < 1e-8 * max(1.0, np.linalg.norm(want))

    @pytest.mark.parametrize("seed", range(5))
    def test_random_product(self, seed):
        rng = np.random.default_rng(300 + seed)
        model = random_stable_model(rng, d=2, p=3)
        S = matpoly.solvents_from_latents(model.A)
        product = expand_factors(linear_factorization(S.matrices))
        for got, want in zip(product.coeffs, model.A.coeffs):
            assert np.linalg.norm(got - want) < 1e-8 * max(1.0, np.linalg.norm(want))

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

from mcarma_ou import matpoly, mcarma, rational, verify
from mcarma_ou.exceptions import NotIrreducibleError, PoleHitError

from conftest import A2, RES1, RES2, RES3, RES4, random_stable_model
from oracles import contour_residue, poly_derivative


def scalar_poly(*coeffs):
    return matpoly.LambdaMatrix(tuple(np.array([[c]], dtype=float) for c in coeffs))


@pytest.fixture(scope="module")
def example_fraction(example_poly):
    B = matpoly.LambdaMatrix((np.eye(2),))
    return rational.RationalLeftMatrix.build(example_poly, B)


@pytest.fixture(scope="module")
def res_12(example_fraction, example_set_12):
    return rational.residues(example_fraction, example_set_12)


@pytest.fixture(scope="module")
def res_34(example_fraction, example_set_34):
    return rational.residues(example_fraction, example_set_34)


class TestIrreducible:
    def test_identity_numerator(self, example_fraction):
        assert rational.check_irreducible(example_fraction.A, example_fraction.B) == (True, None)

    def test_common_scalar_root(self):
        A = scalar_poly(1, 3, 2)              # (z+1)(z+2)
        B = scalar_poly(1, 1)                 # z+1
        ok, witness = rational.check_irreducible(A, B)
        assert not ok
        assert abs(witness - (-1.0)) < 1e-8

    @pytest.mark.parametrize("c", [1e-4, 1e-2, 1.0, 1e2, 1e4])
    def test_common_scalar_root_time_rescaling(self, c):
        # (z + c)(z + 2c) over z + c: a common zero at every time scale
        ok, witness = rational.check_irreducible(scalar_poly(1, 3 * c, 2 * c * c),
                                                 scalar_poly(1, c))
        assert not ok
        assert abs(witness + c) < 1e-8 * c

    def test_witness_is_first_failing_root(self):
        # (z+1)(z+2)(z+3) over (z+1)(z+2): the rank test fails at -1 and -2
        A = scalar_poly(1, 6, 11, 6)
        B = scalar_poly(1, 3, 2)
        pairs = matpoly.latent_roots(A)
        assert [round(pr.root.real) for pr in pairs] == [-1, -2, -3]
        for order in (pairs, pairs[::-1]):
            ok, witness = rational.check_irreducible(A, B, order)
            assert not ok
            assert witness == next(pr.root for pr in order if round(pr.root.real) != -3)

    def test_zero_root(self):
        # A_p = 0 puts a root at 0, where A's backward-error scale vanishes
        assert rational.check_irreducible(scalar_poly(1, 1, 0), scalar_poly(1))[0]
        assert not rational.check_irreducible(scalar_poly(1, 1, 0), scalar_poly(1, 0))[0]

    def test_coprime_scalar(self):
        ok, witness = rational.check_irreducible(scalar_poly(1, 3, 2), scalar_poly(1))
        assert ok and witness is None

    def test_reducible_fraction_rejected_at_build(self):
        # the fraction names the root where [A(lam) | B(lam)] loses rank
        with pytest.raises(NotIrreducibleError, match=r"latent root \(-1"):
            rational.RationalLeftMatrix.build(scalar_poly(1, 3, 2), scalar_poly(1, 1))


class TestSharpSystem:
    def test_forward_substitution_matches_dense_solve(self, example_poly):
        B = matpoly.LambdaMatrix((np.eye(2),))
        A_sharp, B_sharp = rational.sharp_matrices(example_poly, B)
        dense = np.linalg.solve(A_sharp, B_sharp)
        assert_allclose(rational.solve_sharp(example_poly, B), dense, atol=1e-12)

    def test_sharp_eigenvalues_are_one(self, example_poly):
        B = matpoly.LambdaMatrix((np.eye(2),))
        A_sharp, _ = rational.sharp_matrices(example_poly, B)
        assert_allclose(np.linalg.eigvals(A_sharp).real, np.ones(4), atol=1e-12)


class TestResidues:
    def test_example_pair_12(self, res_12):
        assert_allclose(res_12[0].real, RES1, atol=1e-9)
        assert_allclose(res_12[1].real, RES2, atol=1e-9)

    def test_example_pair_34(self, res_34):
        assert_allclose(res_34[0].real, RES3, atol=1e-9)
        assert_allclose(res_34[1].real, RES4, atol=1e-9)

    def test_scalar_residues_match_derivative_formula(self):
        # res at r is B(r)/A'(r) in dimension one
        A = scalar_poly(1, 3, 2)
        B = scalar_poly(1)
        F = rational.RationalLeftMatrix.build(A, B)
        S = matpoly.solvents_from_latents(A)
        for R, res in zip(S.matrices, rational.residues(F, S)):
            r = R[0, 0]
            expected = B.eval(r)[0, 0] / poly_derivative(A).eval(r)[0, 0]
            assert abs(res[0, 0] - expected) < 1e-12

    def test_contour_quadrature_cross_check(self, example_fraction, example_set_12,
                                            res_12):
        spectra = [np.linalg.eigvals(R) for R in example_set_12.matrices]
        for k, res in enumerate(res_12):
            other = np.concatenate([s for i, s in enumerate(spectra) if i != k])
            quad = contour_residue(example_fraction.A, example_fraction.B,
                                   spectra[k], other)
            assert_allclose(res, quad, atol=1e-9)

    @pytest.mark.parametrize("seed", range(4))
    def test_contour_quadrature_random(self, seed):
        rng = np.random.default_rng(400 + seed)
        model = random_stable_model(rng, d=2, p=2)
        F = model.fraction
        S = model.solvent_set()
        spectra = [np.linalg.eigvals(R) for R in S.matrices]
        for k, res in enumerate(rational.residues(F, S)):
            other = np.concatenate([s for i, s in enumerate(spectra) if i != k])
            quad = contour_residue(F.A, F.B, spectra[k], other)
            assert np.max(np.abs(res - quad)) < 1e-7 * max(1.0, np.max(np.abs(res)))


class TestEvalPartialFraction:
    def test_example_at_zero(self, example_set_12, res_12):
        got = rational.eval_partial_fraction(example_set_12, res_12, 0.0)
        assert_allclose(got.real, np.linalg.inv(A2), atol=1e-12)
        assert np.max(np.abs(got.imag)) < 1e-12

    def test_decay_at_infinity(self, example_set_12, res_12):
        small = np.linalg.norm(rational.eval_partial_fraction(example_set_12, res_12, 1e8))
        assert small < 1e-6

    def test_solvent_sets_agree_off_spectrum(self, example_set_12, res_12,
                                             example_set_34, res_34):
        z = 1.0 + 1.0j
        a = rational.eval_partial_fraction(example_set_12, res_12, z)
        b = rational.eval_partial_fraction(example_set_34, res_34, z)
        assert np.max(np.abs(a - b)) < 1e-10

    def test_pole_hit(self, example_set_12, res_12):
        with pytest.raises(PoleHitError):
            rational.eval_partial_fraction(example_set_12, res_12, -1.0)

    def test_reconstruction_on_circle(self, example_fraction, example_set_12, res_12):
        radius = 2.0 * 4.0  # twice the largest latent root magnitude
        for theta in np.linspace(0, 2 * np.pi, 20, endpoint=False):
            z = radius * np.exp(1j * (theta + 0.03))
            direct = np.linalg.solve(example_fraction.A.eval(z),
                                     example_fraction.B.eval(z))
            got = rational.eval_partial_fraction(example_set_12, res_12, z)
            assert np.linalg.norm(got - direct) <= 1e-8 * np.linalg.norm(direct) + 1e-15

    @pytest.mark.parametrize("seed", range(4))
    def test_reconstruction_random(self, seed):
        model = random_stable_model(np.random.default_rng(500 + seed))
        decomp = mcarma.decompose(model, model.solvent_set())
        assert verify.check_pf_reconstruction(decomp).ok

    @pytest.mark.parametrize("index", [None, 8, 143])
    def test_reconstruction_row_on_named_models(self, index, example_model, corpus):
        # carma2x2, then corpus #8 and #143 (d = p = 3; #143's coefficients
        # reach 6e6), through the stacked solve of eval_partial_fraction
        model = example_model if index is None else corpus[index]
        check = verify.check_pf_reconstruction(mcarma.decompose(model, model.solvent_set()))
        assert check.bound == 1e-8
        assert check.ok, check

    def test_stacked_solve_is_the_sum_of_solves(self, corpus):
        model = corpus[8]
        S = model.solvent_set()
        res = mcarma.decompose(model, S).residues
        z = 0.3 + 0.7j
        want = sum(np.linalg.solve(z * np.eye(3) - R, r) for R, r in zip(S.matrices, res))
        assert_allclose(rational.eval_partial_fraction(S, res, z), want, rtol=1e-14, atol=0)


class TestRealnessAndShapes:
    def test_exponential_sum_real_on_grid(self, example_set_12, res_12):
        for t in np.arange(0.0, 5.01, 0.25):
            total = sum(scipy.linalg.expm(t * R) @ res
                        for R, res in zip(example_set_12.matrices, res_12))
            assert np.max(np.abs(total.imag)) < 1e-9

    def test_rectangular_numerator(self):
        # d = 2, m = 3 driving dimension
        rng = np.random.default_rng(42)
        model = random_stable_model(rng, d=2, p=2, q=0)
        B = matpoly.LambdaMatrix((rng.standard_normal((2, 3)),))
        F = rational.RationalLeftMatrix.build(model.A, B)
        S = model.solvent_set()
        res = rational.residues(F, S)
        assert res.shape == (2, 2, 3)
        z = 1.5 + 0.5j
        direct = np.linalg.solve(model.A.eval(z), B.eval(z))
        assert_allclose(rational.eval_partial_fraction(S, res, z), direct, atol=1e-10)

"""A sequence of matrix blocks is one (n, d, m) array.

The coefficients of a lambda-matrix, autocovariances over lags and the
sampled VARMA parameters are each one stack, whatever form the blocks
came in.
"""

import numpy as np
import pytest

from mcarma_ou import matpoly, mcarma, sampling, sim

from oracles import linear_factorization, poly_derivative, poly_product

BLOCKS = [np.eye(2), np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([[0.0, -1.0], [1.0, 0.0]])]


@pytest.mark.parametrize("form", [tuple, list, np.array], ids=["tuple", "list", "stack"])
def test_coeffs_are_one_readonly_stack(form):
    A = matpoly.LambdaMatrix(form(BLOCKS))
    assert type(A.coeffs) is np.ndarray
    assert A.coeffs.shape == (3, 2, 2) and A.coeffs.dtype == complex
    assert not A.coeffs.flags.writeable
    assert np.array_equal(A.coeffs, BLOCKS)


def test_coeffs_copy_the_blocks():
    stack = np.array(BLOCKS, dtype=complex)
    A = matpoly.LambdaMatrix(stack)
    stack[1] = 0.0
    assert stack.flags.writeable
    assert np.array_equal(A.coeffs, BLOCKS)


@pytest.mark.parametrize("coeffs, message", [
    ((), "a lambda-matrix needs at least one coefficient"),
    ((np.ones(2), np.ones(2)), "coefficients must be 2-d matrices"),
    ((np.eye(2), np.eye(3)), "all coefficients must share one shape"),
    ((np.eye(2), np.ones(2)), "all coefficients must share one shape"),
    ((np.eye(2), np.full((2, 2), np.nan)), "coefficients must be finite"),
    ((np.eye(2), np.diag([1.0, -np.inf])), "coefficients must be finite"),
], ids=["empty", "1-d", "ragged", "mixed", "nan", "inf"])
def test_malformed_coeffs_rejected(coeffs, message):
    with pytest.raises(ValueError, match=message):
        matpoly.LambdaMatrix(coeffs)


def test_derived_polynomials_are_stacks(example_set_12):
    A = matpoly.coeffs_from_solvent_matrices(example_set_12.matrices)
    assert A.coeffs.shape == (3, 2, 2)
    assert poly_derivative(A).coeffs.shape == (2, 2, 2)
    assert poly_product(A, A).coeffs.shape == (5, 2, 2)
    assert linear_factorization(example_set_12.matrices).shape == (2, 2, 2)


def is_stack(arr, n, d):
    return type(arr) is np.ndarray and arr.shape == (n, d, d) and arr.dtype == float


def test_fit_outputs_are_stacks(example_model):
    decomp = mcarma.decompose(example_model, example_model.solvent_set())
    p, d = decomp.p, decomp.d
    assert is_stack(mcarma.stationary_acvf(decomp, [0.0, 0.1, 0.2]), 3, d)
    psi, phi, *_ = sampling.varma_ar(example_model, 0.1)
    assert is_stack(psi, p, d) and is_stack(phi, p, d)
    gamma_U = sampling.noise_acvf(example_model, phi, 0.1)
    assert is_stack(gamma_U, p, d)
    sv = sampling.sampled_varma(decomp, 0.1)
    for name, n in (("psi", p), ("phi", p), ("gamma_U", p), ("theta", p - 1)):
        assert is_stack(getattr(sv, name), n, d), name


def test_first_order_theta_is_empty_stack():
    A = matpoly.LambdaMatrix([np.eye(2), [[3.0, -1.0], [0.5, 2.0]]])
    model = mcarma.McarmaModel.build(A, matpoly.LambdaMatrix([np.eye(2)]), np.eye(2))
    sv = sampling.sampled_varma(mcarma.decompose(model, model.solvent_set()), 0.1)
    assert is_stack(sv.theta, 0, 2)
    assert is_stack(sv.phi, 1, 2) and is_stack(sv.gamma_U, 1, 2)


def test_empirical_acvf_is_stack():
    Y = np.random.default_rng(0).standard_normal((100, 2))
    assert is_stack(sim.empirical_acvf(Y, 3), 4, 2)

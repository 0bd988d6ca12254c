"""Shared fixtures: the worked 2x2 CARMA(2,0) example and a random corpus."""

import os
import pathlib
from collections import Counter

# One BLAS thread: on the suite's tiny matrices threading only adds outliers.
# Set before numpy loads OpenBLAS.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import numpy as np
import pytest

from mcarma_ou import matpoly, mcarma, rational

MODELS_DIR = pathlib.Path(__file__).resolve().parents[1] / "models"

# 2x2 CARMA(2,0) reference instance: AR coefficients, four known right
# solvents forming two complete sets, and their residues.
A1 = np.array([[-11.0, 22.0], [-12.0, 21.0]])
A2 = np.array([[-42.0, 52.0], [-36.0, 44.0]])
R1 = np.array([[0.0, -1.0], [2.0, -3.0]])
R2 = np.array([[-3.0, -2.0], [0.0, -4.0]])
R3 = np.array([[-7.0, 6.0], [-3.0, 2.0]])
R4 = np.array([[-3.0, 0.5], [0.0, -2.0]])
RES1 = np.array([[1.0, -1.0], [-2.0, 3.0]])
RES2 = np.array([[-1.0, 1.0], [2.0, -3.0]])
RES3 = np.array([[8.0, -11.0], [6.0, -8.0]])
RES4 = np.array([[-8.0, 11.0], [-6.0, 8.0]])


@pytest.fixture(scope="session")
def example_poly():
    return matpoly.LambdaMatrix((np.eye(2), A1, A2))


@pytest.fixture(scope="session")
def example_model(example_poly):
    return mcarma.McarmaModel.build(
        example_poly,
        matpoly.LambdaMatrix((np.eye(2),)),
        np.eye(2),
    )


@pytest.fixture(scope="session")
def example_set_12(example_poly):
    return matpoly.certify_solvent_set(example_poly, [R1, R2])


@pytest.fixture(scope="session")
def example_set_34(example_poly):
    return matpoly.certify_solvent_set(example_poly, [R3, R4])


@pytest.fixture(scope="session")
def example_model_file():
    return str(MODELS_DIR / "carma2x2.json")


def _real_block_diag(roots):
    """Real matrix with the given conjugate-closed spectrum."""
    blocks = []
    used = [False] * len(roots)
    for i, lam in enumerate(roots):
        if used[i]:
            continue
        if abs(lam.imag) < 1e-12:
            blocks.append(np.array([[lam.real]]))
            used[i] = True
        else:
            j = next(k for k in range(len(roots))
                     if not used[k] and abs(roots[k] - lam.conjugate()) < 1e-12)
            blocks.append(np.array([[lam.real, lam.imag], [-lam.imag, lam.real]]))
            used[i] = used[j] = True
    out = np.zeros((len(roots), len(roots)))
    pos = 0
    for b in blocks:
        k = b.shape[0]
        out[pos:pos + k, pos:pos + k] = b
        pos += k
    return out


def _conjugate_closed_spectrum(rng, d):
    roots = []
    slots = d
    while slots > 0:
        if slots >= 2 and rng.random() < 0.4:
            re = -rng.uniform(0.3, 2.5)
            im = rng.uniform(0.3, 2.0)
            roots += [complex(re, im), complex(re, -im)]
            slots -= 2
        else:
            roots.append(complex(-rng.uniform(0.3, 2.5), 0.0))
            slots -= 1
    return roots


def random_stable_model(rng, d=None, p=None, q=None, min_sep=0.1):
    """Random stable MCARMA model with controlled eigenvalue separation.

    Solvents with prescribed conjugate-closed spectra are drawn first and
    the AR polynomial recovered from them; the prescribed spectrum is then
    cross-checked against the latent roots computed from the polynomial.
    """
    d = d if d is not None else int(rng.integers(1, 4))
    p = p if p is not None else int(rng.integers(1, 4))
    q = q if q is not None else int(rng.integers(0, p))
    for _ in range(500):
        spectra = [_conjugate_closed_spectrum(rng, d) for _ in range(p)]
        all_roots = [z for group in spectra for z in group]
        sep = min((abs(a - b) for i, a in enumerate(all_roots)
                   for b in all_roots[i + 1:]), default=np.inf)
        if sep < min_sep:
            continue
        mats = []
        for group in spectra:
            D = _real_block_diag(group)
            while True:
                basis = rng.standard_normal((d, d))
                if np.linalg.cond(basis) < 15:
                    break
            mats.append(basis @ D @ np.linalg.inv(basis))
        try:
            poly = matpoly.coeffs_from_solvent_matrices(mats)
        except matpoly.SingularVandermondeError:
            continue
        if max(np.max(np.abs(c.imag)) for c in poly.coeffs) > 1e-9:
            continue
        A = matpoly.LambdaMatrix(tuple(c.real for c in poly.coeffs))
        got = np.array([pr.root for pr in matpoly.latent_roots(A)])
        if matpoly.eig_multiset_distance(got, np.array(all_roots)) > 1e-7:
            continue
        b_coeffs = [rng.standard_normal((d, d)) for _ in range(q + 1)]
        b_coeffs[0] += 2.0 * np.eye(d)
        B = matpoly.LambdaMatrix(tuple(b_coeffs))
        ok, _ = rational.check_irreducible(A, B)
        if not ok:
            continue
        w = rng.standard_normal((d, d))
        sigma_L = w @ w.T / d + 0.1 * np.eye(d)
        return mcarma.McarmaModel.build(A, B, sigma_L)
    raise RuntimeError("could not draw a stable model")


def scalar_poly(*coeffs):
    return matpoly.LambdaMatrix(tuple(np.array([[c]], dtype=float) for c in coeffs))


def scalar_model(a_coeffs, b_coeffs, sigma=1.0):
    return mcarma.McarmaModel.build(
        scalar_poly(*a_coeffs), scalar_poly(*b_coeffs), np.array([[sigma]]))


def rescale_time(model, c):
    """The model with latent roots times c: A_i -> c^i A_i, B_j -> c^j B_j."""
    A = matpoly.LambdaMatrix(tuple(c ** i * a for i, a in enumerate(model.A.coeffs)))
    B = matpoly.LambdaMatrix(tuple(c ** j * b for j, b in enumerate(model.B.coeffs)))
    return mcarma.McarmaModel.build(A, B, model.sigma_L)


def rotate(model, Q):
    """The model in the coordinates Q Y, Q orthogonal, with its driver turned
    alike: A_i -> Q A_i Q^T, B_j -> Q B_j Q^T, Sigma_L -> Q Sigma_L Q^T."""
    A = matpoly.LambdaMatrix(tuple(Q @ a @ Q.T for a in model.A.coeffs))
    B = matpoly.LambdaMatrix(tuple(Q @ b @ Q.T for b in model.B.coeffs))
    return mcarma.McarmaModel.build(A, B, Q @ model.sigma_L @ Q.T)


def fresh(model):
    """A new model from the same coefficients, with nothing built yet."""
    return mcarma.McarmaModel.build(model.A, model.B, model.sigma_L)


@pytest.fixture(scope="session")
def corpus():
    """200 random stable models spanning d, p in {1,2,3}, separation >= 0.1."""
    rng = np.random.default_rng(20250810)
    models = []
    for i in range(200):
        d = [1, 2, 3][i % 3]
        p = [1, 2, 3][(i // 3) % 3]
        models.append(random_stable_model(rng, d=d, p=p))
    return models


HARD_CLASSES = ((4, 3), (5, 4), (6, 4), (4, 6), (8, 3))


@pytest.fixture(scope="session")
def hard_regime():
    """60 random stable models, 12 in each (d, p) of ``HARD_CLASSES``."""
    rng = np.random.default_rng(7)
    return [random_stable_model(rng, d=d, p=p) for d, p in HARD_CLASSES for _ in range(12)]


# the numpy.linalg functions that factor a matrix (cond by its own SVD)
LINALG_FACTORIZATIONS = ("cholesky", "cond", "det", "eig", "eigh", "eigvals", "eigvalsh",
                         "inv", "lstsq", "matrix_power", "pinv", "qr", "slogdet", "solve",
                         "svd")


@pytest.fixture
def linalg_calls(monkeypatch):
    """Calls of each ``numpy.linalg`` factorization made while the test runs,
    counted through wrappers on the ``np.linalg`` namespace."""
    calls = Counter()
    for name in LINALG_FACTORIZATIONS:
        def counted(*args, _fn=getattr(np.linalg, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


@pytest.fixture
def broken_fold(monkeypatch):
    """Scale the row of W = B^{-1} of the first conjugate pair's
    representative by 1 + 1e-6, which the fold of any model with a pair sees."""
    inverse = mcarma.Modes.W.func

    def perturbed(modes):
        W = inverse(modes).copy()
        W[np.flatnonzero(modes.roots.imag > 0)[0]] *= 1.0 + 1e-6
        return W

    monkeypatch.setattr(mcarma.Modes, "W", property(perturbed))

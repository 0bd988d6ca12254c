"""Seeded inputs: a corpus of random stable MCARMA models and model files.

The models are drawn from the same family as the test suite's
``random_stable_model``: solvents with prescribed, conjugate-closed, stable
spectra at pairwise distance >= ``min_sep``, the AR polynomial recovered from
them, a random MA polynomial with a shifted leading block, and a random
positive definite driver covariance.  The draw is regenerated here so that the
benchmark takes nothing from the tests but the recipe.
"""

import json

import numpy as np

from mcarma_ou import matpoly, mcarma, rational

# (d, p) classes visited round-robin, so every prefix of the corpus carries
# the same mix of cheap and expensive models.
CLASSES = [(d, p) for p in (1, 2, 3) for d in (1, 2, 3)]


def _real_block_diag(roots):
    """Real matrix with the given conjugate-closed spectrum."""
    out = np.zeros((len(roots), len(roots)))
    used = [False] * len(roots)
    pos = 0
    for i, lam in enumerate(roots):
        if used[i]:
            continue
        used[i] = True
        if abs(lam.imag) < 1e-12:
            out[pos, pos] = lam.real
            pos += 1
            continue
        j = next(k for k in range(len(roots))
                 if not used[k] and abs(roots[k] - lam.conjugate()) < 1e-12)
        used[j] = True
        out[pos:pos + 2, pos:pos + 2] = [[lam.real, lam.imag], [-lam.imag, lam.real]]
        pos += 2
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


def random_stable_model(rng, d, p, min_sep=0.1):
    """One stable MCARMA(p, q) model of dimension d, q drawn in 0..p-1."""
    q = int(rng.integers(0, p))
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
    raise RuntimeError(f"could not draw a stable model with d={d}, p={p}")


def corpus_from(rng, n_models):
    """``n_models`` models from ``rng``, (d, p) classes round-robin; with
    ``default_rng(20250810)`` this is the test suite's corpus."""
    return [random_stable_model(rng, *CLASSES[i % len(CLASSES)])
            for i in range(n_models)]


def write_model(path, model):
    """Write ``model`` as a CLI model file; ``json`` keeps floats exact."""
    doc = {
        "A": [c.real.tolist() for c in model.A.coeffs],
        "B": [c.real.tolist() for c in model.B.coeffs],
        "sigma_L": np.asarray(model.sigma_L).tolist(),
        "driver": {"kind": "brownian"},
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return str(path)

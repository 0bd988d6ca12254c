"""Strictly proper rational left matrix fractions F(z) = A(z)^{-1} B(z).

Provides the left-coprimeness (irreducibility) certificate, matrix residues
at the right solvents of A, and evaluation of the resulting block partial
fraction expansion ``F(z) = sum_k (z I - R_k)^{-1} Res_k``.

The residues come from the linear system

    stack(Res_1, ..., Res_p) = V(R_1, ..., R_p)^{-1} B*,   B* = [A#]^{-1} B#,

where ``A#`` is the unit lower block triangular Toeplitz matrix built from
the coefficients of A (its only eigenvalue is 1) and ``B#`` stacks the
coefficients of B under zero padding.  B* is found by forward block
substitution (``solve_sharp``).  It is also the input matrix of the state
space, which ``mcarma.build_state_space`` solves and certifies once per
model, so ``residues`` takes the stack itself.  A partial fraction is a
``matpoly.SolventSet`` with its (p, d, m) residue stack.
"""

from __future__ import annotations

import numpy as np

from . import matpoly, tolerances as tol
from .exceptions import PoleHitError, SingularVandermondeError


def check_irreducible(A, B, pairs=None):
    """Left-coprimeness rank test at every latent root of A.

    Returns ``(True, None)`` when ``[A(lam) | B(lam)]`` has full row rank d
    at each latent root lam, else ``(False, lam)`` for the first failure.
    Coprimeness can only fail on the spectrum of A, so checking the latent
    roots is exhaustive.  Each block is divided by its backward-error scale
    (``matpoly.backward_scale``), so rescaling time does not change the
    verdict.  One stacked SVD covers all roots.
    """
    if pairs is None:
        pairs = matpoly.latent_roots(A)
    d = A.order[0]
    roots = np.array([pr.root for pr in pairs])
    tiny = np.finfo(float).tiny  # a zero scale goes with an exactly zero block
    scale_a = np.maximum(matpoly.backward_scale(A.coeffs, roots), tiny)[:, None, None]
    scale_b = np.maximum(matpoly.backward_scale(B.coeffs, roots), tiny)[:, None, None]
    stacked = np.concatenate([A.eval(roots) / scale_a, B.eval(roots) / scale_b], axis=2)
    s = np.linalg.svd(stacked, compute_uv=False)
    # floor: at a common zero the whole stacked row vanishes and sigma_max
    # itself collapses, which the relative test alone misses; NaN fails
    failed = ~((s[:, 0] > tol.COPRIME_FLOOR) & (s[:, d - 1] > tol.COPRIME_RANK * s[:, 0]))
    if failed.any():
        return False, pairs[int(np.argmax(failed))].root
    return True, None


def sharp_matrices(A, B):
    """The pair (A#, B#) entering the residue linear system.

    A# has identity diagonal blocks and ``A_i`` on the i-th subdiagonal;
    B# is the pd x m stack ``(0, ..., 0, B_0, ..., B_q)``.
    """
    p = A.degree
    d = A.order[0]
    A_sharp = np.eye(p * d, dtype=complex)
    for i in range(1, p):
        for j in range(i):
            A_sharp[i * d:(i + 1) * d, j * d:(j + 1) * d] = A.coeffs[i - j]
    B_sharp = np.zeros((p * d, B.order[1]), dtype=complex)
    B_sharp[(p - 1 - B.degree) * d:] = B.coeffs.reshape(-1, B.order[1])
    return A_sharp, B_sharp


def solve_sharp(A, B):
    """Forward block substitution for ``A# X = B#`` (unit triangular, exact),
    reading the blocks of A# and B# from the coefficients."""
    p = A.degree
    X = np.zeros((p, *B.order), dtype=complex)  # block i of B#, then of X
    X[p - 1 - B.degree:] = B.coeffs
    for i in range(p):
        for j in range(i):
            X[i] -= A.coeffs[i - j] @ X[j]
    return X.reshape(-1, B.order[1])


def residues(B_star, S):
    """Matrix residues of ``A^{-1} B`` at the solvents of a certified SolventSet.

    Parameters
    ----------
    B_star : (pd, m) stack ``[A#]^{-1} B#``, e.g. ``model.statespace.B_star``
    S : matpoly.SolventSet

    Returns
    -------
    Read-only complex array (p, d, m): ``Res_k`` of ``S.matrices[k]``.
    """
    try:
        stacked = np.linalg.solve(S.V, B_star)
    except np.linalg.LinAlgError as err:
        raise SingularVandermondeError(str(err)) from None
    res = stacked.reshape(len(S), S.block_dim, -1)
    res.setflags(write=False)
    return res


def eval_partial_fraction(S, residues, lam):
    """Evaluate ``sum_k (lam I - R_k)^{-1} Res_k`` by one stacked solve.

    Raises
    ------
    PoleHitError
        If ``lam`` is within ``tol.POLE_GAP`` of a pole (a latent root ``S.roots``).
    """
    gap = np.min(np.abs(S.roots - lam))
    tol.certify(PoleHitError, "distance to a pole", gap, tol.POLE_GAP, at_least=True)
    shifted = lam * np.eye(S.block_dim, dtype=complex) - S.matrices
    return np.linalg.solve(shifted, residues).sum(axis=0)

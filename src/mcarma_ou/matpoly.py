"""Matrix polynomials (lambda-matrices) and their right solvents.

A lambda-matrix ``A(z) = A0 z^p + A1 z^(p-1) + ... + Ap`` with square blocks
admits matrix-valued "roots": right solvents ``R`` with
``A0 R^p + A1 R^(p-1) + ... + Ap = 0``.  A complete set of p regular right
solvents partitions the pd latent roots (zeros of ``det A(z)``) into p
disjoint spectra and is certified by a nonsingular block Vandermonde matrix.
This module computes latent roots through the block companion matrix, builds
solvents from grouped latent pairs, and recovers coefficients from a
complete solvent set.

With simple latent roots a solvent is fixed by its spectrum (Dennis, Traub
& Weber, SIAM J. Numer. Anal. 13 (1976)), so every ``SolventSet`` is built
by one route, ``solvents_from_latents``: each eigenbasis is the group of
latent pairs its solvent is built from.  Given matrices are certified by
matching their eigenvalues to latent roots and building the set of that
grouping.

All arithmetic is done in complex double precision; realness is certified
after the fact, never assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

from . import tolerances as tol
from .exceptions import (
    DefectiveCompanionError,
    DuplicateLatentRootError,
    IncompleteSetError,
    NonSquareError,
    SingularGroupError,
    SingularVandermondeError,
    SolventResidualError,
)


def _as_complex(mat):
    return np.ascontiguousarray(np.asarray(mat, dtype=complex))


def _readonly(arr):
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class LambdaMatrix:
    """Matrix polynomial ``A(z) = coeffs[0] z^p + ... + coeffs[p]``.

    ``coeffs`` is one read-only complex stack (p+1, d, m) of the blocks in
    order of decreasing power, copied from any sequence of equally shaped
    blocks or from a stack.  Instances are immutable.
    """

    coeffs: np.ndarray

    def __post_init__(self):
        if len({np.shape(c) for c in self.coeffs}) > 1:
            raise ValueError("all coefficients must share one shape")
        coeffs = np.array(self.coeffs, dtype=complex, order="C")
        if not len(coeffs):
            raise ValueError("a lambda-matrix needs at least one coefficient")
        if coeffs.ndim != 3:
            raise ValueError("coefficients must be 2-d matrices")
        object.__setattr__(self, "coeffs", _readonly(coeffs))

    @property
    def degree(self):
        return len(self.coeffs) - 1

    @property
    def order(self):
        return self.coeffs.shape[1:]

    @property
    def is_square(self):
        d, m = self.order
        return d == m

    @cached_property
    def monic(self):
        """True when square and the leading coefficient is the identity."""
        d, m = self.order
        if d != m:
            return False
        return bool(np.max(np.abs(self.coeffs[0] - np.eye(d))) <= tol.STRUCTURE)

    @cached_property
    def is_real(self):
        return bool(np.max(np.abs(self.coeffs.imag)) <= tol.STRUCTURE)

    def eval(self, lam):
        """Evaluate at a complex scalar by Horner's scheme; for an array of
        scalars, one matrix per entry along the leading axes."""
        lam = np.asarray(lam)[..., None, None]
        out = np.array(self.coeffs[0])
        for block in self.coeffs[1:]:
            out = out * lam + block
        return out

    def eval_right(self, Z):
        """Right-substitute a square matrix: ``A0 Z^p + A1 Z^(p-1) + ... + Ap``;
        for a stack of matrices (..., d, d), one result per matrix.

        Right substitution does not commute with scalar evaluation at
        eigenvalues of ``Z`` unless d = 1.

        Raises
        ------
        NonSquareError
            If the polynomial is not square.
        """
        if not self.is_square:
            raise NonSquareError(f"eval_right needs a square polynomial, order {self.order}")
        Z = _as_complex(Z)
        out = np.array(self.coeffs[0])
        for block in self.coeffs[1:]:
            out = out @ Z + block
        return out


@dataclass(frozen=True)
class LatentPair:
    """A latent root lam with its unit right latent vector (A(lam) vec = 0)."""

    root: complex
    vector: np.ndarray
    residual: float

    def __post_init__(self):
        object.__setattr__(self, "vector", _readonly(_as_complex(self.vector)))


@dataclass(frozen=True)
class SolventSet:
    """A complete set of p regular right solvents, held as read-only stacks.

    ``matrices`` (p, d, d) holds the solvents R_k, each with its eigenbasis
    ``R_k = P_k diag(spectrum_k) P_k^{-1}`` stacked as ``spectrum`` (p, d)
    and ``P``, ``P_inv`` (p, d, d): column j of ``P_k`` is the unit latent
    vector of root ``spectrum[k, j]``.  ``residual_norms`` (p,) are the
    ``||A_R(R_k)||_F`` and ``V`` the block Vandermonde matrix; ``residual``
    (of the largest norm) and ``cond_V`` are the ``tolerances.Check``
    records of their certificates.  A set is the paper's presentation of a
    grouping of the latent roots (``rational.residues`` and
    ``mcarma.decompose`` read it); no fit or path route does.
    Built only by ``solvents_from_latents``, which ``certify_solvent_set``
    calls for given matrices.
    """

    matrices: np.ndarray
    spectrum: np.ndarray
    P: np.ndarray
    P_inv: np.ndarray
    residual_norms: np.ndarray
    V: np.ndarray
    residual: tol.Check
    cond_V: tol.Check

    @property
    def roots(self):
        return self.spectrum.reshape(-1)

    @property
    def block_dim(self):
        return self.matrices.shape[1]

    def __len__(self):
        return self.matrices.shape[0]


def companion_matrix(A):
    """Block companion matrix of a monic square lambda-matrix.

    Shifted identity blocks above the diagonal and the row
    ``(-A_p, ..., -A_1)`` at the bottom; its spectrum equals the latent
    roots of ``A``.
    """
    if not A.monic:
        raise ValueError("companion matrix requires a monic lambda-matrix")
    p = A.degree
    d = A.order[0]
    if p < 1:
        raise ValueError("companion matrix requires degree >= 1")
    C = np.eye(p * d, k=d, dtype=complex)
    C[(p - 1) * d:] = -A.coeffs[:0:-1].swapaxes(0, 1).reshape(d, p * d)
    return C


def _norms(x, axis):
    """2-norms of ``x`` over ``axis`` (Frobenius norms over two axes):
    ``np.linalg.norm``'s own branch for them, bit for bit, without its dispatch."""
    return np.sqrt(np.add.reduce((x.conj() * x).real, axis=axis))


def backward_scale(coeffs, lam):
    """``sum_i ||P_i||_F |lam|^(deg - i)`` of the coefficient stack ``coeffs``
    (P_0 first) of a matrix polynomial P, which bounds the rounding of
    ``P(lam)`` and scales with it under ``P_i -> c^i P_i``, ``lam -> c lam``
    (Tisseur, Linear Algebra Appl. 309 (2000)); ``lam`` may be an array.
    It is ``np.polyval(np.linalg.norm(coeffs, axis=(1, 2)), np.abs(lam))``
    bit for bit: the same Horner steps from zero."""
    x = np.abs(lam)
    return reduce(lambda y, c: y * x + c, _norms(coeffs, (1, 2)), np.zeros_like(x))


def latent_roots(A):
    """Latent roots and right latent vectors of a monic lambda-matrix.

    Eigen-decomposes the block companion matrix; the latent vector is the
    leading d-block of each eigenvector, renormalized to unit 2-norm with a
    deterministic phase.  Pairs are sorted by (Re, Im) lexicographically,
    descending.

    Returns
    -------
    list of LatentPair, length p*d.

    Raises
    ------
    DefectiveCompanionError
        If the companion eigenvector matrix has condition number above
        ``tolerances.CONDITION``, or a latent pair residual exceeds its bound.
    """
    C = companion_matrix(A)
    d = A.order[0]
    vals, vecs = np.linalg.eig(C)
    tol.certify(DefectiveCompanionError, "cond(eigenvectors)", float(_cond(vecs)), tol.CONDITION)
    pairs = []
    for lam, vec, scale in zip(vals, vecs.T, backward_scale(A.coeffs, vals)):
        lead = vec[:d]
        norm = np.linalg.norm(lead)
        if norm == 0.0:
            raise DefectiveCompanionError("eigenvector with vanishing leading block")
        lead = lead / norm
        # fix the phase so output is reproducible across LAPACK builds
        k = int(np.argmax(np.abs(lead)))
        phase = lead[k] / abs(lead[k])
        lead = lead / phase
        res = float(np.linalg.norm(A.eval(lam) @ lead))
        tol.certify(DefectiveCompanionError, "latent residual", res, tol.LATENT_RESIDUAL * scale)
        pairs.append(LatentPair(complex(lam), lead, res))
    pairs.sort(key=lambda pr: (-pr.root.real, -pr.root.imag))
    return pairs


def _distinct_tol(roots):
    return tol.EIG_MATCH * (1.0 + max(abs(r) for r in roots))


def _cond(M):
    """2-norm condition number sigma_max / sigma_min of a matrix, or of each
    matrix of a stack, from one SVD; inf where sigma_min is 0 or the SVD fails."""
    try:
        s = np.linalg.svd(M, compute_uv=False)
    except np.linalg.LinAlgError:  # a non-finite entry
        return np.full(np.shape(M)[:-2], np.inf)
    smax, smin = s[..., 0], s[..., -1]
    if smin.all():
        return smax / smin
    return np.where(smin > 0, smax, np.inf) / np.where(smin > 0, smin, 1.0)


def default_grouping(pairs, d, conjugate_closed=True):
    """Partition pd latent pairs into p groups of size d.

    Greedy heuristic: walk the (already sorted) roots and place each one --
    together with its complex conjugate when ``conjugate_closed`` and a
    partner is available -- into the group that keeps the partially built
    latent-vector matrix best conditioned.  Conjugate pairs are only split
    when no group has two free slots, so the resulting solvents are real
    whenever the grouping allows it.

    Only a real choice is scored.  For d = 1 or p = 1 there is one grouping,
    returned directly.  Otherwise the candidates of a placement are the
    groups with room, counting only the first empty one (every empty group
    scores the same); a single candidate takes the roots unscored, and
    candidates of equal size are scored by one stacked SVD.
    """
    n = len(pairs)
    if n % d != 0:
        raise ValueError("number of latent pairs must be a multiple of d")
    p = n // d
    if d == 1 or p == 1:
        return [list(range(k * d, (k + 1) * d)) for k in range(p)]
    roots = [pr.root for pr in pairs]
    vectors = np.array([pr.vector for pr in pairs]).T  # column i is pair i's vector
    near = _distinct_tol(roots)
    groups = [[] for _ in range(p)]
    assigned = [False] * n

    def place(indices):
        cands, has_empty = [], False
        for g, members in enumerate(groups):
            if len(members) + len(indices) <= d and (members or not has_empty):
                cands.append(g)
                has_empty = has_empty or not members
        if not cands:
            return False
        best = cands[0]
        if len(cands) > 1:
            cols = [groups[g] + indices for g in cands]
            by_size = {}
            for a, c in enumerate(cols):
                by_size.setdefault(len(c), []).append(a)
            conds = [0.0] * len(cands)
            for at in by_size.values():
                stack = vectors[:, [cols[a] for a in at]].transpose(1, 0, 2)
                for a, cond in zip(at, _cond(stack).tolist()):
                    conds[a] = cond
            best_cond = conds[0]
            for g, cond in zip(cands[1:], conds[1:]):
                if cond < best_cond - tol.GROUPING_TIE:
                    best, best_cond = g, cond
        groups[best].extend(indices)
        for i in indices:
            assigned[i] = True
        return True

    for i in range(n):
        if assigned[i]:
            continue
        lam = roots[i]
        if conjugate_closed and abs(lam.imag) > near:
            partner = None
            for j in range(n):
                if j != i and not assigned[j] and abs(roots[j] - lam.conjugate()) < near:
                    partner = j
                    break
            if partner is not None and place([i, partner]):
                continue
        if not place([i]):
            raise SingularGroupError("grouping heuristic ran out of free slots")
    return [sorted(g) for g in groups]


def eig_multiset_distance(a, b):
    """Largest pairwise distance under the optimal matching of two
    eigenvalue multisets (robust against sort-order flips of near ties).

    When every point of one set lies within delta of the other set, both
    ways, and 2 delta is below the smallest separation of ``b``, matching
    each point to its nearest is a bijection that minimizes every distance
    on its own: delta is the answer and no assignment is solved.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        return np.inf
    cost = np.abs(a[:, None] - b[None, :])
    near = max(cost.min(axis=0).max(), cost.min(axis=1).max())
    gaps = np.abs(b[:, None] - b[None, :]) + np.diag(np.full(len(b), np.inf))
    if 2.0 * near < gaps.min():
        return float(near)
    import scipy.optimize

    rows, cols = scipy.optimize.linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


def _powers(mats, n):
    """``R_k^i`` for i = 0..n of a stack of matrices (p, d, d), indexed
    (i, k): one stacked product per power, ``R_k^i = R_k^(i-1) R_k``."""
    p, d = mats.shape[:2]
    out = np.empty((n + 1, p, d, d), dtype=complex)
    out[0] = np.eye(d)
    if n >= 1:
        out[1] = mats
    for i in range(2, n + 1):
        np.matmul(out[i - 1], mats, out=out[i])
    return out


def _block_vandermonde(powers):
    """Block matrix with block (i, k) = ``powers[i, k]``."""
    p, d = powers.shape[1:3]
    return powers.transpose(0, 2, 1, 3).reshape(p * d, p * d)


def _residual_norms(A, mats):
    """``||A_R(R_k)||_F`` of a stack of candidate solvents and the record of
    their certificate, ``<= tolerances.SOLVENT_RESIDUAL * max(1, ||A_p||_F)``."""
    scale = max(1.0, float(np.linalg.norm(A.coeffs[-1])))
    norms = np.linalg.norm(A.eval_right(mats), axis=(1, 2))
    return norms, tol.certify(SolventResidualError, "||A_R(R)||_F", norms,
                              tol.SOLVENT_RESIDUAL * scale)


def _certified_vandermonde(powers):
    """The block Vandermonde matrix of the p solvents whose ``_powers`` are
    ``powers`` (at least p of them), and the record of its condition number,
    certified at most ``tolerances.CONDITION``."""
    V = _block_vandermonde(powers[:powers.shape[1]])
    return V, tol.certify(SingularVandermondeError, "cond(V)", float(_cond(V)), tol.CONDITION)


def certify_solvent_set(A, mats):
    """Certify p candidate matrices as a complete set of regular right solvents.

    Certifies the right-substitution residuals against ``A``, matches each
    eigenvalue of the candidates to its nearest latent root, one to one, and
    builds the set of that grouping with ``solvents_from_latents``; each
    built solvent must equal its candidate to ``tolerances.EIG_MATCH``
    relative to ``||R_k||_F``.  Returns the built set, in the given order.

    Raises
    ------
    SolventResidualError, IncompleteSetError, and the errors of
    ``solvents_from_latents``
    """
    p = A.degree
    d = A.order[0]
    if len(mats) != p:
        raise IncompleteSetError(f"need {p} solvents, got {len(mats)}")
    if any(np.shape(R) != (d, d) for R in mats):
        raise IncompleteSetError("solvent block shape mismatch")
    mats = _as_complex(mats)
    _residual_norms(A, mats)
    pairs = latent_roots(A)
    roots = np.array([pr.root for pr in pairs])
    dist = np.abs(np.linalg.eigvals(mats)[..., None] - roots)  # (p, d, pd)
    index = dist.argmin(axis=-1)
    tol.certify(IncompleteSetError, "distance to the latent roots",
                np.take_along_axis(dist, index[..., None], -1), _distinct_tol(roots))
    if sorted(index.flat) != list(range(p * d)):
        raise IncompleteSetError("eigenvalues do not match the latent roots one to one")
    S = solvents_from_latents(A, pairs, np.sort(index, axis=1).tolist())
    tol.certify(SolventResidualError, "||built - given||_F",
                np.linalg.norm(S.matrices - mats, axis=(1, 2)),
                tol.EIG_MATCH * np.linalg.norm(mats, axis=(1, 2)))
    return S


def solvents_from_latents(A, pairs=None, grouping=None):
    """Build a certified SolventSet from grouped latent pairs.

    Group k of d latent pairs gives the eigenbasis of its solvent: the
    latent vectors are the columns of ``P_k`` and the roots its spectrum,
    so ``R_k = P_k diag(spectrum_k) P_k^{-1}``.  The spectra partition the
    latent roots by construction; the residuals and the block Vandermonde
    matrix are certified.

    Parameters
    ----------
    A : LambdaMatrix
        Monic square polynomial the solvents belong to.
    pairs : list of LatentPair, optional
        Defaults to ``latent_roots(A)``.
    grouping : list of p index lists of size d, optional
        Defaults to the greedy grouping, conjugate-closed for a real A, or
        without closure where a pair's parallel latent vectors (real up to
        a phase, as for a decoupled coordinate) make a P_k singular.

    Raises
    ------
    DuplicateLatentRootError, SingularGroupError, SolventResidualError,
    SingularVandermondeError
    """
    if pairs is None:
        pairs = latent_roots(A)
    d = A.order[0]
    p = A.degree
    roots = np.array([pr.root for pr in pairs])
    gaps = np.abs(np.subtract.outer(roots, roots))
    gaps[np.tril_indices(len(roots))] = np.inf  # each pair once
    tol.certify(DuplicateLatentRootError, "root gap", gaps, _distinct_tol(roots), at_least=True)
    retry = grouping is None and A.is_real
    if grouping is None:
        grouping = default_grouping(pairs, d, conjugate_closed=A.is_real)
    if len(grouping) != p or sorted(i for g in grouping for i in g) != list(range(p * d)):
        raise ValueError("grouping must partition the latent pairs into p groups of d")
    if any(len(group) != d for group in grouping):
        raise ValueError("every group must have exactly d latent pairs")
    index = np.array(grouping)
    vectors = np.array([pr.vector for pr in pairs])
    P = np.ascontiguousarray(vectors[index].swapaxes(1, 2))  # columns: the group's vectors
    conds = _cond(P)
    if retry and not conds.max() <= tol.GROUP_CONDITION:
        index = np.array(default_grouping(pairs, d, conjugate_closed=False))
        P = np.ascontiguousarray(vectors[index].swapaxes(1, 2))
        conds = _cond(P)
    tol.certify(SingularGroupError, "cond(P_k)", conds, tol.GROUP_CONDITION)
    spectrum = roots[index]
    P_inv = np.linalg.inv(P)
    mats = (P * spectrum[:, None, :]) @ P_inv
    residual_norms, residual = _residual_norms(A, mats)
    V, cond_V = _certified_vandermonde(_powers(mats, p - 1))
    stacks = (mats, spectrum, P, P_inv, residual_norms, V)
    return SolventSet(*(_readonly(a) for a in stacks), residual, cond_V)


def coeffs_from_solvent_matrices(mats):
    """Monic lambda-matrix with the given complete solvent set.

    Implements the block Vandermonde inversion
    ``[A_p, ..., A_1] = -[R_1^p, ..., R_p^p] V^{-1}`` without certifying the
    solvents; pass ``S.matrices`` of a certified SolventSet for the
    certified route.  V is certified as ``_certified_vandermonde`` does.
    """
    mats = _as_complex(mats)
    p, d = mats.shape[:2]
    powers = _powers(mats, p)
    V, _ = _certified_vandermonde(powers)
    row = powers[p].transpose(1, 0, 2).reshape(d, p * d)
    coeffs = np.empty((p + 1, d, d), dtype=complex)
    coeffs[0] = np.eye(d)
    # the solve gives the row [A_p, ..., A_1]; its blocks, reversed, follow I
    coeffs[:0:-1] = -np.linalg.solve(V.T, row.T).T.reshape(d, p, d).swapaxes(0, 1)
    return LambdaMatrix(coeffs)

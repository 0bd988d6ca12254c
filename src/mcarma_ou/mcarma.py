"""MCARMA models, their state space form, their modes, and the OU-sum decomposition.

A d-dimensional MCARMA(p, q) process driven by a zero-mean, square
integrable Levy process solves the state space system

    Y(t) = C* X(t),   dX(t) = A* X(t) dt + B* dL(t),

with the block companion A*, C* = (I, 0, ..., 0) and B* obtained from a
backward recursion in the AR and MA coefficients.  With simple latent roots
lam_a and unit latent vectors x_a, ``A(lam_a) x_a = 0``, the columns of the
modal basis ``B = col(X diag(lam)^i)_{i<p}``, ``X = (x_1, ..., x_pd)``, are
the eigenvectors of A* (``A* B = B diag(lam)``), so the process is a sum of
pd complex OU processes, one per latent root:

    Y(t) = X z(t),   dz_a(t) = lam_a z_a(t) dt + (W B*)_a dL(t),

with the modal residues ``W B* = B^{-1} B*``.  Its law depends on lam, X,
W B* and Sigma_L alone.  With ``K = W B* Sigma_L (W B*)^H``,
``z_ab = lam_a + conj(lam_b)`` and elementwise products ``o``,

    kernel(t) = C* e^{t A*} B* = Re X diag(e^{t lam}) W B*,
    gamma(l) = Re X diag(e^{l lam}) G X^H,   Pi = Re B G B^H,   G = K o (-1/z),
    Q_h = int_0^h e^{u A*} B* Sigma_L B*^T e^{u A*^T} du = Re B [K o expm1(h z)/z] B^H

are the kernel, the stationary autocovariance, the stationary state
covariance and the innovation covariance of one step h.  A ``McarmaModel``
keeps these ``Modes`` once, on first use, next to its state space, and
every fit and path route reads them (``stationary_acvf``, ``kernel``,
``sampling`` and ``sim``), so none depends on how the roots are grouped.

Grouping the roots into p right solvents R_k with residues Res_k gives the
paper's presentation, the sum of p matrix-valued OU processes

    Y_k(t) = e^{R_k t} Y_k(0) + int_0^t e^{R_k (t-u)} Res_k dL(u),

which ``decompose`` certifies through the similarity transform
T = V(R_1, ..., R_p).  An ``OuDecomposition`` holds the pairs (R_k, Res_k),
as a solvent set and its residue stack (``rational.residues`` of the state
space's B*), and an initial state x0 with its component initials;
``component_gramians`` gives their OU Gramians.  They serve the paper's
outputs, the ``solvents`` and ``decompose`` commands and a user grouping
(a path reads only x0); with the eigenbases ``R_k = P_k diag(lam_k)
P_k^{-1}`` of the default solvents, ``B = T blkdiag(P_k)``, and the modes
read ``W B* = blkdiag(P_k^{-1}) Res`` off the default decomposition.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import matpoly, rational, tolerances as tol
from .exceptions import (
    CholeskyFailError,
    ImaginaryLeakError,
    NotIrreducibleError,
    NotStationaryError,
    SharpIdentityError,
    SylvesterSingularError,
)

log = logging.getLogger(__name__)


def _real_psd(mat, name):
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"{name} must be square")
    if not np.max(np.abs(mat - mat.T)) <= tol.INPUT_COVARIANCE * max(1.0, np.max(np.abs(mat))):
        raise ValueError(f"{name} must be symmetric")
    if not np.min(np.linalg.eigvalsh(mat)) >= -tol.INPUT_COVARIANCE:
        raise ValueError(f"{name} must be positive semidefinite")
    return 0.5 * (mat + mat.T)


@dataclass(frozen=True)
class McarmaModel:
    """AR polynomial, MA polynomial and driving covariance of an MCARMA(p, q).

    The driver is assumed zero-mean with ``Var L(1) = sigma_L``; models with
    a nonzero driver mean are rejected at validation.  ``stationary`` holds
    iff every latent root of A has strictly negative real part.
    ``statespace``, the ``modes``, the default ``solvent_set()`` and the
    decomposition along it (what ``decompose(model, model.solvent_set())``
    returns) are built on first use and kept; a failing certificate keeps
    nothing and raises again on the next use.  Building that decomposition
    logs its seconds at DEBUG.
    """

    A: matpoly.LambdaMatrix
    B: matpoly.LambdaMatrix
    sigma_L: np.ndarray
    latent_pairs: tuple
    stationary: bool

    @classmethod
    def build(cls, A, B, sigma_L, mean_L=None):
        if not A.monic:
            raise ValueError("AR polynomial must be monic")
        if not (A.is_real and B.is_real):
            raise ValueError("model coefficients must be real")
        p, q = A.degree, B.degree
        if not p > q >= 0:
            raise ValueError(f"need p > q >= 0, got p={p}, q={q}")
        if B.order[0] != A.order[0]:
            raise ValueError("A and B must share their row dimension")
        m = B.order[1]
        sigma_L = _real_psd(sigma_L, "sigma_L")
        if sigma_L.shape[0] != m:
            raise ValueError("sigma_L dimension must match the MA column count")
        if mean_L is not None and np.max(np.abs(np.asarray(mean_L, dtype=float))) > 0.0:
            raise ValueError("nonzero-mean drivers are not supported")
        pairs = tuple(matpoly.latent_roots(A))
        stationary = all(pr.root.real < 0.0 for pr in pairs)
        sigma_L.setflags(write=False)
        return cls(A, B, sigma_L, pairs, stationary)

    @property
    def p(self):
        return self.A.degree

    @property
    def q(self):
        return self.B.degree

    @property
    def d(self):
        return self.A.order[0]

    @property
    def m(self):
        return self.B.order[1]

    @property
    def latent_root_values(self):
        return np.array([pr.root for pr in self.latent_pairs])

    def solvent_set(self, grouping=None):
        """The kept default solvent set, or a new one of ``grouping``."""
        if grouping is None:
            return self._default_solvent_set
        return matpoly.solvents_from_latents(self.A, list(self.latent_pairs), grouping)

    @cached_property
    def _default_solvent_set(self):
        return matpoly.solvents_from_latents(self.A, list(self.latent_pairs))

    @cached_property
    def statespace(self):
        return build_state_space(self)

    @cached_property
    def modes(self):
        return _modes(self)

    @cached_property
    def _default_decomposition(self):
        start = time.perf_counter()
        decomp = _decompose(self, self._default_solvent_set)
        log.debug("default decomposition: d=%d, p=%d, %.6f s", self.d, self.p,
                  time.perf_counter() - start)
        return decomp


@dataclass(frozen=True)
class StateSpace:
    """State space matrices (A*, B*, C*) with the sharp pair (A#, B#).

    ``sharp_identity`` is the ``tolerances.Check`` record of the certificate
    A# B* = B# (see ``build_state_space``).
    """

    A_star: np.ndarray
    B_star: np.ndarray
    C_star: np.ndarray
    A_sharp: np.ndarray
    B_sharp: np.ndarray
    sharp_identity: tol.Check

    @property
    def dim(self):
        return self.A_star.shape[0]


def build_state_space(model):
    """Assemble (A*, B*, C*, A#, B#) of a ``McarmaModel`` (kept as
    ``model.statespace``), once A^{-1} B is certified left coprime, and
    certify the identity A# B* = B#.

    Left coprimeness is ``rational.check_irreducible`` over the model's
    latent roots; a failure raises ``NotIrreducibleError`` naming the root
    where ``[A(lam) | B(lam)]`` loses rank.  B* is solved by forward
    substitution on A# (``rational.solve_sharp``), so the identity is exact
    up to rounding.  It is certified as
    ``max|A# B* - B#| <= tolerances.SHARP_IDENTITY * max(|A#| |B*|)`` with absolute
    values taken elementwise: the rounding error of a computed product is
    bounded by a multiple of the unit roundoff times ``|A#| |B*|`` (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., section 3.5), so
    the certificate does not depend on the scale of the coefficients.  A
    violation raises ``SharpIdentityError``.
    """
    A, B = model.A, model.B
    ok, witness = rational.check_irreducible(A, B, model.latent_pairs)
    if not ok:
        raise NotIrreducibleError(f"rank deficiency at latent root {witness}")
    p, d = model.p, model.d
    A_star = matpoly.companion_matrix(A).real
    B_star = rational.solve_sharp(A, B).real
    C_star = np.zeros((d, p * d))
    C_star[:, :d] = np.eye(d)
    A_sharp, B_sharp = rational.sharp_matrices(A, B)
    A_sharp, B_sharp = A_sharp.real, B_sharp.real
    err = float(np.max(np.abs(A_sharp @ B_star - B_sharp)))
    bound = tol.SHARP_IDENTITY * float(np.max(np.abs(A_sharp) @ np.abs(B_star)))
    sharp_identity = tol.certify(SharpIdentityError, "max|A# B* - B#|", err, bound)
    for arr in (A_star, B_star, C_star, A_sharp, B_sharp):
        arr.setflags(write=False)
    return StateSpace(A_star, B_star, C_star, A_sharp, B_sharp, sharp_identity)


@dataclass(frozen=True)
class Modes:
    """The modes of a model, one complex OU mode per latent root.

    ``roots`` (pd,) and the unit latent vectors ``X`` (d, pd) in the order
    of the default solvent set, the modal basis ``B``, the modal residues
    ``residues = W B*`` (pd, m) (module docstring) and the model's
    ``sigma_L``, all read-only; the default set certifies the roots pairwise
    apart (``matpoly.solvents_from_latents``).  Built on first use and kept
    (a failing certificate keeps nothing): ``W = B^{-1}``, the stationary G
    and ``G X^H`` with gamma(0) certified, the factor of Pi and the
    ``modal_form`` of ``sim.simulate``, whose build logs one line at DEBUG.
    """

    roots: np.ndarray
    X: np.ndarray
    B: np.ndarray
    residues: np.ndarray
    sigma_L: np.ndarray

    @cached_property
    def W(self):
        """``B^{-1}``, read-only: row a maps a state to mode a."""
        return matpoly._readonly(np.linalg.inv(self.B))

    @cached_property
    def _residues_sigma(self):
        """``[W B*, W B* sigma_L]`` side by side (pd, 2m), read-only, so that
        ``sampling.noise_acvf`` forms its kernels k_r and k_r sigma_L in one
        product."""
        return matpoly._readonly(np.hstack([self.residues, self.residues @ self.sigma_L]))

    @cached_property
    def _stationary_gramian(self):
        """G, the stationary ``_gramian`` of the model's ``sigma_L``, read-only."""
        return matpoly._readonly(_gramian(self.residues, self.sigma_L, self.roots, np.inf))

    @cached_property
    def _stationary(self):
        """``G X^H`` (pd, d), kept once ``gamma(0) = Re X G X^H`` is certified
        symmetric PSD: its asymmetry below ``tolerances.ACVF_ASYMMETRY`` and
        its least eigenvalue above ``-tolerances.PSD_FLOOR * max(1, trace)``."""
        modal = self._stationary_gramian @ self.X.conj().T
        sums, scales = _modal_sum(self, [0.0], modal)
        g0 = _real(sums, scales, "ACVF imaginary part")[0]
        tol.certify(ImaginaryLeakError, "gamma(0) asymmetry", np.max(np.abs(g0 - g0.T)),
                    tol.ACVF_ASYMMETRY * scales[0])
        tol.certify(ImaginaryLeakError, "gamma(0) min eig",
                    np.min(np.linalg.eigvalsh(0.5 * (g0 + g0.T))),
                    -tol.PSD_FLOOR * max(1.0, np.trace(g0)), at_least=True)
        return matpoly._readonly(modal)

    def gramian(self, h):
        """Real pd x pd covariance ``int_0^h e^{u A*} B* sigma_L B*^T e^{u A*^T}
        du`` of the state innovation over one step h, ``Re B [K o expm1(h
        z)/z] B^H`` (``_gramian``); for h = inf, Pi from the kept G: the one
        place both are formed."""
        G = (self._stationary_gramian if np.isinf(h)
             else _gramian(self.residues, self.sigma_L, self.roots, h))
        return (self.B @ G @ self.B.conj().T).real

    @cached_property
    def stationary_state_factor(self):
        """``psd_factor`` of the stationary state covariance ``gramian(inf)``, read-only."""
        return matpoly._readonly(psd_factor(self.gramian(np.inf), "stationary state covariance"))

    @cached_property
    def modal_form(self):
        """The certified ``ModalForm`` of these modes."""
        start = time.perf_counter()
        form = _modal_form(self)
        log.debug("modal form: pd=%d (%d real, %d pairs), fold %.3e, %.6f s",
                  self.roots.size, form.real_roots.size, form.pair_roots.size,
                  form.fold.measured, time.perf_counter() - start)
        return form


def _modes(model):
    """The ``Modes`` of a model off its default decomposition, whose residues
    give ``W B* = blkdiag(P_k^{-1}) Res`` without a solve with B (some MA
    fits at p = 6, h <= 0.05 flip with the rounding of W B*)."""
    decomp = model._default_decomposition
    S = decomp.solvent_set
    (p, d), lam = S.P.shape[:2], S.roots
    X = S.P.transpose(1, 0, 2).reshape(d, p * d)
    B = (X * (lam ** np.arange(p)[:, None])[:, None, :]).reshape(lam.size, lam.size)
    residues = (S.P_inv @ decomp.residues).reshape(p * d, -1)
    return Modes(*map(matpoly._readonly, (lam, X, B, residues)), model.sigma_L)


@dataclass(frozen=True)
class OuDecomposition:
    """Certified OU-sum representation of an MCARMA model along a solvent set.

    Component k is R_k = ``solvent_set.matrices[k]`` with the read-only
    ``residues[k]`` and ``y0[k]``, stacked (p, d, m) and (p, d).
    ``transform`` is the block Vandermonde T with A* = T diag(R_k) T^{-1},
    B* = T stack(Res_k) and C* T = (I, ..., I); the initial values satisfy
    the realness constraint T stack(Y_k(0)) in R^{pd}.
    ``similarity`` is the ``tolerances.Check`` record of that certificate
    (see ``decompose``).  The fit and path routes read the model's
    ``modes``, which the model reads off its default decomposition; a path
    reads only the read-only ``x0`` it was given (zeros without one).
    """

    model: McarmaModel
    statespace: StateSpace
    solvent_set: matpoly.SolventSet
    residues: np.ndarray
    y0: np.ndarray
    x0: np.ndarray
    similarity: tol.Check

    @property
    def p(self):
        return len(self.solvent_set)

    @property
    def d(self):
        return self.solvent_set.block_dim

    @property
    def transform(self):
        return self.solvent_set.V


def decompose(model, S, x0=None):
    """Split an MCARMA model into p OU components along a solvent set.

    Along the model's kept default set ``model.solvent_set()`` without x0,
    this is the decomposition the model keeps.  Otherwise the state space is
    the model's, read first; the residues (from its B*), the similarity
    certificate and y0 are formed here.

    The similarity certificate judges ``A* T - T diag(R_k)``, ``B* - T
    stack(Res_k)`` and ``C* T - (I, ..., I)`` elementwise against the
    rounding of their products (Higham, section 3.5), so rescaling time
    does not change its verdict.

    Parameters
    ----------
    model : McarmaModel
    S : matpoly.SolventSet
        Certified solvent set of the AR polynomial.
    x0 : real state vector of length p*d, optional
        Initial state; the component initials are the blocks of T^{-1} x0,
        which satisfies the realness constraint by construction, certified
        to ``tolerances.INIT_LEAK`` of ``max(1, |T| |y0|)``.  Without x0 they are
        zero, which needs neither the solve nor the certificate.

    Raises
    ------
    NotIrreducibleError
        When A and B fail the left-coprimeness certificate.
    ImaginaryLeakError
        When the similarity or the initial state fails its certificate.
    """
    # vars(): a set that is not the kept default builds no default
    if x0 is None and S is vars(model).get("_default_solvent_set"):
        return model._default_decomposition
    return _decompose(model, S, x0)


def _relative(residual, scale):
    """Largest ``|residual| / scale`` elementwise; a zero scale, where the
    exact products vanish, leaves only a zero residual at zero."""
    return np.max(np.abs(residual) / np.maximum(scale, np.finfo(float).tiny))


def _decompose(model, S, x0=None):
    ss = model.statespace
    residues = rational.residues(ss.B_star, S)
    T = S.V
    p, d = model.p, model.d
    if x0 is None:
        x0, y0 = np.zeros(p * d), np.zeros(p * d, dtype=complex)
    else:
        x0 = np.array(x0, dtype=float)
        if x0.shape != (p * d,) or not np.isfinite(x0).all():
            raise ValueError(f"x0 must be {p * d} finite values")
        y0 = np.linalg.solve(T, x0.astype(complex))
        leak = np.max(np.abs((T @ y0).imag))
        bound = tol.INIT_LEAK * max(1.0, float(np.max(np.abs(T) @ np.abs(y0))))
        tol.certify(ImaginaryLeakError, "initial-state imaginary part", leak, bound)
    # A* T = T diag(R_k), block column by block column: A* T_k = T_k R_k
    columns = T.reshape(p * d, p, d).swapaxes(0, 1)
    abs_columns, stacked = np.abs(columns), residues.reshape(p * d, -1)
    parts = [_relative(ss.A_star @ columns - columns @ S.matrices,
                       np.abs(ss.A_star) @ abs_columns + abs_columns @ np.abs(S.matrices)),
             _relative(ss.B_star - T @ stacked, np.abs(T) @ np.abs(stacked)),
             _relative(ss.C_star @ T - np.hstack([np.eye(d)] * p), np.abs(ss.C_star) @ np.abs(T))]
    worst = np.array(parts).max()  # a NaN propagates
    similarity = tol.certify(ImaginaryLeakError, "similarity residual", worst, tol.SIMILARITY)

    y0, x0 = map(matpoly._readonly, (y0.reshape(p, d), x0))
    return OuDecomposition(model, ss, S, residues, y0, x0, similarity)


@dataclass(frozen=True)
class ModalForm:
    """The OU sum in real modal coordinates, one mode per conjugate pair.

    The modes of a real state x are ``z = W x`` with ``W = B^{-1}`` of the
    modal basis B (``Modes``), which diagonalizes A* into the latent roots;
    B maps them back.  A real mode is real once its row of W is scaled to
    real by the phase of its largest entry and its column of B scaled back.
    The two modes of a conjugate pair are conjugate for a real x, so one
    representative (Im lam > 0) carries both: ``B_i z_i + B_j z_j = 2 Re(B_i
    z_i)``.  So the fold is one real change of basis, two pd x pd matrices:

    - ``to_modes`` stacks the scaled rows of W of the r real modes, then the
      real and then the imaginary parts of the representatives' rows, so
      ``to_modes @ x = [u; Re v; Im v]`` holds the real modes u and the
      pairs' modes v;
    - ``from_modes`` stacks the matching scaled columns of B, then ``2 Re``
      and ``-2 Im`` of the representatives' columns, so ``x = from_modes @
      [u; Re v; Im v]`` and its first d rows read out ``Y = C* x``.

    ``real_roots`` (``Re lam``, float) and ``pair_roots`` (complex) are the
    roots of u and v, all four arrays read-only; ``split``, ``pack`` and
    ``groups`` own the packed layout.  A real mode is a root
    within ``matpoly._distinct_tol`` of its own conjugate, the test of
    ``matpoly.default_grouping``; each representative is matched one to one
    with its nearest conjugate.  ``fold`` is the ``tolerances.Check`` record
    of what folding drops, certified at most ``tolerances.PATH_LEAK``: the
    larger of the elementwise residual of ``from_modes @ to_modes - I`` over
    ``|B| |W|`` (the rounding of the product, Higham section 3.5) and
    ``max|Im lam|`` of the real modes over ``max|lam|``.

    ``step`` holds ``sim.simulate``'s one step entry, under the last (h,
    min(n_steps - 1, sim.CHUNK)): the read-only transfer stacks and, once a
    Brownian path formed them, the rows ``to_modes @ F`` (F a factor of
    ``Modes.gramian(h)``), for the next path.
    """

    real_roots: np.ndarray
    pair_roots: np.ndarray
    to_modes: np.ndarray
    from_modes: np.ndarray
    fold: tol.Check
    step: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def groups(self):
        """The roots of the non-empty groups of modes, the real modes (float)
        first; an empty group would only add numpy calls per chunk."""
        return [r for r in (self.real_roots, self.pair_roots) if r.size]

    def split(self, packed):
        """The non-empty groups of modes of a packed real product such as
        ``to_modes @ x``, whose rows are [u; Re v; Im v]: the real modes u in
        float, then the pairs' modes v in complex."""
        r, k = self.real_roots.size, self.pair_roots.size
        groups = [packed[:r]] if r else []
        if k:
            v = np.empty((k, *packed.shape[1:]), dtype=complex)
            v.real, v.imag = packed[r:r + k], packed[r + k:]
            groups.append(v)
        return groups

    @staticmethod
    def pack(groups):
        """The rows [u; Re v; Im v] of the groups' modes, as ``split`` reads them."""
        return np.concatenate([part for g in groups
                               for part in ((g.real, g.imag) if np.iscomplexobj(g) else (g,))])


def _modal_form(modes):
    """Split the modes into real ones and conjugate pairs, and certify the fold."""
    lam, W, B = modes.roots, modes.W, modes.B
    near = matpoly._distinct_tol(lam)
    real = np.flatnonzero(np.abs(lam.imag) <= near)
    upper, lower = np.flatnonzero(lam.imag > near), np.flatnonzero(lam.imag < -near)
    gaps = np.abs(lam[upper, None] - lam[lower].conj())
    if upper.size != lower.size or upper.size and (
            np.unique(gaps.argmin(axis=1)).size < upper.size
            or not gaps.min(axis=1).max() < near):
        raise ImaginaryLeakError("complex latent roots do not pair with their conjugates")
    rows = W[real]
    top = rows[np.arange(real.size), np.abs(rows).argmax(axis=1)]
    phase = top / np.abs(top)
    pair_rows, pair_cols = W[upper], 2.0 * B[:, upper]
    to_modes = np.concatenate([(rows / phase[:, None]).real, pair_rows.real, pair_rows.imag])
    from_modes = np.hstack([(B[:, real] * phase).real, pair_cols.real, -pair_cols.imag])
    drift = np.max(np.abs(lam[real].imag), initial=0.0) / max(np.max(np.abs(lam)),
                                                                np.finfo(float).tiny)
    residual = _relative(from_modes @ to_modes - np.eye(lam.size), np.abs(B) @ np.abs(W))
    fold = tol.certify(ImaginaryLeakError, "modal fold residual", max(residual, drift),
                       tol.PATH_LEAK)
    return ModalForm(*map(matpoly._readonly, (lam[real].real, lam[upper], to_modes,
                                              from_modes)), fold)


def psd_factor(mat, what):
    """The symmetric PSD square root ``V diag(sqrt(vals)) V^T`` of a (nearly)
    PSD matrix, from one ``eigh``: unlike Cholesky or ``V diag(sqrt(vals))``
    it moves continuously with ``mat``, near-zero eigenvalues included.
    Eigenvalues down to ``-tolerances.PSD_CLIP * max|eig|`` are rounding,
    clipped and logged at DEBUG; anything more negative aborts, so ``c *
    mat`` passes or fails as ``mat`` does; a non-finite entry aborts first."""
    if not np.isfinite(mat).all():
        raise CholeskyFailError(f"{what} has non-finite entries")
    vals, vecs = np.linalg.eigh(0.5 * (mat + mat.T))
    tol.certify(CholeskyFailError, f"{what} min eig", np.min(vals),
                -tol.PSD_CLIP * float(np.max(np.abs(vals))), at_least=True)
    if np.min(vals) < 0.0:
        log.debug("clipping %s eigenvalues at %.3e", what, np.min(vals))
    return (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.T


def _gramian(M, sigma_L, roots, h):
    """``(M sigma_L M^H) o w``, the modal coefficients of an OU Gramian over
    [0, h] of modes ``roots`` with residues M: ``w_ab = int_0^h e^{u z_ab} du``
    for ``z_ab = roots_a + conj(roots_b)``, that is ``expm1(h z) / z`` (``h``
    where z = 0), or ``-1/z`` for h = inf.  ``expm1`` keeps the small-h and
    near-collision weights accurate to rounding, where forming ``e^{h z} -
    1`` would cancel.

    Raises
    ------
    SylvesterSingularError
        For h = inf, if some z is within ``tolerances.SYLVESTER_GAP`` of zero
        (the integral diverges).
    """
    z = roots[:, None] + roots.conj()
    if np.isinf(h):
        tol.certify(SylvesterSingularError, "min|z|", np.min(np.abs(z)), tol.SYLVESTER_GAP,
                    at_least=True)
        w = -1.0 / z
    else:
        zero = z == 0
        w = np.where(zero, h, np.expm1(h * z) / np.where(zero, 1.0, z))
    return (M @ sigma_L @ M.conj().T) * w


def component_gramians(S, residues, sigma_L, h=np.inf):
    """The p x p OU Gramians ``int_0^h e^{u R_i} Res_i Sigma_L Res_j^H
    e^{u R_j^H} du`` of all pairs of a solvent set, stacked (p, p, d, d) by
    (i, j): ``P_i G_ij P_j^H``, with G the ``_gramian`` of the stacked modal
    residues ``P_k^{-1} Res_k`` in blocks.

    For finite h they are the cross covariances Sigma_{i,j}^{(h)} of the
    components' innovations over one sampling step; for h = inf, those of
    the stationary components.
    """
    p, d = S.P.shape[:2]
    modal = (S.P_inv @ np.asarray(residues)).reshape(p * d, -1)
    G = _gramian(modal, sigma_L, S.spectrum.ravel(), h).reshape(p, d, p, d).swapaxes(1, 2)
    return S.P[:, None] @ G @ S.P.conj().swapaxes(1, 2)


def _modal_sum(modes, times, right):
    """``X diag(e^{t lam}) right`` at every t of ``times``, complex
    (len(times), d, cols), and per t the largest entry of its terms
    ``x_a e^{t lam_a} right_a``, at least 1."""
    scales = np.exp(np.multiply.outer(np.asarray(times, dtype=float), modes.roots))
    top = np.abs(modes.X).max(axis=0) * np.abs(right).max(axis=1)
    return (modes.X * scales[:, None, :]) @ right, (np.abs(scales) * top).max(axis=1, initial=1.0)


def _real(sums, scales, what):
    """The real part of ``_modal_sum`` sums, each imaginary part, ``what``,
    certified below ``tolerances.IMAG_LEAK`` of its sum's largest term (the
    exact sum is real only up to roundoff amplified by the term magnitudes)."""
    tol.certify(ImaginaryLeakError, what, np.abs(sums.imag).max(axis=(1, 2), initial=0.0),
                tol.IMAG_LEAK * scales)
    return sums.real.copy()


def kernel(decomp, t):
    """Kernel ``C* e^{A* t} B* = Re X diag(e^{t lam}) W B*`` of the OU sum,
    (d, m) at each time t >= 0 of ``t``, from the model's ``modes``.

    Equals ``sum_k e^{t R_k} Res_k`` of any solvent set; the identities are
    exercised by the verification suite rather than recomputed here.  The
    imaginary part is certified below ``tolerances.IMAG_LEAK`` of the largest
    term and stripped.
    """
    t = np.asarray(t, dtype=float)
    if not ((t >= 0) & (t < np.inf)).all():
        raise ValueError(f"kernel is defined for finite t >= 0, got {t}")
    modes = decomp.model.modes
    out = _real(*_modal_sum(modes, t.ravel(), modes.residues), "kernel imaginary part")
    return out.reshape(t.shape + out.shape[1:])


def stationary_acvf(decomp, lags):
    """Stationary autocovariance ``gamma(l) = Re X diag(e^{l lam}) G X^H``,
    ``G = K o (-1/z)`` (module docstring), from the model's ``modes``.

    The modes keep ``G X^H``, with ``gamma(0)`` certified symmetric PSD when
    it is built; each call forms the lags as one modal product.

    Parameters
    ----------
    decomp : OuDecomposition
    lags : iterable of finite nonnegative reals

    Returns
    -------
    real stack (len(lags), d, d), one matrix per lag, each certified real
    before the imaginary part is stripped.

    Raises
    ------
    NotStationaryError
        If some latent root does not lie in the open left half-plane.
    """
    if not decomp.model.stationary:
        raise NotStationaryError("stationary ACVF needs all latent roots with Re < 0")
    lags = np.asarray(list(lags), dtype=float)
    if not ((lags >= 0) & (lags < np.inf)).all():
        raise ValueError("lags must be finite and nonnegative")
    modes = decomp.model.modes
    return _real(*_modal_sum(modes, lags, modes._stationary), "ACVF imaginary part")

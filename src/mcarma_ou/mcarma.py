"""MCARMA models, their state space form, and the OU-sum decomposition.

A d-dimensional MCARMA(p, q) process driven by a zero-mean, square
integrable Levy process solves the state space system

    Y(t) = C* X(t),   dX(t) = A* X(t) dt + B* dL(t),

with the block companion A*, C* = (I, 0, ..., 0) and B* obtained from a
backward recursion in the AR and MA coefficients.  Given a complete set of
regular right solvents R_1..R_p of the AR polynomial with residues Res_k of
A(z)^{-1} B(z), the process equals the sum of p complex matrix-valued
Ornstein-Uhlenbeck processes

    Y_k(t) = e^{R_k t} Y_k(0) + int_0^t e^{R_k (t-u)} Res_k dL(u),

and the stationary autocovariance splits into per-component OU Gramians.
The decomposition is certified here through the similarity transform
T = V(R_1, ..., R_p).  An ``OuDecomposition`` holds the pairs (R_k, Res_k)
once, as a solvent set and its residue stack (``rational.residues`` of the
state space's B*).  A ``McarmaModel`` builds its state space, which
certifies A^{-1} B left coprime and holds B*, its default solvent set and
the decomposition along that set once, on first use; ``decompose`` builds a
new decomposition only for another solvent set or an initial state.  An
``OuDecomposition`` in turn keeps, on first use, what of the stationary law
does not depend on a lag or a step h: the stationary component Gramians and
their modal coefficients, the modal residues of the sampled noise, and for
simulation the real modal form (``ModalForm``, with the transfer stacks of
the paths at each h) and the factor of the stationary state covariance.
So a fit at a second h repeats only the sampled VARMA, and a second path
only the draws and the scan.

Every matrix function of a solvent is evaluated in its eigenbasis
R_k = P_k diag(lam_k) P_k^{-1}, which a ``matpoly.SolventSet`` carries
stacked over all p solvents: ``e^{t R_k}`` by ``SolventSet.expm`` and the
OU Gramians by ``ou_gramian`` (Moler & Van Loan, "Nineteen dubious ways to
compute the exponential of a matrix, twenty-five years later", SIAM Rev. 45
(2003), method 14; its error grows with cond(P_k), which
``matpoly.solvents_from_latents`` bounds).  So the p^2 Gramians of all
solvent pairs (``component_gramians``) and the modal sums over all lags
(``stationary_acvf``, ``kernel``) are each a few stacked products.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from functools import cached_property
from types import SimpleNamespace
from typing import NamedTuple

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
    ``statespace``, the default ``solvent_set()`` and the decomposition
    along it (what ``decompose(model, model.solvent_set())`` returns) are
    built on first use and kept; a failing certificate keeps nothing and
    raises again on the next use.  Building that decomposition logs its
    seconds at DEBUG.
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
class OuDecomposition:
    """Certified OU-sum representation of an MCARMA model.

    Component k is R_k = ``solvent_set.matrices[k]`` with the read-only
    ``residues[k]`` and ``y0[k]``, stacked (p, d, m) and (p, d).
    ``transform`` is the block Vandermonde T with A* = T diag(R_k) T^{-1},
    B* = T stack(Res_k) and C* T = (I, ..., I); the initial values satisfy
    the realness constraint T stack(Y_k(0)) in R^{pd}.
    ``similarity`` is the ``tolerances.Check`` record of that certificate
    (see ``decompose``).

    ``stationary_gramians``, the modal coefficients of the stationary
    component covariances (see ``stationary_acvf``), the modal residues
    ``[W B*, W B* Sigma_L]`` of ``sampling.noise_acvf``, the factor
    ``stationary_state_factor`` of the stationary state covariance and the
    ``modal_form`` are built on first use and kept; a failing certificate
    keeps nothing and raises again.  Building the modal form logs one line
    at DEBUG.
    """

    model: McarmaModel
    statespace: StateSpace
    solvent_set: matpoly.SolventSet
    residues: np.ndarray
    y0: np.ndarray
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

    @cached_property
    def stationary_gramians(self):
        """``component_gramians`` over [0, inf), read-only (p, p, d, d)."""
        gram = component_gramians(self.solvent_set, self.residues, self.model.sigma_L)
        gram.setflags(write=False)
        return gram

    @cached_property
    def stationary_state_factor(self):
        """A real factor F of the stationary state covariance
        ``Pi = T [stationary_gramians] T^H``, ``F F^T = Pi`` (``psd_factor``)."""
        factor = psd_factor(state_covariance(self, self.stationary_gramians),
                            "stationary state covariance")
        factor.setflags(write=False)
        return factor

    @cached_property
    def modal_form(self):
        """The certified ``ModalForm`` of this decomposition."""
        start = time.perf_counter()
        form = _modal_form(self)
        log.debug("modal form: pd=%d (%d real, %d pairs), fold %.3e, %.6f s",
                  self.p * self.d, form.real.roots.size, form.pair.roots.size,
                  form.fold.measured, time.perf_counter() - start)
        return form

    @cached_property
    def _stationary_modal(self):
        """``P_k^{-1} Sigma_k`` with ``Sigma_k = sum_j stationary_gramians[k, j]``,
        kept once ``gamma(0)`` is certified symmetric PSD: its asymmetry below
        ``tolerances.ACVF_ASYMMETRY`` and its least eigenvalue above
        ``-tolerances.PSD_FLOOR * max(1, trace)``."""
        S = self.solvent_set
        modal = S.P_inv @ self.stationary_gramians.sum(axis=1)
        (g0,), (scale,) = _real_sum(S, [0.0], modal, "ACVF imaginary part")
        tol.certify(ImaginaryLeakError, "gamma(0) asymmetry", np.max(np.abs(g0 - g0.T)),
                    tol.ACVF_ASYMMETRY * scale)
        tol.certify(ImaginaryLeakError, "gamma(0) min eig",
                    np.min(np.linalg.eigvalsh(0.5 * (g0 + g0.T))),
                    -tol.PSD_FLOOR * max(1.0, np.trace(g0)), at_least=True)
        modal.setflags(write=False)
        return modal

    @cached_property
    def _noise_modal(self):
        """``_modal_residues`` of this decomposition, for ``sampling.noise_acvf``."""
        return _modal_residues(self.solvent_set, self.residues, self.model.sigma_L)


def _modal_residues(S, residues, sigma_L):
    """The modal residues ``W B*`` (pd, m), the stacked ``P_k^{-1} Res_k``, and
    ``W B* Sigma_L`` side by side, read-only (pd, 2m)."""
    wb = (S.P_inv @ np.asarray(residues)).reshape(len(S.roots), -1)
    out = np.hstack([wb, wb @ sigma_L])
    out.setflags(write=False)
    return out


def decompose(model, S, x0=None):
    """Split an MCARMA model into p OU components along a solvent set.

    Along the model's kept default set ``model.solvent_set()`` without x0,
    this is the decomposition the model keeps.  Otherwise the state space is
    the model's, read first; the residues (from its B*), the similarity
    certificate (within ``tolerances.SIMILARITY``) and y0 are formed here.

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
    """
    # vars(): a set that is not the kept default builds no default
    if x0 is None and S is vars(model).get("_default_solvent_set"):
        return model._default_decomposition
    return _decompose(model, S, x0)


def _decompose(model, S, x0=None):
    ss = model.statespace
    residues = rational.residues(ss.B_star, S)
    T = S.V
    p, d = model.p, model.d
    if x0 is None:
        y0 = np.zeros(p * d, dtype=complex)
    else:
        x0 = np.asarray(x0, dtype=float)
        if x0.shape != (p * d,) or not np.isfinite(x0).all():
            raise ValueError(f"x0 must be {p * d} finite values")
        y0 = np.linalg.solve(T, x0.astype(complex))
        leak = np.max(np.abs((T @ y0).imag))
        bound = tol.INIT_LEAK * max(1.0, float(np.max(np.abs(T) @ np.abs(y0))))
        tol.certify(ImaginaryLeakError, "initial-state imaginary part", leak, bound)
    # A* T = T diag(R_k), block column by block column: A* T_k = T_k R_k
    columns = T.reshape(p * d, p, d).swapaxes(0, 1)
    scale = max(1.0, np.linalg.norm(ss.A_star) * np.linalg.norm(T))
    sim_err = np.linalg.norm(
        ss.A_star @ columns - columns @ S.matrices) / scale
    res_err = np.linalg.norm(ss.B_star - T @ residues.reshape(p * d, -1)) / max(
        1.0, np.linalg.norm(ss.B_star))
    row_err = np.linalg.norm(ss.C_star @ T - np.hstack([np.eye(d)] * p))
    worst = np.array([sim_err, res_err, row_err]).max()  # a NaN propagates
    similarity = tol.certify(ImaginaryLeakError, "similarity residual", worst, tol.SIMILARITY)

    y0 = y0.reshape(p, d)
    y0.setflags(write=False)
    return OuDecomposition(model, ss, S, residues, y0, similarity)


class ModeGroup(NamedTuple):
    """Modes of one arithmetic: latent roots (r,), rows (r, pd) of the modal
    transform W (state to modes) and read-out columns (d, r) (modes to Y)."""

    roots: np.ndarray
    rows: np.ndarray
    readout: np.ndarray


@dataclass(frozen=True)
class ModalForm:
    """The OU sum in modal coordinates, one mode per conjugate pair.

    The modes of a real state x are ``z = W x`` with the modal transform
    ``W = blkdiag(P_k)^{-1} T^{-1}``, which diagonalizes A* into the stacked
    latent roots; ``B = W^{-1} = T blkdiag(P_k)`` maps them back and
    ``C* B = hstack(P_k)`` reads them out.  The two modes of a conjugate pair
    are conjugate for a real x, so one representative carries both,
    ``B_i z_i + B_j z_j = 2 Re(B_i z_i)``, and a real mode is real once its
    row of W is scaled to real by the phase of its largest entry.  So
    ``real`` holds the real modes in float: roots ``Re lam``, the rows
    scaled to real and their read-out columns scaled back; ``pair`` holds
    one representative (Im lam > 0) per pair in complex, with its read-out
    columns doubled; ``Y = C* x = real.readout u + Re(pair.readout v)``.

    A real mode is a root within ``matpoly._distinct_tol`` of its own
    conjugate, the test of ``matpoly.default_grouping``; each representative
    is matched one to one with its nearest conjugate.  ``fold`` is the
    ``tolerances.Check`` record of what folding drops, certified at most
    ``tolerances.PATH_LEAK``: the larger of the elementwise residual of the
    folded reconstruction ``Re(sum_i B_i W_i) - I`` over ``|B| |W|`` (the
    rounding of the product, Higham section 3.5) and ``max|Im lam|`` of the
    real modes over ``max|lam|``.

    ``stacks`` keeps the read-only transfer stacks of ``sim.simulate``, one
    list per (h, min(n_steps - 1, sim.CHUNK)) for the last ``sim.KEPT_STACKS``
    of them, so a second path at the same h builds none.
    """

    real: ModeGroup
    pair: ModeGroup
    fold: tol.Check
    stacks: dict = field(default_factory=dict, repr=False, compare=False)


def _modal_transform(S):
    """``W = blkdiag(P_k)^{-1} T^{-1}`` and ``B = T blkdiag(P_k)`` of a solvent set."""
    p, d = S.P.shape[:2]
    blocks = np.zeros((2, p, d, p, d), dtype=complex)
    k = np.arange(p)
    blocks[0, k, :, k] = S.P_inv
    blocks[1, k, :, k] = S.P
    P_inv, P = blocks.reshape(2, p * d, p * d)
    return P_inv @ np.linalg.inv(S.V), S.V @ P


def _modal_form(decomp):
    """Split the modes into real ones and conjugate pairs, and certify the fold."""
    lam = decomp.solvent_set.roots
    W, B = _modal_transform(decomp.solvent_set)
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
    rows, cols = (rows / phase[:, None]).real.copy(), (B[:, real] * phase).real.copy()
    folded = cols @ rows + 2.0 * (B[:, upper] @ W[upper]).real
    tiny = np.finfo(float).tiny
    residual = np.abs(folded - np.eye(lam.size)) / np.maximum(np.abs(B) @ np.abs(W), tiny)
    drift = np.max(np.abs(lam[real].imag), initial=0.0) / max(np.max(np.abs(lam)), tiny)
    fold = tol.certify(ImaginaryLeakError, "modal fold residual",
                       max(np.max(residual), drift), tol.PATH_LEAK)
    d = decomp.d
    groups = (ModeGroup(lam[real].real.copy(), rows, cols[:d].copy()),
              ModeGroup(lam[upper], W[upper], 2.0 * B[:d, upper]))
    for arr in (a for group in groups for a in group):
        arr.setflags(write=False)
    return ModalForm(*groups, fold)


def psd_factor(mat, what):
    """Factor a (nearly) PSD matrix.

    Cholesky where it succeeds.  Otherwise the symmetric PSD square root
    ``V diag(sqrt(vals)) V^T`` of the eigendecomposition: unlike the
    eigenvector factor ``V diag(sqrt(vals))`` it does not depend on the
    arbitrary eigenvectors of a cluster of near-zero eigenvalues, so a
    rounding change of ``mat`` moves it continuously.  Negative eigenvalues
    down to ``-tolerances.PSD_CLIP * max|eig|`` are rounding and are
    clipped with a warning; anything more negative aborts.  The bound scales
    with the matrix, so ``c * mat`` passes or fails as ``mat`` does.
    """
    mat = 0.5 * (mat + mat.T)
    try:
        return np.linalg.cholesky(mat)
    except np.linalg.LinAlgError:
        pass
    vals, vecs = np.linalg.eigh(mat)
    tol.certify(CholeskyFailError, f"{what} min eig", np.min(vals),
                -tol.PSD_CLIP * float(np.max(np.abs(vals))), at_least=True)
    if np.min(vals) < 0.0:
        log.warning("clipping %s eigenvalues at %.3e", what, np.min(vals))
    return (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.T


def state_covariance(decomp, G):
    """Real ``T [G_{nu,mu}] T^H`` of component cross covariances G (p, p, d, d)."""
    pd_dim = decomp.p * decomp.d
    T = decomp.transform
    return np.real(T @ G.swapaxes(1, 2).reshape(pd_dim, pd_dim) @ T.conj().T)


def _real_sum(S, times, modal, what):
    """``sum_k e^{t R_k} X_k`` for every t in ``times`` from the modal
    coefficients ``modal[k] = P_k^{-1} X_k``, as one modal product over the
    whole time grid: the terms are ``P_k diag(e^{t lam_k}) modal[k]``.

    Each imaginary part, ``what``, is certified below ``tolerances.IMAG_LEAK``
    of its sum's largest term (the exact sum is real only up to roundoff
    amplified by the term magnitudes).  Returns the real sums and those scales.
    """
    times = np.asarray(times, dtype=float)
    scales = np.exp(np.multiply.outer(times, S.spectrum))[..., None, :]
    terms = (S.P * scales) @ modal  # (len(times), p, d, m)
    scale = np.abs(terms).max(axis=(1, 2, 3), initial=1.0)
    out = terms.sum(axis=1)
    tol.certify(ImaginaryLeakError, what, np.abs(out.imag).max(axis=(1, 2), initial=0.0),
                tol.IMAG_LEAK * scale)
    return out.real.copy(), scale


def kernel(decomp, t):
    """Kernel ``sum_k e^{t R_k} Res_k`` of the OU sum, (d, m) at each time t >= 0 of ``t``.

    Equals ``C* e^{A* t} B*``; the identity is exercised by the
    verification suite rather than recomputed here.  The imaginary part is
    certified below ``tolerances.IMAG_LEAK`` of the largest summand and stripped.
    """
    t = np.asarray(t, dtype=float)
    if not ((t >= 0) & (t < np.inf)).all():
        raise ValueError(f"kernel is defined for finite t >= 0, got {t}")
    S = decomp.solvent_set
    out, _ = _real_sum(S, t.ravel(), S.P_inv @ decomp.residues, "kernel imaginary part")
    return out.reshape(t.shape + out.shape[1:])


def ou_gramian(s_i, s_j, M, h=np.inf):
    """OU Gramian ``int_0^h e^{u R_i} M e^{u R_j^H} du`` of two solvents.

    With ``R_i = P_i diag(lam) P_i^{-1}`` and ``R_j = P_j diag(mu) P_j^{-1}``
    the integral is ``P_i ((P_i^{-1} M P_j^{-H}) * W) P_j^H`` (elementwise
    product) with, for ``z_ab = lam_a + conj(mu_b)``, the weights
    ``W = expm1(h z) / z`` (``h`` where z = 0), or ``W = -1/z`` for h = inf.
    ``expm1`` keeps the small-h and near-collision weights accurate to
    rounding, where forming ``e^{h z} - 1`` would cancel.

    ``s_i`` and ``s_j`` may also be stacks of eigenbases, as a
    ``matpoly.SolventSet`` carries them: their ``spectrum`` (..., d) and
    ``P``, ``P_inv`` (..., d, d) broadcast with ``M`` (..., d, d) over the
    leading axes, one Gramian per stack entry (see ``component_gramians``).

    Raises
    ------
    SylvesterSingularError
        For h = inf, if some z is within ``tolerances.SYLVESTER_GAP`` of zero
        (the spectra of R_i and -R_j^H nearly intersect and the integral diverges).
    """
    z = s_i.spectrum[..., :, None] + s_j.spectrum.conj()[..., None, :]
    if np.isinf(h):
        gap = np.min(np.abs(z))
        tol.certify(SylvesterSingularError, "min|z|", gap, tol.SYLVESTER_GAP, at_least=True)
        W = -1.0 / z
    else:
        zero = z == 0
        W = np.where(zero, h, np.expm1(h * z) / np.where(zero, 1.0, z))
    K = s_i.P_inv @ M @ s_j.P_inv.conj().swapaxes(-1, -2)
    return s_i.P @ (K * W) @ s_j.P.conj().swapaxes(-1, -2)


def component_gramians(S, residues, sigma_L, h=np.inf):
    """The p x p OU Gramians ``int_0^h e^{u R_i} Res_i Sigma_L Res_j^H
    e^{u R_j^H} du`` of all pairs of a solvent set, stacked (p, p, d, d) by
    (i, j), from one ``ou_gramian`` call.

    For finite h they are the cross covariances Sigma_{i,j}^{(h)} of the
    components' innovations over one sampling step; for h = inf, those of
    the stationary components.
    """
    res = np.asarray(residues)
    M = res[:, None] @ sigma_L @ res.conj().swapaxes(1, 2)
    rows = SimpleNamespace(spectrum=S.spectrum[:, None], P=S.P[:, None],
                           P_inv=S.P_inv[:, None])
    return ou_gramian(rows, S, M, h)


def stationary_acvf(decomp, lags):
    """Stationary autocovariance ``gamma(l) = sum_i e^{l R_i} Sigma_i`` with
    ``Sigma_i = sum_j int_0^inf e^{u R_i} Res_i Sigma_L Res_j^H e^{u R_j^H} du``.

    The decomposition keeps ``Sigma_i`` in modal coordinates, with
    ``gamma(0)`` certified symmetric PSD when they are built; each call forms
    the lags as one modal product (``_real_sum``).

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
    gammas, _ = _real_sum(decomp.solvent_set, lags, decomp._stationary_modal,
                          "ACVF imaginary part")
    return gammas

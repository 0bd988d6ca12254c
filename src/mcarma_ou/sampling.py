"""Exact weak VARMA(p, p-1) structure of the h-sampled process.

Sampling the modes of the model (``mcarma.Modes``) on the grid nh turns
each into a first-order recursion ``z_a,n = e^{h lam_a} z_a,n-1 + e_a,n``,
so ``(X, diag(e^{-h lam}))``, with the unit latent vectors X side by side,
is a standard pair of the monic AR polynomial Psi of the sampled process
(Gohberg, Lancaster & Rodman, Matrix Polynomials (1982), ch. 2; Chambers &
Thornton, Econometric Theory 28 (2012)); the sampled solvents
``e^{-h R_k}`` of any grouping of the roots are a complete set of its
right solvents.  ``varma_ar`` reads Psi off that pair in delta form,
``z = 1 + omega w`` (Middleton & Goodwin, IEEE TAC 31 (1986)), by one
pd x pd solve that needs no matrix exponential and no grouping of the
roots; the normalized AR coefficients are ``Phi_j = -Psi_p^{-1}
Psi_{p-j}``.  The residual noise ``U_n = Phi(B) Y_n`` is (p-1)-dependent:

    U_n = sum_{r<p} int_0^h k_r(s) dL(nh - rh - s),
    k_r(s) = M_r diag(e^{s lam}) W B*,  M_r = X D^r - sum_{j<=r} Phi_j X D^{r-j},

with ``D = diag(e^{h lam})`` and the modal residues ``W B*``, and
``noise_acvf`` integrates ``gamma_U(l) = sum_r int_0^h k_{r+l}(s) Sigma_L
k_r(s)^H ds`` by Gauss-Legendre quadrature, each kernel projected before it
is integrated.  Both read only the model's modes: X, the latent roots and
W B*.

The invertible MA(p-1) factor of that noise is the steady state of the
Kalman filter of its covariance realization: with the block up-shift A,
C = [I 0 ... 0] and G = [gamma_U(1); ...; gamma_U(p-1)], the state
covariance P solves the Faurre Riccati equation

    P = A P A^T + (G - A P C^T) (gamma_U(0) - C P C^T)^{-1} (G - A P C^T)^T,

whose stabilizing solution gives Sigma_eps = gamma_U(0) - C P C^T and the
gain K = (G - A P C^T) Sigma_eps^{-1} = [Theta_1; ...; Theta_{p-1}].  It is
computed, for the noise whitened to gamma_U(0) = I, by the
structure-preserving doubling algorithm (Chu, Fan, Lin & Wang 2004), which
converges quadratically where the innovations recursion converges linearly
at a rate tending to 1 as h -> 0.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass
from functools import lru_cache
from math import ceil, comb, factorial, sqrt

import numpy as np

from . import matpoly, tolerances as tol
from .exceptions import (
    AliasedSamplingError,
    ImaginaryLeakError,
    NoConvergenceError,
    NotPDError,
    SingularVandermondeError,
)

log = logging.getLogger(__name__)

DOUBLING_MAXIT = 64
GAUSS_NODES = 16
QUADRATURE_CHUNK = 1024  # nodes per pass of the gamma_U quadrature; bounds memory
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(GAUSS_NODES)
# The Gauss-Legendre remainder of int_0^L e^{s z} ds is at most
# L^(2n+1) (n!)^4 / ((2n+1) ((2n)!)^3) |z|^(2n) max|e^{s z}| (Abramowitz &
# Stegun 25.4.30): relative to L max|e^{s z}| it stays below the unit
# roundoff while L |z| <= PANEL_REACH (16.4 for n = 16).
PANEL_REACH = (np.finfo(float).eps * (2 * GAUSS_NODES + 1) * factorial(2 * GAUSS_NODES) ** 3
               / factorial(GAUSS_NODES) ** 4) ** (1.0 / (2 * GAUSS_NODES))


@dataclass(frozen=True)
class SampledVarma:
    """Weak VARMA(p, p-1) parameters of the h-sampled process.

    Each sequence of matrices is one (n, d, d) stack.  ``psi`` stores the
    monic AR coefficients (Psi_1, ..., Psi_p) with Psi_0 = I implied;
    ``phi`` the normalized coefficients of ``Phi(z) = I - Phi_1 z - ... -
    Phi_p z^p``; ``gamma_U`` the noise autocovariances at lags 0..p-1 (zero
    beyond by construction); ``theta``/``sigma_eps`` the fitted invertible
    MA(p-1), ``theta`` (p-1, d, d) and so empty for p = 1; ``ma_margin``
    the distance of the MA zeros to the closed unit disc; ``ma_steps`` the
    doubling steps of the MA fit; and the ``tolerances.Check`` records
    ``cond_sampled_V`` (cond(Q) of the standard pair in ``varma_ar``),
    ``ar_residual`` and ``ma_roundtrip`` of ``varma_ar`` and ``fit_ma``.
    """

    h: float
    psi: np.ndarray
    phi: np.ndarray
    gamma_U: np.ndarray
    theta: np.ndarray
    sigma_eps: np.ndarray
    schur_stable: bool
    cond_sampled_V: tol.Check
    ar_residual: tol.Check
    ma_margin: float
    ma_steps: int
    ma_roundtrip: tol.Check


def varma_ar(model, h):
    """AR coefficients (Psi, Phi) of the sampled process of a model.

    The monic AR polynomial ``Psi(z) = z^p I + Psi_1 z^(p-1) + ... + Psi_p``
    has the standard pair ``(X, diag(z))``, ``z = e^{-h lam}``, of the
    model's ``modes``.  In delta form ``z = 1 + omega w``,
    ``w = expm1(-h lam) / omega`` and ``omega = max|expm1(-h lam)|``, so w
    depends on h lam alone and does not crowd towards 0 as h -> 0; the
    monic delta polynomial of the pair ``(X, diag(w))`` is one solve,
    ``[Psi~_p, ..., Psi~_1] = -X diag(w)^p Q^{-1}`` with ``Q = col(X
    diag(w)^i)_{i<p}``, and ``Psi(z) = sum_j omega^j Psi~_j (z - 1)^(p-j)``
    exactly.  ``Phi_j = -Psi_p^{-1} Psi_{p-j}``.

    Certified: ``p h max(-Re lam)`` at most ``tolerances.EXP_OVERFLOW``
    before any exponential is formed (beyond it ``e^{-p h lam}``
    overflows); the gaps between the sampled roots of any two latent roots
    (``mcarma.Modes``) at least ``tolerances.ALIAS``; cond(Q) and cond(Psi_p)
    at most ``tolerances.CONDITION``; and the returned Phi by the weak VARMA
    identity ``Phi(z_a) x_a = 0``: its residual at each latent pair below
    ``tolerances.AR_RESIDUAL`` of the rounding of Phi(z_a),
    ``matpoly.backward_scale(Phi, z_a)``.  Every quantity is a function of
    h lam, so rescaling time does not change a verdict.

    Returns
    -------
    (psi, phi, cond_Q, residual) : real stacks (p, d, d), and the records of
    cond(Q) and of the worst AR residual.

    Raises
    ------
    ValueError
        If h is not positive and finite.
    SingularVandermondeError
        On the overflow guard, cond(Q), cond(Psi_p) or the AR residual.
    AliasedSamplingError
        If two distinct latent roots map to the same sampled root (imaginary
        parts differing by a multiple of 2 pi / h).
    """
    if not 0 < h < np.inf:
        raise ValueError("sampling step h must be positive and finite")
    modes = model.modes
    lam, X = modes.roots, modes.X
    p, d = model.p, model.d
    tol.certify(SingularVandermondeError, "sampled exponent p h max(-Re lam)",
                -p * h * lam.real.min(), tol.EXP_OVERFLOW)
    # just below the overflow guard the powers and norms can still overflow
    with np.errstate(over="ignore", invalid="ignore"):
        z = np.exp(-h * lam)
        gaps = np.where(_above_diagonal(lam.size), np.abs(z[:, None] - z), np.inf)
        tol.certify(AliasedSamplingError, "sampled root gap", gaps, tol.ALIAS, at_least=True)
        w = np.expm1(-h * lam)
        omega = float(np.abs(w).max()) or 1.0
        pair = X * ((w / omega) ** np.arange(p + 1)[:, None, None])  # X diag(w)^i
        Q = pair[:p].reshape(p * d, p * d)
        cond_Q = tol.certify(SingularVandermondeError, "cond(Q)", float(matpoly._cond(Q)),
                             tol.CONDITION)
        tilde = -np.linalg.solve(Q.T, pair[p].T)  # rows: the blocks Psi~_p^T .. Psi~_1^T
        delta = np.empty((p + 1, d * d))  # Psi~_0 = I, Psi~_1, ..., Psi~_p, flat
        delta[0] = _identity(d).ravel()
        delta[:0:-1] = tilde.real.reshape(p, d, d).swapaxes(1, 2).reshape(p, d * d)
        coeffs = ((_shift_to_z(p) * omega ** np.arange(p + 1)) @ delta).reshape(p + 1, d, d)
        psi = coeffs[1:]  # Psi_1 .. Psi_p
        tol.certify(SingularVandermondeError, "cond(Psi_p)", float(matpoly._cond(psi[-1])),
                    tol.CONDITION)
        phi = -np.linalg.solve(psi[-1], coeffs[-2::-1])  # Psi_{p-j}, j = 1..p

        poly = np.concatenate([-phi[::-1], _identity(d)[None]])  # Phi(z): -Phi_p, .., -Phi_1, I
        powers = X * z ** np.arange(p, -1, -1)[:, None, None]  # X diag(z)^(p-j)
        at_roots = poly.swapaxes(0, 1).reshape(d, -1) @ powers.reshape(-1, p * d)
        residual = tol.certify(SingularVandermondeError, "AR residual",
                               matpoly._norms(at_roots, 0),
                               tol.AR_RESIDUAL * matpoly.backward_scale(poly, z))
    return psi, phi, cond_Q, residual


@lru_cache
def _shift_to_z(p):
    """Read-only ``E[k, j] = C(p-j, k-j) (-1)^(k-j)`` (0 for j > k): the
    coefficient of z^(p-k) in ``(z - 1)^(p-j)``."""
    return matpoly._readonly(np.array([[comb(p - j, k - j) * (-1) ** (k - j) if j <= k else 0
                                        for j in range(p + 1)] for k in range(p + 1)],
                                      dtype=float))


@lru_cache
def _above_diagonal(n):
    """Read-only boolean n x n mask of the entries above the diagonal."""
    return matpoly._readonly(~np.tri(n, dtype=bool))


@lru_cache
def _identity(n):
    """Read-only n x n identity."""
    return matpoly._readonly(np.eye(n))


@lru_cache
def _unit_panels(panels):
    """Read-only Gauss-Legendre nodes and weights on [0, 1] in equal panels."""
    nodes = (np.arange(panels)[:, None] + 0.5 * (_GL_NODES + 1.0)) / panels
    return tuple(map(matpoly._readonly, (nodes.ravel(),
                                         np.tile(0.5 * _GL_WEIGHTS, panels) / panels)))


def _panels(h, lam):
    """Gauss-Legendre nodes and weights on [0, h] for integrands ``e^{s z}``,
    ``z = lam_a + conj(lam_b)``: one panel of ``GAUSS_NODES`` nodes, or as
    many equal panels as keep ``(panel length) max|z|`` within ``PANEL_REACH``.
    ``max|z|`` is ``2 max|lam|`` for the conjugate-closed roots of a real
    model and at most that for any roots."""
    nodes, weights = _unit_panels(max(1, ceil(2.0 * h * float(np.abs(lam).max())
                                             / PANEL_REACH)))
    return h * nodes, h * weights


def noise_acvf(model, phi, h):
    """Autocovariances gamma_U(0..p-1) of the sampled AR residual noise.

    The noise is ``U_n = sum_{r<p} int_0^h k_r(s) dL(nh - rh - s)`` with the
    kernels ``k_r(s) = M_r diag(e^{s lam}) W B*``, where ``M_r = X D^r -
    sum_{j<=r} Phi_j X D^{r-j}``, ``D = diag(e^{h lam})`` and the model's
    modes: the latent vectors X, the roots lam and the modal residues
    ``W B*`` (``mcarma.Modes``), so

        gamma_U(l) = sum_{r=0}^{p-1-l} int_0^h k_{r+l}(s) Sigma_L k_r(s)^H ds,

    which vanishes for l >= p.  Each kernel is projected before it is
    integrated, so the small noise covariance of a small h is not the
    cancelling sum of O(h) component Gramians.  The integral is
    Gauss-Legendre quadrature (``_panels``): the kernels at up to
    ``QUADRATURE_CHUNK`` nodes are one product, and the terms of one lag, one
    per r with its nodes summed inside, one batched product, summed in the
    order of r.  Imaginary parts
    are certified below ``tolerances.IMAG_LEAK`` of the largest term so far
    and stripped; gamma_U(0) is certified symmetric PSD.
    """
    modes = model.modes
    p, d, m = model.p, model.d, model.m
    lam, X = modes.roots, modes.X
    modal = modes._residues_sigma
    XD = X * np.exp(np.multiply.outer(h * np.arange(p), lam))[:, None, :]  # X D^r
    M = XD.copy()
    for j in range(1, p):
        M[j:] -= phi[j - 1] @ XD[:p - j]
    nodes, weights = _panels(h, lam)
    terms = np.zeros((p, p, d, d), dtype=complex)  # [lag, r]: the integral of term r
    for lo in range(0, len(nodes), QUADRATURE_CHUNK):
        at, wt = nodes[lo:lo + QUADRATURE_CHUNK], weights[lo:lo + QUADRATURE_CHUNK]
        # k_r(s) and k_r(s) Sigma_L at every node, one product: rows (r, d, node)
        A = M[:, :, None, :] * np.exp(np.multiply.outer(at, lam))
        k = (A.reshape(-1, len(lam)) @ modal).reshape(p, d, len(at), 2 * m)
        k_sigma = (k[..., m:] * wt[:, None]).reshape(p, d, -1)
        k_H = k[..., :m].conj().reshape(p, d, -1).swapaxes(1, 2)
        for lag in range(p):
            terms[lag, :p - lag] += k_sigma[lag:] @ k_H[:p - lag]

    # the largest term up to each lag, and the sums (a term beyond p-1-l is 0)
    scales = np.maximum.accumulate(np.maximum(np.abs(terms).max(axis=(1, 2, 3)), 1.0))
    acc = terms.sum(axis=1)
    tol.certify(ImaginaryLeakError, "gamma_U imaginary part", np.abs(acc.imag).max(axis=(1, 2)),
                tol.IMAG_LEAK * scales)
    out, term_scale = acc.real.copy(), float(scales[-1])
    g0 = out[0]
    tol.certify(ImaginaryLeakError, "gamma_U(0) asymmetry", np.abs(g0 - g0.T).max(),
                tol.IMAG_LEAK * term_scale)
    out[0] = 0.5 * (g0 + g0.T)
    tol.certify(NotPDError, "gamma_U(0) min eig", np.linalg.eigvalsh(out[0]).min(),
                -tol.PSD_FLOOR * term_scale, at_least=True)
    return out


def _riccati_doubling(G):
    """Stabilizing solution P of the MA(q) Faurre Riccati equation of a
    whitened noise, gamma(0) = I.

    With X = -P the equation is the filter DARE with F = A, H = C, Q = 0,
    R = I and S = G.  Removing the cross term gives
    ``X = F~ X (I + C^T C X)^{-1} F~^T + Q~`` with F~ = A - G C and
    Q~ = -G G^T, and doubling on (A_k, G_k, H_k) from (F~^T, C^T C, Q~)
    squares the closed loop at each step while H_k tends to X; ``G`` stacks
    gamma(1..q) as rows.  Returns (P, steps).
    """
    n, d = G.shape
    Ak = np.eye(n, k=-d)  # A^T - C^T G^T
    Ak[:d] -= G.T
    Gk = np.zeros((n, n))
    Gk[:d, :d] = _identity(d)
    Hk = -G @ G.T
    eye = _identity(n)
    rhs = np.empty((n, 2 * n))  # [A_k, G_k]
    for step in range(1, DOUBLING_MAXIT + 1):
        rhs[:, :n] = Ak
        rhs[:, n:] = Gk
        try:
            W = np.linalg.solve(eye + Gk @ Hk, rhs)
        except np.linalg.LinAlgError:
            raise NoConvergenceError(
                f"MA doubling broke down at step {step}: I + G_k H_k is singular"
            ) from None
        WA, WG = W[:, :n], W[:, n:]
        H_next = Hk + Ak.T @ Hk @ WA
        Gk = Gk + Ak @ WG @ Ak.T
        Ak = Ak @ WA
        H_next = 0.5 * (H_next + H_next.T)
        diff = (H_next - Hk).ravel()
        Hk = H_next
        flat = Hk.ravel()
        if sqrt(float(diff @ diff)) <= tol.DOUBLING * sqrt(float(flat @ flat)):
            return -Hk, step
    raise NoConvergenceError(
        f"MA doubling did not settle in {DOUBLING_MAXIT} steps")


def _ma_acvfs(theta, sigma_eps, n_lags):
    """MA autocovariances ``sum_b Theta_{b+l} Sigma_eps Theta_b^T``
    (Theta_0 = I) at lags l = 0..n_lags-1, stacked (n_lags, d, d).

    All lags are one stacked pass: the products ``Theta_a Sigma_eps
    Theta_b^T`` of every pair, and per lag l the sum over b of those with
    a = b + l, in increasing b; lags beyond the MA order are zero."""
    d = sigma_eps.shape[0]
    coeffs = np.concatenate([_identity(d)[None], theta])
    q = len(coeffs) - 1
    prods = np.zeros((n_lags + q, q + 1, d, d))  # (a, b), zero for a > q
    prods[:q + 1] = (coeffs @ sigma_eps)[:, None] @ coeffs.swapaxes(1, 2)
    b = np.arange(q + 1)
    return np.cumsum(prods[np.arange(n_lags)[:, None] + b, b], axis=1)[:, -1]


def ma_roundtrip_error(gamma_U, theta, sigma_eps):
    """Round trip of an MA factor: the MA autocovariances of ``(theta,
    sigma_eps)`` against gamma_U over all lags, as the larger of the
    Frobenius error relative to ``max(1, ||gamma||_F)`` and the elementwise
    error relative to ``max(1, max|gamma|)``."""
    want = np.asarray(gamma_U, dtype=float)
    diff = _ma_acvfs(theta, sigma_eps, len(want)) - want
    fro = matpoly._norms(diff, (1, 2)) / np.maximum(1.0, matpoly._norms(want, (1, 2)))
    elem = np.abs(diff).max(axis=(1, 2)) / np.maximum(1.0, np.abs(want).max(axis=(1, 2)))
    return float(max(fro.max(), elem.max()))


def fit_ma(gamma_U):
    """Fit the invertible MA(p-1) representative of a (p-1)-dependent noise.

    Solves the steady state of the noise's innovations filter, the Faurre
    Riccati equation of the module docstring, by doubling on the noise
    whitened by ``W = diag(vals)^{-1/2} V^T`` from the eigendecomposition
    ``gamma(0) = V diag(vals) V^T`` (an MA factor (Theta, Sigma_eps) of
    gamma is ``(W^{-1} Theta W, W^{-1} Sigma_eps W^{-T})`` of one of the
    whitened noise, and the doubling then inverts no ill-conditioned
    gamma(0)), reads off
    ``Sigma_eps = gamma(0) - C P C^T`` and ``[Theta_1; ...; Theta_q] =
    (G - A P C^T) Sigma_eps^{-1}``, and certifies the round trip
    ``gamma(l) = sum_k Theta_{k+l} Sigma_eps Theta_k^T`` to
    ``tolerances.MA_ROUNDTRIP`` by ``ma_roundtrip_error``.  The invertibility
    margin is measured; a margin below ``-tolerances.MA_MARGIN`` means the
    doubling settled on a non-stabilizing solution, and fails.

    Parameters
    ----------
    gamma_U : real (p, d, d) stack (or sequence of blocks), lags 0..p-1.

    Returns
    -------
    (theta, sigma_eps, margin, steps, roundtrip) : the (p-1, d, d) MA
    coefficients, the innovation covariance, the invertibility margin
    min|zero| - 1 of ``det Theta(z)`` (inf when Theta(z) has no finite
    zeros), the doubling steps and the record of the round trip error.

    Raises
    ------
    NotPDError
        If gamma(0) or Sigma_eps is not positive definite: gamma_U has no
        MA factor.
    NoConvergenceError
        If the doubling breaks down or does not settle in
        ``DOUBLING_MAXIT`` steps (no stabilizing solution, as when the
        spectral density of gamma_U is negative somewhere), settles where
        the closed loop has spectral radius rho with ``1/rho - 1 <
        -tolerances.MA_MARGIN`` (Theta is then not the invertible factor), or
        the round trip exceeds its bound.
    """
    gammas = np.asarray(gamma_U, dtype=float)
    q, d = len(gammas) - 1, gammas.shape[1]
    g0 = 0.5 * (gammas[0] + gammas[0].T)
    vals, vecs = np.linalg.eigh(g0)
    floor = np.nextafter(tol.PD_FLOOR * g0.trace(), np.inf)  # strict: a zero gamma_U(0) fails
    tol.certify(NotPDError, "gamma_U(0) min eig", vals[0], floor, at_least=True)
    theta, sigma_eps, steps, margin = np.zeros((0, d, d)), g0, 0, np.inf
    if q > 0:
        # fit the whitened W gamma(l) W^T, whose lag 0 is I, and map back
        root = np.sqrt(vals)
        W, W_inv = (vecs / root).T, vecs * root
        G = (W @ gammas[1:] @ W.T).reshape(q * d, d)
        P, steps = _riccati_doubling(G)
        sigma_white = _identity(d) - P[:d, :d]
        sigma_eps = W_inv @ sigma_white @ W_inv.T
        sigma_eps = 0.5 * (sigma_eps + sigma_eps.T)
        tol.certify(NotPDError, "Sigma_eps min eig", np.linalg.eigvalsh(sigma_eps).min(), floor,
                    at_least=True)
        innovation = G.copy()  # G - A P C^T: A shifts the blocks of P C^T up one
        innovation[:-d] -= P[d:, :d]
        K = np.linalg.solve(sigma_white, innovation.T).T
        theta = W_inv @ K.reshape(q, d, d) @ W
        # the filter's closed loop A - K C is the companion matrix of the
        # reversed MA polynomial: its eigenvalues are the reciprocal zeros
        # of det Theta(z), and those at 0 are zeros at infinity; whitening
        # is a similarity of it
        closed_loop = np.eye(q * d, k=d)
        closed_loop[:, :d] -= K
        rho = float(np.abs(np.linalg.eigvals(closed_loop)).max())
        if rho > tol.ZERO_AT_INFINITY:
            margin = 1.0 / rho - 1.0
        if not margin >= -tol.MA_MARGIN:
            raise NoConvergenceError(
                f"MA doubling settled on a non-stabilizing solution: closed-loop spectral "
                f"radius rho = {rho:.6e}, margin 1/rho - 1 = {margin:.3e} below "
                f"-{tol.MA_MARGIN:.0e}")
    roundtrip = tol.certify(NoConvergenceError, "MA factor round trip",
                            ma_roundtrip_error(gammas, theta, sigma_eps), tol.MA_ROUNDTRIP)
    return theta, sigma_eps, margin, steps, roundtrip


def ma_acvf(theta, sigma_eps, lag):
    """MA autocovariance ``sum_k Theta_{k+l} Sigma_eps Theta_k^T`` (Theta_0=I)."""
    return _ma_acvfs(theta, sigma_eps, lag + 1)[lag]


def sampled_varma(decomp, h):
    """Full sampled-VARMA summary (Psi, Phi, gamma_U, Theta, Sigma_eps).

    The fit reads the model's modes, not the decomposition's solvent set,
    so every grouping gives the same result.  Each call logs the seconds of
    ``varma_ar``, ``noise_acvf`` and ``fit_ma`` and the doubling steps at
    DEBUG.
    """
    model = decomp.model
    start = time.perf_counter()
    psi, phi, cond_Q, ar_residual = varma_ar(model, h)
    ar_done = time.perf_counter()
    gamma = noise_acvf(model, phi, h)
    noise_done = time.perf_counter()
    theta, sigma_eps, margin, steps, roundtrip = fit_ma(gamma)
    log.debug("sampled_varma: h=%g, varma_ar %.6f s, noise_acvf %.6f s, "
              "fit_ma %.6f s, %d doubling steps", h, ar_done - start,
              noise_done - ar_done, time.perf_counter() - noise_done, steps)
    return SampledVarma(
        h=h,
        psi=psi,
        phi=phi,
        gamma_U=gamma,
        theta=theta,
        sigma_eps=sigma_eps,
        schur_stable=decomp.model.stationary,
        cond_sampled_V=cond_Q,
        ar_residual=ar_residual,
        ma_margin=margin,
        ma_steps=steps,
        ma_roundtrip=roundtrip,
    )

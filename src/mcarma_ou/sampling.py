"""Exact weak VARMA(p, p-1) structure of the h-sampled process.

Sampling the OU-sum on the grid nh turns each component into a first-order
recursion ``Y_k,n = e^{h R_k} Y_k,n-1 + N_k,n``.  The matrices
``e^{-h R_1}, ..., e^{-h R_p}`` form a complete set of regular right
solvents of the monic AR polynomial Psi recovered by block Vandermonde
inversion, the normalized AR coefficients are ``Phi_j = -Psi_p^{-1}
Psi_{p-j}``, and the residual noise ``U_n = Phi(B) Y_n`` is (p-1)-dependent
with an autocovariance built from the finite-horizon innovation Gramians

    Sigma_{nu,mu}^{(h)} = int_0^h e^{R_nu u} Res_nu Sigma_L Res_mu^H
                          e^{R_mu^H u} du.

Exponentials and Gramians are evaluated in the solvents' eigenbases,
stacked over all p solvents (``matpoly.SolventSet.expm`` and
``mcarma.component_gramians``), and gamma_U sums its terms as one batched
product per lag.

The invertible MA(p-1) factor of that noise is the steady state of the
Kalman filter of its covariance realization: with the block up-shift A,
C = [I 0 ... 0] and G = [gamma_U(1); ...; gamma_U(p-1)], the state
covariance P solves the Faurre Riccati equation

    P = A P A^T + (G - A P C^T) (gamma_U(0) - C P C^T)^{-1} (G - A P C^T)^T,

whose stabilizing solution gives Sigma_eps = gamma_U(0) - C P C^T and the
gain K = (G - A P C^T) Sigma_eps^{-1} = [Theta_1; ...; Theta_{p-1}].  It is
computed by the structure-preserving doubling algorithm (Chu, Fan, Lin &
Wang 2004), which converges quadratically where the innovations recursion
converges linearly at a rate tending to 1 as h -> 0.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass

import numpy as np

from . import matpoly, mcarma, tolerances as tol
from .exceptions import (
    AliasedSamplingError,
    ImaginaryLeakError,
    NoConvergenceError,
    NotPDError,
    SingularVandermondeError,
)

log = logging.getLogger(__name__)

DOUBLING_MAXIT = 64


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
    ``cond_sampled_V``, ``ar_residual`` and ``ma_roundtrip`` of ``varma_ar``
    and ``fit_ma``.
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


def sampled_solvent_matrices(S, h):
    """The sampled solvents ``e^{-h R_k}`` with an overflow and an aliasing guard.

    Raises
    ------
    SingularVandermondeError
        If ``p h max(-Re lam)`` exceeds ``tolerances.EXP_OVERFLOW``: then
        ``e^{-p h lam}``, the right-hand side of the sampled Vandermonde
        system, overflows.  The product is invariant under rescaling time.
    AliasedSamplingError
        If two distinct latent roots map to the same sampled root
        ``e^{-h lam}`` (imaginary parts differing by a multiple of
        2 pi / h), which degenerates the sampled Vandermonde matrix.
    """
    roots = S.roots
    tol.certify(SingularVandermondeError, "sampled exponent p h max(-Re lam)",
                len(S) * h * np.max(-roots.real), tol.EXP_OVERFLOW)
    sampled = np.exp(-h * roots)
    distinct = np.triu(np.abs(roots[:, None] - roots) > tol.ALIAS, 1)
    gaps = np.where(distinct, np.abs(sampled[:, None] - sampled), np.inf)
    tol.certify(AliasedSamplingError, "sampled root gap", gaps, tol.ALIAS, at_least=True)
    return S.expm(-h)


def varma_ar(S, h):
    """AR coefficients (Psi, Phi) of the sampled process.

    Implements ``[Psi_p, ..., Psi_1] = -[e^{-phR_1}, ..., e^{-phR_p}]
    V^{-1}(e^{-hR_1}, ..., e^{-hR_p})`` and ``Phi_j = -Psi_p^{-1}
    Psi_{p-j}``.  Psi_p is invertible because it is, up to sign, a product
    of matrix exponentials; its conditioning is still checked.  The
    right-substitution residuals of Psi at every sampled solvent are
    certified below ``tolerances.AR_RESIDUAL`` of the largest coefficient.

    Returns
    -------
    (psi, phi, cond_V, residual) : real stacks (p, d, d), and the records of
    the sampled Vandermonde condition number and of the worst AR residual.
    """
    if not 0 < h < np.inf:
        raise ValueError("sampling step h must be positive and finite")
    # just below the overflow guard, the Vandermonde powers of e^{-h lam} can
    # still overflow: the inf fails cond(V)
    with np.errstate(over="ignore", invalid="ignore"):
        mats = sampled_solvent_matrices(S, h)
        psi_poly, cond_V = matpoly.vandermonde_solve(mats)

    coeffs = psi_poly.coeffs
    scale = max(1.0, float(np.linalg.norm(coeffs, axis=(1, 2)).max()))
    residual = tol.certify(SingularVandermondeError, "AR residual",
                           np.linalg.norm(psi_poly.eval_right(mats), axis=(1, 2)).max(),
                           tol.AR_RESIDUAL * scale)
    leak = float(np.abs(coeffs.imag).max())
    tol.certify(ImaginaryLeakError, "AR imaginary part", leak, tol.IMAG_LEAK * scale)
    psi = coeffs[1:].real.copy()  # Psi_1 .. Psi_p

    tol.certify(SingularVandermondeError, "cond(Psi_p)", float(matpoly._cond(psi[-1])),
                tol.CONDITION)
    phi = -np.linalg.solve(psi[-1], coeffs[-2::-1].real)  # Psi_{p-j}, j = 1..p
    return psi, phi, cond_V, residual


def noise_acvf(S, residues, phi, sigma_L, h):
    """Autocovariances gamma_U(0..p-1) of the sampled AR residual noise.

    The noise splits as ``U_n = sum_{r=0}^{p-1} W_{r,n-r}`` with iid rows
    ``W_{r,n} = sum_k C_{r,k} N_{k,n}`` and coefficients
    ``C_{s,k} = e^{hsR_k} - sum_{j<=s} Phi_j e^{h(s-j)R_k}``, so

        gamma_U(l) = sum_{r=0}^{p-1-l} sum_{nu,mu}
                     C_{r+l,nu} Sigma_{nu,mu}^{(h)} C_{r,mu}^H,

    which vanishes for l >= p.  All C_{s,k} and all Gramians are formed at
    once, and the terms of one lag are one batched product, summed in the
    order (r, nu, mu) by a cumulative sum (``np.sum`` would reorder it).
    Imaginary parts are certified below ``tolerances.IMAG_LEAK`` of the largest
    term so far and stripped; gamma_U(0) is certified symmetric PSD.
    """
    p = len(S)
    d = S.block_dim
    gram = mcarma.component_gramians(S, residues, sigma_L, h)

    exp_h = S.expm(h * np.arange(p))  # exp_h[s, k] = e^{h s R_k}
    coeff = exp_h.copy()  # coeff[s, k] = C_{s,k}
    for j in range(1, p):
        coeff[j:] -= phi[j - 1] @ exp_h[:p - j]
    coeff_H = coeff.conj().swapaxes(-1, -2)

    out = np.empty((p, d, d))
    term_scale = 1.0
    for lag in range(p):
        terms = coeff[lag:, :, None] @ gram @ coeff_H[:p - lag, None, :]
        terms = terms.reshape(-1, d, d)  # in the order (r, nu, mu)
        term_scale = max(term_scale, float(np.max(np.abs(terms))))
        acc = np.cumsum(terms, axis=0)[-1]
        leak = float(np.max(np.abs(acc.imag)))
        tol.certify(ImaginaryLeakError, "gamma_U imaginary part", leak, tol.IMAG_LEAK * term_scale)
        out[lag] = acc.real

    g0 = out[0]
    tol.certify(ImaginaryLeakError, "gamma_U(0) asymmetry", np.max(np.abs(g0 - g0.T)),
                tol.IMAG_LEAK * term_scale)
    out[0] = 0.5 * (g0 + g0.T)
    tol.certify(NotPDError, "gamma_U(0) min eig", np.min(np.linalg.eigvalsh(out[0])),
                -tol.PSD_FLOOR * term_scale, at_least=True)
    return out


def _riccati_doubling(g0, G):
    """Stabilizing solution P of the MA(q) Faurre Riccati equation.

    With X = -P the equation is the filter DARE with F = A, H = C, Q = 0,
    R = gamma(0) and S = G.  Removing the cross term gives
    ``X = F~ X (I + C^T R^{-1} C X)^{-1} F~^T + Q~`` with F~ = A - G R^{-1} C
    and Q~ = -G R^{-1} G^T, and doubling on (A_k, G_k, H_k) from
    (F~^T, C^T R^{-1} C, Q~) squares the closed loop at each step while H_k
    tends to X; ``G`` stacks gamma(1..q) as rows.  Returns (P, steps).
    """
    n, d = G.shape
    Rinv = np.linalg.inv(g0)
    Ak = np.eye(n, k=-d)  # A^T - C^T R^{-1} G^T
    Ak[:d] -= Rinv @ G.T
    Gk = np.zeros((n, n))
    Gk[:d, :d] = Rinv
    Hk = -G @ Rinv @ G.T
    eye = np.eye(n)
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
        if np.sqrt(diff @ diff) <= tol.DOUBLING * np.sqrt(flat @ flat):
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
    coeffs = np.concatenate([np.eye(d)[None], theta])
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
    fro = np.linalg.norm(diff, axis=(1, 2)) / np.maximum(
        1.0, np.linalg.norm(want, axis=(1, 2)))
    elem = np.abs(diff).max(axis=(1, 2)) / np.maximum(1.0, np.abs(want).max(axis=(1, 2)))
    return float(max(fro.max(), elem.max()))


def fit_ma(gamma_U):
    """Fit the invertible MA(p-1) representative of a (p-1)-dependent noise.

    Solves the steady state of the noise's innovations filter, the Faurre
    Riccati equation of the module docstring, by doubling, reads off
    ``Sigma_eps = gamma(0) - C P C^T`` and ``[Theta_1; ...; Theta_q] =
    (G - A P C^T) Sigma_eps^{-1}``, and certifies the round trip
    ``gamma(l) = sum_k Theta_{k+l} Sigma_eps Theta_k^T`` to
    ``tolerances.MA_ROUNDTRIP`` by ``ma_roundtrip_error``.  The invertibility
    margin is measured, not enforced.

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
        spectral density of gamma_U is negative somewhere), or the round
        trip exceeds its bound.
    """
    gammas = np.asarray(gamma_U, dtype=float)
    q, d = len(gammas) - 1, gammas.shape[1]
    g0 = 0.5 * (gammas[0] + gammas[0].T)
    floor = np.nextafter(tol.PD_FLOOR * np.trace(g0), np.inf)  # strict: a zero gamma_U(0) fails
    tol.certify(NotPDError, "gamma_U(0) min eig", np.min(np.linalg.eigvalsh(g0)), floor,
                at_least=True)
    theta, sigma_eps, steps, margin = np.zeros((0, d, d)), g0, 0, np.inf
    if q > 0:
        G = gammas[1:].reshape(q * d, d)
        P, steps = _riccati_doubling(g0, G)
        sigma_eps = g0 - P[:d, :d]
        tol.certify(NotPDError, "Sigma_eps min eig", np.min(np.linalg.eigvalsh(sigma_eps)), floor,
                    at_least=True)
        shifted_P = np.vstack([P[d:, :d], np.zeros((d, d))])  # A P C^T
        K = np.linalg.solve(sigma_eps, (G - shifted_P).T).T
        theta = K.reshape(q, d, d)
        # the filter's closed loop A - K C is the companion matrix of the
        # reversed MA polynomial: its eigenvalues are the reciprocal zeros
        # of det Theta(z), and those at 0 are zeros at infinity
        closed_loop = np.eye(q * d, k=d) - K @ np.eye(d, q * d)
        rho = float(np.max(np.abs(np.linalg.eigvals(closed_loop))))
        if rho > tol.ZERO_AT_INFINITY:
            margin = 1.0 / rho - 1.0
    roundtrip = tol.certify(NoConvergenceError, "MA factor round trip",
                            ma_roundtrip_error(gammas, theta, sigma_eps), tol.MA_ROUNDTRIP)
    return theta, sigma_eps, margin, steps, roundtrip


def ma_acvf(theta, sigma_eps, lag):
    """MA autocovariance ``sum_k Theta_{k+l} Sigma_eps Theta_k^T`` (Theta_0=I)."""
    return _ma_acvfs(theta, sigma_eps, lag + 1)[lag]


def sampled_varma(decomp, h):
    """Full sampled-VARMA summary (Psi, Phi, gamma_U, Theta, Sigma_eps).

    Each call logs the seconds of ``varma_ar``, ``noise_acvf`` and
    ``fit_ma`` and the doubling steps at DEBUG.
    """
    S = decomp.solvent_set
    start = time.perf_counter()
    psi, phi, cond_V, ar_residual = varma_ar(S, h)
    ar_done = time.perf_counter()
    gamma = noise_acvf(S, decomp.residues, phi, decomp.model.sigma_L, h)
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
        cond_sampled_V=cond_V,
        ar_residual=ar_residual,
        ma_margin=margin,
        ma_steps=steps,
        ma_roundtrip=roundtrip,
    )

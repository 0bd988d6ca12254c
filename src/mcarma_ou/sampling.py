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

Exponentials and Gramians are evaluated in the solvents' eigenbases
(``matpoly.Solvent.expm`` and ``mcarma.ou_gramian``).

An MA(p-1) representative of that noise is fitted by the multivariate
innovations algorithm; the invertible (minimum-phase) representative is
the one the iteration converges to.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import matpoly, mcarma
from .exceptions import (
    AliasedSamplingError,
    ImaginaryLeakError,
    NoConvergenceError,
    NotPDError,
    SingularVandermondeError,
)

ALIAS_TOL = 1e-10
AR_RESIDUAL_TOL = 1e-8
IMAG_TOL = 1e-9
INNOVATIONS_TOL = 1e-10
INNOVATIONS_MAXIT = 10000
PSD_SEQUENCE_ORDER = 50


@dataclass(frozen=True)
class SampledVarma:
    """Weak VARMA(p, p-1) parameters of the h-sampled process.

    ``psi`` stores the monic AR coefficients (Psi_1, ..., Psi_p) with
    Psi_0 = I implied; ``phi`` the normalized coefficients of
    ``Phi(z) = I - Phi_1 z - ... - Phi_p z^p``; ``gamma_U`` the noise
    autocovariances at lags 0..p-1 (zero beyond by construction);
    ``theta``/``sigma_eps`` the fitted invertible MA(p-1); and
    ``ma_margin`` the distance of the MA zeros to the closed unit disc.
    """

    h: float
    psi: tuple
    phi: tuple
    gamma_U: tuple
    theta: tuple
    sigma_eps: np.ndarray
    schur_stable: bool
    cond_sampled_V: float
    ar_residual: float
    ma_margin: float


def sampled_solvent_matrices(S, h):
    """The sampled solvents ``e^{-h R_k}`` with an aliasing guard.

    Raises
    ------
    AliasedSamplingError
        If two distinct latent roots map to the same sampled root
        ``e^{-h lam}`` (imaginary parts differing by a multiple of
        2 pi / h), which degenerates the sampled Vandermonde matrix.
    """
    roots = S.roots
    sampled = np.exp(-h * roots)
    n = len(sampled)
    for i in range(n):
        for j in range(i + 1, n):
            if abs(sampled[i] - sampled[j]) < ALIAS_TOL and abs(
                    roots[i] - roots[j]) > ALIAS_TOL:
                raise AliasedSamplingError(
                    f"latent roots {roots[i]:.6g} and {roots[j]:.6g} alias at h={h}")
    return [s.expm(-h) for s in S.solvents]


def varma_ar(S, h):
    """AR coefficients (Psi, Phi) of the sampled process.

    Implements ``[Psi_p, ..., Psi_1] = -[e^{-phR_1}, ..., e^{-phR_p}]
    V^{-1}(e^{-hR_1}, ..., e^{-hR_p})`` and ``Phi_j = -Psi_p^{-1}
    Psi_{p-j}``.  Psi_p is invertible because it is, up to sign, a product
    of matrix exponentials; its conditioning is still checked.  The
    right-substitution residuals of Psi at every sampled solvent are
    certified below 1e-8.

    Returns
    -------
    (psi, phi, info) : lists of p real matrices each, plus a dict with the
    sampled Vandermonde condition number and the worst AR residual.
    """
    if h <= 0:
        raise ValueError("sampling step h must be positive")
    mats = sampled_solvent_matrices(S, h)
    psi_poly = matpoly.coeffs_from_solvent_matrices(mats)
    cond_V = float(np.linalg.cond(matpoly.vandermonde(mats)))

    residual = max(float(np.linalg.norm(psi_poly.eval_right(E))) for E in mats)
    scale = max(1.0, max(float(np.linalg.norm(c)) for c in psi_poly.coeffs))
    if residual > AR_RESIDUAL_TOL * scale:
        raise SingularVandermondeError(
            f"sampled AR residual {residual:.3e} (cond V = {cond_V:.3e})")

    leak = max(float(np.max(np.abs(c.imag))) for c in psi_poly.coeffs)
    if leak > IMAG_TOL * scale:
        raise ImaginaryLeakError(f"AR coefficients imaginary part {leak:.3e}")
    psi = [np.array(c.real) for c in psi_poly.coeffs[1:]]  # Psi_1 .. Psi_p

    psi_p = psi[-1]
    cond_psi_p = np.linalg.cond(psi_p)
    if not np.isfinite(cond_psi_p) or cond_psi_p > 1e12:
        raise SingularVandermondeError(f"Psi_p condition {cond_psi_p:.3e}")
    p = len(psi)
    d = psi_p.shape[0]
    phi = []
    for j in range(1, p + 1):
        prev = np.eye(d) if j == p else psi[p - j - 1]
        phi.append(-np.linalg.solve(psi_p, prev))
    return psi, phi, {"cond_sampled_V": cond_V, "ar_residual": residual}


def innovation_gramians(solvents, residues, sigma_L, h):
    """All p x p cross Gramians ``Sigma_{nu,mu}^{(h)}`` as a nested list."""
    return [
        [mcarma.ou_gramian(s_nu, s_mu, res_nu @ sigma_L @ res_mu.conj().T, h)
         for s_mu, res_mu in zip(solvents, residues)]
        for s_nu, res_nu in zip(solvents, residues)]


def noise_acvf(S, pf, phi, sigma_L, h):
    """Autocovariances gamma_U(0..p-1) of the sampled AR residual noise.

    The noise splits as ``U_n = sum_{r=0}^{p-1} W_{r,n-r}`` with iid rows
    ``W_{r,n} = sum_k C_{r,k} N_{k,n}`` and coefficients
    ``C_{s,k} = e^{hsR_k} - sum_{j<=s} Phi_j e^{h(s-j)R_k}``, so

        gamma_U(l) = sum_{r=0}^{p-1-l} sum_{nu,mu}
                     C_{r+l,nu} Sigma_{nu,mu}^{(h)} C_{r,mu}^H,

    which vanishes for l >= p.  Imaginary parts are certified below 1e-9
    and stripped; gamma_U(0) is certified symmetric PSD.
    """
    sols = S.solvents
    p = len(sols)
    d = S.block_dim
    gram = innovation_gramians(sols, pf.residue_matrices, sigma_L, h)

    exp_h = [[sol.expm(h * s) for s in range(p)] for sol in sols]
    coeff = [[None] * p for _ in range(p)]  # coeff[s][k] = C_{s,k}
    for k in range(p):
        for s in range(p):
            acc = np.array(exp_h[k][s])
            for j in range(1, s + 1):
                acc -= phi[j - 1] @ exp_h[k][s - j]
            coeff[s][k] = acc

    out = []
    term_scale = 1.0
    for lag in range(p):
        acc = np.zeros((d, d), dtype=complex)
        for r in range(p - lag):
            for nu in range(p):
                for mu in range(p):
                    term = coeff[r + lag][nu] @ gram[nu][mu] @ coeff[r][mu].conj().T
                    term_scale = max(term_scale, float(np.max(np.abs(term))))
                    acc += term
        leak = float(np.max(np.abs(acc.imag)))
        if leak > IMAG_TOL * term_scale:
            raise ImaginaryLeakError(f"gamma_U imaginary part {leak:.3e} at lag {lag}")
        out.append(acc.real)

    g0 = out[0]
    if np.max(np.abs(g0 - g0.T)) > 1e-9 * term_scale:
        raise ImaginaryLeakError("gamma_U(0) asymmetric")
    out[0] = 0.5 * (g0 + g0.T)
    if np.min(np.linalg.eigvalsh(out[0])) < -1e-10 * term_scale:
        raise NotPDError("gamma_U(0) not positive semidefinite")
    return out


def acvf_at_lag(gammas, lag):
    """gamma(lag) of a finite ACVF list, extended by gamma(-l) = gamma(l)^T and zero."""
    q = len(gammas) - 1
    if lag > q or lag < -q:
        d = gammas[0].shape[0]
        return np.zeros((d, d))
    return gammas[lag] if lag >= 0 else gammas[-lag].T


def _check_psd_sequence(gammas, order=PSD_SEQUENCE_ORDER):
    d = gammas[0].shape[0]
    T = np.zeros((order * d, order * d))
    for i in range(order):
        for j in range(order):
            T[i * d:(i + 1) * d, j * d:(j + 1) * d] = acvf_at_lag(gammas, i - j)
    if np.min(np.linalg.eigvalsh(0.5 * (T + T.T))) < -1e-8 * max(1.0, np.trace(T) / order):
        raise NotPDError(
            f"gamma_U is not a valid PSD autocovariance sequence (order {order})")


def fit_ma(gamma_U):
    """Fit the invertible MA(p-1) representative of a (p-1)-dependent noise.

    Runs the multivariate innovations algorithm on the truncated ACVF until
    successive coefficient iterates settle, then certifies the round trip
    ``Gamma(l) = sum_k Theta_{k+l} Sigma_eps Theta_k^T`` and the location of
    the MA zeros.

    Parameters
    ----------
    gamma_U : list of p real (d, d) matrices, lags 0..p-1.

    Returns
    -------
    (theta, sigma_eps, margin) : p-1 MA coefficient matrices, the
    innovation covariance, and the invertibility margin min|zero| - 1 of
    ``det Theta(z)`` (inf when Theta(z) has no finite zeros).

    Raises
    ------
    NotPDError, NoConvergenceError
    """
    gammas = [np.asarray(g, dtype=float) for g in gamma_U]
    d = gammas[0].shape[0]
    q = len(gammas) - 1
    g0 = gammas[0]
    if np.min(np.linalg.eigvalsh(0.5 * (g0 + g0.T))) <= 1e-10 * np.trace(g0):
        raise NotPDError("gamma_U(0) is not positive definite")
    if q == 0:
        return [], 0.5 * (g0 + g0.T), np.inf
    _check_psd_sequence(gammas)

    scale = max(1.0, float(np.linalg.norm(g0)))
    v = [0.5 * (g0 + g0.T)]
    thetas = {}  # n -> list of q matrices theta_{n,1..q}
    prev_row, prev_v = None, None
    converged_at = None
    for n in range(1, INNOVATIONS_MAXIT + 1):
        row = [np.zeros((d, d)) for _ in range(q)]
        for k in range(max(0, n - q), n):
            acc = np.array(acvf_at_lag(gammas, n - k))
            for j in range(max(0, n - q, k - q), k):
                acc -= row[n - j - 1] @ v[j] @ thetas[k][k - j - 1].T
            row[n - k - 1] = np.linalg.solve(v[k].T, acc.T).T
        vn = np.array(v[0])
        for j in range(max(0, n - q), n):
            vn -= row[n - j - 1] @ v[j] @ row[n - j - 1].T
        vn = 0.5 * (vn + vn.T)
        thetas[n] = row
        v.append(vn)
        if n - q - 1 in thetas:
            del thetas[n - q - 1]
        if prev_row is not None and n > q:
            diff = max(
                max(np.max(np.abs(row[s] - prev_row[s])) for s in range(q)),
                np.max(np.abs(vn - prev_v)))
            if diff < INNOVATIONS_TOL * scale:
                converged_at = n
                break
        prev_row, prev_v = row, vn
    if converged_at is None:
        raise NoConvergenceError(
            f"innovations iteration did not settle in {INNOVATIONS_MAXIT} steps")

    theta = [np.array(t) for t in thetas[converged_at]]
    sigma_eps = v[converged_at]
    margin = ma_invertibility_margin(theta)
    return theta, sigma_eps, margin


def ma_invertibility_margin(theta):
    """min |z| - 1 over the zeros of ``det(I + Theta_1 z + ... + Theta_q z^q)``.

    The zeros are the reciprocals of the eigenvalues of the companion
    matrix of the reversed (monic) polynomial; eigenvalues at zero
    correspond to zeros at infinity and are dropped.
    """
    if not theta:
        return np.inf
    d = theta[0].shape[0]
    reversed_poly = matpoly.LambdaMatrix(
        tuple([np.eye(d, dtype=complex)] + [np.asarray(t, dtype=complex) for t in theta]))
    mu = np.linalg.eigvals(matpoly.companion_matrix(reversed_poly))
    mu = mu[np.abs(mu) > 1e-12]
    if len(mu) == 0:
        return np.inf
    return float(1.0 / np.max(np.abs(mu)) - 1.0)


def ma_acvf(theta, sigma_eps, lag):
    """MA autocovariance ``sum_k Theta_{k+l} Sigma_eps Theta_k^T`` (Theta_0=I)."""
    d = sigma_eps.shape[0]
    coeffs = [np.eye(d)] + [np.asarray(t, dtype=float) for t in theta]
    q = len(coeffs) - 1
    if lag > q:
        return np.zeros((d, d))
    acc = np.zeros((d, d))
    for k in range(q - lag + 1):
        acc += coeffs[k + lag] @ sigma_eps @ coeffs[k].T
    return acc


def sampled_varma(decomp, h):
    """Full sampled-VARMA summary (Psi, Phi, gamma_U, Theta, Sigma_eps)."""
    S = decomp.solvent_set
    psi, phi, info = varma_ar(S, h)
    gamma = noise_acvf(S, decomp.partial_fraction, phi,
                       decomp.model.sigma_L, h)
    theta, sigma_eps, margin = fit_ma(gamma)
    schur = all(pr.root.real < 0.0 for pr in decomp.model.latent_pairs)
    return SampledVarma(
        h=h,
        psi=tuple(psi),
        phi=tuple(phi),
        gamma_U=tuple(gamma),
        theta=tuple(theta),
        sigma_eps=sigma_eps,
        schur_stable=schur,
        cond_sampled_V=info["cond_sampled_V"],
        ar_residual=info["ar_residual"],
        ma_margin=margin,
    )

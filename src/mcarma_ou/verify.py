"""Independent oracles for the paper's identities and the checks of ``verify``.

The oracles take routes the production code does not: the state-space
kernel ``C* e^{t A*} B*`` and the Lyapunov ACVF through ``scipy.linalg.expm``
of the companion matrix A* (Marquardt & Stelzer, "Multivariate CARMA
processes", SPA 117 (2007)), the sampled noise ACVF through the
continuous-time ACVF, and the Gaussian CLT band of the sample ACVF of a
(p-1)-dependent noise at lags >= p.

Each ``check_*`` function measures one row of ``mcarma-ou verify`` and
returns a ``tolerances.Check``.  ``cli.run_verification`` lists these and
the records results keep of the library's certificates, and the tests read
the same, so the library, the command and the tests judge by one bound.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from . import mcarma, rational, tolerances as tol
from .exceptions import ImaginaryLeakError

KERNEL_TIMES = np.linspace(0.0, 5.0, 51)
Z_99 = 2.5758  # two-sided 99% normal quantile


def _rel_err(got, want):
    """Frobenius norm of the difference relative to ``max(1, ||want||)``."""
    scale = max(1.0, float(np.linalg.norm(want)))
    return float(np.linalg.norm(np.asarray(got) - np.asarray(want)) / scale)


# oracles

def statespace_kernel(ss, t):
    """``C* e^{t A*} B*``."""
    return ss.C_star @ scipy.linalg.expm(t * ss.A_star) @ ss.B_star


def stationary_state_covariance(ss, sigma_L):
    """State covariance Pi solving ``A* Pi + Pi A*^T = -B* Sigma_L B*^T``."""
    rhs = -ss.B_star @ sigma_L @ ss.B_star.T
    pi = scipy.linalg.solve_continuous_lyapunov(ss.A_star, rhs)
    return 0.5 * (pi + pi.T)


def lyapunov_acvf(ss, sigma_L, lags):
    """``gamma(l) = C* e^{A* l} Pi C*^T``, Pi from the Lyapunov equation."""
    pi = stationary_state_covariance(ss, sigma_L)
    return [ss.C_star @ scipy.linalg.expm(lag * ss.A_star) @ pi @ ss.C_star.T
            for lag in lags]


def noise_acvf_from_continuous(decomp, phi, h):
    """gamma_U(0..p-1) of ``U_n = Y_n - Phi_1 Y_{n-1} - ... - Phi_p Y_{n-p}``
    from the continuous-time ACVF at the lags ``u h``."""
    p, d = len(phi), decomp.d
    needed = sorted({abs(l - i + j) for l in range(p)
                     for i in range(p + 1) for j in range(p + 1)})
    gamma_y = dict(zip(needed, mcarma.stationary_acvf(
        decomp, [u * h for u in needed])))

    def gy(u):
        return gamma_y[u] if u >= 0 else gamma_y[-u].T

    phi_t = np.concatenate([np.eye(d)[None], -phi])
    return [sum(phi_t[i] @ gy(lag - i + j) @ phi_t[j].T
                for i in range(p + 1) for j in range(p + 1))
            for lag in range(p)]


def clt_band_for_zero_lags(gamma_U, n_eff):
    """Entrywise 99% CLT band of the sample ACVF at lags >= p of a Gaussian
    (p-1)-dependent series with ACVF ``gamma_U``."""
    p = len(gamma_U)
    var = sum(np.outer(np.diag(gamma_U[abs(u)]), np.diag(gamma_U[abs(u)]))
              for u in range(1 - p, p))
    return Z_99 * np.sqrt(var / n_eff)


# checks, in the order of the ``verify`` rows

def check_kernel_identity(decomp):
    """``mcarma.kernel`` against ``C* e^{t A*} B*``.  A kernel that fails its
    realness certificate measures inf, so the remaining rows still run."""
    ss = decomp.statespace
    try:
        err = np.max([np.linalg.norm(mcarma.kernel(decomp, t) - statespace_kernel(ss, t))
                      for t in KERNEL_TIMES])
    except ImaginaryLeakError:
        err = np.inf
    return tol.check("kernel-identity", err, tol.ORACLE * (1.0 + np.linalg.norm(ss.B_star)))


def check_kernel_realness(decomp):
    """Imaginary part of ``sum_k e^{t R_k} Res_k`` before it is stripped."""
    terms = decomp.solvent_set.expm(KERNEL_TIMES) @ decomp.residues
    return tol.check("kernel-realness", np.max(np.abs(terms.sum(axis=1).imag)), tol.IMAG_LEAK)


def check_pf_reconstruction(decomp):
    """Partial fractions against ``A(z)^{-1} B(z)`` on a circle enclosing A's roots."""
    model = decomp.model
    radius = 2.0 * max(abs(pr.root) for pr in model.latent_pairs)
    angles = np.linspace(0.0, 2 * np.pi, 20, endpoint=False)
    err = np.max([_rel_err(rational.eval_partial_fraction(decomp.solvent_set,
                                                          decomp.residues, z),
                           np.linalg.solve(model.A.eval(z), model.B.eval(z)))
                  for z in radius * np.exp(1j * (angles + 0.05))])
    return tol.check("pf-reconstruction", err, tol.ORACLE)


def check_acvf_lyapunov(decomp, lags, gammas):
    """``gammas = mcarma.stationary_acvf(decomp, lags)`` against Lyapunov."""
    want = lyapunov_acvf(decomp.statespace, decomp.model.sigma_L, lags)
    return tol.check("acvf-lyapunov-oracle",
                     np.max([_rel_err(g, w) for g, w in zip(gammas, want)]), tol.ORACLE)


def check_acvf_symmetry(gamma0):
    return tol.check("acvf-symmetry", np.max(np.abs(gamma0 - gamma0.T)),
                     tol.ACVF_ASYMMETRY * max(1.0, float(np.max(np.abs(gamma0)))))


def check_ma_invertibility(margin):
    return tol.check("ma-invertibility", margin, tol.MA_MARGIN, at_least=True)


def check_noise_acvf(decomp, phi, gamma_U, h):
    want = noise_acvf_from_continuous(decomp, phi, h)
    return tol.check("noise-acvf-consistency",
                     np.max([_rel_err(g, w) for g, w in zip(gamma_U, want)]), tol.NOISE_ACVF)


def check_noise_lag_p_zero(U, gamma_U):
    """Sample ACVF of the extracted noise ``U`` at lags p..p+3, as the largest
    ratio to the 99% CLT band."""
    p, n = len(gamma_U), U.shape[0]
    centered = U - U.mean(axis=0)
    band = clt_band_for_zero_lags(gamma_U, n)
    return tol.check("noise-lag-p-zero", np.max([
        np.max(np.abs(centered[lag:].T @ centered[:n - lag] / n) / band)
        for lag in range(p, p + 4)]), tol.CLT_BAND)

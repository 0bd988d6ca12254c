"""Independent oracles for the paper's identities and the checks of ``verify``.

The oracles take routes the production code does not, with no solvent and
no eigendecomposition: the kernel ``C* F^k B*``, the ACVF ``C* F^k Pi C*^T``
and the sampled noise ACVF, a finite sum of ``Q_h`` terms, all read off the
state space (A*, B*, C*) of Marquardt & Stelzer ("Multivariate CARMA
processes", SPA 117 (2007)) sampled at one step (``sampled_state_space``),
as in Chambers & Thornton (Econometric Theory 28 (2012)); and the Gaussian
covariance of the sample ACVF of a (p-1)-dependent noise at lags >= p.

Each ``check_*`` function measures one row of ``mcarma-ou verify`` and
returns a ``tolerances.Check``.  ``cli.run_verification`` lists these and
the records results keep of the library's certificates, and the tests read
the same, so the library, the command and the tests judge by one bound.
"""

from __future__ import annotations

from collections import namedtuple
from statistics import NormalDist

import numpy as np
import scipy.linalg

from . import mcarma, rational, sim, tolerances as tol
from .exceptions import ImaginaryLeakError

KERNEL_TIMES = np.linspace(0.0, 5.0, 51)
NOISE_LAGS = 4  # noise-lag-p-zero reads the noise's sample ACVF at lags p..p+NOISE_LAGS-1


def _rel_err(got, want):
    """Frobenius norm of the difference relative to ``max(1, ||want||)``, the
    largest over a stack of matrices."""
    got, want = np.asarray(got), np.asarray(want)
    scale = np.maximum(1.0, np.linalg.norm(want, axis=(-2, -1)))
    return float(np.max(np.linalg.norm(got - want, axis=(-2, -1)) / scale))


# oracles

# the state sampled at step h: X_n = F X_{n-1} + W_n, Cov W_n = Q, Cov X_n = pi, Y_n = C X_n
SampledStateSpace = namedtuple("SampledStateSpace", "C F pi Q")


def sampled_state_space(ss, sigma_L, h):
    """``F = e^{h A*}`` from one ``scipy.linalg.expm``, Pi solving
    ``A* Pi + Pi A*^T = -B* Sigma_L B*^T`` and ``Q_h = Pi - F Pi F^T``."""
    pi = scipy.linalg.solve_continuous_lyapunov(ss.A_star, -ss.B_star @ sigma_L @ ss.B_star.T)
    pi = 0.5 * (pi + pi.T)
    F = scipy.linalg.expm(h * ss.A_star)
    return SampledStateSpace(ss.C_star, F, pi, pi - F @ pi @ F.T)


def _powers(F, X, n):
    """``F^k X`` for k < n, stacked."""
    return np.array([np.linalg.matrix_power(F, k) @ X for k in range(n)])


def sampled_noise_acvf(sampled, phi):
    """gamma_U(0..p-1) of ``U_n = Y_n - Phi_1 Y_{n-1} - ... - Phi_p Y_{n-p}``
    as ``sum_r M_{r+l} Q_h M_r^T``: ``X_n = sum_r F^r W_{n-r}`` makes
    ``U_n = sum_r M_r W_{n-r}`` with ``M_r = C F^r - sum_{j<=r} Phi_j C F^{r-j}``,
    which vanishes for r >= p."""
    p = len(phi)
    CF = sampled.C @ _powers(sampled.F, np.eye(len(sampled.F)), p)
    M = [CF[r] - sum(phi[j - 1] @ CF[r - j] for j in range(1, r + 1)) for r in range(p)]
    return [sum(M[r + lag] @ sampled.Q @ M[r].T for r in range(p - lag)) for lag in range(p)]


def lag_p_covariance(gamma_U, n):
    """Gaussian covariance of ``empirical_acvf(U, p+NOISE_LAGS-1)[p:].reshape(-1)``
    for a (p-1)-dependent U of length n with ACVF ``gamma_U`` (Bartlett 1946):
    block (l, m) is ``sum_{|u|<p} kron(gamma(u+l-m), gamma(u)) / n``, ``gamma(-k)
    = gamma(k)^T``; the second Bartlett term vanishes at lags >= p.  A block
    depends on l - m alone, so the 2 NOISE_LAGS - 1 distinct blocks come from
    one ``einsum`` over u and are tiled."""
    gamma_U = np.asarray(gamma_U)
    p, d, k = len(gamma_U), gamma_U.shape[-1], NOISE_LAGS - 1
    # gamma(v) at g[v + p - 1 + k], |v| < p + k, zero from |v| = p on
    g = np.zeros((2 * (p + k) - 1, d, d))
    g[k:k + p] = gamma_U[::-1].transpose(0, 2, 1)
    g[k + p - 1:k + 2 * p - 1] = gamma_U
    u = np.arange(k, k + 2 * p - 1)
    blocks = np.einsum("tuia,ujb->tijab", g[u + np.arange(-k, k + 1)[:, None]], g[u])
    lag = np.arange(NOISE_LAGS)
    tiled = blocks.reshape(2 * k + 1, d * d, d * d)[lag[:, None] - lag + k]
    return tiled.transpose(0, 2, 1, 3).reshape(NOISE_LAGS * d * d, -1) / n


def chi2_quantile_99(df):
    """99% quantile of chi^2(df) by Wilson & Hilferty (PNAS 17 (1931))."""
    c = 2.0 / (9.0 * df)
    return df * (1.0 - c + NormalDist().inv_cdf(0.99) * np.sqrt(c)) ** 3


# checks, in the order of the ``verify`` rows

def check_kernel_identity(decomp):
    """``mcarma.kernel`` against ``C* F^k B*``, ``F = e^{delta A*}`` at the step
    delta of ``KERNEL_TIMES``; a kernel failing its realness certificate measures inf."""
    ss = decomp.statespace
    step = scipy.linalg.expm(KERNEL_TIMES[1] * ss.A_star)
    want = ss.C_star @ _powers(step, ss.B_star, len(KERNEL_TIMES))
    try:
        err = np.max(np.linalg.norm(mcarma.kernel(decomp, KERNEL_TIMES) - want, axis=(1, 2)))
    except ImaginaryLeakError:
        err = np.inf
    return tol.check("kernel-identity", err, tol.ORACLE * (1.0 + np.linalg.norm(ss.B_star)))


def check_kernel_realness(decomp):
    """Imaginary part of the modal kernel ``X diag(e^{t lam}) W B*`` before
    ``mcarma.kernel`` strips it."""
    modes = decomp.model.modes
    sums, _ = mcarma._modal_sum(modes, KERNEL_TIMES, modes.residues)
    return tol.check("kernel-realness", np.max(np.abs(sums.imag)), tol.IMAG_LEAK)


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


def check_acvf_lyapunov(sampled, gammas):
    """``gammas``, the stationary ACVF at the lags ``k h``, against
    ``C F^k Pi C^T`` of the state sampled at step h."""
    want = sampled.C @ _powers(sampled.F, sampled.pi @ sampled.C.T, len(gammas))
    return tol.check("acvf-lyapunov-oracle", _rel_err(gammas, want), tol.ORACLE)


def check_acvf_symmetry(gamma0):
    return tol.check("acvf-symmetry", np.max(np.abs(gamma0 - gamma0.T)),
                     tol.ACVF_ASYMMETRY * max(1.0, float(np.max(np.abs(gamma0)))))


def check_ma_invertibility(margin):
    return tol.check("ma-invertibility", margin, tol.MA_MARGIN, at_least=True)


def check_noise_acvf(sampled, phi, gamma_U):
    want = sampled_noise_acvf(sampled, phi)
    return tol.check("noise-acvf-consistency", _rel_err(gamma_U, want), tol.NOISE_ACVF)


def check_noise_lag_p_zero(U, gamma_U, n=None):
    """The portmanteau ``v^T Sigma^{-1} v`` (Hosking, JASA 75 (1980)) of the noise's
    sample ACVF v at the ``NOISE_LAGS`` lags from p over the 99% quantile of chi^2(v.size),
    Sigma its ``lag_p_covariance``; a singular Sigma measures inf.

    U is the noise as an array, or as an iterable of n rows in row blocks
    (``sim.extract_noise`` of ``sim.path_blocks``), read once; a path too
    short for the sample ACVF raises before the first block is read."""
    p = len(gamma_U)
    n = U.shape[0] if n is None else n
    sim.require_samples(n, 10 * (p + NOISE_LAGS - 1))
    v = sim.empirical_acvf(U, p + NOISE_LAGS - 1)[p:].reshape(-1)
    try:
        stat = v @ np.linalg.solve(lag_p_covariance(gamma_U, n), v)
    except np.linalg.LinAlgError:
        stat = np.inf
    return tol.check("noise-lag-p-zero", stat / chi2_quantile_99(v.size), tol.CLT_BAND)

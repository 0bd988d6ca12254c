"""Exact-in-distribution path simulation of the OU components on the h-grid.

The sampled components follow ``Y_k,n = e^{h R_k} Y_k,n-1 + N_k,n`` with the
jointly Gaussian innovation stack (Brownian driver) or per-jump sums
(compound Poisson driver).  The joint stack is drawn through the real state
space Gramian mapped back by the Vandermonde transform, which realizes the
exact cross covariances Sigma_{nu,mu}^{(h)} of all p components at once
while keeping the summed output real to machine precision; drawing the
components independently would lose the cross terms, and a complex Cholesky
of the block covariance alone would not pin down the joint law.

The recursion runs in the solvents' eigenbasis ``R_k = P_k L_k P_k^{-1}``,
where it is pd scalar complex AR(1) recursions; they are solved CHUNK steps
at a time by a vectorised doubling scan, so no Python code runs per step
and no ``expm`` is taken per jump.

Reproducibility: one path owns one seeded PCG64 generator; identical seeds
give bit-identical paths.  A Brownian path for a given seed equals that of
earlier releases up to rounding.  A compound-Poisson path for a given seed
differs from releases that simulated step by step, because the jump counts,
offsets and sizes are now drawn a chunk at a time; its law is unchanged.
For parallel paths split the seed with
``np.random.SeedSequence(seed).spawn(n)`` and give each path one child.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import mcarma, sampling
from .exceptions import CholeskyFailError, NotStationaryError, TooShortError

log = logging.getLogger(__name__)

PSD_CLIP = 1e-12  # relative to the largest eigenvalue magnitude, see _psd_factor
IMAG_TOL_PATH = 1e-8
CHUNK = 1024  # grid steps per vectorised block of the modal recursion


@dataclass(frozen=True)
class DriverSpec:
    """Zero-mean Levy driver: Brownian or compound Poisson with Gaussian jumps.

    ``Var L(1)`` is ``sigma_L`` (brownian) or ``rate * jump_cov`` (compound
    Poisson, jumps drawn N(0, jump_cov)).
    """

    kind: str
    seed: int
    sigma_L: np.ndarray | None = None
    rate: float | None = None
    jump_cov: np.ndarray | None = None

    def __post_init__(self):
        if self.kind == "brownian":
            if self.sigma_L is None:
                raise ValueError("brownian driver needs sigma_L")
        elif self.kind == "compound_poisson":
            if self.rate is None or self.rate <= 0:
                raise ValueError("compound_poisson driver needs rate > 0")
            if self.jump_cov is None:
                raise ValueError("compound_poisson driver needs jump_cov")
        else:
            raise ValueError(f"unknown driver kind {self.kind!r}")

    @property
    def covariance_per_unit_time(self):
        if self.kind == "brownian":
            return np.asarray(self.sigma_L, dtype=float)
        return self.rate * np.asarray(self.jump_cov, dtype=float)


@dataclass(frozen=True)
class PathGrid:
    """A simulated path on the grid 0, h, ..., (n_steps-1) h.

    ``U`` carries the AR-residual noise sequence when it was requested via
    :func:`attach_noise`; it is None otherwise.
    """

    h: float
    n_steps: int
    Y: np.ndarray
    max_imag: float
    U: np.ndarray | None = None


def _psd_factor(mat, what):
    """Factor a (nearly) PSD matrix.

    Negative eigenvalues down to ``-PSD_CLIP * max|eig|`` are rounding and
    are clipped with a warning; anything more negative aborts.  The bound
    scales with the matrix, so ``c * mat`` passes or fails as ``mat`` does.
    """
    mat = 0.5 * (mat + mat.T)
    try:
        return np.linalg.cholesky(mat)
    except np.linalg.LinAlgError:
        pass
    vals, vecs = np.linalg.eigh(mat)
    bound = PSD_CLIP * float(np.max(np.abs(vals)))
    if np.min(vals) < -bound:
        raise CholeskyFailError(f"{what} has eigenvalue {np.min(vals):.3e} < -{bound:.3e}")
    if np.min(vals) < 0.0:
        log.warning("clipping %s eigenvalues at %.3e", what, np.min(vals))
    return vecs * np.sqrt(np.clip(vals, 0.0, None))


def state_innovation_gramian(decomp, sigma_L, h):
    """Real pd x pd covariance of the stacked state innovation over one step,
    ``T [Sigma_{nu,mu}^{(h)}] T^H`` with the component Gramians from the
    sampling module."""
    comps = decomp.components
    G = np.block(sampling.innovation_gramians(
        [c.solvent for c in comps], [c.residue for c in comps], sigma_L, h))
    T = decomp.transform
    Q = T @ G @ T.conj().T
    return np.real(Q)


def _initial_state(decomp, rng, stationary_start):
    pd_dim = decomp.p * decomp.d
    if not stationary_start:
        return np.zeros(pd_dim)
    if not decomp.model.stationary:
        raise NotStationaryError("stationary start requires a stable model")
    pi = mcarma.stationary_state_covariance(
        decomp.statespace, decomp.model.sigma_L)
    return _psd_factor(pi, "stationary state covariance") @ rng.standard_normal(pd_dim)


def _modal_form(decomp):
    """Eigenbasis of the OU sum: ``R_k = P_k diag(lam_k) P_k^{-1}``.

    Returns the stacked latent roots ``lam`` (length pd), the block diagonal
    ``blkdiag(P_k)^{-1}`` that maps component coordinates to modal ones, and
    the d x pd read-out ``hstack(P_k)``; the read-out sums the components
    because ``C* T = (I, ..., I)``.  Each ``matpoly.Solvent`` carries its
    eigenbasis.
    """
    sols = [comp.solvent for comp in decomp.components]
    return (np.concatenate([s.spectrum for s in sols]),
            scipy.linalg.block_diag(*[s.P_inv for s in sols]),
            np.hstack([s.P for s in sols]))


def _scan(w, powers, z_prev):
    """Turn the innovations ``w`` (pd, L) of one chunk into the states
    ``z_j = a z_{j-1} + w_j`` started from ``z_prev``, in place.

    A log-step doubling scan: after the pass with shift s every column holds
    its last 2s innovations with their powers of a.  ``powers[:, s-1]`` is
    ``a^s``; only s <= L is used, so no power beyond the chunk overflows.
    """
    L = w.shape[1]
    s = 1
    while s < L:
        w[:, s:] += powers[:, s - 1:s] * w[:, :-s]
        s *= 2
    w += powers[:, :L] * z_prev[:, None]


def _jump_innovations(rng, rate, h, lam, G, L):
    """Modal innovations (pd, L) of L compound-Poisson steps.

    A jump drawn as ``F xi`` (F a factor of jump_cov, xi standard normal) at
    age u, the time from the jump to the next grid point, adds
    ``exp(u lam) * (G xi)`` with ``G = blkdiag(P_k)^{-1} stack(Res_k) F``;
    the jumps of one step are summed by ``np.add.reduceat``.  Counts, offsets
    and jumps of all L steps are drawn at once.
    """
    counts = rng.poisson(rate * h, size=L)
    total = int(counts.sum())
    w = np.zeros((lam.size, L), dtype=complex)
    if total:
        ages = h - rng.uniform(0.0, h, size=total)
        kicks = np.exp(np.outer(lam, ages)) * (G @ rng.standard_normal((G.shape[1], total)))
        hit = np.flatnonzero(counts)
        w[:, hit] = np.add.reduceat(kicks, np.cumsum(counts)[hit] - counts[hit], axis=1)
    return w


def simulate(decomp, driver, h, n_steps, stationary_start=False):
    """Simulate the OU components on the h-grid, exactly in distribution.

    The sum runs as pd scalar recursions ``z_n = e^{h lam} z_{n-1} + e_n`` in
    the solvents' eigenbasis (see :func:`_modal_form`), CHUNK steps at a
    time, and is read out as ``Y_n = Re sum_k P_k z_{k,n}``.

    Parameters
    ----------
    decomp : mcarma.OuDecomposition
    driver : DriverSpec
    h : positive step size
    n_steps : number of grid points (the path includes t = 0)
    stationary_start : bool
        Draw X(0) from the stationary Gaussian state law instead of
        starting at zero.  Exact for the Brownian driver; for the compound
        Poisson driver the stationary law has no closed form and the
        Gaussian draw is a documented approximation (alternatively burn in
        for about 20 / |max Re latent root| time units).

    Returns
    -------
    PathGrid
    """
    if h <= 0 or n_steps < 1:
        raise ValueError("need h > 0 and n_steps >= 1")
    rng = np.random.default_rng(np.random.SeedSequence(driver.seed))
    lam, P_inv, readout = _modal_form(decomp)
    to_modal = P_inv @ np.linalg.inv(decomp.transform)

    z = to_modal @ _initial_state(decomp, rng, stationary_start)
    y0 = readout @ z
    Y = np.empty((n_steps, decomp.d))
    Y[0] = y0.real
    max_imag = float(np.max(np.abs(y0.imag)))

    n = n_steps - 1
    if driver.kind == "brownian":
        Q = state_innovation_gramian(decomp, driver.sigma_L, h)
        E = to_modal @ _psd_factor(Q, "innovation Gramian")
        xi = rng.standard_normal((lam.size, n))

        def innovations(lo, hi):
            return E @ xi[:, lo:hi]
    else:
        jump_factor = _psd_factor(np.asarray(driver.jump_cov, dtype=float), "jump_cov")
        G = P_inv @ np.vstack([comp.residue for comp in decomp.components]) @ jump_factor

        def innovations(lo, hi):
            return _jump_innovations(rng, driver.rate, h, lam, G, hi - lo)

    powers = np.exp(np.outer(h * lam, np.arange(1, min(CHUNK, n) + 1)))
    for lo in range(0, n, CHUNK):
        hi = min(lo + CHUNK, n)
        w = innovations(lo, hi)
        _scan(w, powers, z)
        z = w[:, -1]
        out = readout @ w
        max_imag = max(max_imag, float(np.max(np.abs(out.imag))))
        Y[lo + 1:hi + 1] = out.real.T

    yscale = max(1.0, float(np.max(np.abs(Y))))
    if max_imag > IMAG_TOL_PATH * yscale:
        raise CholeskyFailError(
            f"path imaginary residue {max_imag:.3e} exceeds "
            f"{IMAG_TOL_PATH * yscale:.3e}")
    if not np.all(np.isfinite(Y)):
        raise CholeskyFailError("simulated path has non-finite entries")
    Y.setflags(write=False)
    return PathGrid(h=h, n_steps=n_steps, Y=Y, max_imag=max_imag)


def empirical_acvf(path, max_lag):
    """Biased sample autocovariances gamma_hat(0..max_lag) of a path.

    ``gamma_hat(l) = (1/N) sum_n (Y_{n+l} - mean)(Y_n - mean)^T``; requires
    N > 10 * max_lag.
    """
    Y = path.Y if isinstance(path, PathGrid) else np.asarray(path, dtype=float)
    n = Y.shape[0]
    if n <= 10 * max_lag:
        raise TooShortError(f"need more than {10 * max_lag} samples, got {n}")
    centered = Y - Y.mean(axis=0)
    out = []
    for lag in range(max_lag + 1):
        out.append(centered[lag:].T @ centered[:n - lag] / n)
    return out


def extract_noise(path, phi):
    """AR residual sequence ``U_n = Y_n - sum_j Phi_j Y_{n-j}``, n = p..N-1."""
    Y = path.Y if isinstance(path, PathGrid) else np.asarray(path, dtype=float)
    p = len(phi)
    n = Y.shape[0]
    if n <= p:
        raise TooShortError(f"need more than {p} samples, got {n}")
    U = np.array(Y[p:])
    for j, coef in enumerate(phi, start=1):
        U -= Y[p - j:n - j] @ coef.T
    return U


def attach_noise(path, phi):
    """Copy of the path carrying its extracted noise sequence in ``U``."""
    import dataclasses

    return dataclasses.replace(path, U=extract_noise(path, phi))


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
at a time by a blocked scan (:func:`_scan`): batched matrix products
against per-mode triangular Toeplitz stacks of powers of ``e^{h lam}``, so
no Python code runs per step and no ``expm`` is taken per jump.

Reproducibility: one path owns one seeded PCG64 generator; identical seeds
give bit-identical paths.  A Brownian path for a given seed equals that of
earlier releases up to rounding, except where a Gramian is singular to
rounding and ``_psd_factor`` falls back to its symmetric square root:
that factor moves continuously with the Gramian, so a rounding change moves
the path only slightly.  A compound-Poisson path for a given seed
differs from releases that simulated step by step, because the jump counts,
offsets and sizes are now drawn a chunk at a time; its law is unchanged.
For parallel paths split the seed with
``np.random.SeedSequence(seed).spawn(n)`` and give each path one child.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass

import numpy as np

from . import mcarma, tolerances as tol
from .exceptions import CholeskyFailError, NotStationaryError, TooShortError

log = logging.getLogger(__name__)

CHUNK = 1024  # grid steps per pass of the modal recursion; bounds powers and memory
BLOCK = 32  # steps per block of the blocked scan, see _scan


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
            if self.rate is None or not 0 < self.rate < np.inf:
                raise ValueError("compound_poisson driver needs a finite rate > 0")
            if self.jump_cov is None:
                raise ValueError("compound_poisson driver needs jump_cov")
        else:
            raise ValueError(f"unknown driver kind {self.kind!r}")


@dataclass(frozen=True)
class PathGrid:
    """A simulated path on the grid 0, h, ..., (n_steps-1) h.

    ``imag_residue`` is the ``tolerances.Check`` record of the largest
    imaginary residue of the modal read-out, certified at most
    ``tolerances.PATH_LEAK * max(1, max|Y|)``.
    """

    h: float
    n_steps: int
    Y: np.ndarray
    imag_residue: tol.Check


def _psd_factor(mat, what):
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


def state_innovation_gramian(decomp, sigma_L, h):
    """Real pd x pd covariance of the stacked state innovation over one step,
    ``T [Sigma_{nu,mu}^{(h)}] T^H`` with the component Gramians of
    ``mcarma.component_gramians``; for h = inf, the stationary state
    covariance Pi."""
    pd_dim = decomp.p * decomp.d
    G = mcarma.component_gramians(decomp.solvent_set, decomp.residues, sigma_L, h)
    T = decomp.transform
    Q = T @ G.swapaxes(1, 2).reshape(pd_dim, pd_dim) @ T.conj().T
    return np.real(Q)


def _stationary_state(decomp, rng):
    """A draw of X(0) from the stationary Gaussian state law."""
    if np.any(decomp.y0):
        raise ValueError("stationary_start draws the initial state: "
                         "decompose without x0")
    if not decomp.model.stationary:
        raise NotStationaryError("stationary start requires a stable model")
    pi = state_innovation_gramian(decomp, decomp.model.sigma_L, np.inf)
    pd_dim = decomp.p * decomp.d
    return _psd_factor(pi, "stationary state covariance") @ rng.standard_normal(pd_dim)


def _modal_form(decomp):
    """Eigenbasis of the OU sum: ``R_k = P_k diag(lam_k) P_k^{-1}``.

    Returns the stacked latent roots ``lam`` (length pd), the block diagonal
    ``blkdiag(P_k)^{-1}`` that maps component coordinates to modal ones, and
    the d x pd read-out ``hstack(P_k)``; the read-out sums the components
    because ``C* T = (I, ..., I)``.  The solvent set carries the stacked
    eigenbases.
    """
    S = decomp.solvent_set
    p, d = S.P.shape[:2]
    P_inv = np.zeros((p, d, p, d), dtype=complex)
    P_inv[np.arange(p), :, np.arange(p)] = S.P_inv
    return S.roots, P_inv.reshape(p * d, p * d), S.P.swapaxes(0, 1).reshape(d, p * d)


def _toeplitz_stack(powers):
    """``K[k, i, j] = powers[k, j - i]`` for j >= i and 0 below the diagonal.

    The lag is clipped at 0 before the lookup, so the lower triangle reads
    ``powers[:, 0]`` before it is zeroed and never forms a negative power.
    """
    size = powers.shape[1]
    lag = np.arange(size) - np.arange(size)[:, None]
    return powers[:, np.maximum(lag, 0)] * (lag >= 0)


def _transfer_stacks(h_lam, n):
    """The per-mode stacks :func:`_scan` needs for a path of n steps.

    Within a block ``e^{(j - i) h lam}`` (BLOCK x BLOCK); across the at most
    CHUNK / BLOCK block ends of a chunk, the same on ``e^{BLOCK h lam}``; and
    ``e^{(j + 1) h lam}``, j < BLOCK, which carries a block's incoming state
    to its steps.  Each power is one ``np.exp`` of ``h lam`` times its lag;
    lags are clipped at the path length, so no power of an unstable root
    beyond the path is formed (a clipped entry only reaches the padding
    columns of a chunk shorter than BLOCK, which are dropped).
    """
    ends = -(-min(CHUNK, n) // BLOCK)
    powers = np.exp(np.outer(h_lam, np.minimum(np.arange(BLOCK + 1), n)))
    block_powers = np.exp(np.outer(BLOCK * h_lam, np.minimum(np.arange(ends), n // BLOCK)))
    return _toeplitz_stack(powers[:, :BLOCK]), _toeplitz_stack(block_powers), powers[:, 1:]


def _scan(w, z_prev, stacks):
    """States ``z_j = a z_{j-1} + w_j`` of one chunk of innovations ``w``
    (pd, L), L <= CHUNK, started from ``z_prev``; ``a = e^{h lam}``.

    A two-level blocked scan.  The chunk, zero-padded to M whole blocks, is
    reshaped to (pd, M, BLOCK), and one batched product with the Toeplitz
    stack runs every block's recursion from zero.  The state entering each
    block follows from the same construction on ``a^BLOCK`` over the vector
    (z_prev, block ends), and is added to its block times ``a^(j + 1)``.
    """
    local, across, lift = stacks
    pd_dim, L = w.shape
    m = -(-L // BLOCK)
    if L % BLOCK:
        w = np.concatenate([w, np.zeros((pd_dim, m * BLOCK - L), dtype=complex)], axis=1)
    z = np.matmul(w.reshape(pd_dim, m, BLOCK), local)
    ends = np.empty((pd_dim, 1, m), dtype=complex)
    ends[:, 0, 0] = z_prev
    ends[:, 0, 1:] = z[:, :-1, -1]
    entering = np.matmul(ends, across[:, :m, :m])
    z += entering.reshape(pd_dim, m, 1) * lift[:, None, :]
    return z.reshape(pd_dim, m * BLOCK)[:, :L]


def _complex_times_real(E, x):
    """``E @ x`` for complex E and real x, as two real products written into
    one complex array (``E @ x`` itself would cast x to complex)."""
    w = np.empty((E.shape[0], x.shape[1]), dtype=complex)
    w.real = E.real @ x
    w.imag = E.imag @ x
    return w


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
        kicks = np.exp(np.outer(lam, ages)) * _complex_times_real(
            G, rng.standard_normal((G.shape[1], total)))
        hit = np.flatnonzero(counts)
        w[:, hit] = np.add.reduceat(kicks, np.cumsum(counts)[hit] - counts[hit], axis=1)
    return w


def simulate(decomp, driver, h, n_steps, stationary_start=False):
    """Simulate the OU components on the h-grid, exactly in distribution.

    The sum runs as pd scalar recursions ``z_n = e^{h lam} z_{n-1} + e_n`` in
    the solvents' eigenbasis (see :func:`_modal_form`), CHUNK steps at a
    time by the blocked scan :func:`_scan`, and is read out as
    ``Y_n = Re sum_k P_k z_{k,n}``.  Each call logs the driver kind, the
    steps, pd and its wall time at DEBUG.

    Parameters
    ----------
    decomp : mcarma.OuDecomposition
    driver : DriverSpec
    h : finite positive step size
    n_steps : number of grid points (the path includes t = 0)
    stationary_start : bool
        Draw X(0) from the stationary Gaussian state law instead of
        starting at the decomposition's initial values ``decomp.y0`` (the
        components of its x0, zero by default), which must then be zero.
        Exact for the Brownian driver; for the compound Poisson driver the
        stationary law has no closed form and the Gaussian draw is a
        documented approximation (alternatively burn in for about
        20 / |max Re latent root| time units).

    Returns
    -------
    PathGrid
    """
    if not 0 < h < np.inf or n_steps < 1:
        raise ValueError("need a finite h > 0 and n_steps >= 1")
    start = time.perf_counter()
    rng = np.random.default_rng(np.random.SeedSequence(driver.seed))
    lam, P_inv, readout = _modal_form(decomp)
    to_modal = P_inv @ np.linalg.inv(decomp.transform)

    if stationary_start:
        z = to_modal @ _stationary_state(decomp, rng)
    else:
        z = P_inv @ decomp.y0.reshape(-1)
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
            return _complex_times_real(E, xi[:, lo:hi])
    else:
        jump_factor = _psd_factor(np.asarray(driver.jump_cov, dtype=float), "jump_cov")
        G = P_inv @ decomp.residues.reshape(lam.size, -1) @ jump_factor

        def innovations(lo, hi):
            return _jump_innovations(rng, driver.rate, h, lam, G, hi - lo)

    stacks = _transfer_stacks(h * lam, n)
    for lo in range(0, n, CHUNK):
        hi = min(lo + CHUNK, n)
        states = _scan(innovations(lo, hi), z, stacks)
        z = states[:, -1]
        out = readout @ states
        max_imag = max(max_imag, float(np.max(np.abs(out.imag))))
        Y[lo + 1:hi + 1] = out.real.T

    if not np.all(np.isfinite(Y)):
        raise CholeskyFailError("simulated path has non-finite entries")
    imag_residue = tol.certify(CholeskyFailError, "path imaginary residue", max_imag,
                               tol.PATH_LEAK * max(1.0, float(np.max(np.abs(Y)))))
    Y.setflags(write=False)
    log.debug("simulate: %s driver, %d steps, pd=%d, %.6f s",
              driver.kind, n_steps, lam.size, time.perf_counter() - start)
    return PathGrid(h=h, n_steps=n_steps, Y=Y, imag_residue=imag_residue)


def empirical_acvf(path, max_lag):
    """Biased sample autocovariances gamma_hat(0..max_lag) of a path,
    stacked (max_lag + 1, d, d).

    ``gamma_hat(l) = (1/N) sum_n (Y_{n+l} - mean)(Y_n - mean)^T``; requires
    N > 10 * max_lag.
    """
    Y = path.Y if isinstance(path, PathGrid) else np.asarray(path, dtype=float)
    n = Y.shape[0]
    if n <= 10 * max_lag:
        raise TooShortError(f"need more than {10 * max_lag} samples, got {n}")
    centered = Y - Y.mean(axis=0)
    out = np.empty((max_lag + 1, Y.shape[1], Y.shape[1]))
    for lag in range(max_lag + 1):
        out[lag] = centered[lag:].T @ centered[:n - lag]
    return out / n


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

"""Exact-in-distribution path simulation of the OU sum on the h-grid.

A path reads only its model and the x0 its decomposition was given, so it
does not depend on how the roots are grouped.  The model owns the law: the
one-step covariance Q_h of the Brownian innovations and the stationary
start's Pi (``mcarma.Modes.gramian``), the compound-Poisson jumps N(0,
sigma_L / rate), and the modal form (``mcarma.ModalForm``), a real change of
basis with its packed layout [u; Re v; Im v] of real modes u and one mode v
per conjugate pair.  This module holds the rest: the draws, the blocked
scan (:func:`_scan`), which solves each group of modes ``z_n = e^{h lam}
z_{n-1} + e_n`` CHUNK steps at a time by batched products against Toeplitz
stacks of powers of ``e^{h lam}``, so no Python code runs per step and no
``expm`` is taken per jump; the step entry that keeps those stacks and the
Brownian rows ``to_modes @ F`` (F a factor of Q_h) per h
(:func:`_kept_step`); and the read-out ``from_modes[:d]``.
:func:`path_blocks` yields the path one chunk at a time and :func:`simulate`
collects it; :func:`extract_noise` and :func:`empirical_acvf` read a path or
its blocks, so a consumer of the blocks holds O(CHUNK pd) numbers.

Reproducibility: one path owns one PCG64 generator seeded by its driver's
seed; identical seeds give bit-identical paths, for every grouping of the
roots.  Every Gaussian draw goes through the symmetric square root of its
covariance (``mcarma.psd_factor``), so a seeded path moves with the rounding
of Q_h, Pi and sigma_L / rate and no more.  The normals of a Brownian chunk
of L steps are one time-major (L, pd) draw, so a seeded path is, to
rounding, the start of every longer path with its seed.  Compound-Poisson
counts, ages and sizes are drawn a chunk at a time.  For parallel paths
give each path one child of ``np.random.SeedSequence(seed).spawn(n)``.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass

import numpy as np

from . import matpoly, mcarma, tolerances as tol
from .exceptions import CholeskyFailError, NotStationaryError, TooShortError

log = logging.getLogger(__name__)

CHUNK = 1024  # grid steps per pass of the modal recursion; bounds powers and memory
BLOCK = 32  # steps per block of the blocked scan, see _scan


# the fields of DriverSpec that each kind does not read
_UNREAD = {"brownian": ("rate", "jump_cov"), "compound_poisson": ("sigma_L",)}


@dataclass(frozen=True)
class DriverSpec:
    """Zero-mean Levy driver: Brownian or compound Poisson with Gaussian jumps.

    ``Var L(1)`` is the model's ``sigma_L``: a Brownian driver is a seed, and
    a compound-Poisson driver a seed and a rate, whose jumps are N(0,
    sigma_L / rate).  Each kind may restate it, checked against the model
    by :func:`check_driver`: a Brownian driver as ``sigma_L``, a
    compound-Poisson one as ``jump_cov`` with ``rate * jump_cov``.  A path
    reads only the model's.  A field its kind does not read (``rate`` or
    ``jump_cov`` of a Brownian driver, ``sigma_L`` of a compound-Poisson
    one) is a ValueError.  This class and :func:`check_driver` own a
    driver's rules; the CLI maps their ValueError.
    """

    kind: str
    seed: int
    sigma_L: np.ndarray | None = None
    rate: float | None = None
    jump_cov: np.ndarray | None = None

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"seed must be at least 0, got {self.seed}")
        unread = _UNREAD.get(self.kind) if isinstance(self.kind, str) else None
        if unread is None:
            raise ValueError(f"unknown driver kind {self.kind!r}")
        for name in unread:
            if getattr(self, name) is not None:
                raise ValueError(f"a {self.kind} driver takes no {name}")
        if self.kind == "compound_poisson":
            if self.rate is None:
                raise ValueError("compound_poisson driver needs a rate")
            if not 0 < self.rate < np.inf:
                raise ValueError(f"rate must be positive (a finite rate > 0), got {self.rate!r}")


def check_driver(driver, sigma_L):
    """Raise ``ValueError`` unless the Var L(1) a driver states, if any, is the
    model's ``sigma_L``."""
    cp = driver.kind == "compound_poisson"
    stated = driver.jump_cov if cp else driver.sigma_L
    if stated is None:
        return
    name, var = (("jump_cov", driver.rate * np.asarray(stated, dtype=float)) if cp
                 else ("sigma_L", np.asarray(stated, dtype=float)))
    if var.shape != sigma_L.shape:
        raise ValueError(f"driver.{name} must have the shape of sigma_L, {sigma_L.shape}")
    if not np.max(np.abs(var - sigma_L)) <= tol.DRIVER_MATCH * max(1.0, np.max(np.abs(sigma_L))):
        raise ValueError(f"{'rate * ' if cp else 'driver.'}{name} must equal sigma_L (Var L(1))")


@dataclass(frozen=True)
class PathGrid:
    """A simulated path on the grid 0, h, ..., (n_steps-1) h.

    ``fold_residual`` is the ``tolerances.Check`` record of the fold of the
    modal form the path ran in (``mcarma.ModalForm.fold``), certified at
    most ``tolerances.PATH_LEAK``.
    """

    h: float
    n_steps: int
    Y: np.ndarray
    fold_residual: tol.Check


def _stationary_state(decomp, rng):
    """A draw of X(0) from the stationary Gaussian state law."""
    if np.any(decomp.x0):
        raise ValueError("stationary_start draws the initial state: decompose without x0")
    if not decomp.model.stationary:
        raise NotStationaryError("stationary start requires a stable model")
    factor = decomp.model.modes.stationary_state_factor
    return factor @ rng.standard_normal(factor.shape[1])


def _toeplitz_stack(powers):
    """``K[k, i, j] = powers[k, j - i]`` for j >= i and 0 below the diagonal.

    The lag is clipped at 0 before the lookup, so the lower triangle reads
    ``powers[:, 0]`` before it is zeroed and never forms a negative power.
    """
    size = powers.shape[1]
    lag = np.arange(size) - np.arange(size)[:, None]
    return powers[:, np.maximum(lag, 0)] * (lag >= 0)


def _transfer_stacks(h_lam, n):
    """The per-mode stacks :func:`_scan` needs for a path of n steps, in the
    dtype of ``h_lam`` (real modes real, pairs complex).

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


def _kept_step(form, h, n):
    """The modal form's one step entry, replaced at another (h, min(n, CHUNK)):
    the read-only ``_transfer_stacks`` of each of ``form.groups`` (for n >=
    CHUNK they do not depend on n), to which a Brownian path adds its rows."""
    key = (h, min(n, CHUNK))
    step = form.step.get(key)
    if step is None:
        stacks = [_transfer_stacks(h * r, n) for r in form.groups]
        step = {"stacks": [[*map(matpoly._readonly, st)] for st in stacks]}
        form.step.clear()
        form.step[key] = step
    return step


def _scan(w, z_prev, stacks):
    """States ``z_j = a z_{j-1} + w_j`` of one chunk of innovations ``w``
    (modes, L), L <= CHUNK, started from ``z_prev``; ``a = e^{h lam}``.

    A two-level blocked scan, in the dtype of ``w``.  The chunk, zero-padded
    to M whole blocks, is reshaped to (modes, M, BLOCK), and one batched
    product with the Toeplitz stack runs every block's recursion from zero.
    The state entering each block follows from the same construction on
    ``a^BLOCK`` over the vector (z_prev, block ends), and is added to its
    block times ``a^(j + 1)``.
    """
    local, across, lift = stacks
    modes, L = w.shape
    m = -(-L // BLOCK)
    if L % BLOCK:
        w = np.concatenate([w, np.zeros((modes, m * BLOCK - L), dtype=w.dtype)], axis=1)
    z = np.matmul(w.reshape(modes, m, BLOCK), local)
    ends = np.empty((modes, 1, m), dtype=w.dtype)
    ends[:, 0, 0] = z_prev
    ends[:, 0, 1:] = z[:, :-1, -1]
    entering = np.matmul(ends, across[:, :m, :m])
    z += entering.reshape(modes, m, 1) * lift[:, None, :]
    return z.reshape(modes, m * BLOCK)[:, :L]


def _jump_innovations(rng, rate, h, form, kicks, L):
    """Modal innovations of L compound-Poisson steps, one (modes, L) array
    per group of ``form.groups``.

    A jump drawn as ``F xi`` (F a factor of sigma_L / rate, xi standard
    normal) at age u, the time from the jump to the next grid point, adds
    ``exp(u lam) * (G xi)`` to the modes, G the rows of ``kicks = to_modes @
    B* F`` split into the groups; the jumps of one step are summed by
    ``np.add.reduceat``.  Counts, ages and jumps of all L steps are drawn
    once for all groups.
    """
    counts = rng.poisson(rate * h, size=L)
    total = int(counts.sum())
    roots = form.groups
    w = [np.zeros((r.size, L), dtype=r.dtype) for r in roots]
    if total:
        ages = h - rng.uniform(0.0, h, size=total)
        xi = rng.standard_normal((kicks.shape[1], total))
        hit = np.flatnonzero(counts)
        first = np.cumsum(counts)[hit] - counts[hit]
        for out, r, g in zip(w, roots, form.split(kicks @ xi)):
            out[:, hit] = np.add.reduceat(np.exp(np.outer(r, ages)) * g, first, axis=1)
    return w


def path_blocks(decomp, driver, h, n_steps, stationary_start=False):
    """Yield the path of :func:`simulate` as row blocks: its start point
    ``Y_0`` as one (1, d) block, then the grid points of each CHUNK steps.

    Every block is certified finite before it is yielded, and everything a
    path needs before its first step (the start, the modal form, the factor
    of Q_h) is built before the first block.  A Brownian chunk of L steps
    draws its standard normals as one time-major (L, pd) array, so a path
    holds O(CHUNK pd) numbers at any length, and a seeded path of n points
    is, to rounding, the first n points of every longer path with its seed.  Arguments and
    errors as :func:`simulate`; they are checked at the first ``next``.
    """
    if not 0 < h < np.inf or n_steps < 1:
        raise ValueError("need a finite h > 0 and n_steps >= 1")
    model = decomp.model
    check_driver(driver, model.sigma_L)
    rng = np.random.default_rng(np.random.SeedSequence(driver.seed))
    form = model.modes.modal_form
    readout = form.from_modes[:model.d]

    x = _stationary_state(decomp, rng) if stationary_start else decomp.x0
    z = form.split(form.to_modes @ x)
    n = n_steps - 1
    # only a latent root with Re >= 0 overflows a power, Q_h or a state:
    # such a path forms its step entry and each block with over/invalid
    # ignored, so finite() and psd_factor judge; a stable path pays no errstate
    quiet = ((lambda fn: fn) if model.stationary
             else np.errstate(over="ignore", invalid="ignore"))
    step = quiet(_kept_step)(form, h, n)
    if driver.kind == "brownian":
        if "rows" not in step:
            F = mcarma.psd_factor(quiet(model.modes.gramian)(h), "innovation Gramian")
            step["rows"] = matpoly._readonly(form.to_modes @ F)

        def innovations(L):
            return form.split(step["rows"] @ rng.standard_normal((L, len(x))).T)
    else:
        jump_factor = mcarma.psd_factor(model.sigma_L / driver.rate, "jump covariance")
        kicks = form.to_modes @ (model.statespace.B_star @ jump_factor)

        def innovations(L):
            return _jump_innovations(rng, driver.rate, h, form, kicks, L)

    def finite(block):
        if not np.isfinite(block).all():
            raise CholeskyFailError("simulated path has non-finite entries")
        return block

    @quiet
    def advance(z, L):
        states = [_scan(w, zg, st) for w, zg, st in zip(innovations(L), z, step["stacks"])]
        return [s[:, -1] for s in states], readout @ form.pack(states)

    yield finite(readout @ form.pack(z))[None]
    for lo in range(0, n, CHUNK):
        z, block = advance(z, min(CHUNK, n - lo))
        yield finite(block).T


def simulate(decomp, driver, h, n_steps, stationary_start=False):
    """Simulate the OU components on the h-grid, exactly in distribution.

    The path is the blocks of :func:`path_blocks` collected.  Each call
    logs the driver kind, the steps, pd with its real modes and pairs, and
    its wall time at DEBUG.

    Parameters
    ----------
    decomp : mcarma.OuDecomposition
    driver : DriverSpec, whose ``Var L(1)`` is the model's (:func:`check_driver`)
    h : finite positive step size
    n_steps : number of grid points (the path includes t = 0)
    stationary_start : bool
        Draw X(0) from the stationary Gaussian state law instead of
        starting at the decomposition's ``x0`` (zero by default), which must
        then be zero.  Exact for the Brownian driver; for the compound
        Poisson driver the stationary law has no closed form and the
        Gaussian draw is a documented approximation (alternatively burn in
        for about 20 / |max Re latent root| time units).

    Returns
    -------
    PathGrid

    Raises
    ------
    ImaginaryLeakError
        When the modal form's fold fails its certificate.
    CholeskyFailError
        When the path or its Q_h is not finite (an unstable model's path
        overflows).
    """
    start = time.perf_counter()
    Y = np.concatenate(list(path_blocks(decomp, driver, h, n_steps, stationary_start)))
    Y.setflags(write=False)
    form = decomp.model.modes.modal_form
    log.debug("simulate: %s driver, %d steps, pd=%d (%d real, %d pairs), %.6f s",
              driver.kind, n_steps, len(form.to_modes), form.real_roots.size,
              form.pair_roots.size, time.perf_counter() - start)
    return PathGrid(h=h, n_steps=n_steps, Y=Y, fold_residual=form.fold)


def require_samples(n, need):
    """Raise ``TooShortError`` unless a path has more than ``need`` samples."""
    if n <= need:
        raise TooShortError(f"need more than {need} samples, got {n}")


def _blocks(path):
    """A path's rows as an iterable of row blocks: a PathGrid or an array is one block."""
    if isinstance(path, PathGrid):
        path = path.Y
    return (path,) if isinstance(path, np.ndarray) else path


def empirical_acvf(path, max_lag):
    """Biased sample autocovariances gamma_hat(0..max_lag) of a path,
    stacked (max_lag + 1, d, d).

    ``gamma_hat(l) = (1/N) sum_n (Y_{n+l} - mean)(Y_n - mean)^T``; requires
    N > 10 * max_lag.  ``path`` is a PathGrid, an (N, d) array or an
    iterable of (rows, d) blocks in path order, read once.  The sums run on
    ``x = Y - c``, c the first block's mean, and carry the last max_lag rows
    from block to block; with xbar the mean of x and head_l, tail_l the sums
    of its first and last l rows, ``N gamma_hat(l) = sum_n x_{n+l} x_n^T -
    (N + l) xbar xbar^T + head_l xbar^T + xbar tail_l^T``, so no second,
    centring pass is needed.
    """
    n, sums = 0, None
    for block in _blocks(path):
        block = np.asarray(block, dtype=float)
        if not len(block):
            continue
        if sums is None:
            shift = block.mean(axis=0)
            sums = np.zeros((max_lag + 1, block.shape[1], block.shape[1]))
            total = np.zeros(block.shape[1])
            head = tail = block[:0]
        x = block - shift
        total += x.sum(axis=0)
        if len(tail):
            x = np.concatenate([tail, x])
        for lag in range(max_lag + 1):
            first = max(len(tail), lag)  # the first row of x pairing into this block
            sums[lag] += x[first:].T @ x[first - lag:len(x) - lag]
        if len(head) < max_lag:  # tail held every earlier row
            head = x[:max_lag]
        tail = x[max(0, len(x) - max_lag):]
        n += len(block)
    require_samples(n, 10 * max_lag)
    xbar = total / n
    zero = np.zeros((1, len(xbar)))
    head_l = np.cumsum(np.concatenate([zero, head]), axis=0)
    tail_l = np.cumsum(np.concatenate([zero, tail[::-1]]), axis=0)
    lags = np.arange(max_lag + 1)[:, None, None]
    return (sums - (n + lags) * np.outer(xbar, xbar) + head_l[:, :, None] * xbar
            + xbar[:, None] * tail_l[:, None, :]) / n


def _noise_blocks(blocks, phi):
    """U of each block of Y, carrying the last p rows of Y to the next block."""
    p = len(phi)
    n, tail = 0, None
    for block in blocks:
        Y = np.asarray(block, dtype=float)
        n += len(Y)
        if tail is not None:
            Y = np.concatenate([tail, Y])
        U = np.array(Y[p:])
        for j, coef in enumerate(phi, start=1):
            U -= Y[p - j:p - j + len(U)] @ coef.T
        tail = Y[max(0, len(Y) - p):]
        yield U
    require_samples(n, p)


def extract_noise(path, phi):
    """AR residual sequence ``U_n = Y_n - sum_j Phi_j Y_{n-j}``, n = p..N-1.

    U as one array for a PathGrid or an (N, d) array; for an iterable of
    row blocks of Y, an iterator of U blocks, one per Y block and aligned
    with its last rows (a block's rows n < p have none).
    """
    if isinstance(path, (PathGrid, np.ndarray)):
        (U,) = _noise_blocks(_blocks(path), phi)
        return U
    return _noise_blocks(path, phi)

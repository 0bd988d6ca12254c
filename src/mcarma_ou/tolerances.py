"""The tolerance policy: every certificate bound, and the one comparison.

One line per bound, ``NAME = value  # quantity; scale``: the bound is
``value * scale``, scaled as the rounding of what it judges (Higham, Accuracy
and Stability of Numerical Algorithms, 2nd ed., section 3.5, for products;
Tisseur, Linear Algebra Appl. 309 (2000), ``matpoly.backward_scale``, for
matrix polynomials).  ``abs`` marks a bound that is not scale-free: rescaling
time can change its verdict.  A certificate holds when ``measured <= bound <
inf``, or ``>=`` for a bound marked ``at least``, elementwise, so a NaN or an
overflowed bound fails; one marked ``exceeded`` is strict and passes
``np.nextafter(bound, np.inf)``.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

STRUCTURE = 1e-14         # max|A_0 - I| (monic), max|Im A_i| (real); 1; abs
LATENT_RESIDUAL = 1e-8    # ||A(lam) v|| of each latent pair; backward_scale(A, lam)
CONDITION = 1e12          # cond of companion eigenvectors, V, sampled standard pair Q, Psi_p; 1
GROUPING_TIE = 1e-12      # condition gain that places latent pairs in a later group; 1
GROUP_CONDITION = 1e10    # cond(P_k) of the latent vectors of each solvent; 1
SOLVENT_RESIDUAL = 1e-9   # ||A_R(R_k)||_F of each solvent; max(1, ||A_p||_F); abs
EIG_MATCH = 1e-8          # eigenvalue gap, ||built - given R_k||_F; 1 + max|lam| (roots), ||R_k||_F (given solvents); abs
COPRIME_RANK = 1e-8       # sigma_d of [A(lam) | B(lam)], scaled blocks (exceeded); sigma_max
COPRIME_FLOOR = 1e-12     # sigma_max of that row, blocks over backward_scale (exceeded); 1
POLE_GAP = 1e-10          # distance of an evaluation point to a latent root (at least); 1; abs
INPUT_COVARIANCE = 1e-12  # asymmetry, -min eig of sigma_L; max(1, max|sigma_L|), 1; abs
SHARP_IDENTITY = 1e-12    # max|A# B* - B#|; max(|A#| |B*|)
INIT_LEAK = 1e-10         # max|Im T y0| of the component initials; max(1, max(|T| |y0|)); abs
SIMILARITY = 1e-9         # A* T - T diag(R_k), B* - T Res, C* T - (I..I); |A*| |T| + |T| |R|, |T| |Res|, |C*| |T| elementwise
IMAG_LEAK = 1e-9          # Im of a real sum, gamma_U(0) asymmetry; max(1, top term), verify 1; abs
ACVF_ASYMMETRY = 1e-10    # gamma(0) asymmetry; max(1, top term), verify max(1, max|gamma(0)|); abs
PSD_FLOOR = 1e-10         # -min eig of gamma(0); max(1, trace); abs
SYLVESTER_GAP = 1e-12     # min|lam_a + conj(mu_b)| of a Gramian over [0, inf) (at least); 1; abs
ALIAS = 1e-10             # |e^{-h lam_i} - e^{-h lam_j}|, lam_i, lam_j apart (at least); 1; abs
EXP_OVERFLOW = float(np.log(np.finfo(float).max))  # p h max(-Re lam) of the sampled solvents; 1
AR_RESIDUAL = 1e-8        # ||Phi(z) x|| of each latent pair (lam, x), z = e^{-h lam}; backward_scale(Phi, z)
DOUBLING = 1e-13          # ||H_{k+1} - H_k||_F, when the MA doubling stops; ||H_{k+1}||_F
PD_FLOOR = 1e-10          # min eig of gamma_U(0) and of Sigma_eps (exceeded); trace gamma_U(0)
ZERO_AT_INFINITY = 1e-12  # spectral radius at or below which det Theta has no finite zero; 1; abs
MA_ROUNDTRIP = 1e-6       # MA round trip error; max(1, ||gamma_U(l)||), see fit_ma; abs
PSD_CLIP = 1e-12          # -min eig of a Gramian factored with clipping; max|eig|
PATH_LEAK = 1e-8          # modal fold residual, max|Im lam| of its real modes; |B| |W| elementwise, max|lam|
DRIVER_MATCH = 1e-10      # max|Var L(1) a driver states - model sigma_L|, sim.check_driver; max(1, max|sigma_L|); abs
ORACLE = 1e-8             # kernel, fraction, ACVF vs oracle; 1 + ||B*||, max(1, ||want||); abs
NOISE_ACVF = 1e-7         # gamma_U against the sampled state space; max(1, ||want||); abs
MA_MARGIN = 1e-6          # min|zero of det Theta| - 1 (at least), fit_ma fails below -MA_MARGIN; 1
CLT_BAND = 1.0            # chi^2 statistic of the noise's sample ACVF at lags p..p+3; its 99% quantile


class Check(NamedTuple):
    """A ``verify`` row or the record of a passed certificate (``certify``)."""

    name: str
    measured: float
    bound: float
    ok: bool


def _ok(measured, bound, at_least):
    if at_least:
        return measured >= bound
    if type(bound) is np.ndarray:
        return (measured <= bound) & (bound < np.inf)
    return measured <= (bound if bound < np.inf else np.nan)  # nothing is <= nan


def check(name, measured, bound, at_least=False):
    """The ``verify`` row ``name`` of a scalar measurement."""
    measured, bound = float(measured), float(bound)
    return Check(name, measured, bound, _ok(measured, bound, at_least))


def _entry(x, shape, i):
    """Flat entry ``i`` of ``x`` broadcast to ``shape``; a scalar is not broadcast."""
    if type(x) is not np.ndarray:
        return float(x)
    return float((x if x.shape == shape else np.broadcast_to(x, shape)).flat[i])


def certify(error, what, measured, bound, at_least=False):
    """Raise ``error`` unless ``measured <= bound`` (``>=`` with ``at_least``)
    everywhere, naming ``what``, the first failing entry and its bound, and
    whether that bound overflowed (is not finite); else return the ``Check``
    of ``what`` at the entry of least slack."""
    ok = _ok(measured, bound, at_least)
    if type(ok) is not np.ndarray:
        if ok:
            return Check(what, float(measured), float(bound), True)
    elif ok.all():
        i = (measured - bound if at_least else bound - measured).argmin()
        return Check(what, _entry(measured, ok.shape, i), _entry(bound, ok.shape, i), True)
    at = np.unravel_index(np.argmin(ok), np.shape(ok))
    m, b = np.broadcast_arrays(measured, bound)
    where = str([int(i) for i in at]) if at else ""
    overflowed = "" if np.isfinite(b[at]) else " (the bound overflowed)"
    raise error(f"{what}{where} = {m[at]:.3e} {'below' if at_least else 'exceeds'} "
                f"{b[at]:.3e}{overflowed}")

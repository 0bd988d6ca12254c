"""A 50-digit reference for the sampled VARMA, read off the state space alone.

No latent root, solvent or eigendecomposition enters: with the model's
state space (A*, B*, C*) and the driver covariance Sigma_L, in ``mpmath``
at ``DIGITS`` significant digits,

- ``F = e^{h A*}`` by ``mp.expm``;
- Phi from the observability matrix, ``[Phi_1, ..., Phi_p] col(C F^(p-1),
  ..., C F, C) = C F^p``;
- the stationary state covariance Pi from the Kronecker form of the
  Lyapunov equation, ``(I (x) A* + A* (x) I) vec Pi = -vec(B* Sigma_L B*^T)``;
- the stationary autocovariance ``gamma(l) = C e^{l A*} Pi C^T``;
- gamma_U(l) = ``sum_r M_{r+l} Q_h M_r^T`` with ``Q_h = Pi - F Pi F^T`` and
  ``M_r = C F^r - sum_{j<=r} Phi_j C F^{r-j}`` (Chambers & Thornton,
  Econometric Theory 28 (2012)).

``Q_h`` cancels at small h, but that costs only a few of the 50 digits.  A
reference at pd = 6 takes about 0.2 s and at pd = 9 about 1.5 s, most of
it the Kronecker solve.
"""

import mpmath
import numpy as np

DIGITS = 50


def _mp(a):
    return mpmath.matrix(np.asarray(a, dtype=float).tolist())


def _np(m):
    return np.array(m.tolist(), dtype=float)


def _stationary_covariance(A, BSB):
    """Pi of ``A Pi + Pi A^T = -BSB`` by the Kronecker form, symmetrized."""
    n = A.rows
    kron = mpmath.matrix(n * n, n * n)  # column-major vec: vec(A Pi + Pi A^T)
    for a in range(n):
        for b in range(n):
            for k in range(n):
                kron[a + n * b, k + n * b] += A[a, k]
                kron[a + n * b, a + n * k] += A[b, k]
    vec = mpmath.lu_solve(kron, mpmath.matrix([-BSB[a, b] for b in range(n) for a in range(n)]))
    pi = mpmath.matrix(n, n)
    for a in range(n):
        for b in range(n):
            pi[a, b] = vec[a + n * b]
    return (pi + pi.T) / 2


def stationary_acvf_reference(model, lags):
    """The stationary autocovariance ``C e^{l A*} Pi C^T`` of ``model`` at
    each lag, as a float stack (len(lags), d, d) rounded from ``DIGITS``
    digits."""
    ss = model.statespace
    with mpmath.workdps(DIGITS):
        A, B, C = _mp(ss.A_star), _mp(ss.B_star), _mp(ss.C_star)
        pi_ct = _stationary_covariance(A, B * _mp(model.sigma_L) * B.T) * C.T
        return np.array([_np(C * mpmath.expm(mpmath.mpf(lag) * A) * pi_ct) for lag in lags])


def sampled_varma_reference(model, h):
    """(Phi, gamma_U) of ``model`` sampled at step h, as float stacks
    (p, d, d) rounded from ``DIGITS`` digits."""
    ss = model.statespace
    p, d = model.p, model.d
    n = p * d
    with mpmath.workdps(DIGITS):
        A, B, C = _mp(ss.A_star), _mp(ss.B_star), _mp(ss.C_star)
        F = mpmath.expm(mpmath.mpf(h) * A)
        CF = [C]  # C F^k, k = 0..p
        for _ in range(p):
            CF.append(CF[-1] * F)
        obs = mpmath.matrix(n, n)
        for i in range(p):  # block row i is C F^(p-1-i)
            for r in range(d):
                for c in range(n):
                    obs[i * d + r, c] = CF[p - 1 - i][r, c]
        phi_row = CF[p] * mpmath.inverse(obs)  # [Phi_1, ..., Phi_p]
        phi = [phi_row[:, j * d:(j + 1) * d] for j in range(p)]

        pi = _stationary_covariance(A, B * _mp(model.sigma_L) * B.T)
        Q = pi - F * pi * F.T

        M = []
        for r in range(p):
            acc = CF[r]
            for j in range(1, r + 1):
                acc = acc - phi[j - 1] * CF[r - j]
            M.append(acc)
        gamma = []
        for lag in range(p):
            acc = mpmath.zeros(d, d)
            for r in range(p - lag):
                acc += M[r + lag] * Q * M[r].T
            gamma.append(acc)
        return np.array([_np(m) for m in phi]), np.array([_np(g) for g in gamma])

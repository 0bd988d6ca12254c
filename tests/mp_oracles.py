"""A 50-digit reference for the sampled VARMA, read off the state space alone.

No latent root, solvent or eigendecomposition enters: with the model's
state space (A*, B*, C*) and the driver covariance Sigma_L, in ``mpmath``
at ``DIGITS`` significant digits,

- ``F = e^{h A*}`` and the innovation covariance of one step, ``Q_h =
  int_0^h e^{u A*} B* Sigma_L B*^T e^{u A*^T} du``, from one Van Loan block
  exponential ``exp(h [[-A*, B* Sigma_L B*^T], [0, A*^T]])`` by ``mp.expm``;
- Phi from the observability matrix, ``[Phi_1, ..., Phi_p] col(C F^(p-1),
  ..., C F, C) = C F^p`` (``sampled_phi_reference`` forms only this, with F
  from ``mp.expm(h A*)``);
- gamma_U(l) = ``sum_r M_{r+l} Q_h M_r^T`` with ``M_r = C F^r - sum_{j<=r}
  Phi_j C F^{r-j}`` (Chambers & Thornton, Econometric Theory 28 (2012));
- Theta and Sigma_eps from that gamma_U by the recursion of
  ``sampling.fit_ma``: whiten gamma_U(0) = L L^T (Cholesky; the MA factor
  does not depend on the whitening), run ``sampling._riccati_doubling``
  until the step changes H_k by less than ``DOUBLING_STOP`` of it, and map
  back;
- the stationary state covariance ``Pi = sum_k F^k Q_h F^kT`` of one Van
  Loan step, by doubling, and the stationary autocovariance ``gamma(l) =
  C e^{l A*} Pi C^T`` at evenly spaced lags, by powers of one exponential.

No Lyapunov solve and no difference ``Pi - F Pi F^T`` enter, so ``Q_h``
does not cancel at small h, and gamma_U and Theta need no Pi.  A sampled
VARMA reference at pd = 9 takes about 0.5 s, most of it ``mp.expm``, and
a stationary ACVF at evenly spaced lags one ``mp.expm`` for Pi and one for
the step.
"""

import mpmath
import numpy as np

DIGITS = 50
DOUBLING_STOP = mpmath.mpf(10) ** (10 - DIGITS)
DOUBLING_MAXIT = 200


def _mp(a):
    return mpmath.matrix(np.asarray(a, dtype=float).tolist())


def _np(m):
    return np.array(m.tolist(), dtype=float)


def _van_loan(A, BSB, h):
    """``(F, Q_h)`` of one step h: ``F = e^{h A}`` and ``Q_h = int_0^h e^{u A}
    BSB e^{u A^T} du``, read off one block exponential ``exp(h [[-A, BSB],
    [0, A^T]]) = [[., E12], [0, E22]]`` as ``F = E22^T`` and ``Q_h = F E12``
    (Van Loan, IEEE Trans. Automat. Control 23 (1978)), symmetrized."""
    n = A.rows
    M = mpmath.zeros(2 * n, 2 * n)
    M[:n, :n] = -A
    M[:n, n:] = BSB
    M[n:, n:] = A.T
    E = mpmath.expm(mpmath.mpf(h) * M)
    F = E[n:, n:].T
    Q = F * E[:n, n:]
    return F, (Q + Q.T) / 2


def _stationary_covariance(A, BSB):
    """Pi of ``A Pi + Pi A^T = -BSB``, ``sum_k F^k Q_h F^kT`` of the Van Loan
    step h = 1 / ||A||_1, summed by doubling (``Q <- Q + F Q F^T``, ``F <-
    F^2``) until F falls below the working precision."""
    F, pi = _van_loan(A, BSB, 1 / mpmath.mnorm(A, 1))
    for _ in range(DOUBLING_MAXIT):
        if mpmath.mnorm(F, 1) <= mpmath.eps:
            return pi
        pi = pi + F * pi * F.T
        F = F * F
    raise RuntimeError(f"stationary doubling did not settle in {DOUBLING_MAXIT} steps")


def stationary_acvf_reference(model, step, count):
    """The stationary autocovariance ``C e^{l A*} Pi C^T`` of ``model`` at the
    lags l = k step, k < count, as a float stack (count, d, d) rounded from
    ``DIGITS`` digits: ``C e^{k step A*}`` is the k-th power of one
    exponential, taken one product at a time."""
    ss = model.statespace
    with mpmath.workdps(DIGITS):
        A, B, C = _mp(ss.A_star), _mp(ss.B_star), _mp(ss.C_star)
        pi_ct = _stationary_covariance(A, B * _mp(model.sigma_L) * B.T) * C.T
        E = mpmath.expm(mpmath.mpf(step) * A)
        out = []
        for _ in range(count):
            out.append(_np(C * pi_ct))
            C = C * E
        return np.array(out)


def _ma_factor(gamma):
    """(Theta, Sigma_eps) of the MA(q) noise with autocovariances ``gamma``
    (mpmath d x d, lags 0..q), in the steps of ``sampling.fit_ma``."""
    q, d = len(gamma) - 1, gamma[0].rows
    n = q * d
    L = mpmath.cholesky(gamma[0])
    W = mpmath.inverse(L)  # W gamma(0) W^T = I
    G = mpmath.matrix(n, d)  # gamma(1..q) whitened, stacked as rows
    for lag in range(1, q + 1):
        G[(lag - 1) * d:lag * d, :] = W * gamma[lag] * W.T
    # sampling._riccati_doubling from (A^T - C^T G^T, C^T C, -G G^T)
    Ak = mpmath.zeros(n, n)
    for i in range(d, n):
        Ak[i, i - d] = 1
    Ak[:d, :] = Ak[:d, :] - G.T
    Gk = mpmath.zeros(n, n)
    Gk[:d, :d] = mpmath.eye(d)
    Hk = -G * G.T
    for _ in range(DOUBLING_MAXIT):
        inv = mpmath.inverse(mpmath.eye(n) + Gk * Hk)
        H_next = Hk + Ak.T * Hk * inv * Ak
        Gk = Gk + Ak * inv * Gk * Ak.T
        Ak = Ak * inv * Ak
        H_next = (H_next + H_next.T) / 2
        step = mpmath.mnorm(H_next - Hk, "f")
        Hk = H_next
        if step <= DOUBLING_STOP * mpmath.mnorm(Hk, "f"):
            break
    else:
        raise RuntimeError(f"MA doubling did not settle in {DOUBLING_MAXIT} steps")
    P = -Hk
    sigma_white = mpmath.eye(d) - P[:d, :d]
    shifted = mpmath.zeros(n, d)  # A P C^T
    shifted[:n - d, :] = P[d:, :d]
    K = (G - shifted) * mpmath.inverse(sigma_white)
    theta = [L * K[j * d:(j + 1) * d, :] * W for j in range(q)]
    return theta, L * sigma_white * L.T


def _observed_phi(C, F, p):
    """``(CF, phi)``: the powers ``C F^k``, k = 0..p, and Phi_1..Phi_p from
    ``[Phi_1, ..., Phi_p] col(C F^(p-1), ..., C F, C) = C F^p``."""
    d, n = C.rows, C.cols
    CF = [C]
    for _ in range(p):
        CF.append(CF[-1] * F)
    obs = mpmath.matrix(n, n)
    for i in range(p):  # block row i is C F^(p-1-i)
        for r in range(d):
            for c in range(n):
                obs[i * d + r, c] = CF[p - 1 - i][r, c]
    phi_row = CF[p] * mpmath.inverse(obs)  # [Phi_1, ..., Phi_p]
    return CF, [phi_row[:, j * d:(j + 1) * d] for j in range(p)]


def sampled_phi_reference(model, h):
    """Phi of ``model`` sampled at step h, a float stack (p, d, d) rounded
    from ``DIGITS`` digits, with ``F = e^{h A*}`` from one ``mp.expm``."""
    ss = model.statespace
    with mpmath.workdps(DIGITS):
        F = mpmath.expm(mpmath.mpf(h) * _mp(ss.A_star))
        _, phi = _observed_phi(_mp(ss.C_star), F, model.p)
        return np.array([_np(m) for m in phi])


def sampled_varma_reference(model, h):
    """(Phi, gamma_U, Theta, Sigma_eps) of ``model`` sampled at step h, as
    float stacks (p, d, d), (p, d, d), (p - 1, d, d) and (d, d) rounded from
    ``DIGITS`` digits."""
    ss = model.statespace
    p, d = model.p, model.d
    with mpmath.workdps(DIGITS):
        A, B, C = _mp(ss.A_star), _mp(ss.B_star), _mp(ss.C_star)
        F, Q = _van_loan(A, B * _mp(model.sigma_L) * B.T, h)
        CF, phi = _observed_phi(C, F, p)

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
        theta, sigma_eps = _ma_factor(gamma)
        return (np.array([_np(m) for m in phi]), np.array([_np(g) for g in gamma]),
                np.array([_np(t) for t in theta]).reshape(p - 1, d, d), _np(sigma_eps))

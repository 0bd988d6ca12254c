"""Test-only numerical oracles used to cross-check the library paths.

Each oracle takes a different route from the production code: residues by
contour quadrature instead of the Vandermonde linear system; Gramians and
the sampled-noise ACVF by adaptive quadrature of ``scipy.linalg.expm``
products instead of the modal weights of ``mcarma._gramian``; paths
by the per-step component recursion with one ``expm`` per jump, or by the
real state-space recursion, instead of the chunked eigenbasis scan; the MA
factor of a (p-1)-dependent noise by the multivariate innovations recursion
instead of doubling on its Riccati equation; a lambda-matrix by multiplying
out its linear factors, and the block Vandermonde matrix by
``np.linalg.matrix_power`` instead of stacked products.  The polynomial
product and derivative and the linear factorization check the paper's
identities; no production path uses them.  ``noise_acvf_loop`` is
``sampling.noise_acvf`` as a per-term loop, kept to show that its batched
products and sum round exactly as the loop does,
``ma_acvf_loop`` the same for the stacked products of ``sampling.ma_acvf``,
and ``greedy_grouping`` the grouping walk that ``matpoly.default_grouping``
replaced by scoring only real choices, kept to show that the groups are the
same.  The oracles that ``mcarma-ou verify`` runs too live in
``mcarma_ou.verify``.
"""

from types import SimpleNamespace

import numpy as np
import scipy.linalg
from scipy.integrate import quad_vec

from mcarma_ou import matpoly, mcarma, sampling, sim, tolerances, verify
from mcarma_ou.exceptions import ImaginaryLeakError, NoConvergenceError, NotPDError

INNOVATIONS_TOL = 1e-10
INNOVATIONS_MAXIT = 10000


def eigenbasis(R):
    """One matrix with its eigenbasis ``R = P diag(spectrum) P^{-1}``."""
    R = np.asarray(R, dtype=complex)
    spectrum, P = np.linalg.eig(R)
    return SimpleNamespace(R=R, spectrum=spectrum, P=P, P_inv=np.linalg.inv(P))


def stack(mats):
    """The eigenbases of square matrices stacked as a ``matpoly.SolventSet``
    stacks them (``spectrum``, ``P``, ``P_inv``), the form
    ``mcarma.component_gramians`` reads, for Gramians of bare matrices."""
    bases = [eigenbasis(R) for R in mats]
    return SimpleNamespace(**{key: np.array([getattr(b, key) for b in bases])
                              for key in ("spectrum", "P", "P_inv")})


def components(S):
    """The entries of a solvent set's stacks, one ``eigenbasis``-like view
    per solvent, so that solvents can be taken one or two at a time."""
    return [SimpleNamespace(R=R, spectrum=spectrum, P=P, P_inv=P_inv)
            for R, spectrum, P, P_inv in zip(S.matrices, S.spectrum, S.P, S.P_inv)]


def expm_eig(b, t):
    """``e^{tR}`` of one ``eigenbasis`` or ``components`` entry."""
    return (b.P * np.exp(t * b.spectrum)) @ b.P_inv


def contour_residue(A, B, own_spectrum, other_spectrum, nodes=256):
    """Residue of A(z)^{-1} B(z) around one solvent's spectrum by trapezoid
    quadrature.

    The contour is a union of small disjoint circles, one per eigenvalue of
    the solvent, each containing exactly that latent root; their integrals
    add up to the residue over the whole spectrum.  (A single circle cannot
    isolate a group whose eigenvalues interleave with another solvent's.)
    """
    own = np.asarray(own_spectrum)
    everything = np.concatenate([own, np.asarray(other_spectrum)]) if len(
        other_spectrum) else own
    total = np.zeros((A.order[0], B.order[1]), dtype=complex)
    for z0 in own:
        rest = everything[np.abs(everything - z0) > 1e-12]
        radius = 0.4 * float(np.min(np.abs(rest - z0))) if len(rest) else 1.0
        circle = np.zeros_like(total)
        for theta in 2.0 * np.pi * np.arange(nodes) / nodes:
            z = z0 + radius * np.exp(1j * theta)
            circle += np.linalg.solve(A.eval(z), B.eval(z)) * np.exp(1j * theta)
        total += circle * radius / nodes
    return total


def quad_finite_gramian(R_nu, res_nu, R_mu, res_mu, sigma_L, h):
    """Adaptive quadrature for int_0^h e^{R_nu u} M e^{R_mu^H u} du."""
    M = res_nu @ sigma_L @ res_mu.conj().T
    RmuH = R_mu.conj().T

    def f(u):
        return scipy.linalg.expm(u * R_nu) @ M @ scipy.linalg.expm(u * RmuH)

    val, _ = quad_vec(f, 0.0, h, epsabs=1e-12, epsrel=1e-12)
    return val


def quad_infinite_gramian(R_nu, res_nu, R_mu, res_mu, sigma_L):
    """Quadrature for the infinite-horizon integral, truncated where the
    integrand has decayed below 1e-12."""
    decay = max(np.max(np.linalg.eigvals(R_nu).real),
                np.max(np.linalg.eigvals(R_mu).real))
    assert decay < 0
    horizon = -np.log(1e-14) / abs(decay)
    return quad_finite_gramian(R_nu, res_nu, R_mu, res_mu, sigma_L, horizon)


def noise_acvf_quadrature(S, residues, phi, sigma_L, h):
    """Sampled-noise autocovariances with every innovation Gramian computed
    by adaptive quadrature and every exponential by ``scipy.linalg.expm``."""
    R = S.matrices
    p = len(R)
    d = R[0].shape[0]
    gram = [[quad_finite_gramian(R[i], residues[i], R[j], residues[j], sigma_L, h)
             for j in range(p)] for i in range(p)]
    coeff = []
    for s in range(p):
        row = []
        for k in range(p):
            acc = scipy.linalg.expm(h * s * R[k]).astype(complex)
            for j in range(1, s + 1):
                acc -= phi[j - 1] @ scipy.linalg.expm(h * (s - j) * R[k])
            row.append(acc)
        coeff.append(row)
    out = []
    for lag in range(p):
        acc = np.zeros((d, d), dtype=complex)
        for r in range(p - lag):
            for nu in range(p):
                for mu in range(p):
                    acc += coeff[r + lag][nu] @ gram[nu][mu] @ coeff[r][mu].conj().T
        out.append(acc.real)
    return out


def noise_acvf_loop(model, phi, h):
    """``sampling.noise_acvf`` in Python loops: every ``M_r``, the kernels
    ``k_r(s)`` and ``k_r(s) Sigma_L`` at all nodes by one 2-d product per r,
    and one 2-d product per term of gamma_U, with the same certificates."""
    modes = model.modes
    p, d = model.p, model.d
    lam, X, wb = modes.roots, modes.X, modes.residues
    modal = np.hstack([wb, wb @ model.sigma_L])
    m = wb.shape[1]
    XD = [X * np.exp((h * r) * lam) for r in range(p)]
    M = [np.array(m_r) for m_r in XD]
    for j in range(1, p):
        for r in range(j, p):
            M[r] -= phi[j - 1] @ XD[r - j]
    nodes, weights = sampling._panels(h, lam)
    n = len(nodes)
    k, k_sigma = [], []  # per r: (d, node * m), the nodes side by side
    for r in range(p):
        rows = np.array([[M[r][a] * np.exp(s * lam) for s in nodes] for a in range(d)])
        kern = (rows.reshape(d * n, -1) @ modal).reshape(d, n, 2 * m)
        k.append(kern[..., :m].reshape(d, n * m))
        k_sigma.append((kern[..., m:] * weights[:, None]).reshape(d, n * m))

    out = []
    term_scale = 1.0
    for lag in range(p):
        acc = np.zeros((d, d), dtype=complex)
        for r in range(p - lag):
            term = k_sigma[r + lag] @ k[r].conj().T
            term_scale = max(term_scale, float(np.max(np.abs(term))))
            acc += term
        leak = float(np.max(np.abs(acc.imag)))
        if leak > tolerances.IMAG_LEAK * term_scale:
            raise ImaginaryLeakError(f"gamma_U imaginary part {leak:.3e} at lag {lag}")
        out.append(acc.real)

    g0 = out[0]
    if np.max(np.abs(g0 - g0.T)) > 1e-9 * term_scale:
        raise ImaginaryLeakError("gamma_U(0) asymmetric")
    out[0] = 0.5 * (g0 + g0.T)
    if np.min(np.linalg.eigvalsh(out[0])) < -1e-10 * term_scale:
        raise NotPDError("gamma_U(0) not positive semidefinite")
    return out


def ma_acvf_loop(theta, sigma_eps, lag):
    """``sampling.ma_acvf`` as one 2-d product per term, summed in a loop."""
    d = sigma_eps.shape[0]
    coeffs = [np.eye(d)] + [np.asarray(t, dtype=float) for t in theta]
    q = len(coeffs) - 1
    acc = np.zeros((d, d))
    for k in range(q - lag + 1):
        acc += coeffs[k + lag] @ sigma_eps @ coeffs[k].T
    return acc


def block_bootstrap_sd(Y, lags, block_len, n_boot, seed):
    """Circular block bootstrap standard deviations of sample ACVFs."""
    rng = np.random.default_rng(seed)
    n = Y.shape[0]
    n_blocks = int(np.ceil(n / block_len))
    stats = []
    doubled = np.vstack([Y, Y[:block_len]])
    for _ in range(n_boot):
        starts = rng.integers(0, n, size=n_blocks)
        pieces = [doubled[s:s + block_len] for s in starts]
        resampled = np.vstack(pieces)[:n]
        gammas = sim.empirical_acvf(resampled, max(lags))
        stats.append(np.stack([gammas[l] for l in lags]))
    return np.std(np.stack(stats), axis=0, ddof=1)


def component_recursion(decomp, driver, h, n_steps, stationary_start, chunk):
    """Reference simulator: ``Y_k,n = e^{h R_k} Y_k,n-1 + N_k,n`` one grid step
    at a time in component coordinates, with ``expm`` per jump.

    It draws from the seeded generator in the order ``sim.simulate`` does
    (Brownian normals time-major, compound-Poisson counts, offsets and jumps
    ``chunk`` steps at a time),
    so for the same seed both give the same path up to rounding.
    """
    rng = np.random.default_rng(np.random.SeedSequence(driver.seed))
    p, d = decomp.p, decomp.d
    T_inv = np.linalg.inv(decomp.transform)
    comps = list(zip(decomp.solvent_set.matrices, decomp.residues))
    exp_hR = [scipy.linalg.expm(h * R) for R, _ in comps]
    if stationary_start:
        y = np.reshape(T_inv @ sim._stationary_state(decomp, rng).astype(complex), (p, d))
    else:
        y = np.array(decomp.y0)
    n = n_steps - 1
    if driver.kind == "brownian":
        Q = decomp.model.modes.gramian(h)
        W = T_inv @ mcarma.psd_factor(Q, "innovation Gramian")
        stacked = np.reshape(W @ rng.standard_normal((n, p * d)).T, (p, d, n))
        innovations = [stacked[:, :, i] for i in range(n)]
    else:
        jump_factor = mcarma.psd_factor(decomp.model.sigma_L / driver.rate, "jump covariance")
        innovations = []
        for lo in range(0, n, chunk):
            counts = rng.poisson(driver.rate * h, size=min(chunk, n - lo))
            offsets = rng.uniform(0.0, h, size=counts.sum())
            jumps = jump_factor @ rng.standard_normal((jump_factor.shape[0], counts.sum()))
            j = 0
            for count in counts:
                innov = np.zeros((p, d), dtype=complex)
                for _ in range(count):
                    for k, (R, res) in enumerate(comps):
                        innov[k] += scipy.linalg.expm((h - offsets[j]) * R) @ (
                            res @ jumps[:, j])
                    j += 1
                innovations.append(innov)
    Y = np.empty((n_steps, d))
    Y[0] = y.sum(axis=0).real
    for i, innov in enumerate(innovations, start=1):
        for k in range(p):
            y[k] = exp_hR[k] @ y[k] + innov[k]
        Y[i] = y.sum(axis=0).real
    return Y


def simulate_statespace_twin(decomp, sigma_L, h, n_steps, seed, stationary_start=False):
    """Independent reference simulator: advance ``X_n = e^{A* h} X_{n-1} +
    eta_n`` in the real state space with the one-step state Gramian computed
    by Van Loan's block exponential, and read off ``Y_n = C* X_n``.

    Used to validate that the component recursion matches the exact sampled
    state space law; not the production path.  Returns the (n_steps, d) path.
    """
    ss = decomp.statespace
    nd = ss.dim
    A, B = ss.A_star, ss.B_star
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    BSB = B @ sigma_L @ B.T
    block = np.zeros((2 * nd, 2 * nd))
    block[:nd, :nd] = -A
    block[:nd, nd:] = BSB
    block[nd:, nd:] = A.T
    big = scipy.linalg.expm(h * block)
    eAh = scipy.linalg.expm(h * A)
    Q = eAh @ big[:nd, nd:]
    factor = mcarma.psd_factor(np.real(Q), "state Gramian")

    if stationary_start:
        pi = verify.sampled_state_space(ss, sigma_L, h).pi
        x = mcarma.psd_factor(pi, "stationary state covariance") @ rng.standard_normal(nd)
    else:
        x = np.zeros(nd)
    Y = np.empty((n_steps, ss.C_star.shape[0]))
    Y[0] = ss.C_star @ x
    noise = factor @ rng.standard_normal((nd, n_steps - 1))
    for n in range(1, n_steps):
        x = eAh @ x + noise[:, n - 1]
        Y[n] = ss.C_star @ x
    return Y


def greedy_grouping(pairs, d, conjugate_closed=True):
    """The greedy grouping of ``matpoly.default_grouping`` as first written:
    every group with room, empty or not, is scored by the condition number
    of its partial latent-vector matrix, one SVD each, also when d = 1 or
    p = 1 leave no choice."""
    n = len(pairs)
    p = n // d
    roots = [pr.root for pr in pairs]
    tol = 1e-8 * (1.0 + max(abs(r) for r in roots))
    groups = [[] for _ in range(p)]
    assigned = [False] * n

    def cond_columns(cols):
        s = np.linalg.svd(np.column_stack(cols), compute_uv=False)
        return np.inf if s[-1] == 0.0 else float(s[0] / s[-1])

    def place(indices):
        vecs = [pairs[i].vector for i in indices]
        best, best_cond = None, None
        for g, members in enumerate(groups):
            if len(members) + len(indices) > d:
                continue
            cond = cond_columns([pairs[i].vector for i in members] + vecs)
            if best is None or cond < best_cond - 1e-12:
                best, best_cond = g, cond
        if best is None:
            return False
        groups[best].extend(indices)
        for i in indices:
            assigned[i] = True
        return True

    for i in range(n):
        if assigned[i]:
            continue
        lam = roots[i]
        if conjugate_closed and abs(lam.imag) > tol:
            partner = next((j for j in range(n) if j != i and not assigned[j]
                            and abs(roots[j] - lam.conjugate()) < tol), None)
            if partner is not None and place([i, partner]):
                continue
        if not place([i]):
            raise AssertionError("greedy grouping ran out of free slots")
    return [sorted(g) for g in groups]


def poly_product(a, b):
    """Polynomial product (coefficient convolution) ``a(z) b(z)``."""
    out = np.zeros((a.degree + b.degree + 1, a.order[0], b.order[1]), dtype=complex)
    for i, ai in enumerate(a.coeffs):
        for j, bj in enumerate(b.coeffs):
            out[i + j] += ai @ bj
    return matpoly.LambdaMatrix(out)


def poly_derivative(A):
    """Coefficient-wise derivative ``A'(z)``, degree p-1."""
    p = A.degree
    if p == 0:
        return matpoly.LambdaMatrix(np.zeros_like(A.coeffs))
    return matpoly.LambdaMatrix(np.arange(p, 0, -1)[:, None, None] * A.coeffs[:-1])


def identity_shift(R):
    """The linear lambda-matrix ``z I - R``."""
    R = np.asarray(R, dtype=complex)
    return matpoly.LambdaMatrix((np.eye(R.shape[0]), -R))


def vandermonde(mats):
    """Block Vandermonde matrix: block (i, k) is ``R_k^(i-1)``, i, k = 1..p."""
    mats = [np.asarray(R, dtype=complex) for R in mats]
    return np.block([[np.linalg.matrix_power(R, i) for R in mats] for i in range(len(mats))])


def linear_factorization(mats):
    """Linear factors ``[R_1, R_2*, ..., R_p*]``, stacked (p, d, d), of the
    polynomial with the complete solvent set ``mats``: the product
    ``(z I - R_p*) ... (z I - R_2*)(z I - R_1)`` reproduces the polynomial,
    with ``R_k* = M_k(R_k) R_k M_k(R_k)^{-1}`` and ``M_k`` the
    right-evaluated partial product of the factors found so far."""
    factors = np.array(mats, dtype=complex)
    partial = identity_shift(factors[0])
    for k in range(1, len(factors)):
        Mk = partial.eval_right(factors[k])
        assert np.linalg.cond(Mk) <= tolerances.CONDITION, f"M_{k}(R_{k}) is singular"
        factors[k] = Mk @ factors[k] @ np.linalg.inv(Mk)
        partial = poly_product(identity_shift(factors[k]), partial)
    return factors


def expand_factors(factors):
    """Multiply linear factors right-to-left into one lambda-matrix."""
    out = identity_shift(factors[0])
    for R in factors[1:]:
        out = poly_product(identity_shift(R), out)
    return out


def acvf_at_lag(gammas, lag):
    """gamma(lag) of a finite ACVF list, extended by gamma(-l) = gamma(l)^T and zero."""
    q = len(gammas) - 1
    if lag > q or lag < -q:
        d = gammas[0].shape[0]
        return np.zeros((d, d))
    return gammas[lag] if lag >= 0 else gammas[-lag].T


def innovations_ma(gamma_U):
    """Invertible MA(q) factor ``(theta, sigma_eps)`` of a q-dependent ACVF by
    the multivariate innovations recursion (Brockwell & Davis, section 11.4),
    run until successive coefficient iterates settle.

    The recursion is the time-varying Kalman filter whose steady state
    ``sampling.fit_ma`` solves by doubling; it converges linearly, at a rate
    that tends to 1 as the MA zeros approach the unit circle.
    """
    gammas = [np.asarray(g, dtype=float) for g in gamma_U]
    d = gammas[0].shape[0]
    q = len(gammas) - 1
    g0 = gammas[0]
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
    return [np.array(t) for t in thetas[converged_at]], v[converged_at]

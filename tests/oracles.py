"""Test-only numerical oracles used to cross-check the library paths.

Each oracle takes a different route from the production code: residues by
contour quadrature instead of the Vandermonde linear system; Gramians and
the sampled-noise ACVF by adaptive quadrature of ``scipy.linalg.expm``
products instead of the eigenbasis formula of ``mcarma.ou_gramian``; paths
by the per-step component recursion with one ``expm`` per jump instead of
the chunked eigenbasis scan.  The oracles that ``mcarma-ou verify`` runs
too live in ``mcarma_ou.verify``.
"""

import numpy as np
import scipy.linalg
from scipy.integrate import quad_vec


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


def noise_acvf_quadrature(pf, phi, sigma_L, h):
    """Sampled-noise autocovariances with every innovation Gramian computed
    by adaptive quadrature and every exponential by ``scipy.linalg.expm``."""
    p = len(pf.pairs)
    d = pf.pairs[0][0].shape[0]
    gram = [[quad_finite_gramian(pf.pairs[i][0], pf.pairs[i][1],
                                 pf.pairs[j][0], pf.pairs[j][1], sigma_L, h)
             for j in range(p)] for i in range(p)]
    coeff = []
    for s in range(p):
        row = []
        for k in range(p):
            acc = scipy.linalg.expm(h * s * pf.pairs[k][0]).astype(complex)
            for j in range(1, s + 1):
                acc -= phi[j - 1] @ scipy.linalg.expm(h * (s - j) * pf.pairs[k][0])
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


def block_bootstrap_sd(Y, lags, block_len, n_boot, seed):
    """Circular block bootstrap standard deviations of sample ACVFs."""
    from mcarma_ou.sim import empirical_acvf

    rng = np.random.default_rng(seed)
    n = Y.shape[0]
    n_blocks = int(np.ceil(n / block_len))
    stats = []
    doubled = np.vstack([Y, Y[:block_len]])
    for _ in range(n_boot):
        starts = rng.integers(0, n, size=n_blocks)
        pieces = [doubled[s:s + block_len] for s in starts]
        resampled = np.vstack(pieces)[:n]
        gammas = empirical_acvf(resampled, max(lags))
        stats.append(np.stack([gammas[l] for l in lags]))
    return np.std(np.stack(stats), axis=0, ddof=1)


def component_recursion(decomp, driver, h, n_steps, stationary_start, chunk):
    """Reference simulator: ``Y_k,n = e^{h R_k} Y_k,n-1 + N_k,n`` one grid step
    at a time in component coordinates, with ``expm`` per jump.

    It draws from the seeded generator in the order ``sim.simulate`` does
    (compound-Poisson counts, offsets and jumps ``chunk`` steps at a time),
    so for the same seed both give the same path up to rounding.
    """
    from mcarma_ou import sim

    rng = np.random.default_rng(np.random.SeedSequence(driver.seed))
    p, d = decomp.p, decomp.d
    T_inv = np.linalg.inv(decomp.transform)
    exp_hR = [scipy.linalg.expm(h * comp.R) for comp in decomp.components]
    x0 = sim._initial_state(decomp, rng, stationary_start)
    y = np.reshape(T_inv @ x0.astype(complex), (p, d))
    n = n_steps - 1
    if driver.kind == "brownian":
        Q = sim.state_innovation_gramian(decomp, driver.sigma_L, h)
        W = T_inv @ sim._psd_factor(Q, "innovation Gramian")
        stacked = np.reshape(W @ rng.standard_normal((p * d, n)), (p, d, n))
        innovations = [stacked[:, :, i] for i in range(n)]
    else:
        jump_factor = sim._psd_factor(np.asarray(driver.jump_cov, dtype=float), "jump_cov")
        innovations = []
        for lo in range(0, n, chunk):
            counts = rng.poisson(driver.rate * h, size=min(chunk, n - lo))
            offsets = rng.uniform(0.0, h, size=counts.sum())
            jumps = jump_factor @ rng.standard_normal((jump_factor.shape[0], counts.sum()))
            j = 0
            for count in counts:
                innov = np.zeros((p, d), dtype=complex)
                for _ in range(count):
                    for k, comp in enumerate(decomp.components):
                        innov[k] += scipy.linalg.expm((h - offsets[j]) * comp.R) @ (
                            comp.residue @ jumps[:, j])
                    j += 1
                innovations.append(innov)
    Y = np.empty((n_steps, d))
    Y[0] = y.sum(axis=0).real
    for i, innov in enumerate(innovations, start=1):
        for k in range(p):
            y[k] = exp_hR[k] @ y[k] + innov[k]
        Y[i] = y.sum(axis=0).real
    return Y

"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines with measured tolerances and runtimes.
"""

import time

import numpy as np
import scipy.linalg

from mcarma_ou import matpoly, mcarma, rational, sampling, sim, verify

from conftest import (
    A2, R1, R2, R3, R4, RES1, RES2, RES3, RES4, scalar_poly,
)
from oracles import block_bootstrap_sd, noise_acvf_quadrature


def report(criterion, label, measured, bound, elapsed, larger_ok=False):
    ok = measured >= bound if larger_ok else measured <= bound
    rel = ">=" if larger_ok else "<="
    print(f"\n[criterion {criterion}] {label}: "
          f"{'PASS' if ok else 'FAIL'} (measured {measured:.3e} {rel} {bound:.3e}, "
          f"{elapsed:.2f} s)")
    assert ok, f"criterion {criterion} ({label}): {measured:.3e} vs bound {bound:.3e}"


def report_worst(criterion, checks, elapsed, larger_ok=False):
    """Report the tightest of one ``verify`` row's checks over many models."""
    pick = min if larger_ok else max
    worst = pick(checks, key=lambda c: c.measured / c.bound)
    report(criterion, worst.name, worst.measured, worst.bound, elapsed, larger_ok)


def test_criterion_1_example_residues(example_model, example_set_12, example_set_34):
    start = time.perf_counter()
    B_star = example_model.statespace.B_star
    res12 = rational.residues(B_star, example_set_12)
    res34 = rational.residues(B_star, example_set_34)
    err = max(
        np.max(np.abs(res12[0] - RES1)),
        np.max(np.abs(res12[1] - RES2)),
        np.max(np.abs(res34[0] - RES3)),
        np.max(np.abs(res34[1] - RES4)),
    )
    elapsed = time.perf_counter() - start
    report(1, "example-residues", float(err), 1e-9, elapsed)
    report(1, "example-residues-runtime", elapsed, 1.0, elapsed)


def test_criterion_2_solvent_certificates(example_poly, corpus):
    start = time.perf_counter()
    worst = 0.0
    for R in (R1, R2, R3, R4):
        worst = max(worst, np.linalg.norm(example_poly.eval_right(R)))
    assert worst <= 1e-9
    worst_rel = worst / max(1.0, np.linalg.norm(A2))
    for model in corpus:
        S = model.solvent_set()
        scale = max(1.0, np.linalg.norm(model.A.coeffs[-1]))
        for R in S.matrices:
            res = np.linalg.norm(model.A.eval_right(R))
            worst_rel = max(worst_rel, res / scale)
    elapsed = time.perf_counter() - start
    report(2, "solvent-residuals(200-model corpus)", float(worst_rel), 1e-9, elapsed)
    report(2, "solvent-residuals-runtime", elapsed, 30.0, elapsed)


def test_criterion_3_kernel_identity(example_model, example_set_12, corpus):
    start = time.perf_counter()
    checks = [verify.check_kernel_identity(mcarma.decompose(model, S))
              for model, S in [(example_model, example_set_12)]
              + [(m, m.solvent_set()) for m in corpus]]
    report_worst(3, checks, time.perf_counter() - start)


def test_criterion_4_acvf_oracle(example_model, example_set_12, corpus):
    start = time.perf_counter()
    lags = [k * 0.1 for k in range(11)]
    checks = []
    for model, S in [(example_model, example_set_12)] + [(m, m.solvent_set()) for m in corpus]:
        decomp = mcarma.decompose(model, S)
        sampled = verify.sampled_state_space(decomp.statespace, model.sigma_L, 0.1)
        checks.append(verify.check_acvf_lyapunov(
            sampled, mcarma.stationary_acvf(decomp, lags)))
    report_worst(4, checks, time.perf_counter() - start)


def test_criterion_5_sampled_ar_structure(example_model, example_set_12, corpus):
    start = time.perf_counter()
    worst = 0.0
    for h in (0.1, 0.5, 1.0):
        psi, _, *_ = sampling.varma_ar(example_model, h)
        poly = matpoly.LambdaMatrix(
            tuple([np.eye(2, dtype=complex)] + [c.astype(complex) for c in psi]))
        for R in example_set_12.matrices:
            E = scipy.linalg.expm(-h * R)
            worst = max(worst, np.linalg.norm(poly.eval_right(E)))

    # scalar models: coefficients of prod_k (1 - e^{r_k h} z) to 1e-10
    coeff_err = 0.0
    scalar_models = [m for m in corpus if m.d == 1][:20]
    for model in scalar_models:
        roots = np.array([pr.root for pr in model.latent_pairs])
        for h in (0.1, 0.5):
            _, phi, *_ = sampling.varma_ar(model, h)
            # prod_k (1 - e^{r_k h} z) = prod_k (z - e^{-r_k h}) scaled so the
            # constant term is one; ascending coefficients are 1, -phi_1, ...
            poly = np.polynomial.polynomial.polyfromroots(np.exp(-h * roots))
            poly = poly / poly[0]
            want = np.real(poly)
            got = np.concatenate([[1.0], [-f[0, 0] for f in phi]])
            coeff_err = max(coeff_err, np.max(np.abs(got - want)))
    elapsed = time.perf_counter() - start
    report(5, "sampled-ar-residual", float(worst), 1e-8, elapsed)
    report(5, "scalar-ar-coefficients", float(coeff_err), 1e-10, elapsed)


def test_criterion_6_noise_dependence(example_model, example_set_12):
    start = time.perf_counter()
    h = 0.1

    # d = 1: adaptive quadrature against the closed eigenbasis route
    model1 = mcarma.McarmaModel.build(
        scalar_poly(1, 3, 2), scalar_poly(1.0), np.array([[1.0]]))
    S1 = model1.solvent_set()
    res1 = rational.residues(model1.statespace.B_star, S1)
    _, phi1, *_ = sampling.varma_ar(model1, 0.5)
    got1 = sampling.noise_acvf(model1, phi1, 0.5)
    quad1 = noise_acvf_quadrature(S1, res1, phi1, model1.sigma_L, 0.5)
    err1 = max(np.max(np.abs(g - q)) / max(1.0, np.max(np.abs(q)))
               for g, q in zip(got1, quad1))

    # d = 2: matrix quadrature on the reference example
    decomp = mcarma.decompose(example_model, example_set_12)
    _, phi2, *_ = sampling.varma_ar(example_model, h)
    got2 = sampling.noise_acvf(example_model, phi2, h)
    quad2 = noise_acvf_quadrature(example_set_12, decomp.residues, phi2,
                                  example_model.sigma_L, h)
    err2 = max(np.max(np.abs(g - q)) / max(1.0, np.max(np.abs(q)))
               for g, q in zip(got2, quad2))

    # Monte Carlo: extracted noise has vanishing ACVF at lags p..p+3
    driver = sim.DriverSpec(kind="brownian", seed=0, sigma_L=np.eye(2))
    path = sim.simulate(decomp, driver, h, 100_000, stationary_start=True)
    lag_check = verify.check_noise_lag_p_zero(sim.extract_noise(path, phi2), got2)
    elapsed = time.perf_counter() - start
    report(6, "noise-quadrature-d1", float(err1), 1e-7, elapsed)
    report(6, "noise-quadrature-d2", float(err2), 1e-6, elapsed)
    report_worst(6, [lag_check], elapsed)
    report(6, "noise-runtime", elapsed, 120.0, elapsed)


def test_criterion_7_ma_roundtrip(corpus):
    start = time.perf_counter()
    roundtrip, invertibility = [], []
    for model in corpus:
        sv = sampling.sampled_varma(mcarma.decompose(model, model.solvent_set()), 0.25)
        roundtrip.append(sv.ma_roundtrip)
        invertibility.append(verify.check_ma_invertibility(sv.ma_margin))
    elapsed = time.perf_counter() - start
    report_worst(7, roundtrip, elapsed)
    report_worst(7, invertibility, elapsed, larger_ok=True)


def test_criterion_8_solvent_set_consistency(
        example_model, example_set_12, example_set_34):
    # the fit and path routes read the model's modes, so each solvent set's
    # OU sum must reproduce their kernel, ACVF and sampled AR polynomial
    start = time.perf_counter()
    d12 = mcarma.decompose(example_model, example_set_12)
    d34 = mcarma.decompose(example_model, example_set_34)

    pair_gap = min(
        np.max(np.abs(a - b))
        for a, b in zip(d12.solvent_set.matrices, d34.solvent_set.matrices))
    assert pair_gap > 0.5, "solvent pairs should be genuinely different"

    lags = [0.0, 0.1, 0.5, 1.0]
    h = 0.1
    psi, _, *_ = sampling.varma_ar(example_model, h)
    poly = matpoly.LambdaMatrix(
        tuple([np.eye(2, dtype=complex)] + [c.astype(complex) for c in psi]))
    gammas = mcarma.stationary_acvf(d12, lags)
    errs = []
    for decomp in (d12, d34):
        S, res = decomp.solvent_set, decomp.residues
        errs += [np.max(np.abs(mcarma.kernel(decomp, t) - sum(
            scipy.linalg.expm(t * R) @ r for R, r in zip(S.matrices, res)).real))
            for t in np.linspace(0.0, 5.0, 26)]
        sigmas = mcarma.component_gramians(S, res, example_model.sigma_L).sum(axis=1)
        errs += [np.max(np.abs(g - sum(scipy.linalg.expm(lag * R) @ s
                                       for R, s in zip(S.matrices, sigmas)).real))
                 for lag, g in zip(lags, gammas)]
        errs += [np.linalg.norm(poly.eval_right(scipy.linalg.expm(-h * R)))
                 for R in S.matrices]
    elapsed = time.perf_counter() - start
    report(8, "solvent-set-consistency", float(max(errs)), 1e-8, elapsed)


def test_criterion_9_simulation_agreement(example_model, example_set_12):
    start = time.perf_counter()
    h, n = 0.1, 200_000
    decomp = mcarma.decompose(example_model, example_set_12)
    driver = sim.DriverSpec(kind="brownian", seed=987654321, sigma_L=np.eye(2))
    path = sim.simulate(decomp, driver, h, n, stationary_start=True)
    path_again = sim.simulate(decomp, driver, h, n, stationary_start=True)
    assert np.array_equal(path.Y, path_again.Y), "seeded paths must be bit-identical"

    lags = [0, 1, 2, 3]
    got = sim.empirical_acvf(path, 3)
    want = mcarma.stationary_acvf(decomp, [k * h for k in lags])
    block_len = int(np.ceil(n ** (1.0 / 3.0)))
    sd = block_bootstrap_sd(path.Y, lags, block_len, n_boot=200, seed=7)
    worst_ratio = 0.0
    for k in lags:
        ratio = np.max(np.abs(got[k] - want[k]) / (3.0 * sd[k]))
        worst_ratio = max(worst_ratio, float(ratio))
    elapsed = time.perf_counter() - start
    report(9, "simulation-acvf(3-sigma bootstrap ratio)", worst_ratio, 1.0, elapsed)
    report(9, "simulation-runtime", elapsed, 120.0, elapsed)

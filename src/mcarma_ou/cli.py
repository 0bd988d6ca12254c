"""Command line front end.

Subcommands: ``solvents``, ``decompose``, ``acvf``, ``varma``, ``simulate``
and ``verify``.  Models come from a JSON file holding the AR coefficient
list (monic leading block required), the MA coefficient list, the driver
covariance and a driver block; see ``models/carma2x2.json`` for the
canonical instance.

Exit codes: 0 success, 1 input error (parse/shape), 2 numerical
certification failure, with the failed invariant named on stderr.  Floats
round-trip exactly: JSON output writes them by ``repr`` (through
``json.dumps``) and CSV output with 17 significant digits.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np
import scipy.linalg

from . import matpoly, mcarma, rational, sampling, sim
from .exceptions import CertificationError, ModelFileError


# ---------------------------------------------------------------------------
# model file handling

def _matrix(obj, name):
    try:
        arr = np.asarray(obj, dtype=float)
    except (TypeError, ValueError) as err:
        raise ModelFileError(f"{name} is not numeric: {err}") from None
    if arr.ndim != 2:
        raise ModelFileError(f"{name} must be a 2-d matrix")
    return arr

def _coeff_list(obj, name):
    if not isinstance(obj, list) or not obj:
        raise ModelFileError(f"{name} must be a non-empty list of matrices")
    mats = [_matrix(c, f"{name}[{i}]") for i, c in enumerate(obj)]
    if any(m.shape != mats[0].shape for m in mats):
        raise ModelFileError(f"{name} blocks must share one shape")
    return mats

def load_model_file(path, seed=0):
    """Parse a model JSON file into (McarmaModel, DriverSpec)."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as err:
        raise ModelFileError(f"cannot read {path}: {err}") from None
    except json.JSONDecodeError as err:
        raise ModelFileError(f"invalid JSON in {path}: {err}") from None
    if not isinstance(doc, dict):
        raise ModelFileError("model document must be a JSON object")
    for key in ("A", "B", "sigma_L"):
        if key not in doc:
            raise ModelFileError(f"missing key {key!r}")

    a_coeffs = _coeff_list(doc["A"], "A")
    if np.max(np.abs(a_coeffs[0] - np.eye(a_coeffs[0].shape[0]))) > 1e-12:
        raise ModelFileError("A[0] must be the identity (monic AR polynomial)")
    b_coeffs = _coeff_list(doc["B"], "B")
    sigma_L = _matrix(doc["sigma_L"], "sigma_L")
    mean_L = doc.get("mean_L")

    try:
        model = mcarma.McarmaModel.build(
            matpoly.LambdaMatrix(tuple(a_coeffs)),
            matpoly.LambdaMatrix(tuple(b_coeffs)),
            sigma_L,
            mean_L=mean_L,
        )
    except CertificationError:
        raise
    except ValueError as err:
        raise ModelFileError(str(err)) from None

    driver_doc = doc.get("driver", {"kind": "brownian"})
    kind = driver_doc.get("kind", "brownian")
    if kind == "brownian":
        driver = sim.DriverSpec(kind="brownian", seed=seed, sigma_L=sigma_L)
    elif kind == "compound_poisson":
        if "rate" not in driver_doc or "jump_cov" not in driver_doc:
            raise ModelFileError("compound_poisson driver needs rate and jump_cov")
        rate = float(driver_doc["rate"])
        jump_cov = _matrix(driver_doc["jump_cov"], "driver.jump_cov")
        if np.max(np.abs(rate * jump_cov - sigma_L)) > 1e-10 * max(1.0, np.max(np.abs(sigma_L))):
            raise ModelFileError("rate * jump_cov must equal sigma_L (Var L(1))")
        driver = sim.DriverSpec(kind="compound_poisson", seed=seed,
                                rate=rate, jump_cov=jump_cov)
    else:
        raise ModelFileError(f"unknown driver kind {kind!r}")
    return model, driver


# ---------------------------------------------------------------------------
# output formatting (round-trip safe)

def _fmt(x):
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)

def _to_jsonable(obj):
    if isinstance(obj, np.ndarray):
        if np.iscomplexobj(obj):
            return {"re": _to_jsonable(obj.real), "im": _to_jsonable(obj.imag)}
        return [_to_jsonable(row) for row in obj.tolist()] if obj.ndim else float(obj)
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, complex):
        return {"re": float(obj.real), "im": float(obj.imag)}
    if isinstance(obj, dict):
        return {k: _to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_to_jsonable(v) for v in obj]
    return obj

def dumps_json(obj):
    """Serialize to indented JSON; ``json.dumps`` writes floats by ``repr``."""
    return json.dumps(_to_jsonable(obj), indent=2) + "\n"

def _emit(text, out_path):
    if out_path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(out_path, "w") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# subcommands

def _parse_grouping(spec_str):
    if spec_str in (None, "auto"):
        return None
    try:
        grouping = json.loads(spec_str)
        return [[int(i) for i in group] for group in grouping]
    except (TypeError, ValueError) as err:
        raise ModelFileError(f"bad grouping: {err}") from None

def _solvent_payload(S):
    return {
        "solvents": [
            {
                "R": s.R,
                "spectrum": sorted([complex(z) for z in s.spectrum],
                                   key=lambda z: (-z.real, -z.imag)),
                "residual_norm": float(s.residual_norm),
            }
            for s in S.solvents
        ],
        "cond_V": float(S.cond_V),
        "tolerances": {"solvent_residual": matpoly.TOL_SOLVENT,
                       "eigenvalue_match": matpoly.TOL_EIG,
                       "coprimeness_rank": rational.RANK_TOL},
    }

def cmd_solvents(args):
    model, _ = load_model_file(args.model)
    S = model.solvent_set(_parse_grouping(args.grouping))
    _emit(dumps_json(_solvent_payload(S)), args.out)
    return 0

def cmd_decompose(args):
    model, _ = load_model_file(args.model)
    S = model.solvent_set(_parse_grouping(args.grouping))
    decomp = mcarma.decompose(model, S)
    payload = _solvent_payload(S)
    payload["components"] = [
        {"R": c.R, "residue": c.residue} for c in decomp.components]
    payload["irreducible"] = True
    _emit(dumps_json(payload), args.out)
    return 0

def cmd_acvf(args):
    model, _ = load_model_file(args.model)
    S = model.solvent_set(_parse_grouping(args.grouping))
    decomp = mcarma.decompose(model, S)
    lags = [k * args.h for k in range(args.lags + 1)]
    gammas = mcarma.stationary_acvf(decomp, lags)
    lines = ["lag,i,j,value"]
    for lag, gamma in zip(lags, gammas):
        for i in range(model.d):
            for j in range(model.d):
                lines.append(f"{_fmt(lag)},{i},{j},{_fmt(float(gamma[i, j]))}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0

def cmd_varma(args):
    model, _ = load_model_file(args.model)
    S = model.solvent_set(_parse_grouping(args.grouping))
    decomp = mcarma.decompose(model, S)
    sv = sampling.sampled_varma(decomp, args.h)
    payload = {
        "h": float(sv.h),
        "Phi": list(sv.phi),
        "Psi": list(sv.psi),
        "gamma_U": list(sv.gamma_U),
        "Theta": list(sv.theta),
        "Sigma_eps": sv.sigma_eps,
        "schur_stable": bool(sv.schur_stable),
        "cond_sampled_V": float(sv.cond_sampled_V),
        "ma_margin": float(sv.ma_margin),
    }
    _emit(dumps_json(payload), args.out)
    return 0

def cmd_simulate(args):
    model, driver = load_model_file(args.model, seed=args.seed)
    S = model.solvent_set(_parse_grouping(args.grouping))
    decomp = mcarma.decompose(model, S)
    path = sim.simulate(decomp, driver, args.h, args.steps,
                        stationary_start=args.stationary_start)
    d = model.d
    header = ["n"] + [f"Y_{i + 1}" for i in range(d)]
    U = None
    if args.emit_noise:
        _, phi, _ = sampling.varma_ar(S, args.h)
        path = sim.attach_noise(path, phi)
        U = path.U
        header += [f"U_{i + 1}" for i in range(d)]
    lines = [",".join(header)]
    p = model.p
    for n in range(path.n_steps):
        row = [str(n)] + [_fmt(float(v)) for v in path.Y[n]]
        if U is not None:
            if n >= p:
                row += [_fmt(float(v)) for v in U[n - p]]
            else:
                row += [""] * d
        lines.append(",".join(row))
    _emit("\n".join(lines) + "\n", args.out)
    return 0


# ---------------------------------------------------------------------------
# verification suite

def _rel_err(got, want):
    scale = max(1.0, float(np.linalg.norm(want)))
    return float(np.linalg.norm(np.asarray(got) - np.asarray(want)) / scale)

def run_verification(model, driver, h, steps, seed):
    """Run the invariant suite and return [(name, measured, bound, ok)]."""
    checks = []

    def record(name, measured, bound, smaller_is_better=True):
        ok = measured <= bound if smaller_is_better else measured >= bound
        checks.append((name, float(measured), float(bound), bool(ok)))

    S = model.solvent_set()
    scale_ap = max(1.0, float(np.linalg.norm(model.A.coeffs[-1])))
    record("solvent-residual",
           max(s.residual_norm for s in S.solvents), 1e-9 * scale_ap)

    ss = mcarma.build_state_space(model)
    record("statespace-identity", ss.sharp_residual, ss.sharp_bound)

    decomp = mcarma.decompose(model, S)
    tgrid = np.linspace(0.0, 5.0, 51)
    kernel_err = 0.0
    kernel_imag = 0.0
    for t in tgrid:
        ssk = ss.C_star @ scipy.linalg.expm(t * ss.A_star) @ ss.B_star
        total = np.zeros_like(ssk, dtype=complex)
        for comp in decomp.components:
            total = total + scipy.linalg.expm(t * comp.R) @ comp.residue
        kernel_imag = max(kernel_imag, float(np.max(np.abs(total.imag))))
        kernel_err = max(kernel_err, float(np.linalg.norm(total.real - ssk)))
    record("kernel-identity", kernel_err,
           1e-8 * (1.0 + float(np.linalg.norm(ss.B_star))))
    record("kernel-realness", kernel_imag, 1e-9)

    pf = decomp.partial_fraction
    radius = 2.0 * max(abs(pr.root) for pr in model.latent_pairs)
    pf_err = 0.0
    for angle in np.linspace(0.0, 2 * np.pi, 20, endpoint=False):
        z = radius * np.exp(1j * (angle + 0.05))
        direct = np.linalg.solve(model.A.eval(z), model.B.eval(z))
        pf_err = max(pf_err, _rel_err(rational.eval_partial_fraction(pf, z), direct))
    record("pf-reconstruction", pf_err, 1e-8)

    if model.stationary:
        lags = [k * h for k in range(11)]
        gammas = mcarma.stationary_acvf(decomp, lags)
        pi = mcarma.stationary_state_covariance(ss, model.sigma_L)
        oracle_err = 0.0
        for lag, gamma in zip(lags, gammas):
            oracle = ss.C_star @ scipy.linalg.expm(lag * ss.A_star) @ pi @ ss.C_star.T
            oracle_err = max(oracle_err, _rel_err(gamma, oracle))
        record("acvf-lyapunov-oracle", oracle_err, 1e-8)
        record("acvf-symmetry", float(np.max(np.abs(gammas[0] - gammas[0].T))),
               1e-10 * max(1.0, float(np.max(np.abs(gammas[0])))))

    sv = sampling.sampled_varma(decomp, h)
    record("varma-ar-structure", sv.ar_residual, 1e-8)

    ma_err = 0.0
    for lag in range(model.p):
        ma_err = max(ma_err, _rel_err(
            sampling.ma_acvf(sv.theta, sv.sigma_eps, lag), sv.gamma_U[lag]))
    record("ma-roundtrip", ma_err, 1e-6)
    record("ma-invertibility", sv.ma_margin, 1e-6, smaller_is_better=False)

    if model.stationary:
        # independent route to gamma_U through the continuous-time ACVF
        p = model.p
        needed = sorted({abs(l - i + j) for l in range(p)
                         for i in range(p + 1) for j in range(p + 1)})
        gamma_y = dict(zip(needed, mcarma.stationary_acvf(
            decomp, [u * h for u in needed])))

        def gy(u):
            return gamma_y[u] if u >= 0 else gamma_y[-u].T

        phi_t = [np.eye(model.d)] + [-f for f in sv.phi]
        noise_err = 0.0
        for lag in range(p):
            acc = np.zeros((model.d, model.d))
            for i in range(p + 1):
                for j in range(p + 1):
                    acc += phi_t[i] @ gy(lag - i + j) @ phi_t[j].T
            noise_err = max(noise_err, _rel_err(sv.gamma_U[lag], acc))
        record("noise-acvf-consistency", noise_err, 1e-7)

    # Monte-Carlo: the extracted noise is (p-1)-dependent.  The 99% band
    # below is the Gaussian CLT band, exact for the Brownian driver only
    # (compound-Poisson sample ACVFs carry an extra kurtosis term).
    if model.stationary and driver.kind == "brownian":
        p = model.p
        driver_mc = sim.DriverSpec(kind="brownian", seed=seed,
                                   sigma_L=driver.sigma_L)
        path = sim.simulate(decomp, driver_mc, h, steps, stationary_start=True)
        U = sim.extract_noise(path, list(sv.phi))
        n_eff = U.shape[0]
        centered = U - U.mean(axis=0)
        band_var = sum(
            np.outer(np.diag(sampling.acvf_at_lag(list(sv.gamma_U), u)),
                     np.diag(sampling.acvf_at_lag(list(sv.gamma_U), u)))
            for u in range(-(p - 1), p))
        band = 2.5758 * np.sqrt(band_var / n_eff)
        worst_ratio = 0.0
        for lag in range(p, p + 4):
            est = centered[lag:].T @ centered[:n_eff - lag] / n_eff
            worst_ratio = max(worst_ratio, float(np.max(np.abs(est) / band)))
        record("noise-lag-p-zero", worst_ratio, 1.0)
    return checks, decomp

def cmd_verify(args):
    model, driver = load_model_file(args.model, seed=args.seed)
    checks, _ = run_verification(model, driver, args.h, args.steps, args.seed)
    width = max(len(name) for name, *_ in checks)
    all_ok = True
    for name, measured, bound, ok in checks:
        status = "PASS" if ok else "FAIL"
        all_ok &= ok
        print(f"{name:<{width}}  measured={measured:.6e}  bound={bound:.6e}  {status}")
    print("verification:", "PASS" if all_ok else "FAIL")
    return 0 if all_ok else 2


# ---------------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="mcarma-ou",
        description="MCARMA models as sums of Ornstein-Uhlenbeck processes: "
                    "solvents, residues, sampled VARMA parameters, simulation.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **flags):
        cmd = sub.add_parser(name)
        cmd.add_argument("model", help="model JSON file")
        cmd.add_argument("--grouping", default="auto",
                         help="'auto' or a JSON list of latent-root index groups")
        cmd.add_argument("--out", default=None, help="output path (default stdout)")
        if flags.get("h"):
            cmd.add_argument("--h", type=float, default=0.1, help="sampling step")
        if flags.get("steps"):
            cmd.add_argument("--steps", type=int, default=100000)
        if flags.get("lags"):
            cmd.add_argument("--lags", type=int, default=10,
                             help="number of lag steps (lags are 0, h, ..., L*h)")
        if flags.get("seed"):
            cmd.add_argument("--seed", type=int, default=0)
        if flags.get("sim"):
            cmd.add_argument("--emit-noise", action="store_true")
            cmd.add_argument("--stationary-start", action="store_true")
        cmd.set_defaults(fn=fn)
        return cmd

    add("solvents", cmd_solvents)
    add("decompose", cmd_decompose)
    add("acvf", cmd_acvf, h=True, lags=True)
    add("varma", cmd_varma, h=True)
    add("simulate", cmd_simulate, h=True, steps=True, seed=True, sim=True)
    add("verify", cmd_verify, h=True, steps=True, seed=True)
    return parser

def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ModelFileError as err:
        print(f"input error: {err}", file=sys.stderr)
        return 1
    except CertificationError as err:
        print(f"certification failure: {err}", file=sys.stderr)
        return 2

if __name__ == "__main__":
    sys.exit(main())

"""Command line front end.

Subcommands: ``solvents``, ``decompose``, ``acvf``, ``varma``, ``simulate``
and ``verify``.  Models come from a JSON file holding the AR coefficient
list (monic leading block required), the MA coefficient list, the driver
covariance and a driver block; see ``models/carma2x2.json`` for the
canonical instance.

Exit codes: 0 success, 1 input error (usage/parse/shape, or output that
cannot be written: an unwritable ``--out`` or a closed stdout), 2 numerical
certification failure, with the failed invariant named on stderr.  Floats
round-trip exactly: JSON output writes them by ``repr`` (through
``json.dumps``) and CSV output with 17 significant digits.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import sys

import numpy as np

from . import matpoly, mcarma, sampling, sim, tolerances as tol
from .exceptions import CertificationError, ModelFileError


# ---------------------------------------------------------------------------
# model file handling

def _array(obj, name, ndim=2):
    """``obj`` as a finite float array of ``ndim`` dimensions (any if None; a float if 0)."""
    try:
        arr = np.asarray(obj, dtype=float)
    except (TypeError, ValueError) as err:
        raise ModelFileError(f"{name} is not numeric: {err}") from None
    if ndim is not None and arr.ndim != ndim:
        raise ModelFileError(f"{name} must have {ndim} dimensions")
    if not np.isfinite(arr).all():
        raise ModelFileError(f"{name} has a non-finite entry")
    return float(arr) if ndim == 0 else arr


def _coeff_list(obj, name):
    if not isinstance(obj, list) or not obj:
        raise ModelFileError(f"{name} must be a non-empty list of matrices")
    mats = [_array(c, f"{name}[{i}]") for i, c in enumerate(obj)]
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
    b_coeffs = _coeff_list(doc["B"], "B")
    sigma_L = _array(doc["sigma_L"], "sigma_L")
    mean_L = doc.get("mean_L")
    if mean_L is not None:
        mean_L = _array(mean_L, "mean_L", ndim=None)

    try:
        model = mcarma.McarmaModel.build(
            matpoly.LambdaMatrix(a_coeffs),
            matpoly.LambdaMatrix(b_coeffs),
            sigma_L,
            mean_L=mean_L,
        )
    except CertificationError:
        raise
    except ValueError as err:
        raise ModelFileError(str(err)) from None

    driver_doc = doc.get("driver", {"kind": "brownian"})
    if not isinstance(driver_doc, dict):
        raise ModelFileError("driver must be a JSON object")
    ndims = {"rate": 0, "jump_cov": 2, "sigma_L": 2}  # the numeric fields of sim.DriverSpec
    unknown = sorted(driver_doc.keys() - {"kind", *ndims})
    if unknown:
        raise ModelFileError(f"driver key {unknown[0]!r} is not one of kind, {', '.join(ndims)}")
    fields = {key: _array(value, f"driver.{key}", ndims[key])
              for key, value in driver_doc.items() if key != "kind"}
    try:  # sim.DriverSpec and sim.check_driver own a driver's rules
        driver = sim.DriverSpec(kind=driver_doc.get("kind", "brownian"), seed=seed, **fields)
        sim.check_driver(driver, model.sigma_L)
    except ValueError as err:
        raise ModelFileError(str(err)) from None
    return model, driver


# ---------------------------------------------------------------------------
# output formatting (round-trip safe)

def _fmt(x):
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _json_default(obj):
    """What ``json`` cannot encode itself: complex values (scalars or arrays)
    as ``{"re", "im"}``, arrays as nested lists, numpy scalars as Python's."""
    if np.iscomplexobj(obj):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def dumps_json(obj):
    """Serialize to indented JSON; ``json.dumps`` writes floats by ``repr``."""
    return json.dumps(obj, indent=2, default=_json_default) + "\n"


# ---------------------------------------------------------------------------
# subcommands

def _solvent_set(model, spec):
    """The model's solvent set along the ``--grouping`` spec: ``auto``, or a
    JSON list of p groups of d latent-root indices (JSON integers)."""
    try:
        grouping = None if spec == "auto" else json.loads(spec)
        if spec != "auto" and not (type(grouping) is list and all(
                type(g) is list and all(type(i) is int for i in g) for g in grouping)):
            raise ValueError("not 'auto' or a JSON list of lists of JSON integers")
        return model.solvent_set(grouping)
    except CertificationError:
        raise
    except ValueError as err:
        raise ModelFileError(f"bad --grouping: {err}") from None


def _decomposition(args):
    """The model file's default OU decomposition and driver, seeded by ``--seed`` if given."""
    model, driver = load_model_file(args.model, seed=getattr(args, "seed", 0))
    return mcarma.decompose(model, model.solvent_set()), driver


def _solvent_payload(S):
    return {
        "solvents": [
            {
                "R": R,
                "spectrum": sorted([complex(z) for z in spectrum],
                                   key=lambda z: (-z.real, -z.imag)),
                "residual_norm": float(norm),
            }
            for R, spectrum, norm in zip(S.matrices, S.spectrum, S.residual_norms)
        ],
        "cond_V": S.cond_V.measured,
        "tolerances": {"solvent_residual": tol.SOLVENT_RESIDUAL,
                       "eigenvalue_match": tol.EIG_MATCH,
                       "coprimeness_rank": tol.COPRIME_RANK},
    }


def cmd_solvents(args):
    model, _ = load_model_file(args.model)
    return 0, [dumps_json(_solvent_payload(_solvent_set(model, args.grouping)))]


def cmd_decompose(args):
    model, _ = load_model_file(args.model)
    decomp = mcarma.decompose(model, _solvent_set(model, args.grouping))
    S = decomp.solvent_set
    payload = _solvent_payload(S)
    payload["components"] = [
        {"R": R, "residue": res} for R, res in zip(S.matrices, decomp.residues)]
    payload["irreducible"] = True
    return 0, [dumps_json(payload)]


def cmd_acvf(args):
    decomp, _ = _decomposition(args)
    lags = [k * args.h for k in range(args.lags + 1)]
    gammas = mcarma.stationary_acvf(decomp, lags)
    lines = ["lag,i,j,value"]
    for lag, gamma in zip(lags, gammas):
        for i in range(decomp.d):
            for j in range(decomp.d):
                lines.append(f"{_fmt(lag)},{i},{j},{_fmt(float(gamma[i, j]))}")
    return 0, ["\n".join(lines) + "\n"]


def cmd_varma(args):
    decomp, _ = _decomposition(args)
    sv = sampling.sampled_varma(decomp, args.h)
    payload = {
        "h": float(sv.h),
        "Phi": sv.phi,
        "Psi": sv.psi,
        "gamma_U": sv.gamma_U,
        "Theta": sv.theta,
        "Sigma_eps": sv.sigma_eps,
        "schur_stable": bool(sv.schur_stable),
        "cond_sampled_V": sv.cond_sampled_V.measured,
        "ma_margin": float(sv.ma_margin),
    }
    return 0, [dumps_json(payload)]


def cmd_simulate(args):
    """The path as CSV, a block of ``sim.path_blocks`` a chunk, so the command
    holds O(CHUNK) rows at any ``--steps``; the first chunk is the header and
    the first block."""
    decomp, driver = _decomposition(args)
    d = decomp.d
    blocks = sim.path_blocks(decomp, driver, args.h, args.steps,
                             stationary_start=args.stationary_start)
    header = ["n"] + [f"Y_{i + 1}" for i in range(d)]
    if args.emit_noise:
        _, phi, *_ = sampling.varma_ar(decomp.model, args.h)
        sim.require_samples(args.steps, decomp.p)  # the noise starts at n = p
        blocks, feed = itertools.tee(blocks)
        noise = sim.extract_noise(feed, phi)
        header += [f"U_{i + 1}" for i in range(d)]
    else:
        noise = itertools.repeat(np.empty((0, d)))
    # one % per row writes what _fmt writes value by value; the U cells of
    # the rows n < p, which have no noise, are blank
    row = "%d" + ",%.17g" * d
    bare = row + ("," * d if args.emit_noise else "")
    full = row + ",%.17g" * d

    def text():
        start = 0
        for Y, U in zip(blocks, noise):
            Y, U = Y.tolist(), U.tolist()
            k = len(Y) - len(U)
            yield "".join([bare % (n, *y) + "\n" for n, y in enumerate(Y[:k], start)]
                          + [full % (n, *y, *u) + "\n"
                             for n, (y, u) in enumerate(zip(Y[k:], U), start + k)])
            start += len(Y)

    rows = text()
    return 0, itertools.chain([",".join(header) + "\n" + next(rows)], rows)


# ---------------------------------------------------------------------------
# verification suite

def run_verification(model, driver, h, steps):
    """Run the ``verify`` checks in row order; return the list of ``Check``.

    A row of a library certificate is the record its result keeps, renamed.
    The ACVF and noise oracles read one ``verify.sampled_state_space``.
    The Monte-Carlo row simulates ``driver`` (seeded), of either kind: its
    chi^2 statistic takes the Gaussian (Bartlett) covariance of the noise's
    sample ACVF at lags >= p, and that needs only the driver's second
    moments.  U_{t+l} and U_t with l >= p read disjoint windows of the
    driver, so the fourth-cumulant term of a compound-Poisson driver
    vanishes at those lags.  The path streams through the noise and its
    sample ACVF a block at a time and is never held, so the row's memory
    does not grow with ``steps``.
    ``mcarma_ou.verify`` is imported here, so only this command loads its
    scipy oracles.
    """
    from . import verify

    S = model.solvent_set()
    decomp = mcarma.decompose(model, S)
    checks = [S.residual._replace(name="solvent-residual"),
              decomp.statespace.sharp_identity._replace(name="statespace-identity"),
              verify.check_kernel_identity(decomp),
              verify.check_kernel_realness(decomp),
              verify.check_pf_reconstruction(decomp)]
    if model.stationary:
        sampled = verify.sampled_state_space(decomp.statespace, model.sigma_L, h)
        gammas = mcarma.stationary_acvf(decomp, [k * h for k in range(11)])
        checks += [verify.check_acvf_lyapunov(sampled, gammas),
                   verify.check_acvf_symmetry(gammas[0])]
    sv = sampling.sampled_varma(decomp, h)
    checks += [sv.ar_residual._replace(name="varma-ar-structure"),
               sv.ma_roundtrip._replace(name="ma-roundtrip"),
               verify.check_ma_invertibility(sv.ma_margin)]
    if model.stationary:
        checks.append(verify.check_noise_acvf(sampled, sv.phi, sv.gamma_U))
        blocks = sim.path_blocks(decomp, driver, h, steps, stationary_start=True)
        checks.append(verify.check_noise_lag_p_zero(
            sim.extract_noise(blocks, sv.phi), sv.gamma_U, n=max(steps - model.p, 0)))
    return checks


def cmd_verify(args):
    model, driver = load_model_file(args.model, seed=args.seed)
    checks = run_verification(model, driver, args.h, args.steps)
    width = max(len(name) for name, *_ in checks)
    all_ok = True
    lines = []
    for name, measured, bound, ok in checks:
        status = "PASS" if ok else "FAIL"
        all_ok &= ok
        lines.append(f"{name:<{width}}  measured={measured:.6e}  bound={bound:.6e}  {status}\n")
    lines.append(f"verification: {'PASS' if all_ok else 'FAIL'}\n")
    return 0 if all_ok else 2, lines


# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """A usage error is an input error (exit 1), not argparse's exit 2."""

    def error(self, message):
        raise ModelFileError(message)


def build_parser():
    parser = _Parser(
        prog="mcarma-ou",
        description="MCARMA models as sums of Ornstein-Uhlenbeck processes: "
                    "solvents, residues, sampled VARMA parameters, simulation.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **flags):
        cmd = sub.add_parser(name)
        cmd.add_argument("model", help="model JSON file")
        if flags.get("grouping"):  # no other output reads the grouping of the roots
            cmd.add_argument("--grouping", default="auto",
                             help="'auto' or a JSON list of latent-root index groups")
        if name != "verify":
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

    add("solvents", cmd_solvents, grouping=True)
    add("decompose", cmd_decompose, grouping=True)
    add("acvf", cmd_acvf, h=True, lags=True)
    add("varma", cmd_varma, h=True)
    add("simulate", cmd_simulate, h=True, steps=True, seed=True, sim=True)
    add("verify", cmd_verify, h=True, steps=True, seed=True)
    return parser


def _check_steps(args):
    if "h" in args and not 0.0 < args.h < np.inf:
        raise ModelFileError(f"--h must be positive and finite, got {args.h}")
    if "steps" in args and args.steps < 1:
        raise ModelFileError(f"--steps must be at least 1, got {args.steps}")
    if "seed" in args and args.seed < 0:
        raise ModelFileError(f"--seed must be at least 0, got {args.seed}")
    if "lags" in args and args.lags < 0:
        raise ModelFileError(f"--lags must be at least 0, got {args.lags}")


def main(argv=None):
    """Run one command; return its exit code.

    A command returns ``(exit_code, chunks)``, chunks an iterable of its text
    whose first chunk is computed before it returns: a command that fails
    before its first row writes nothing and creates no ``--out`` file.
    ``main`` is the one writer.  It writes the chunks as they come (so
    ``simulate`` streams) to stdout, or to ``--out`` unless that is ``-``,
    and an output it cannot open or write, a closed pipe too, is exit 1.
    """
    try:
        args = build_parser().parse_args(argv)
        _check_steps(args)
        code, chunks = args.fn(args)
        to_stdout = getattr(args, "out", None) in (None, "-")
        try:
            with (contextlib.nullcontext(sys.stdout) if to_stdout
                  else open(args.out, "w")) as out:
                out.writelines(chunks)
                out.flush()
        except OSError as err:
            if to_stdout and sys.stdout is sys.__stdout__:
                # the interpreter flushes stdout again at exit: send what is
                # still buffered to devnull, not to the broken pipe or device
                os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            raise ModelFileError(f"cannot write {'stdout' if to_stdout else args.out}: "
                                 f"{err.strerror or err}") from None
        return code
    except ModelFileError as err:
        print(f"input error: {err}", file=sys.stderr)
        return 1
    except CertificationError as err:
        print(f"certification failure: {err}", file=sys.stderr)
        return 2

if __name__ == "__main__":
    sys.exit(main())

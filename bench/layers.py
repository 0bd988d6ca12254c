"""Per-layer timings of mcarma_ou on fixed models, written as one JSON file.

Usage (from the repository root)::

    PYTHONPATH=src python bench/layers.py --out BENCH.json [--reps 21] [--tier1]

For each model file of ``MODELS`` it keeps one decomposition, warms every
layer up once, and then times ``--reps`` calls of each layer in turn,
reporting the median and the minimum in seconds: at each fit step h of
``FIT_H`` ``mcarma.stationary_acvf`` (lags 0, h, ..., 10 h),
``sampling.varma_ar``, ``sampling.noise_acvf``, ``sampling.fit_ma`` and
``sampling.sampled_varma``, ``sim.simulate`` per step for a Brownian and a
compound-Poisson driver (stationary start, ``SIM_STEPS`` steps at
``SIM_H``), and ``short_path``, a Brownian path of ``COLD_STEPS`` steps,
where what the modal form keeps per step shows.  The cold rows time the
first calls on a model built afresh from the same coefficients, ``--reps``
models after one more: ``McarmaModel.build``, ``matpoly.latent_roots`` of
its AR polynomial alone, ``solvent_set()``, the default ``decompose``, the
first ``stationary_acvf`` (which builds the model's modes) and the first
Brownian ``simulate`` path of ``COLD_STEPS`` steps (which builds the modal
form, the stationary factor and the step entry).  The whole-run rows time
``verify`` at the CLI's default flags: ``cli.run_verification`` in process
on a model file loaded afresh per call, and ``python -m mcarma_ou.cli
verify`` as a child process, with its exit code (2 if a row fails; the time
counts either way) and its peak RSS in MB, the largest over the calls, both
read by a small launcher process (``LAUNCHER``) that spawns the child and
waits for it with ``os.wait4``; ``cli_help`` is the child's cold start,
``--help``.  With ``--tier1`` it also runs the tier-1 test command
(``TIER1``) once, as a child process in the script's own checkout, and
records its wall seconds with the passed and deselected counts of pytest's
summary line.  It
also records the Python and numpy versions and the time of a numpy-only
reference kernel, so that runs on different machines or days can be put
side by side.  BLAS runs on one thread, in the children too.  Only numpy
and mcarma_ou are imported.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")  # before numpy loads BLAS

import argparse
import json
import pathlib
import platform
import re
import statistics
import subprocess
import sys
import time

import numpy as np

import mcarma_ou
from mcarma_ou import cli, matpoly, mcarma, sampling, sim

ROOT = pathlib.Path(__file__).resolve().parents[1]
MODELS_DIR = ROOT / "models"
MODELS = ("carma2x2", "corpus8")
FIT_H = (0.25, 0.01)
FIT_LAGS = 10
SIM_H = 0.1
SIM_STEPS = 10_000
CP_RATE = 10.0  # about one jump per step at SIM_H
COLD_STEPS = 100  # a short first path, so that what it builds shows
KERNEL_SIZE = 64  # the reference kernel: solve of a fixed system, KERNEL_CALLS times
KERNEL_CALLS = 200
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]


def summary(times):
    return {"median_s": statistics.median(times), "min_s": min(times)}


def timed(fn, reps):
    """Median and minimum seconds of ``reps`` calls of ``fn``, after one."""
    fn()
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return summary(times)


def per_step(record, steps):
    return {key: value / steps for key, value in record.items()}


def reference_kernel(reps):
    rng = np.random.default_rng(0)
    a = rng.standard_normal((KERNEL_SIZE, KERNEL_SIZE)) + KERNEL_SIZE * np.eye(KERNEL_SIZE)
    b = rng.standard_normal(KERNEL_SIZE)

    def kernel():
        for _ in range(KERNEL_CALLS):
            np.linalg.solve(a, b)

    return timed(kernel, reps)


def fit_layers(decomp, h, reps):
    model = decomp.model
    lags = [k * h for k in range(FIT_LAGS + 1)]
    _, phi, *_ = sampling.varma_ar(model, h)
    gamma_U = sampling.noise_acvf(model, phi, h)
    return {
        "stationary_acvf": timed(lambda: mcarma.stationary_acvf(decomp, lags), reps),
        "varma_ar": timed(lambda: sampling.varma_ar(model, h), reps),
        "noise_acvf": timed(lambda: sampling.noise_acvf(model, phi, h), reps),
        "fit_ma": timed(lambda: sampling.fit_ma(gamma_U), reps),
        "sampled_varma": timed(lambda: sampling.sampled_varma(decomp, h), reps),
    }


# sigma_L given (the model's), so that the script also times trees whose
# Brownian driver needs it
def drivers(sigma_L):
    return {
        "brownian": sim.DriverSpec(kind="brownian", seed=1, sigma_L=sigma_L),
        "compound_poisson": sim.DriverSpec(kind="compound_poisson", seed=1, rate=CP_RATE,
                                           jump_cov=sigma_L / CP_RATE),
    }


def simulate_layers(decomp, reps):
    return {kind: per_step(timed(lambda d=driver: sim.simulate(
                decomp, d, SIM_H, SIM_STEPS, stationary_start=True), reps), SIM_STEPS - 1)
            for kind, driver in drivers(decomp.model.sigma_L).items()}


def short_path(decomp, reps):
    """Seconds of a Brownian path of COLD_STEPS steps on a kept decomposition."""
    driver = drivers(decomp.model.sigma_L)["brownian"]
    return timed(lambda: sim.simulate(decomp, driver, SIM_H, COLD_STEPS,
                                      stationary_start=True), reps)


def cold_layers(model, reps):
    """Median and minimum seconds of each first call on ``reps`` models built
    afresh from the coefficients of ``model``, after one more."""
    lags = [k * FIT_H[0] for k in range(FIT_LAGS + 1)]
    driver = drivers(model.sigma_L)["brownian"]
    stages = {
        "latent_roots": lambda new: matpoly.latent_roots(new.A),
        "solvent_set": lambda new: new.solvent_set(),
        "decompose": lambda new: mcarma.decompose(new, new.solvent_set()),
        "stationary_acvf": lambda new: mcarma.stationary_acvf(
            mcarma.decompose(new, new.solvent_set()), lags),
        "simulate": lambda new: sim.simulate(mcarma.decompose(new, new.solvent_set()), driver,
                                             SIM_H, COLD_STEPS, stationary_start=True),
    }
    times = {name: [] for name in ("build", *stages)}
    for _ in range(reps + 1):
        start = time.perf_counter()
        new = mcarma.McarmaModel.build(model.A, model.B, model.sigma_L)
        times["build"].append(time.perf_counter() - start)
        for name, stage in stages.items():
            start = time.perf_counter()
            stage(new)
            times[name].append(time.perf_counter() - start)
    return {name: {"median_s": statistics.median(t[1:]), "min_s": min(t[1:])}
            for name, t in times.items()}


# Spawns the command after it, its stdout to /dev/null, and prints its exit
# code, wall seconds and peak RSS (ru_maxrss, KiB).  The CLI children start
# from this small interpreter rather than from the script: on Linux exec
# carries the peak RSS of the spawning process into the child's ru_maxrss,
# so a child of the script would read at least the script's own RSS.
LAUNCHER = """
import os, sys, time
start = time.perf_counter()
pid = os.posix_spawn(sys.argv[1], sys.argv[1:], os.environ,
                     file_actions=[(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)])
_, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), time.perf_counter() - start, usage.ru_maxrss)
"""


def child(*argv):
    """Run ``python -m mcarma_ou.cli argv`` on the tree this script imported,
    through LAUNCHER, and return its exit code, wall seconds and peak RSS in
    MB; 2, a failed ``verify`` row, counts like 0, and any other code raises
    ``CalledProcessError``."""
    src = str(pathlib.Path(mcarma_ou.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    cmd = [sys.executable, "-m", "mcarma_ou.cli", *argv]
    report = subprocess.run([sys.executable, "-S", "-c", LAUNCHER, *cmd], env=env,
                            stdout=subprocess.PIPE, text=True, check=True).stdout
    code, seconds, kib = report.split()
    if int(code) not in (0, 2):
        raise subprocess.CalledProcessError(int(code), cmd)
    return int(code), float(seconds), int(kib) / 1024


def children(reps, *argv):
    """``reps`` CLI children after one: the median and minimum seconds, with
    the largest exit code and the largest peak RSS in MB."""
    codes, seconds, peaks = zip(*(child(*argv) for _ in range(reps + 1)))
    return {**summary(seconds[1:]), "exit_code": max(codes), "peak_rss_mb": max(peaks)}


def whole_run(path, reps):
    """``verify`` on the model file at ``path`` at the CLI's default flags,
    in process and as a child process."""
    args = cli.build_parser().parse_args(["verify", str(path)])

    def in_process():
        model, driver = cli.load_model_file(args.model, seed=args.seed)
        cli.run_verification(model, driver, args.h, args.steps)

    return {"run_verification": timed(in_process, reps),
            "cli_verify": children(reps, "verify", str(path))}


def tier1():
    """Wall seconds of one run of ``TIER1`` in ``ROOT`` with ``ROOT/src`` first
    on PYTHONPATH and BLAS on one thread, its exit code, and the passed and
    deselected counts of its summary line (0 where the line names none)."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
                   filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    start = time.perf_counter()
    done = subprocess.run(TIER1, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    seconds = time.perf_counter() - start
    summary_line = done.stdout.rstrip().rsplit("\n", 1)[-1]
    counts = {key: int(m.group(1)) if (m := re.search(rf"(\d+) {key}", summary_line)) else 0
              for key in ("passed", "deselected")}
    return {"wall_s": seconds, "exit_code": done.returncode, **counts}


def run(reps, with_tier1=False):
    out = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "reps": reps,
        "reference_kernel": reference_kernel(reps),
        "cli_help": summary([child("--help")[1] for _ in range(reps + 1)][1:]),
        "models": {},
    }
    for name in MODELS:
        path = MODELS_DIR / f"{name}.json"
        model, _ = cli.load_model_file(str(path))
        decomp = mcarma.decompose(model, model.solvent_set())
        out["models"][name] = {
            "d": model.d,
            "p": model.p,
            "fit": {str(h): fit_layers(decomp, h, reps) for h in FIT_H},
            "simulate_per_step": simulate_layers(decomp, reps),
            "short_path": short_path(decomp, reps),
            "cold": cold_layers(model, reps),
            "whole_run": whole_run(path, reps),
        }
    if with_tier1:
        out["tier1"] = tier1()
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="JSON file to write")
    parser.add_argument("--reps", type=int, default=21, help="timed calls per layer")
    parser.add_argument("--tier1", action="store_true",
                        help="also time one run of the tier-1 test suite")
    args = parser.parse_args(argv)
    if args.reps < 1:
        parser.error("--reps must be at least 1")
    with open(args.out, "w") as fh:
        json.dump(run(args.reps, args.tier1), fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()

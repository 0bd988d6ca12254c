"""The benchmark workloads: their inputs, ops, output checks and set-up probes.

Every workload is a closed loop with one client.  Its ops come in passes; a
pass visits every input of the workload once, so a run that measures whole
passes measures the same work whatever order ``--seed`` gives the ops.

- ``fit-coarse`` / ``fit-fine``: one op is the estimation inner loop
  ``solvent_set -> decompose -> stationary_acvf -> sampled_varma`` on one
  (model, h) of a fixed 144-model corpus, h in {0.25, 1} or {0.01, 0.05}.
- ``simulate``: one op is one ``sim.simulate`` path from a stationary start,
  Brownian on carma2x2 and on two corpus d=3, p=3 models, compound Poisson
  on carma2x2.
- ``verify-cli``: one op is one ``mcarma_ou.cli verify`` child, run as
  ``python -m`` runs it (through child.py, which samples the CPU speed), on
  carma2x2 or on a corpus d=3, p=3 model file, default flags.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np
import scipy.linalg

import corpus
from mcarma_ou import cli, mcarma, sampling, sim

# The test suite's corpus stream.  The corpus is fixed rather than drawn from
# --seed: at h = 0.01 the cost of one op ranges from 2 ms to 0.9 s, so a
# corpus drawn per seed moved fit-fine ops/s by 24% (IQR/median, six seeds).
# Its first 144 models include #143, whose A# B* = B# check fails on the
# absolute SHARP_IDENTITY_TOL.
CORPUS_SEED = 20250810
CORPUS_SIZE = 144
D3P3_FIRST, D3P3_SECOND = 8, 17   # the first two d=3, p=3 corpus models

FIT_H = {"fit-coarse": (0.25, 1.0), "fit-fine": (0.01, 0.05)}
FIT_LAGS = 10                     # stationary_acvf at lags 0, h, ..., 10 h
ACVF_TOL = 1e-8                   # the acceptance bounds of the test suite
MA_TOL = 1e-6

SIM_H = 0.1
CP_RATE = 10.0                    # about one jump per step at h = 0.1
SIM_PATHS = (                     # (model, driver, grid points)
    ("carma2x2", "brownian", 10_000),
    ("d3p3-a", "brownian", 10_000),
    ("d3p3-b", "brownian", 10_000),
    ("carma2x2", "compound_poisson", 5_000),
)
SIM_ACVF_LAGS = 3
SIM_BAND = 4.0                    # sample-ACVF band, in standard errors

CHILD = os.path.join(os.path.dirname(os.path.abspath(__file__)), "child.py")
PROBE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "probe.py")
PROBES = 7                        # set-up probes per run; setup_s is their median
PROBE_TIMEOUT_S = 60
VERIFY_TIMEOUT_S = 120


class CheckFailed(Exception):
    """An op returned, but its output disagrees with an independent route."""


class CliFailure(Exception):
    """A CLI child exited non-zero; ``kind`` names the failure class."""

    def __init__(self, kind, message):
        super().__init__(message)
        self.kind = kind


@dataclass
class Op:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], None]
    group: str                    # "fit", the driver kind, or the verify model
    work: int = 1                 # grid points for a path, else 1
    # a child op's CPU-speed samples (child.py): (kernel times, sampling time)
    samples: Callable[[], tuple] | None = None


def fit_op(model, h):
    """The estimation inner loop on one (model, h)."""
    S = model.solvent_set()
    decomp = mcarma.decompose(model, S)
    gammas = mcarma.stationary_acvf(decomp, [k * h for k in range(FIT_LAGS + 1)])
    return decomp, gammas, sampling.sampled_varma(decomp, h)


def check_fit(out, h):
    """ACVF against the Lyapunov state-space oracle, MA fit by round trip."""
    decomp, gammas, sv = out
    ss = decomp.statespace
    sigma_L = decomp.model.sigma_L
    pi = scipy.linalg.solve_continuous_lyapunov(
        ss.A_star, -ss.B_star @ sigma_L @ ss.B_star.T)
    pi = 0.5 * (pi + pi.T)
    for k, got in enumerate(gammas):
        want = ss.C_star @ scipy.linalg.expm(k * h * ss.A_star) @ pi @ ss.C_star.T
        err = np.linalg.norm(got - want) / max(1.0, np.linalg.norm(want))
        if not err <= ACVF_TOL:
            raise CheckFailed(f"acvf-lyapunov-oracle {err:.3e} at lag {k}")
    for lag, want in enumerate(sv.gamma_U):
        got = sampling.ma_acvf(sv.theta, sv.sigma_eps, lag)
        err = np.max(np.abs(got - want)) / max(1.0, np.max(np.abs(want)))
        if not err <= MA_TOL:
            raise CheckFailed(f"ma-roundtrip {err:.3e} at lag {lag}")


def fixed_corpus():
    return corpus.corpus_from(np.random.default_rng(CORPUS_SEED), CORPUS_SIZE)


def _order(seed, pass_index, n):
    rng = np.random.default_rng(np.random.SeedSequence([seed, pass_index]))
    return rng.permutation(n)


class FitWorkload:
    def __init__(self, name, seed, paths):
        self.seed = seed
        self.hs = FIT_H[name]
        self.items = [(i, m, h) for i, m in enumerate(fixed_corpus()) for h in self.hs]
        self.probe = [PROBE, "{samples}", "fit", paths.carma2x2, repr(self.hs[0])]
        self.env, self.work = paths.child_env, paths.work
        self.warmup_model, _ = cli.load_model_file(paths.carma2x2)

    def setup_times(self, clock):
        return child_setup_times(self.probe, self.env, self.work, clock)

    def warmup(self):
        fit_op(self.warmup_model, self.hs[0])

    def ops(self, pass_index):
        for j in _order(self.seed, pass_index, len(self.items)):
            i, model, h = self.items[j]
            yield Op(f"#{i} d{model.d}p{model.p}q{model.q} h={h}",
                     lambda m=model, h=h: fit_op(m, h),
                     lambda out, h=h: check_fit(out, h), "fit")


def simulate_op(decomp, kind, sigma_L, n_steps, seed):
    if kind == "brownian":
        driver = sim.DriverSpec(kind="brownian", seed=seed, sigma_L=sigma_L)
    else:
        driver = sim.DriverSpec(kind="compound_poisson", seed=seed,
                                rate=CP_RATE, jump_cov=sigma_L / CP_RATE)
    return sim.simulate(decomp, driver, SIM_H, n_steps, stationary_start=True)


def _acvf_band(decomp, n_steps):
    """Stationary ACVF at lags 0..3 and a band of SIM_BAND standard errors.

    The standard error of a sample autocovariance of n points is taken as
    ``||gamma(0)||_F sqrt(tau / n)``, with ``tau = (1 + r) / (1 - r)`` the
    integrated autocorrelation time of the slowest mode, ``r = e^{-a h}``.
    """
    want = mcarma.stationary_acvf(decomp, [k * SIM_H for k in range(SIM_ACVF_LAGS + 1)])
    slowest = min(-np.real(decomp.model.latent_root_values))
    r = np.exp(-slowest * SIM_H)
    tau = (1.0 + r) / (1.0 - r)
    return want, SIM_BAND * np.linalg.norm(want[0]) * np.sqrt(tau / n_steps)


def check_path(path, want, band, rerun=None):
    """Finite path, sample ACVF in the band, bit-identical seeded rerun."""
    if not np.all(np.isfinite(path.Y)):
        raise CheckFailed("non-finite path")
    got = sim.empirical_acvf(path, SIM_ACVF_LAGS)
    err = max(float(np.max(np.abs(g - w))) for g, w in zip(got, want))
    if not err <= band:
        raise CheckFailed(f"sample ACVF off by {err:.3e} > band {band:.3e}")
    if rerun is not None and not np.array_equal(rerun().Y, path.Y):
        raise CheckFailed("seeded rerun differs")


class SimulateWorkload:
    def __init__(self, seed, paths):
        self.seed = seed
        models = fixed_corpus()
        model2, _ = cli.load_model_file(paths.carma2x2)
        by_name = {"carma2x2": model2, "d3p3-a": models[D3P3_FIRST],
                   "d3p3-b": models[D3P3_SECOND]}
        self.paths = []
        for name, kind, n in SIM_PATHS:
            model = by_name[name]
            decomp = mcarma.decompose(model, model.solvent_set())
            want, band = _acvf_band(decomp, n)
            self.paths.append((f"{name} {kind}", decomp, kind, model.sigma_L, n, want, band))
        self.probe = [PROBE, "{samples}", "simulate", paths.carma2x2]
        self.env, self.work = paths.child_env, paths.work

    def setup_times(self, clock):
        return child_setup_times(self.probe, self.env, self.work, clock)

    def warmup(self):
        _, decomp, kind, sigma_L, n, _, _ = self.paths[0]
        simulate_op(decomp, kind, sigma_L, n, 0)

    def ops(self, pass_index):
        for j in _order(self.seed, pass_index, len(self.paths)):
            label, decomp, kind, sigma_L, n, want, band = self.paths[j]
            noise = int(np.random.SeedSequence([self.seed, pass_index, j]).generate_state(1)[0])

            def run(decomp=decomp, kind=kind, sigma_L=sigma_L, n=n, noise=noise):
                return simulate_op(decomp, kind, sigma_L, n, noise)

            # the bit-identity rerun doubles an op, so only the first pass has it
            yield Op(label, run,
                     lambda path, want=want, band=band, run=run: check_path(
                         path, want, band, run if pass_index == 0 else None),
                     kind, work=n)


def _failure_kind(returncode, stdout, stderr):
    """Failure class of a CLI child: the failed checks or the exception name."""
    if "verification: FAIL" in stdout:
        failed = [line.split()[0] for line in stdout.splitlines() if line.endswith("FAIL")
                  and not line.startswith("verification")]
        return "VerificationFail:" + "+".join(failed)
    lines = [line for line in stderr.strip().splitlines() if line.strip()]
    last = lines[-1] if lines else f"exit {returncode}"
    if last.startswith("certification failure: "):
        return last.split(": ")[1]
    return last.split(":")[0]


def check_verify(out):
    returncode, stdout = out
    if returncode != 0 or stdout.strip().splitlines()[-1] != "verification: PASS":
        raise CheckFailed("verify output without 'verification: PASS'")


class VerifyWorkload:
    def __init__(self, seed, paths, in_process=False):
        self.seed = seed
        d3p3 = fixed_corpus()[D3P3_FIRST]
        self.files = [("d2p2", paths.carma2x2),
                      ("d3p3", corpus.write_model(paths.work / "d3p3.json", d3p3))]
        self.env, self.work = paths.child_env, paths.work
        self.in_process = in_process
        self.samples = ((), 0.0)    # the last child's CPU-speed samples

    def _child(self, model_path):
        samples_path = self.work / "child-samples.json"
        samples_path.unlink(missing_ok=True)
        self.samples = ((), 0.0)
        proc = subprocess.run(
            [sys.executable, CHILD, str(samples_path), "mcarma_ou.cli", "verify", model_path],
            capture_output=True, text=True, env=self.env, timeout=VERIFY_TIMEOUT_S)
        if samples_path.exists():
            self.samples = _read_samples(samples_path)
        if proc.returncode != 0:
            raise CliFailure(_failure_kind(proc.returncode, proc.stdout, proc.stderr),
                             proc.stderr[-500:])
        return proc.returncode, proc.stdout

    @staticmethod
    def _main(model_path):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["verify", model_path])
        if code != 0:
            raise CliFailure(_failure_kind(code, buf.getvalue(), f"exit {code}"),
                             buf.getvalue()[-500:])
        return code, buf.getvalue()

    def warmup(self):
        runner = self._main if self.in_process else self._child
        runner(self.files[0][1])

    def ops(self, pass_index):
        runner = self._main if self.in_process else self._child
        for j in _order(self.seed, pass_index, len(self.files)):
            label, model_path = self.files[j]
            yield Op(label, lambda p=model_path: runner(p), check_verify, label,
                     samples=None if self.in_process else lambda: self.samples)

    def setup_times(self, clock):
        """The CLI's cold start: ``--help`` children."""
        return child_setup_times([CHILD, "{samples}", "mcarma_ou.cli", "--help"],
                                 self.env, self.work, clock)


def child_setup_times(argv, env, work, clock):
    """Set-up time of PROBES fresh interpreters, at reference speed.

    ``argv`` names a script of this directory and a ``{samples}`` file for
    the CPU-speed samples the child takes.  probe.py is timed from its start
    to the ``time.monotonic()`` reading it prints, a system-wide clock on
    Linux; child.py to its exit.
    """
    samples_path = work / "setup-samples.json"
    argv = [sys.executable] + [a.replace("{samples}", str(samples_path)) for a in argv]
    times = []
    for _ in range(PROBES):
        clock.calibrate()
        start = time.monotonic()
        proc = subprocess.run(argv, capture_output=True, text=True, env=env,
                              check=True, timeout=PROBE_TIMEOUT_S)
        end = time.monotonic()
        if argv[1] == PROBE:
            end = float(proc.stdout.strip().splitlines()[-1])
        clock.calibrate()
        times.append(clock.rescale(start, end, *_read_samples(samples_path)))
    return times


def _read_samples(path):
    with open(path) as fh:
        doc = json.load(fh)
    return doc["samples"], doc["sampling_s"]


def make(name, seed, paths, trace):
    if name in FIT_H:
        return FitWorkload(name, seed, paths)
    if name == "simulate":
        return SimulateWorkload(seed, paths)
    return VerifyWorkload(seed, paths, in_process=trace)


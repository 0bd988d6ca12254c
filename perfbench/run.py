"""Benchmark of mcarma-ou: estimation loops, simulation loops and the CLI.

    python3 perfbench/run.py --workload fit-coarse --seed 1 --seconds 12 --trace 0

Run it from the root of a checkout.  Workloads: fit-coarse, fit-fine,
simulate, verify-cli (see workloads.py).  The load is a closed loop with one
client: one process, BLAS pinned to one thread here and in every child, CLI
children one at a time.

A run measures whole passes over the workload's inputs until the ops have
taken ``--seconds``, rescales op times to a reference CPU speed
(refclock.py), checks every op's output outside the timed region, prints
a report that names each metric with its unit, and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  An op fails if it raises
or if its output fails its check; a failed op adds nothing to throughput and
counts as infinitely slow in a latency percentile (reported, when a
percentile lands on one, as the whole measured time).

``--trace 0`` gives the end-to-end metrics: setup_s (median of fresh
interpreters from start to the first timed op), throughput_per_s (fit ops,
simulated grid points or verify runs per second), p50_ms, p95_ms and
peak_rss_mb.  ``--trace 1`` runs each op untraced and then traced, gives the
per-layer metrics of tracer.py plus the tracing overhead, and writes the
spans to ``.perfbench_out/``.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CARMA2X2 = ROOT / "models" / "carma2x2.json"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
DEADLINE_S = 140            # no op starts later, so a run ends within 180 s
MIN_PASSES = 2              # so that every input's time is a median of two or more
WORKLOADS = ("fit-coarse", "fit-fine", "simulate", "verify-cli")


@dataclass
class Paths:
    carma2x2: str
    work: Path
    child_env: dict


@dataclass
class Record:
    label: str              # the op's input
    group: str
    start: float            # time.monotonic() at the op's start
    end: float
    work: int
    failure: str | None
    samples: tuple | None   # a child's own CPU-speed samples
    seconds: float = 0.0    # end - start, rescaled to reference speed when untraced


@dataclass
class Measurement:
    records: list = field(default_factory=list)
    wrong: int = 0          # outputs that failed their check
    messages: dict = field(default_factory=dict)   # one message per failure class
    passes: int = 0
    raw_s: float = 0.0      # op time as measured
    untraced_s: float = 0.0  # traced runs: the same ops without tracing


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_op(op, m, clock, tracer):
    """Run, time and check one op, appending its Record to ``m``."""
    from workloads import CheckFailed, CliFailure

    if tracer is not None:
        start = time.monotonic()
        try:
            op.run()
        except Exception:
            pass            # the traced run below records the failure
        m.untraced_s += time.monotonic() - start
        tracer.op = len(m.records)
        tracer.install()
    else:
        clock.tick()
        if op.samples:
            clock.stop()    # a child samples the speed itself; two samplers contend
    failure, out = None, None
    start = time.monotonic()
    try:
        out = op.run()
    except Exception as exc:
        failure = exc.kind if isinstance(exc, CliFailure) else type(exc).__name__
        m.messages.setdefault(failure, str(exc).strip()[-200:])
    finally:
        end = time.monotonic()
        if tracer is not None:
            tracer.uninstall()
    m.raw_s += end - start
    if tracer is None:
        clock.tick()
        if op.samples:
            clock.start()
    if failure is None:
        try:
            op.check(out)
        except CheckFailed as exc:
            failure = "CheckFailed"
            m.wrong += 1
            m.messages.setdefault(failure, str(exc))
    samples = op.samples() if op.samples else None
    m.records.append(Record(op.label, op.group, start, end, op.work, failure, samples,
                            end - start))


def measure(workload, seconds, started, clock, tracer=None):
    """Run whole passes, at least MIN_PASSES, until the ops have taken ``seconds``.

    Untraced, every op time is rescaled to reference speed.  Traced, every op
    runs untraced and then traced; the traced run is recorded, raw.
    """
    m = Measurement()
    if tracer is None:
        clock.calibrate()
        clock.start()
    while m.passes < MIN_PASSES or m.raw_s + m.untraced_s < seconds:
        for op in workload.ops(m.passes):
            if time.monotonic() - started > DEADLINE_S:
                print(f"perfbench: stopped mid-pass at the {DEADLINE_S} s deadline",
                      file=sys.stderr)
                break
            run_op(op, m, clock, tracer)
        else:
            m.passes += 1
            continue
        break
    if tracer is None:
        clock.stop()
        clock.calibrate()
        for r in m.records:
            r.seconds = clock.rescale(r.start, r.end, *(r.samples or ()))
    return m


def percentile_ms(records, q, window):
    """Nearest-rank percentile over inputs of the median time of each input's
    ops.  A failed op is infinitely slow, and reads as the whole measured
    window when the percentile lands on it."""
    by_input = defaultdict(list)
    for r in records:
        by_input[r.label].append(r.seconds if r.failure is None else math.inf)
    times = sorted(statistics.median(ts) for ts in by_input.values())
    value = times[max(0, math.ceil(q * len(times)) - 1)]
    return 1e3 * (window if math.isinf(value) else value)


def peak_rss_mb():
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def end_to_end(records, setup_times):
    window = sum(r.seconds for r in records)
    done = sum(r.work for r in records if r.failure is None)
    return {
        "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        "throughput_per_s": {"value": done / window, "unit": "1/s"},
        "p50_ms": {"value": percentile_ms(records, 0.50, window), "unit": "ms"},
        "p95_ms": {"value": percentile_ms(records, 0.95, window), "unit": "ms"},
        "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
    }


def named_metrics(name, records):
    """The workload's metrics under their workload-specific names."""
    by_group = defaultdict(list)
    for r in records:
        by_group[r.group].append(r)
    lines = []
    for group, rs in sorted(by_group.items()):
        window = sum(r.seconds for r in rs)
        done = sum(r.work for r in rs if r.failure is None)
        ok_ms = sorted(1e3 * r.seconds for r in rs if r.failure is None)
        if group == "fit":
            samples = f"{len({r.label for r in rs})} inputs, {len(rs)} ops"
            lines += [("fit_ops_per_s", done / window, "1/s", f"{len(rs)} ops"),
                      ("fit_p50_ms", percentile_ms(rs, 0.50, window), "ms", samples),
                      ("fit_p95_ms", percentile_ms(rs, 0.95, window), "ms", samples)]
        elif name == "simulate":
            short = {"brownian": "brownian", "compound_poisson": "cpoisson"}[group]
            lines.append((f"sim_{short}_steps_per_s", done / window, "1/s",
                          f"{len(rs)} paths, {done} steps"))
        else:
            median_s = statistics.median(ok_ms) / 1e3 if ok_ms else math.inf
            lines.append((f"verify_{group}_s", median_s, "s", f"median of {len(ok_ms)} runs"))
    return lines


def report(args, m, metrics, extra):
    failures = Counter(r.failure for r in m.records if r.failure is not None)
    n = len(m.records)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{m.passes} passes, {n} ops, {m.raw_s:.2f} s of op time measured")
    for name, value, unit, note in extra:
        print(f"  {name:<40} {value:.6g} {unit}  ({note})")
    failed = sum(failures.values())
    print(f"  {'failed_share':<40} {failed / n:.6g}  ({failed} of {n} ops)")
    for kind, count in failures.most_common():
        print(f"    {kind}: {count}  e.g. {m.messages.get(kind, '')!r}")
    if m.wrong:
        print(f"  {m.wrong} outputs failed their check")
    for name, metric in metrics.items():
        print(f"  {name:<40} {metric['value']:.6g} {metric['unit']}")


def run(args, started):
    import refclock
    import workloads

    clock = refclock.RefClock()
    work = WORK / str(os.getpid())
    work.mkdir(parents=True)
    try:
        paths = Paths(str(CARMA2X2), work, dict(
            os.environ, PYTHONPATH=os.pathsep.join(
                p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)))
        workload = workloads.make(args.workload, args.seed, paths, trace=bool(args.trace))
        if args.trace:
            import tracer as tracing

            tracer = tracing.Tracer()
            workload.warmup()
            m = measure(workload, args.seconds, started, clock, tracer)
            metrics = tracer.metrics(len(m.records), m.untraced_s, m.raw_s)
            OUT.mkdir(exist_ok=True)
            spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
            tracer.write(spans_path)
            extra = [("spans", len(tracer.spans), "spans", str(spans_path.relative_to(ROOT))),
                     ("untraced_s", m.untraced_s, "s", "the same ops, untraced"),
                     ("traced_s", m.raw_s, "s", "the recorded ops, traced")]
        else:
            setup_times = workload.setup_times(clock)
            workload.warmup()
            m = measure(workload, args.seconds, started, clock)
            metrics = end_to_end(m.records, setup_times)
            rescaled = sum(r.seconds for r in m.records)
            extra = named_metrics(args.workload, m.records) + [
                ("setup_probes", len(setup_times), "runs",
                 " ".join(f"{t:.4f}" for t in setup_times)),
                ("cpu_slowdown", m.raw_s / rescaled, "x", "raw op time over rescaled")]
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.exists() and not any(WORK.iterdir()):
            WORK.rmdir()
    report(args, m, metrics, extra)
    failed = sum(1 for r in m.records if r.failure is not None)
    return {"correct": m.wrong == 0, "attempted": len(m.records), "failed": failed,
            "metrics": metrics}


def main(argv=None):
    started = time.monotonic()
    args = parse_args(argv)
    if not (SRC / "mcarma_ou").is_dir() or not CARMA2X2.is_file():
        print(f"perfbench: {SRC / 'mcarma_ou'} or {CARMA2X2} is missing; "
              "run from the root of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = run(args, started)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

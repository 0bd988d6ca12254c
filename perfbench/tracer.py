"""Outside-in span tracing of the package layers.

``Tracer.install`` rebinds every public function of the six package modules,
plus ``scipy.linalg.expm`` and ``scipy.linalg.solve_sylvester``, to a wrapper
that records a span.  The library looks these names up in its module globals
at call time, so calls between layers become child spans without any change
to the library.  ``uninstall`` puts the original functions back, which lets a
traced run time the same op with and without tracing.

A span is ``[name, start_ns, end_ns, parent, op, error, tag]``; spans stay in
memory until the run ends.  A span's self time is its duration minus the
durations of its direct children (one thread, so children never overlap).
"""

import functools
import inspect
import json
import time

import scipy.linalg

from mcarma_ou import cli, matpoly, mcarma, rational, sampling, sim

LAYERS = {"matpoly": matpoly, "rational": rational, "mcarma": mcarma,
          "sampling": sampling, "sim": sim, "cli": cli}
SCIPY_FUNCTIONS = ("expm", "solve_sylvester")
# An indexing helper called about 1700 times per fit op; a span around it
# costs more than the work it measures, so its time stays in its callers.
UNTRACED = {"sampling.acvf_at_lag"}

# per_layer metrics, in BENCHMARK.json order: name -> unit.  Times and counts
# are divided by their base: ops traced, or simulated grid steps by driver.
FUNCTION_SELF = (
    "matpoly.solvents_from_latents", "matpoly.certify_solvent_set",
    "rational.check_irreducible", "rational.residues",
    "mcarma.decompose", "mcarma.stationary_acvf",
    "mcarma.stationary_state_covariance",
    "sampling.varma_ar", "sampling.noise_acvf", "sampling.innovation_gramians",
    "sampling.fit_ma", "sim.extract_noise", "sim.empirical_acvf",
    "cli.load_model_file", "cli.run_verification",
)
FUNCTION_CALLS = ("matpoly.latent_roots", "scipy.linalg.expm",
                  "scipy.linalg.solve_sylvester")
DRIVERS = {"brownian": "brownian", "compound_poisson": "cpoisson"}


def metric_units():
    units = {}
    for layer in (*LAYERS, "scipy"):
        units[f"{layer}.self_s"] = "s/op"
        units[f"{layer}.calls"] = "calls/op"
        units[f"{layer}.errors"] = "errors/op"
    for name in FUNCTION_CALLS:
        units[f"{name}.calls"] = "calls/op"
    for name in FUNCTION_SELF:
        units[f"{name}.self_s"] = "s/op"
    for short in DRIVERS.values():
        units[f"sim.simulate.{short}.self_s"] = "s/step"
    units["scipy.linalg.expm.cpoisson.calls"] = "calls/step"
    units["trace.ops"] = "op"
    units["trace.brownian_steps"] = "step"
    units["trace.cpoisson_steps"] = "step"
    units["trace.overhead"] = "%"
    return units


def _simulate_tag(signature, args, kwargs):
    bound = signature.bind(*args, **kwargs).arguments
    return (bound["driver"].kind, int(bound["n_steps"]))


class Tracer:
    """Collects spans for the ops of one traced run."""

    def __init__(self):
        self.spans = []
        self.op = -1
        self._stack = []
        self._last_error = None
        self._targets = []
        for layer, module in LAYERS.items():
            for attr, fn in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == module.__name__
                        and f"{layer}.{attr}" not in UNTRACED):
                    self._targets.append((module, attr, f"{layer}.{attr}", fn))
        for attr in SCIPY_FUNCTIONS:
            self._targets.append(
                (scipy.linalg, attr, f"scipy.linalg.{attr}", getattr(scipy.linalg, attr)))
        self._wrappers = [self._wrap(name, fn) for _, _, name, fn in self._targets]

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        tagger = None
        if name == "sim.simulate":
            tagger = functools.partial(_simulate_tag, inspect.signature(fn))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tag = tagger(args, kwargs) if tagger else None
            index = len(spans)
            span = [name, time.perf_counter_ns(), 0, stack[-1] if stack else -1,
                    self.op, False, tag]
            spans.append(span)
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                # count an error once, at the span it left first
                if exc is not self._last_error:
                    span[5] = True
                    self._last_error = exc
                raise
            finally:
                stack.pop()
                span[2] = time.perf_counter_ns()

        return traced

    def install(self):
        for (owner, attr, _, _), wrapper in zip(self._targets, self._wrappers):
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, _, fn in self._targets:
            setattr(owner, attr, fn)

    def metrics(self, n_ops, untraced_s, traced_s):
        """Per-layer metrics over the spans recorded so far."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, *_ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        self_s, calls, errors = {}, {}, {}
        steps = {kind: 0 for kind in DRIVERS}
        sim_self = {kind: 0.0 for kind in DRIVERS}
        cp_expm = 0
        for i, (name, start, end, parent, _, error, tag) in enumerate(self.spans):
            own = (end - start - child_ns[i]) * 1e-9
            layer = name.split(".", 1)[0]
            for key in (name, layer):
                self_s[key] = self_s.get(key, 0.0) + own
                calls[key] = calls.get(key, 0) + 1
                errors[key] = errors.get(key, 0) + int(error)
            if tag is not None:
                steps[tag[0]] += tag[1]
                sim_self[tag[0]] += own
            if (name == "scipy.linalg.expm" and parent >= 0
                    and self.spans[parent][6] is not None
                    and self.spans[parent][6][0] == "compound_poisson"):
                cp_expm += 1

        def per(total, base):
            return total / base if base else 0.0

        out = {}
        for name, unit in metric_units().items():
            key, _, stat = name.rpartition(".")
            if unit == "calls/op":
                out[name] = per(calls.get(key, 0), n_ops)
            elif unit == "errors/op":
                out[name] = per(errors.get(key, 0), n_ops)
            elif unit == "s/op":
                out[name] = per(self_s.get(key, 0.0), n_ops)
        for kind, short in DRIVERS.items():
            out[f"sim.simulate.{short}.self_s"] = per(sim_self[kind], steps[kind])
            out[f"trace.{short}_steps"] = steps[kind]
        out["scipy.linalg.expm.cpoisson.calls"] = per(cp_expm, steps["compound_poisson"])
        out["trace.ops"] = n_ops
        out["trace.overhead"] = 100.0 * per(traced_s - untraced_s, untraced_s)
        units = metric_units()
        return {name: {"value": out[name], "unit": units[name]} for name in units}

    def write(self, path):
        """Write every span as one JSON line, in start order."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

"""Set-up probe, started as a fresh interpreter by run.py.

    python3 perfbench/probe.py SAMPLES.json fit MODEL.json H
    python3 perfbench/probe.py SAMPLES.json simulate MODEL.json

Imports the package, loads the model file, runs one warm-up op of the
workload (which also finishes lazy imports such as ``scipy.optimize``) and
prints ``time.monotonic()``: the moment the first timed op could start.  The
CPU speed is sampled meanwhile, as in child.py.
"""

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))

import child  # noqa: E402


def main(argv):
    samples_path, kind, model_path = argv[:3]
    with child.sampling(samples_path):
        import workloads
        from mcarma_ou import cli, mcarma

        model, _ = cli.load_model_file(model_path)
        if kind == "fit":
            workloads.fit_op(model, float(argv[3]))
        else:
            _, driver, n_steps = workloads.SIM_PATHS[0]
            decomp = mcarma.decompose(model, model.solvent_set())
            workloads.simulate_op(decomp, driver, model.sigma_L, n_steps, 0)
        print(time.monotonic())


if __name__ == "__main__":
    main(sys.argv[1:])

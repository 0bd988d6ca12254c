"""Run a module as ``python -m`` does, sampling the CPU speed meanwhile.

    python3 perfbench/child.py SAMPLES.json mcarma_ou.cli verify MODEL.json

The parent cannot calibrate while a child runs, and the CPU speed moves
within the second or two of a child.  So the child samples the reference
kernel of refclock.py every ``refclock.EVERY_S`` itself, and on exit writes
the kernel times and their sum to SAMPLES.json.  The exit status is the module's.
"""

import contextlib
import json
import os
import runpy
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import refclock  # noqa: E402


@contextlib.contextmanager
def sampling(out_path):
    """Sample the kernel every ``refclock.EVERY_S`` while the block runs."""
    clock = refclock.RefClock()
    clock.start()
    try:
        yield
    finally:
        clock.stop()
        with open(out_path, "w") as fh:
            json.dump({"samples": clock.seconds, "sampling_s": sum(clock.seconds)}, fh)


def main():
    out_path, module = sys.argv[1:3]
    sys.argv = [module, *sys.argv[3:]]
    with sampling(out_path):
        runpy.run_module(module, run_name="__main__", alter_sys=True)


if __name__ == "__main__":
    main()

"""The layer bench (bench/layers.py) and its fixed model files."""

import json
import os
import pathlib
import subprocess
import sys

import numpy as np

import mcarma_ou
from mcarma_ou import cli

from conftest import MODELS_DIR

LAYERS = MODELS_DIR.parent / "bench" / "layers.py"
FIT_LAYERS = {"stationary_acvf", "varma_ar", "noise_acvf", "fit_ma", "sampled_varma"}
COLD_LAYERS = {"build", "latent_roots", "solvent_set", "decompose", "stationary_acvf",
               "simulate"}
WHOLE_RUN = {"run_verification", "cli_verify"}
TIMES = {"median_s", "min_s"}


def test_corpus8_file_is_corpus_8(corpus):
    model, _ = cli.load_model_file(str(MODELS_DIR / "corpus8.json"))
    want = corpus[8]
    for got, expected in ((model.A.coeffs, want.A.coeffs), (model.B.coeffs, want.B.coeffs),
                          (model.sigma_L, want.sigma_L)):
        assert np.array_equal(np.asarray(got), np.asarray(expected))


def test_layers_script_writes_its_keys(tmp_path):
    # one repetition: the keys, not the times
    src = str(pathlib.Path(mcarma_ou.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = tmp_path / "bench.json"
    proc = subprocess.run([sys.executable, str(LAYERS), "--out", str(out), "--reps", "1"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(out.read_text())
    assert set(doc) == {"python", "numpy", "machine", "reps", "reference_kernel", "cli_help",
                        "models"}
    assert doc["reps"] == 1
    assert set(doc["reference_kernel"]) == set(doc["cli_help"]) == TIMES
    assert set(doc["models"]) == {"carma2x2", "corpus8"}
    for entry in doc["models"].values():
        assert set(entry) == {"d", "p", "fit", "simulate_per_step", "short_path", "cold",
                              "whole_run"}
        assert set(entry["fit"]) == {"0.25", "0.01"}
        for layers in entry["fit"].values():
            assert set(layers) == FIT_LAYERS
            assert all(set(times) == TIMES for times in layers.values())
        assert set(entry["simulate_per_step"]) == {"brownian", "compound_poisson"}
        assert all(set(times) == TIMES for times in entry["simulate_per_step"].values())
        assert set(entry["short_path"]) == TIMES
        assert set(entry["cold"]) == COLD_LAYERS
        assert all(set(times) == TIMES for times in entry["cold"].values())
        assert set(entry["whole_run"]) == WHOLE_RUN
        assert set(entry["whole_run"]["run_verification"]) == TIMES
        assert set(entry["whole_run"]["cli_verify"]) == TIMES | {"exit_code", "peak_rss_mb"}
        assert 10 < entry["whole_run"]["cli_verify"]["peak_rss_mb"] < 1000
        assert entry["whole_run"]["cli_verify"]["exit_code"] == 0  # verification: PASS

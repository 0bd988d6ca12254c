"""The layer bench (bench/layers.py) and its fixed model files."""

import importlib.util
import json
import os
import sys

import numpy as np
import pytest

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


def load_layers(monkeypatch):
    """The layer bench as a module.  It pins its children's BLAS threads in
    os.environ on import, restored here after the test."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, os.environ.get(var, "1"))
    spec = importlib.util.spec_from_file_location("layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers


def test_layers_script_writes_its_keys(tmp_path, monkeypatch):
    # one repetition on one model file, in process: the keys, not the times;
    # test_corpus8_file_is_corpus_8 covers the other file
    layers = load_layers(monkeypatch)
    monkeypatch.setattr(layers, "MODELS", ("carma2x2",))
    out = tmp_path / "bench.json"
    layers.main(["--out", str(out), "--reps", "1"])
    doc = json.loads(out.read_text())
    assert set(doc) == {"python", "numpy", "machine", "reps", "reference_kernel", "cli_help",
                        "models"}
    assert doc["reps"] == 1
    assert set(doc["reference_kernel"]) == set(doc["cli_help"]) == TIMES
    assert set(doc["models"]) == {"carma2x2"}
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


def test_failed_run_keeps_the_out_file(tmp_path, monkeypatch):
    # the document is built before anything is written: a run that fails
    # leaves a kept record byte for byte, and no temporary file
    layers = load_layers(monkeypatch)
    out = tmp_path / "BENCH_1.json"
    out.write_text('{"kept": true}\n')

    def failing(*args):
        raise RuntimeError("run failed")

    monkeypatch.setattr(layers, "run", failing)
    with pytest.raises(RuntimeError, match="run failed"):
        layers.main(["--out", str(out), "--reps", "1"])
    assert out.read_text() == '{"kept": true}\n'
    assert list(tmp_path.iterdir()) == [out]


def test_tier1_row_reads_the_summary_line(monkeypatch):
    # stand-ins for the suite, so that the test does not run the suite inside
    # itself; the first exits 3 unless its BLAS runs on one thread with the
    # checkout's src first on PYTHONPATH
    layers = load_layers(monkeypatch)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "4")
    src = str(MODELS_DIR.parent / "src")
    script = ("import os, sys; print('....'); print('656 passed, 7 deselected in 15.80s'); "
              "sys.exit(0 if os.environ['OPENBLAS_NUM_THREADS'] == '1' and "
              f"os.environ['PYTHONPATH'].split(os.pathsep)[0] == {src!r} else 3)")
    monkeypatch.setattr(layers, "TIER1", [sys.executable, "-c", script])
    row = layers.tier1()
    assert set(row) == {"wall_s", "exit_code", "passed", "deselected"}
    assert (row["exit_code"], row["passed"], row["deselected"]) == (0, 656, 7)
    assert 0 < row["wall_s"] < 60
    monkeypatch.setattr(layers, "TIER1", [sys.executable, "-c", "print('1 failed, 3 passed')"])
    row = layers.tier1()
    assert (row["passed"], row["deselected"]) == (3, 0)

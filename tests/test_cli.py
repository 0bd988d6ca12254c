import dataclasses
import importlib.util
import json
import os
import pathlib
import subprocess
import sys
import tracemalloc
from collections import Counter

import numpy as np
import pytest
import scipy.linalg
import scipy.stats

import mcarma_ou
from mcarma_ou import cli, mcarma, rational, sampling, sim, verify

from conftest import MODELS_DIR


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def verify_rows(out):
    """(name, measured, bound, status) of each row of ``verify`` output."""
    return [(name, float(measured.split("=")[1]), float(bound.split("=")[1]), status)
            for name, measured, bound, status in map(str.split, out.splitlines()[:-1])]


def write_model(tmp_path, doc, name="model.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def model_doc(model):
    """A model file document for a library model with a Brownian driver."""
    return {
        "A": [c.real.tolist() for c in model.A.coeffs],
        "B": [c.real.tolist() for c in model.B.coeffs],
        "sigma_L": np.asarray(model.sigma_L).tolist(),
        "driver": {"kind": "brownian"},
    }


FIRST_ORDER = {
    "A": [[[1, 0], [0, 1]], [[3.0, -1.0], [0.5, 2.0]]],
    "B": [[[1, 0], [0, 1]]],
    "sigma_L": [[1, 0], [0, 1]],
    "driver": {"kind": "brownian"},
}


def set_entry(doc, path, value):
    """``doc`` with the entry at ``path`` (keys and indices) set to ``value``."""
    doc = json.loads(json.dumps(doc))
    *parents, last = path
    node = doc
    for key in parents:
        node = node[key]
    node[last] = value
    return doc


class TestSolvents:
    def test_example_model(self, capsys, example_model_file):
        code, out, _ = run(capsys, "solvents", example_model_file)
        assert code == 0
        doc = json.loads(out)
        assert len(doc["solvents"]) == 2
        spectra = [sorted(z["re"] for z in s["spectrum"]) for s in doc["solvents"]]
        got = sorted(np.concatenate(spectra).tolist())
        assert np.allclose(got, [-4, -3, -2, -1], atol=1e-8)
        # spectra are disjoint
        assert not set(np.round(spectra[0], 6)) & set(np.round(spectra[1], 6))
        assert all(s["residual_norm"] <= 1e-9 * np.linalg.norm([[42, 52], [36, 44]])
                   for s in doc["solvents"])
        assert np.isfinite(doc["cond_V"])

    def test_explicit_grouping(self, capsys, example_model_file):
        code, out, _ = run(capsys, "solvents", example_model_file,
                           "--grouping", "[[0,1],[2,3]]")
        assert code == 0
        doc = json.loads(out)
        spectra = [sorted(z["re"] for z in s["spectrum"]) for s in doc["solvents"]]
        assert np.allclose(spectra[0], [-2, -1], atol=1e-8)
        assert np.allclose(spectra[1], [-4, -3], atol=1e-8)

    def test_malformed_json(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run(capsys, "solvents", str(bad))
        assert code == 1
        assert "input error" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "solvents", "/nonexistent/x.json")
        assert code == 1

    def test_shape_error(self, capsys, tmp_path):
        doc = dict(FIRST_ORDER)
        doc["A"] = [[[1, 0], [0, 1]], [[3.0, -1.0]]]  # ragged
        code, _, err = run(capsys, "solvents", write_model(tmp_path, doc))
        assert code == 1

    @pytest.mark.parametrize("path", [
        ("A", 1, 0, 0), ("B", 0, 1, 1), ("sigma_L", 0, 0), ("mean_L", 1),
        ("driver", "rate"), ("driver", "jump_cov", 1, 0)], ids=lambda p: "-".join(map(str, p)))
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_entry_rejected(self, capsys, tmp_path, path, value):
        doc = dict(FIRST_ORDER, mean_L=[0.0, 0.0], driver={
            "kind": "compound_poisson", "rate": 2.0, "jump_cov": [[0.5, 0], [0, 0.5]]})
        model_file = write_model(tmp_path, set_entry(doc, path, value))
        code, out, err = run(capsys, "verify", model_file)
        assert code == 1 and out == ""
        assert err.startswith("input error:") and "non-finite" in err

    @pytest.mark.parametrize("argv", [
        ("varma", "--h", "0"), ("varma", "--h", "nan"), ("varma", "--h", "inf"),
        ("acvf", "--h", "nan"), ("acvf", "--h", "-0.1"), ("acvf", "--lags", "-1"),
        ("simulate", "--steps", "0"), ("simulate", "--seed", "-1"),
        ("verify", "--seed", "-1"), ("verify", "--h", "inf"),
        ("verify", "--steps", "abc"), ("verify", "--bogus"),
        ("verify", "--out", "report.txt"), ("solvents", "--grouping", "[[0,1],[2,3],[0]]"),
        ("solvents", "--grouping", "[[0,1,2],[3]]"),
        ("decompose", "--grouping", "[[0,1.9],[2,3]]"), ("acvf", "--grouping", "auto"),
        ("varma", "--grouping", "[[0,1],[2,3]]"), ("simulate", "--grouping", "auto"),
        ("solvents", "--grouping", "null"), ("solvents", "--grouping", "[0,1,2,3]"),
        ("solvents", "--grouping", "{}"), ("solvents", "--grouping", '"[[0,1],[2,3]]"')],
        ids=" ".join)
    def test_bad_step_rejected(self, capsys, example_model_file, argv):
        # a usage error argparse finds is an input error too, not its exit 2;
        # verify takes no --out, which it would ignore and print to stdout;
        # a grouping index is a JSON integer, never truncated, and a grouping
        # is 'auto' or a JSON list of lists, never null (which is not auto);
        # only solvents and decompose print what the grouping changes, so
        # only they take it
        code, out, err = run(capsys, argv[0], example_model_file, *argv[1:])
        assert code == 1 and out == ""
        assert err.startswith("input error: ") and argv[1] in err

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--help"])
        assert exc.value.code == 0
        assert "--steps" in capsys.readouterr().out

    def test_nonmonic_rejected(self, capsys, tmp_path):
        doc = dict(FIRST_ORDER)
        doc["A"] = [[[2, 0], [0, 1]], [[3.0, -1.0], [0.5, 2.0]]]
        code, _, err = run(capsys, "solvents", write_model(tmp_path, doc))
        assert code == 1
        assert "monic" in err

    def test_non_square_ar_rejected(self, capsys, tmp_path):
        doc = dict(FIRST_ORDER)
        doc["A"] = [[[1, 0, 0], [0, 1, 0]], [[1, 0, 0], [0, 1, 0]]]
        code, _, err = run(capsys, "solvents", write_model(tmp_path, doc))
        assert code == 1
        assert "monic" in err and "Traceback" not in err

    def test_repeated_root_exit_two(self, capsys, tmp_path):
        doc = {
            "A": [[[1, 0], [0, 1]], [[2, 0], [0, 2]], [[1, 0], [0, 1]]],
            "B": [[[1, 0], [0, 1]]],
            "sigma_L": [[1, 0], [0, 1]],
        }
        code, _, err = run(capsys, "solvents", write_model(tmp_path, doc))
        assert code == 2
        assert "DuplicateLatentRoot" in err or "DefectiveCompanion" in err


class TestDecompose:
    def test_components_certified(self, capsys, example_model_file):
        code, out, _ = run(capsys, "decompose", example_model_file,
                           "--grouping", "[[0,1],[2,3]]")
        assert code == 0
        doc = json.loads(out)
        res0 = np.array(doc["components"][0]["residue"]["re"])
        assert np.allclose(res0, [[1, -1], [-2, 3]], atol=1e-9)

    def test_sharp_identity_failure_exit_two(self, capsys, example_model_file,
                                             monkeypatch):
        exact = rational.solve_sharp

        def perturbed(A, B):
            X = exact(A, B)
            X[:A.order[0]] += 1e-6  # the first block of B*
            return X

        monkeypatch.setattr(rational, "solve_sharp", perturbed)
        code, out, err = run(capsys, "decompose", example_model_file)
        assert code == 2
        assert out == ""
        assert "certification failure" in err and "SharpIdentity" in err
        assert "Traceback" not in err


class TestAcvf:
    def test_csv_layout(self, capsys, example_model_file):
        code, out, _ = run(capsys, "acvf", example_model_file,
                           "--h", "0.1", "--lags", "5")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "lag,i,j,value"
        assert len(lines) == 1 + 6 * 4
        first = lines[1].split(",")
        assert float(first[0]) == 0.0

    def test_values_roundtrip_17g(self, capsys, example_model_file):
        code, out, _ = run(capsys, "acvf", example_model_file,
                           "--h", "0.1", "--lags", "2")
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        vals = {(r[0], r[1], r[2]): float(r[3]) for r in rows}
        # parse back and compare against a fresh in-process computation
        from mcarma_ou import cli as _cli
        model, _ = _cli.load_model_file(example_model_file)
        from mcarma_ou import mcarma
        decomp = mcarma.decompose(model, model.solvent_set())
        want = mcarma.stationary_acvf(decomp, [0.0, 0.1, 0.2])
        for k, lag in enumerate(["0", "0.10000000000000001", "0.20000000000000001"]):
            for i in range(2):
                for j in range(2):
                    assert vals[(lag, str(i), str(j))] == want[k][i, j]


class TestVarma:
    def test_first_order_phi_is_exponential(self, capsys, tmp_path):
        code, out, _ = run(capsys, "varma", write_model(tmp_path, FIRST_ORDER),
                           "--h", "0.25")
        assert code == 0
        doc = json.loads(out)
        want = scipy.linalg.expm(0.25 * -np.array(FIRST_ORDER["A"][1]))
        assert np.allclose(np.array(doc["Phi"][0]), want, atol=1e-12)
        assert doc["schur_stable"] is True
        assert doc["Theta"] == []

    @pytest.mark.parametrize("h", ["0.01"])
    def test_no_ma_factor_exit_two(self, capsys, tmp_path, hard_regime, h):
        # hard-regime #14 at this h has no invertible MA factor, even of its
        # 50-digit gamma_U
        code, out, err = run(capsys, "varma", write_model(tmp_path, model_doc(hard_regime[14])),
                             "--h", h)
        assert code == 2
        assert out == ""
        assert err.startswith("certification failure: NoConvergence")
        assert "Traceback" not in err

    def test_example_payload(self, capsys, example_model_file):
        code, out, _ = run(capsys, "varma", example_model_file, "--h", "0.1")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["Phi"]) == 2
        assert len(doc["gamma_U"]) == 2
        assert len(doc["Theta"]) == 1
        assert doc["ma_margin"] > 1e-6


class TestSimulate:
    def test_seed_reproducible(self, capsys, example_model_file):
        args = ("simulate", example_model_file, "--h", "0.1", "--steps", "200",
                "--seed", "7")
        code_a, out_a, _ = run(capsys, *args)
        code_b, out_b, _ = run(capsys, *args)
        assert code_a == code_b == 0
        assert out_a == out_b

    def test_csv_layout_and_noise(self, capsys, example_model_file):
        code, out, _ = run(capsys, "simulate", example_model_file, "--h", "0.1",
                           "--steps", "50", "--seed", "1", "--emit-noise")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,Y_1,Y_2,U_1,U_2"
        assert len(lines) == 51
        # noise columns are blank before lag p
        assert lines[1].endswith(",,")
        assert lines[3].count(",") == 4 and not lines[3].endswith(",")

    @pytest.mark.parametrize("emit_noise", [False, True])
    def test_rows_match_per_value_format(self, capsys, emit_noise):
        # the row writer gives the text of _fmt applied value by value to the
        # collected path, the blank U cells of n < p included, across the
        # blocks it writes one at a time
        steps = 2 * sim.CHUNK + 50
        flags = ["--emit-noise"] if emit_noise else []
        for name in ("carma2x2", "corpus8"):
            path_file = str(MODELS_DIR / f"{name}.json")
            code, out, _ = run(capsys, "simulate", path_file, "--h", "0.1", "--steps",
                               str(steps), "--seed", "9", "--stationary-start", *flags)
            assert code == 0
            model, driver = cli.load_model_file(path_file, seed=9)
            decomp = mcarma.decompose(model, model.solvent_set())
            path = sim.simulate(decomp, driver, 0.1, steps, stationary_start=True)
            d, p = model.d, model.p
            header = ["n"] + [f"Y_{i + 1}" for i in range(d)]
            if emit_noise:
                _, phi, *_ = sampling.varma_ar(model, 0.1)
                U = sim.extract_noise(path, phi)
                header += [f"U_{i + 1}" for i in range(d)]
            lines = [",".join(header)]
            for n in range(steps):
                row = [str(n)] + [cli._fmt(float(v)) for v in path.Y[n]]
                if emit_noise:
                    row += [cli._fmt(float(v)) for v in U[n - p]] if n >= p else [""] * d
                lines.append(",".join(row))
            assert out == "\n".join(lines) + "\n"

    def test_floats_roundtrip(self, capsys, example_model_file):
        code, out, _ = run(capsys, "simulate", example_model_file, "--h", "0.1",
                           "--steps", "20", "--seed", "3", "--stationary-start")
        values = [float(line.split(",")[1]) for line in out.strip().splitlines()[1:]]
        # 17 significant digits survive a parse/print cycle losslessly
        assert all(float(f"{v:.17g}") == v for v in values)


class TestVerify:
    def test_example_passes(self, capsys, example_model_file):
        code, out, _ = run(capsys, "verify", example_model_file,
                           "--h", "0.1", "--steps", "40000", "--seed", "11")
        assert code == 0
        for name in ("kernel-identity", "acvf-lyapunov-oracle", "noise-lag-p-zero"):
            assert name in out
        assert "FAIL" not in out

    def test_golden_rows(self, capsys, example_model_file):
        # every row in order with its bound to 4 significant digits; only
        # ma-invertibility passes by measuring at least its bound
        code, out, _ = run(capsys, "verify", example_model_file)
        assert code == 0
        golden = [
            ("solvent-residual", 8.775e-8), ("statespace-identity", 1e-12),
            ("kernel-identity", 2.414e-8), ("kernel-realness", 1e-9),
            ("pf-reconstruction", 1e-8), ("acvf-lyapunov-oracle", 1e-8),
            ("acvf-symmetry", 2.636e-10), ("varma-ar-structure", 7.911e-8),
            ("ma-roundtrip", 1e-6), ("ma-invertibility", 1e-6),
            ("noise-acvf-consistency", 1e-7), ("noise-lag-p-zero", 1.0)]
        rows = verify_rows(out)
        assert [(r[0], f"{r[2]:.3e}") for r in rows] == [
            (name, f"{bound:.3e}") for name, bound in golden]
        for name, measured, bound, status in rows:
            assert status == "PASS"
            assert measured >= bound if name == "ma-invertibility" else measured <= bound

    @staticmethod
    def model_and_driver(example_model_file, corpus, index):
        """carma2x2 from its file, or a corpus model with a Brownian driver."""
        if index is None:
            return cli.load_model_file(example_model_file)
        model = corpus[index]
        return model, sim.DriverSpec(kind="brownian", seed=0, sigma_L=model.sigma_L)

    @pytest.mark.parametrize("index", [None, 8], ids=["carma2x2", "corpus-8"])
    def test_streamed_row_is_the_statistic_of_the_collected_noise(self, example_model_file,
                                                                  corpus, index):
        # the Monte-Carlo row streams its path through the noise and the
        # noise's sample ACVF; the collected path gives the same statistic
        model, driver = self.model_and_driver(example_model_file, corpus, index)
        row = cli.run_verification(model, driver, 0.1, 20_000)[-1]
        decomp = mcarma.decompose(model, model.solvent_set())
        sv = sampling.sampled_varma(decomp, 0.1)
        path = sim.simulate(decomp, driver, 0.1, 20_000, stationary_start=True)
        want = verify.check_noise_lag_p_zero(sim.extract_noise(path, sv.phi), sv.gamma_U)
        assert (row.name, row.bound) == (want.name, want.bound)
        assert abs(row.measured / want.measured - 1.0) <= 1e-12

    def test_memory_does_not_grow_with_steps(self, corpus):
        # the path is never held, so the row's memory is O(CHUNK pd) at any
        # length; holding the path's pd normals alone would take 14.4 MB at
        # 200,000 steps on #8 (pd = 9)
        model, driver = self.model_and_driver(None, corpus, 8)
        cli.run_verification(model, driver, 0.1, 2000)  # what the model keeps
        peaks = []
        for steps in (20_000, 200_000):
            tracemalloc.start()
            try:
                cli.run_verification(model, driver, 0.1, steps)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.25 * peaks[0]

    @pytest.mark.parametrize("index", [None, 8], ids=["carma2x2", "corpus-8"])
    def test_library_rows_are_the_kept_records(self, example_model_file, corpus, index):
        # each row of a library certificate is the record its result kept,
        # with the same measured value and the same bound
        model, driver = self.model_and_driver(example_model_file, corpus, index)
        rows = {row.name: row for row in cli.run_verification(model, driver, 0.1, 200)}
        S = model.solvent_set()
        sv = sampling.sampled_varma(mcarma.decompose(model, S), 0.1)
        for name, record in (("solvent-residual", S.residual),
                             ("statespace-identity", model.statespace.sharp_identity),
                             ("varma-ar-structure", sv.ar_residual),
                             ("ma-roundtrip", sv.ma_roundtrip)):
            assert rows[name] == (name, record.measured, record.bound, True)

    @pytest.mark.parametrize("index", [None, 8], ids=["carma2x2", "corpus-8"])
    def test_oracles_read_one_sampled_state_space(self, monkeypatch, example_model_file,
                                                  corpus, index):
        # one expm at the kernel grid's step, one at h with its Lyapunov
        # solve, and none per kernel time or ACVF lag
        model, driver = self.model_and_driver(example_model_file, corpus, index)
        calls = Counter()
        for name in ("expm", "solve_continuous_lyapunov"):
            def counting(*args, _name=name, _original=getattr(scipy.linalg, name), **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(scipy.linalg, name, counting)
        checks = cli.run_verification(model, driver, 0.1, 200)
        assert calls == {"expm": 2, "solve_continuous_lyapunov": 1}
        assert len(checks) == 12

    @pytest.mark.parametrize("index", [None, 8], ids=["carma2x2", "corpus-8"])
    def test_oracles_take_no_modal_route(self, monkeypatch, example_model_file, corpus, index):
        # the ACVF and noise oracles read the sampled state space only: they
        # pass with the library's modal ACVF, kernel, Gramians and modes made
        # to raise after the library's values are formed
        model, _ = self.model_and_driver(example_model_file, corpus, index)
        h = 0.1
        decomp = mcarma.decompose(model, model.solvent_set())
        gammas = mcarma.stationary_acvf(decomp, [k * h for k in range(11)])
        sv = sampling.sampled_varma(decomp, h)

        def refuse(*args, **kwargs):
            raise AssertionError("an oracle took the modal route")

        for name in ("stationary_acvf", "kernel", "component_gramians", "_gramian"):
            monkeypatch.setattr(mcarma, name, refuse)
        monkeypatch.setattr(mcarma.McarmaModel, "modes", property(refuse))
        sampled = verify.sampled_state_space(decomp.statespace, model.sigma_L, h)
        assert verify.check_acvf_lyapunov(sampled, gammas).ok
        assert verify.check_noise_acvf(sampled, sv.phi, sv.gamma_U).ok

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("argv, invariant", [
        (("varma", "--h", "200"), "SingularVandermonde"),
        (("verify", "--h", "200"), "SingularVandermonde"),
        (("verify", "--steps", "5"), "TooShort"),
        (("verify", "--steps", "52"), "TooShort"),
        (("varma", "--h", "400"), "SingularVandermonde"),
        (("varma", "--h", "100"), "SingularVandermonde"),
        (("varma", "--h", "1000"), "SingularVandermonde")])
    def test_typed_failure_without_traceback(self, capsys, example_model_file, argv, invariant):
        # from h = 100, e^{-p h lam} at the root -4 (p = 2) would overflow: the
        # sampled solvents' guard names p h max(-Re lam) = 8 h before any
        # exponential, without a numpy warning; the noise-lag-p-zero row
        # needs more than p + 10 (p + 3) = 52 steps
        code, out, err = run(capsys, argv[0], example_model_file, *argv[1:])
        assert (code, out) == (2, "")
        assert err.startswith(f"certification failure: {invariant}:")
        if argv[1] == "--h":
            assert err.startswith(
                f"certification failure: {invariant}: sampled exponent p h max(-Re lam) = "
                f"{8 * float(argv[2]):.3e} exceeds 7.098e+02")

    def test_broken_modal_fold_exits_two(self, capsys, tmp_path, corpus, broken_fold):
        # the Monte-Carlo row simulates in the modal form, whose fold sees the
        # broken pair row (corpus #8 has three pairs)
        code, out, err = run(capsys, "verify", write_model(tmp_path, model_doc(corpus[8])),
                             "--steps", "200")
        assert (code, out) == (2, "")
        assert err.startswith("certification failure: ImaginaryLeak: modal fold residual = ")

    @pytest.mark.parametrize("rate", [1.0, 10.0])
    def test_compound_poisson_runs_the_monte_carlo_row(self, capsys, tmp_path,
                                                        example_model_file, rate):
        # the row's Bartlett covariance needs only the driver's second moments
        doc = json.loads(pathlib.Path(example_model_file).read_text())
        doc["driver"] = {"kind": "compound_poisson", "rate": rate}
        code, out, err = run(capsys, "verify", write_model(tmp_path, doc))
        assert (code, err) == (0, "")
        name, *_, status = verify_rows(out)[-1]
        assert (name, status) == ("noise-lag-p-zero", "PASS")
        assert out.splitlines()[-1] == "verification: PASS"

    @pytest.mark.slow
    @pytest.mark.parametrize("driver", [
        {"kind": "brownian"}, {"kind": "compound_poisson", "rate": 1.0},
        {"kind": "compound_poisson", "rate": 10.0}], ids=["brownian", "cp-rate-1", "cp-rate-10"])
    @pytest.mark.parametrize("name", ["carma2x2", "corpus8"])
    def test_monte_carlo_row_level_over_200_seeds(self, name, driver):
        # the row is a 1% test for every driver: over seeds 0-199 at default
        # flags it fails at most the 99.5% binomial quantile of a 1% row
        model, _ = cli.load_model_file(str(MODELS_DIR / f"{name}.json"))
        failed = []
        for seed in range(200):
            row = cli.run_verification(model, sim.DriverSpec(seed=seed, **driver),
                                       0.1, 100_000)[-1]
            assert row.name == "noise-lag-p-zero"
            if not row.ok:
                failed.append(seed)
        assert scipy.stats.binom.ppf(0.995, 200, 0.01) == 6
        assert len(failed) <= 6, failed

    def test_shortest_path_for_noise_lag_row(self, capsys, example_model_file):
        code, out, _ = run(capsys, "verify", example_model_file, "--steps", "53")
        assert "noise-lag-p-zero" in out

    def test_deterministic_given_seed(self, capsys, example_model_file):
        args = ("verify", example_model_file, "--h", "0.1", "--steps", "20000",
                "--seed", "5")
        _, out_a, _ = run(capsys, *args)
        _, out_b, _ = run(capsys, *args)
        assert out_a == out_b

    def test_large_coefficient_model_passes(self, capsys, tmp_path, corpus):
        # corpus model #143 (coefficients up to about 6e6, gamma(0) entries
        # about 1e7): the innovation Gramian's rounding and the asymmetry of
        # gamma(0) are judged relative to their own scale
        code, out, _ = run(capsys, "verify", write_model(tmp_path, model_doc(corpus[143])))
        assert code == 0
        assert "acvf-symmetry" in out
        assert out.strip().splitlines()[-1] == "verification: PASS"


def child_env():
    """The environment of a fresh interpreter that imports this package."""
    src = str(pathlib.Path(mcarma_ou.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


class TestColdPath:
    @staticmethod
    def run_child(script):
        """Run ``script`` in a fresh interpreter that imports this package."""
        proc = subprocess.run([sys.executable, "-c", script], env=child_env(),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr

    def test_verify_imports_no_optimizer(self, example_model_file):
        self.run_child("import sys; from mcarma_ou import cli; "
                       f"code = cli.main(['verify', {example_model_file!r}]); "
                       "assert code == 0; "
                       "assert 'scipy.optimize' not in sys.modules")

    def test_import_leaves_scipy_out(self):
        # only the verification oracles (mcarma_ou.verify) import scipy, and
        # the CLI imports them inside the verify command
        self.run_child("import sys, mcarma_ou; assert 'scipy' not in sys.modules")
        self.run_child("import sys, mcarma_ou.cli; assert 'scipy' not in sys.modules")


class TestOutFile:
    def test_json_written_to_path(self, capsys, tmp_path, example_model_file):
        out = tmp_path / "solvents.json"
        code, stdout, _ = run(capsys, "solvents", example_model_file,
                              "--out", str(out))
        assert code == 0
        assert stdout == ""
        doc = json.loads(out.read_text())
        assert len(doc["solvents"]) == 2

    def test_csv_written_to_path(self, capsys, tmp_path, example_model_file):
        out = tmp_path / "path.csv"
        code, _, _ = run(capsys, "simulate", example_model_file, "--h", "0.1",
                         "--steps", "30", "--seed", "2", "--out", str(out))
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "n,Y_1,Y_2"
        assert len(lines) == 31

    @pytest.mark.parametrize("where", ["missing-dir", "a-dir"])
    @pytest.mark.parametrize("command", ["solvents", "decompose", "acvf", "varma", "simulate"])
    def test_unwritable_out_is_an_input_error(self, capsys, tmp_path, example_model_file,
                                              command, where):
        # an --out in a directory that does not exist, or onto a directory
        target = tmp_path / "missing" / "out.txt" if where == "missing-dir" else tmp_path
        before = sorted(tmp_path.rglob("*"))
        code, out, err = run(capsys, command, example_model_file, "--out", str(target))
        assert code == 1 and out == ""
        assert err.startswith("input error: cannot write ") and err.count("\n") == 1
        assert sorted(tmp_path.rglob("*")) == before

    def test_closed_pipe_exits_one_without_traceback(self, example_model_file):
        # the reader of stdout goes away after the first line: one input
        # error line, not a BrokenPipeError traceback, and no error when the
        # interpreter flushes stdout at exit
        for _ in range(5):
            proc = subprocess.Popen(
                [sys.executable, "-m", "mcarma_ou.cli", "simulate", example_model_file,
                 "--steps", "300000"],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env())
            assert proc.stdout.readline() == b"n,Y_1,Y_2\n"
            proc.stdout.close()
            err = proc.stderr.read().decode()
            proc.stderr.close()
            assert proc.wait(timeout=120) == 1
            assert err.startswith("input error: cannot write stdout") and err.count("\n") == 1
            assert "Traceback" not in err and "Exception ignored" not in err


class TestVerifyNonStationary:
    def test_unstable_model_skips_stationary_checks(self, capsys, tmp_path):
        doc = {
            "A": [[[1, 0], [0, 1]], [[-0.5, 0], [0, -0.7]]],  # roots +0.5, +0.7
            "B": [[[1, 0], [0, 1]]],
            "sigma_L": [[1, 0], [0, 1]],
        }
        code, out, _ = run(capsys, "verify", write_model(tmp_path, doc),
                           "--h", "0.1", "--steps", "1000", "--seed", "1")
        assert code == 0
        assert "kernel-identity" in out
        assert "acvf-lyapunov-oracle" not in out
        assert "FAIL" not in out
        # no stationary or Monte-Carlo row; the others keep their order
        assert [r[0] for r in verify_rows(out)] == [
            "solvent-residual", "statespace-identity", "kernel-identity",
            "kernel-realness", "pf-reconstruction", "varma-ar-structure",
            "ma-roundtrip", "ma-invertibility"]


def decoupled_pair_doc(A1, A2):
    """A(z) = z^2 I + A1 z + A2 with B = I and Sigma_L = I."""
    return {"A": [np.eye(2).tolist(), np.asarray(A1).tolist(), np.asarray(A2).tolist()],
            "B": [np.eye(2).tolist()], "sigma_L": np.eye(2).tolist()}


_Q = np.linalg.qr(np.random.default_rng(0).standard_normal((2, 2)))[0]


class TestDecoupledPair:
    # a conjugate pair whose latent vectors are real up to a phase (a
    # decoupled coordinate, also rotated by a real orthogonal Q) makes the
    # conjugate-closed grouping's P_k singular (cond inf, inf and 1.3e15);
    # the default grouping then drops conjugate closure, and no command
    # depends on the grouping
    @pytest.mark.parametrize("doc", [
        decoupled_pair_doc(np.diag([3.0, 3.0]), np.diag([2.5, 2.0])),
        decoupled_pair_doc(np.diag([0.02, 0.03]), np.diag([1e4, 2e4])),
        decoupled_pair_doc(_Q @ np.diag([1.0, 1.5]) @ _Q.T, _Q @ np.diag([4.0, 6.0]) @ _Q.T)],
        ids=["diag", "stiff", "rotated"])
    def test_every_command_succeeds(self, capsys, tmp_path, doc):
        model_file = write_model(tmp_path, doc)
        for command in ("solvents", "decompose", "acvf", "varma", "simulate"):
            code, _, err = run(capsys, command, model_file)
            assert code == 0, (command, err)
        code, out, err = run(capsys, "verify", model_file)
        assert code == 0, err
        assert out.splitlines()[-1] == "verification: PASS"


class TestModelLoading:
    def test_compound_poisson_consistency(self, tmp_path):
        doc = dict(FIRST_ORDER)
        doc["driver"] = {"kind": "compound_poisson", "rate": 2.0,
                         "jump_cov": [[0.5, 0], [0, 0.5]]}
        model, driver = cli.load_model_file(write_model(tmp_path, doc))
        assert driver.kind == "compound_poisson"
        assert np.allclose(driver.rate * driver.jump_cov, np.eye(2))

    def test_compound_poisson_jump_cov_is_optional(self, capsys, tmp_path):
        # a rate alone gives the path of the stated jump_cov = sigma_L / rate
        stated = dict(FIRST_ORDER, driver={"kind": "compound_poisson", "rate": 2.0,
                                           "jump_cov": [[0.5, 0], [0, 0.5]]})
        rate_only = dict(FIRST_ORDER, driver={"kind": "compound_poisson", "rate": 2.0})
        _, driver = cli.load_model_file(write_model(tmp_path, rate_only))
        assert driver.kind == "compound_poisson" and driver.jump_cov is None
        outputs = []
        for doc in (stated, rate_only):
            code, out, _ = run(capsys, "simulate", write_model(tmp_path, doc), "--steps", "300")
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1]

    def test_compound_poisson_mismatch_rejected(self, capsys, tmp_path):
        doc = dict(FIRST_ORDER)
        doc["driver"] = {"kind": "compound_poisson", "rate": 2.0,
                         "jump_cov": [[1.0, 0], [0, 1.0]]}
        code, _, err = run(capsys, "solvents", write_model(tmp_path, doc))
        assert code == 1
        assert "sigma_L" in err

    @pytest.mark.parametrize("driver, message", [
        (5, "driver must be a JSON object"),
        ({"kind": "compound_poisson", "rate": 2.0, "jump_cov": [[0.5]]},
         "jump_cov must have the shape of sigma_L"),
        ({"kind": "compound_poisson", "jump_cov": [[0.5, 0], [0, 0.5]]},
         "compound_poisson driver needs a rate"),
        ({"kind": "compound_poisson", "rate": 2.0, "jmp_cov": [[0.5, 0], [0, 0.5]]},
         "driver key 'jmp_cov' is not one of kind, rate, jump_cov, sigma_L"),
        ({"kind": "brownian", "seed": 3}, "driver key 'seed' is not one of"),
        ({"kind": "brownian", "sigma_L": [1, 1]}, "driver.sigma_L must have 2 dimensions")],
        ids=["not-an-object", "jump-cov-shape", "no-rate", "misspelled-key", "seed-key",
             "sigma-L-1-D"])
    def test_malformed_driver_rejected(self, capsys, tmp_path, driver, message):
        code, out, err = run(capsys, "solvents",
                             write_model(tmp_path, dict(FIRST_ORDER, driver=driver)))
        assert code == 1 and out == ""
        assert err.startswith("input error:") and message in err

    @pytest.mark.parametrize("doc, message", [
        ([1, 2], "model document must be a JSON object"),
        ({"A": FIRST_ORDER["A"], "sigma_L": FIRST_ORDER["sigma_L"]}, "missing key 'B'"),
        (dict(FIRST_ORDER, A=[]), "A must be a non-empty list of matrices"),
        (dict(FIRST_ORDER, A=["x"]), "A[0] is not numeric"),
        (dict(FIRST_ORDER, sigma_L=[1, 1]), "sigma_L must have 2 dimensions"),
        (dict(FIRST_ORDER, sigma_L=[[1, 0, 0], [0, 1, 0]]), "sigma_L must be square"),
        (dict(FIRST_ORDER, sigma_L=[[1, 0.5], [0, 1]]), "sigma_L must be symmetric"),
        (dict(FIRST_ORDER, B=[[[1, 0]]]), "A and B must share their row dimension"),
        (dict(FIRST_ORDER, B=[[[1], [0]]]), "sigma_L dimension must match the MA column count")],
        ids=["array", "no-B", "empty-A", "string-A", "1-D-sigma", "non-square-sigma",
             "asymmetric-sigma", "row-count", "sigma-size"])
    def test_malformed_document_rejected(self, capsys, tmp_path, doc, message):
        code, out, err = run(capsys, "solvents", write_model(tmp_path, doc))
        assert (code, out) == (1, "")
        assert err.startswith(f"input error: {message}") and err.count("\n") == 1

    @pytest.mark.parametrize("argv, doc, message", [
        (("solvents",), {"A": [[[1]], [[0]], [[0]]], "B": [[[1]]], "sigma_L": [[1]]},
         "DefectiveCompanion:"),
        (("simulate", "--h", "1", "--steps", "2000"),
         {"A": [[[1]], [[-1]]], "B": [[[1]]], "sigma_L": [[1]]}, "CholeskyFail:"),
        (("simulate", "--h", "400", "--steps", "3"),
         {"A": [[[1]], [[-1]]], "B": [[[1]]], "sigma_L": [[1]]},
         "CholeskyFail: innovation Gramian has non-finite entries\n"),
        (("acvf",), {"A": [[[1]], [[-1e300]]], "B": [[[2]]], "sigma_L": [[1e-8]]},
         "DefectiveCompanion: latent residual = 0.000e+00 exceeds inf "
         "(the bound overflowed)\n")],
        ids=["double-root-at-zero", "overflowing-path", "overflowing-gramian",
             "overflowing-root-scale"])
    def test_certification_failure_is_one_line(self, capsys, tmp_path, argv, doc, message):
        # A(z) = z^2 has a defective companion; A(z) = z - 1 (root +1)
        # overflows within its first chunk at h = 1, and its Q_h at h = 400;
        # the residual scale of the root of A(z) = z - 1e300 overflows: the
        # path's finite check, psd_factor or the latent residual's certificate
        # reports it, not a numpy warning
        code, _, err = run(capsys, argv[0], write_model(tmp_path, doc), *argv[1:])
        assert code == 2
        assert err.startswith(f"certification failure: {message}") and err.count("\n") == 1

    @pytest.mark.parametrize("driver", [
        {"kind": "levy"},
        {"kind": ["brownian"]},
        {"kind": "compound_poisson"},
        {"kind": "compound_poisson", "rate": -1.0},
        {"kind": "compound_poisson", "rate": 2.0, "jump_cov": [[0.5]]},
        {"kind": "compound_poisson", "rate": 2.0, "jump_cov": [[1.0, 0], [0, 1.0]]},
        {"kind": "brownian", "rate": 2.0},
        {"kind": "brownian", "jump_cov": [[1.0, 0], [0, 1.0]]},
        {"kind": "brownian", "sigma_L": [[5.0, 0], [0, 5.0]]},
        {"kind": "brownian", "sigma_L": [[1.0]]},
        {"kind": "compound_poisson", "rate": 2.0, "sigma_L": [[1.0, 0], [0, 1.0]]}],
        ids=["unknown-kind", "list-kind", "no-rate", "negative-rate", "jump-cov-shape", "mismatch",
             "brownian-rate", "brownian-jump-cov", "brownian-sigma-L-mismatch",
             "brownian-sigma-L-shape", "cp-sigma-L"])
    def test_driver_error_is_the_library_error(self, capsys, tmp_path, driver):
        # the CLI states no driver rule of its own: it reports the ValueError
        # of sim.DriverSpec or sim.check_driver for the same driver
        with pytest.raises(ValueError) as exc:
            spec = sim.DriverSpec(seed=0, **{
                key: value if key in ("kind", "rate") else np.asarray(value)
                for key, value in driver.items()})
            sim.check_driver(spec, np.eye(2))
        code, out, err = run(capsys, "solvents",
                             write_model(tmp_path, dict(FIRST_ORDER, driver=driver)))
        assert (code, out, err) == (1, "", f"input error: {exc.value}\n")

    def test_driver_block_takes_the_driver_fields(self, tmp_path):
        # a Brownian driver may restate sigma_L, which reaches sim.DriverSpec;
        # the top-level comment key is free text
        doc = dict(FIRST_ORDER, comment="restated", driver={"kind": "brownian",
                                                            "sigma_L": FIRST_ORDER["sigma_L"]})
        _, driver = cli.load_model_file(write_model(tmp_path, doc), seed=4)
        assert (driver.kind, driver.seed, driver.rate, driver.jump_cov) == ("brownian", 4,
                                                                            None, None)
        assert np.array_equal(driver.sigma_L, np.eye(2))
        assert {f.name for f in dataclasses.fields(sim.DriverSpec)} == {
            "kind", "seed", "rate", "jump_cov", "sigma_L"}

    def test_compound_poisson_negative_rate_rejected(self, capsys, tmp_path):
        # rate * jump_cov = sigma_L holds; the sign of the rate is the error
        doc = dict(FIRST_ORDER)
        doc["driver"] = {"kind": "compound_poisson", "rate": -2.0,
                         "jump_cov": [[-0.5, 0], [0, -0.5]]}
        code, out, err = run(capsys, "solvents", write_model(tmp_path, doc))
        assert code == 1 and out == ""
        assert err.startswith("input error:") and "rate must be positive" in err


PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


class TestBenchmarkContract:
    def test_verify_cli_inputs_pass_and_harness_names_resolve(
            self, capsys, tmp_path, example_model_file, corpus):
        # the verify-cli workload runs ``verify`` at default flags on
        # carma2x2 and on benchmark corpus #8, written by perfbench's writer
        spec = importlib.util.spec_from_file_location("perfbench_corpus",
                                                      PERFBENCH / "corpus.py")
        bench = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(bench)
        d3p3 = bench.corpus_from(np.random.default_rng(20250810), 9)[8]
        model = corpus[8]
        for want, got in ((d3p3.A.coeffs, model.A.coeffs), (d3p3.B.coeffs, model.B.coeffs),
                          (d3p3.sigma_L, model.sigma_L)):
            assert np.array_equal(np.asarray(want), np.asarray(got))
        for path in (example_model_file, bench.write_model(tmp_path / "d3p3.json", model)):
            code, out, err = run(capsys, "verify", path)
            assert (code, err) == (0, "")
            assert out.splitlines()[-1] == "verification: PASS"

        # building the corpus above called coeffs_from_solvent_matrices,
        # latent_roots(...)[i].root and eig_multiset_distance; the rest of
        # what the benchmark calls, or wraps by name:
        assert all(map(callable, (cli.run_verification, cli.load_model_file, cli.main)))
        decomp = mcarma.decompose(model, model.solvent_set())
        assert decomp.statespace.A_star.shape == (9, 9)
        assert model.latent_root_values.shape == (9,)
        sv = sampling.sampled_varma(decomp, 0.25)
        assert sampling.ma_acvf(sv.theta, sv.sigma_eps, 0).shape == (3, 3)
        driver = sim.DriverSpec(kind="brownian", seed=0, sigma_L=model.sigma_L)
        assert len(sim.empirical_acvf(sim.simulate(decomp, driver, 0.1, 100), 2)) == 3

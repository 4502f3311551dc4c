"""End-to-end command tests on tiny experiments.

Everything runs through cli.main with in-process argv lists; commands that
train use short sequences, one or two layers, and a couple of epochs so the
whole module stays in the seconds range.
"""

import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from dnakernel import cli
from dnakernel.baselines import ClassicalKernelModel
from dnakernel.cli import JOBS_ENV_VAR, main
from dnakernel.dataset import load_triplets


def run_cli(*argv):
    return main([str(a) for a in argv])


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


@pytest.fixture(autouse=True)
def no_jobs_env(monkeypatch):
    monkeypatch.delenv(JOBS_ENV_VAR, raising=False)


def gen_tiny_dataset(tmp_path, name, seed, count=6, length=4):
    path = tmp_path / name
    rc = run_cli("gen-data", "--seed", seed, "--count", count,
                 "--length", length, "--out", path)
    assert rc == 0
    return path


class TestGenData:
    def test_writes_dataset_and_manifest(self, tmp_path):
        path = gen_tiny_dataset(tmp_path, "train.jsonl", seed=3)
        triplets = load_triplets(path)
        assert len(triplets) == 6
        manifest = read_json(f"{path}.manifest.json")
        assert manifest["command"] == "gen-data"
        assert manifest["config"]["count"] == 6
        assert manifest["seeds"] == [3]
        (artifact,) = manifest["artifacts"]
        assert artifact["path"] == str(path)
        assert len(artifact["sha256"]) == 64
        timings = manifest["timings_seconds"]
        assert set(timings) == {"label", "save", "total"}
        assert timings["label"] + timings["save"] <= timings["total"] + 0.002

    def test_manifest_config_is_the_flags(self, tmp_path):
        path = gen_tiny_dataset(tmp_path, "train.jsonl", seed=3)
        config = read_json(f"{path}.manifest.json")["config"]
        assert config == {"seed": 3, "count": 6, "length": 4, "jobs": 1}

    def test_same_seed_same_checksum(self, tmp_path):
        p1 = gen_tiny_dataset(tmp_path, "a.jsonl", seed=11)
        p2 = gen_tiny_dataset(tmp_path, "b.jsonl", seed=11)
        m1 = read_json(f"{p1}.manifest.json")
        m2 = read_json(f"{p2}.manifest.json")
        assert m1["artifacts"][0]["sha256"] == m2["artifacts"][0]["sha256"]
        assert p1.read_bytes() == p2.read_bytes()

    def test_length_above_cap_refused(self, tmp_path, capsys):
        rc = run_cli("gen-data", "--seed", 0, "--count", 2, "--length", 12,
                     "--out", tmp_path / "x.jsonl")
        assert rc == 1
        assert "exceeds" in capsys.readouterr().err
        assert not (tmp_path / "x.jsonl").exists()

    @pytest.mark.parametrize("flag,value", [("--count", 0), ("--length", 0)])
    def test_nonpositive_sizes_refused(self, tmp_path, flag, value, capsys):
        rc = run_cli("gen-data", flag, value, "--out", tmp_path / "x.jsonl")
        assert rc == 1
        assert "error:" in capsys.readouterr().err


class TestTrainQuantum:
    @pytest.fixture()
    def datasets(self, tmp_path):
        train = gen_tiny_dataset(tmp_path, "train.jsonl", seed=1)
        test = gen_tiny_dataset(tmp_path, "test.jsonl", seed=2)
        return train, test

    def _train(self, tmp_path, train, test, **overrides):
        argv = [
            "train-quantum", "--train", train, "--test", test,
            "--layers", overrides.pop("layers", 2),
            "--epochs", overrides.pop("epochs", 2),
            "--runs", overrides.pop("runs", 2),
            "--batch", 4, "--seed", overrides.pop("seed", 9),
            "--out-curves", tmp_path / "curves.csv",
            "--out-checkpoints", tmp_path / "checkpoints.json",
        ]
        for key, value in overrides.items():
            argv.extend([f"--{key}", value])
        return run_cli(*argv)

    def test_full_artifact_set(self, tmp_path, datasets):
        train, test = datasets
        assert self._train(tmp_path, train, test) == 0
        curves = (tmp_path / "curves.csv").read_text().splitlines()
        assert curves[0] == "run,epoch,train_mse,test_order_accuracy,best_so_far"
        assert len(curves) == 1 + 2 * 3  # 2 runs x (epoch 0 + 2 epochs)

        checkpoints = read_json(tmp_path / "checkpoints.json")
        assert len(checkpoints["runs"]) == 2
        for payload in checkpoints["runs"]:
            assert payload["layers"] == 2
            assert len(payload["theta"]) == 6
            assert payload["epoch"] == 2

        summary = read_json(tmp_path / "curves.summary.json")
        assert len(summary["per_run_best"]) == 2
        assert "ci95_halfwidth" in summary

        manifest = read_json(tmp_path / "curves.csv.manifest.json")
        assert manifest["command"] == "train-quantum"
        assert manifest["config"]["num_parameters"] == 6
        assert len(manifest["seeds"]) == 2
        paths = {a["path"] for a in manifest["artifacts"]}
        assert str(tmp_path / "curves.csv") in paths
        assert str(tmp_path / "checkpoints.json") in paths
        assert str(tmp_path / "curves.summary.json") in paths

    def test_manifest_config_is_the_flags(self, tmp_path, datasets):
        train, test = datasets
        assert self._train(tmp_path, train, test) == 0
        config = read_json(tmp_path / "curves.csv.manifest.json")["config"]
        assert config == {
            "layers": 2, "train": str(train), "test": str(test), "lr": 0.01,
            "epochs": 2, "batch": 4, "runs": 2, "seed": 9, "jobs": 1,
            "optimizer": "adam", "num_parameters": 6,
        }

    def test_single_run_summary_notes_missing_interval(self, tmp_path, datasets):
        train, test = datasets
        assert self._train(tmp_path, train, test, runs=1) == 0
        summary = read_json(tmp_path / "curves.summary.json")
        assert "ci95_halfwidth" not in summary
        assert "note" in summary
        assert "at least 2" in summary["note"]

    def test_deterministic_rerun(self, tmp_path, datasets):
        train, test = datasets
        assert self._train(tmp_path, train, test) == 0
        first = (tmp_path / "curves.csv").read_bytes()
        assert self._train(tmp_path, train, test) == 0
        assert (tmp_path / "curves.csv").read_bytes() == first

    def test_train_file_loaded_once(self, tmp_path, datasets, monkeypatch):
        train, test = datasets
        loads = {}
        load = cli.load_triplets

        def counting_load(path, *args, **kwargs):
            loads[str(path)] = loads.get(str(path), 0) + 1
            return load(path, *args, **kwargs)

        monkeypatch.setattr(cli, "load_triplets", counting_load)
        assert self._train(tmp_path, train, test, runs=1, epochs=1) == 0
        assert loads == {str(train): 1, str(test): 1}

    def test_sequence_length_mismatch_refused(self, tmp_path, capsys):
        train = gen_tiny_dataset(tmp_path, "train.jsonl", seed=1, length=4)
        test = gen_tiny_dataset(tmp_path, "test.jsonl", seed=2, length=6)
        assert self._train(tmp_path, train, test, runs=1, epochs=1) == 1
        err = capsys.readouterr().err
        assert f"test file {test} holds length-6 sequences" in err
        assert f"train file {train} length-4" in err
        assert not (tmp_path / "curves.csv").exists()

    def test_nan_learning_rate_refused(self, tmp_path, datasets, capsys):
        train, test = datasets
        capsys.readouterr()
        assert self._train(tmp_path, train, test, lr="nan") == 1
        assert re.fullmatch(r"error: learning_rate must be [^\n]*, got nan\n",
                            capsys.readouterr().err)
        assert not (tmp_path / "curves.csv").exists()

    @pytest.mark.parametrize("layers", [-2, 0])
    def test_nonpositive_layers_refused(self, tmp_path, datasets, capsys, layers):
        train, test = datasets
        capsys.readouterr()
        assert self._train(tmp_path, train, test, layers=layers) == 1
        assert capsys.readouterr().err == f"error: num_layers must be >= 1, got {layers}\n"
        assert not (tmp_path / "curves.csv").exists()

    def test_missing_dataset_errors(self, tmp_path, capsys):
        rc = run_cli("train-quantum", "--train", tmp_path / "nope.jsonl",
                     "--test", tmp_path / "nope.jsonl",
                     "--out-curves", tmp_path / "c.csv",
                     "--out-checkpoints", tmp_path / "k.json")
        assert rc == 1
        assert "error:" in capsys.readouterr().err


class TestTrainClassical:
    def test_runs_and_reports_parameter_count(self, tmp_path):
        train = gen_tiny_dataset(tmp_path, "train.jsonl", seed=1)
        test = gen_tiny_dataset(tmp_path, "test.jsonl", seed=2)
        rc = run_cli(
            "train-classical", "--kernel", "rbf", "--train", train, "--test", test,
            "--epochs", 1, "--runs", 2, "--batch", 4, "--seed", 5,
            "--out-curves", tmp_path / "c.csv",
            "--out-checkpoints", tmp_path / "k.json",
        )
        assert rc == 0
        manifest = read_json(tmp_path / "c.csv.manifest.json")
        assert manifest["config"]["kernel"] == "rbf"
        model_params = manifest["config"]["num_parameters"]
        checkpoints = read_json(tmp_path / "k.json")
        assert all(p["kernel_head"] == "rbf" for p in checkpoints["runs"])
        assert all(len(p["params"]) == model_params for p in checkpoints["runs"])

    def test_divergence_names_run_and_epoch(self, tmp_path, capsys):
        # a learning rate this large sends the RBF bandwidth to infinity; the
        # overflow it causes is reported by the error line alone, with no
        # numpy RuntimeWarning before it
        train = gen_tiny_dataset(tmp_path, "train.jsonl", seed=1, count=16, length=6)
        test = gen_tiny_dataset(tmp_path, "test.jsonl", seed=2, count=16, length=6)
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = run_cli(
                "train-classical", "--kernel", "rbf", "--lr", 1000,
                "--train", train, "--test", test,
                "--out-curves", tmp_path / "c.csv",
                "--out-checkpoints", tmp_path / "k.json",
            )
        assert rc == 1
        err = capsys.readouterr().err
        assert re.fullmatch(
            r"error: run 0 \(seed \d+\), epoch \d+: non-finite gradient[^\n]*\n", err)
        assert not (tmp_path / "c.csv").exists()

    def test_manifest_config_is_the_flags(self, tmp_path):
        train = gen_tiny_dataset(tmp_path, "train.jsonl", seed=1)
        test = gen_tiny_dataset(tmp_path, "test.jsonl", seed=2)
        assert run_cli(
            "train-classical", "--kernel", "poly2", "--train", train, "--test", test,
            "--lr", 0.05, "--epochs", 1, "--runs", 1, "--batch", 4, "--seed", 5,
            "--jobs", 2, "--out-curves", tmp_path / "c.csv",
            "--out-checkpoints", tmp_path / "k.json",
        ) == 0
        config = read_json(tmp_path / "c.csv.manifest.json")["config"]
        assert config == {
            "kernel": "poly2", "train": str(train), "test": str(test), "lr": 0.05,
            "epochs": 1, "batch": 4, "runs": 1, "seed": 5, "jobs": 2,
            "optimizer": "adam",
            "num_parameters": ClassicalKernelModel("poly2", seq_length=4).num_parameters,
        }

    def test_layers_flag_refused(self, tmp_path):
        # classical models have no layers: the flag is an argparse error and
        # the manifest records no layer count
        train = gen_tiny_dataset(tmp_path, "train.jsonl", seed=1)
        test = gen_tiny_dataset(tmp_path, "test.jsonl", seed=2)
        argv = ["train-classical", "--kernel", "cosine", "--train", train,
                "--test", test, "--epochs", 1, "--runs", 1, "--batch", 4,
                "--out-curves", tmp_path / "c.csv",
                "--out-checkpoints", tmp_path / "k.json"]
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv, "--layers", 3)
        assert exc.value.code != 0
        assert not (tmp_path / "c.csv").exists()
        assert run_cli(*argv) == 0
        assert "layers" not in read_json(tmp_path / "c.csv.manifest.json")["config"]

    def test_unknown_kernel_rejected_by_parser(self, tmp_path):
        with pytest.raises(SystemExit):
            run_cli("train-classical", "--kernel", "sigmoid",
                    "--train", "x", "--test", "y",
                    "--out-curves", "c", "--out-checkpoints", "k")


class TestEdm:
    def test_identity(self, capsys):
        assert run_cli("edm", "--a", "ATGC", "--b", "ATGC") == 0
        assert capsys.readouterr().out.strip() == "0"

    def test_block_move(self, capsys):
        assert run_cli("edm", "--a", "ATGC", "--b", "GCAT") == 0
        assert capsys.readouterr().out.strip() == "1"

    def test_invalid_sequence_errors(self, capsys):
        assert run_cli("edm", "--a", "ATXG", "--b", "ATGC") == 1
        assert "error:" in capsys.readouterr().err

    def test_over_length_cap_errors(self, capsys):
        assert run_cli("edm", "--a", "A" * 11, "--b", "T" * 11) == 1
        assert "error:" in capsys.readouterr().err


class TestReport:
    @pytest.fixture()
    def curve_file(self, tmp_path):
        train = gen_tiny_dataset(tmp_path, "train.jsonl", seed=1)
        test = gen_tiny_dataset(tmp_path, "test.jsonl", seed=2)
        rc = run_cli(
            "train-quantum", "--train", train, "--test", test,
            "--layers", 1, "--epochs", 1, "--runs", 2, "--batch", 4,
            "--seed", 3,
            "--out-curves", tmp_path / "curves.csv",
            "--out-checkpoints", tmp_path / "k.json",
        )
        assert rc == 0
        return tmp_path / "curves.csv"

    def test_prints_table(self, tmp_path, curve_file, capsys):
        before = sorted(tmp_path.rglob("*"))
        assert run_cli("report", "--curves", f"tiny={curve_file}") == 0
        assert sorted(tmp_path.rglob("*")) == before  # report only prints
        out = capsys.readouterr().out
        assert "tiny" in out
        assert "+/-" in out
        assert "%" in out

    def test_repeated_label_refused(self, curve_file, capsys):
        # two rows under one label would make an ambiguous table
        assert run_cli("report", "--curves", f"A={curve_file}", f"B={curve_file}",
                       f"A={curve_file}") == 1
        captured = capsys.readouterr()
        assert "label 'A' is given more than once" in captured.err
        assert captured.out == ""

    def test_bad_spec_errors(self, capsys):
        assert run_cli("report", "--curves", "no-equals-sign") == 1
        assert "LABEL=PATH" in capsys.readouterr().err

    def test_malformed_curve_file_refused(self, tmp_path, curve_file, capsys):
        # a run whose epochs read 0, 2, 1, 1 would report its last row's
        # accuracy as the best so far
        rows = curve_file.read_text().splitlines()
        rows[3:] = ["1,0,0.1,0.5,0.5", "1,2,0.1,0.9,0.9", "1,1,0.1,0.6,0.9", "1,1,0.1,0.6,0.9"]
        curve_file.write_text("\n".join(rows) + "\n")
        assert run_cli("report", "--curves", f"tiny={curve_file}") == 1
        assert f"{curve_file}: line 5: run 1 has epoch 2" in capsys.readouterr().err

    def test_missing_file_errors(self, tmp_path, capsys):
        assert run_cli("report", "--curves", f"x={tmp_path}/absent.csv") == 1
        assert "error:" in capsys.readouterr().err


class TestJobsResolution:
    def test_env_var_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv(JOBS_ENV_VAR, "2")
        path = gen_tiny_dataset(tmp_path, "t.jsonl", seed=4)
        manifest = read_json(f"{path}.manifest.json")
        assert manifest["config"]["jobs"] == 2

    def test_flag_overrides_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(JOBS_ENV_VAR, "2")
        path = tmp_path / "t.jsonl"
        rc = run_cli("gen-data", "--seed", 4, "--count", 4, "--length", 4,
                     "--out", path, "--jobs", 1)
        assert rc == 0
        assert read_json(f"{path}.manifest.json")["config"]["jobs"] == 1

    def test_bad_env_var_errors(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv(JOBS_ENV_VAR, "many")
        rc = run_cli("gen-data", "--seed", 0, "--count", 2, "--length", 4,
                     "--out", tmp_path / "x.jsonl")
        assert rc == 1
        assert JOBS_ENV_VAR in capsys.readouterr().err

    def test_nonpositive_env_var_errors(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv(JOBS_ENV_VAR, "0")
        rc = run_cli("gen-data", "--seed", 0, "--count", 2, "--length", 4,
                     "--out", tmp_path / "x.jsonl")
        assert rc == 1
        assert f"{JOBS_ENV_VAR} must be >= 1, got 0" in capsys.readouterr().err

    def test_jobs_must_be_positive(self, tmp_path, capsys):
        rc = run_cli("gen-data", "--seed", 0, "--count", 2, "--length", 4,
                     "--out", tmp_path / "x.jsonl", "--jobs", 0)
        assert rc == 1
        assert "--jobs must be >= 1, got 0" in capsys.readouterr().err

    def test_parallel_generation_matches_serial(self, tmp_path):
        p1 = tmp_path / "serial.jsonl"
        p2 = tmp_path / "parallel.jsonl"
        assert run_cli("gen-data", "--seed", 8, "--count", 6, "--length", 4,
                       "--out", p1, "--jobs", 1) == 0
        assert run_cli("gen-data", "--seed", 8, "--count", 6, "--length", 4,
                       "--out", p2, "--jobs", 2) == 0
        assert p1.read_bytes() == p2.read_bytes()


def test_import_leaves_scipy_unloaded():
    # scipy costs about a second to import; only the confidence interval of
    # a multi-run summary needs it
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    code = "import sys, dnakernel.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.parametrize("preset", [None, "2"])
def test_import_pins_blas_threads_unless_set(preset):
    # unpinned, every pool worker started its own BLAS threads, which took
    # qk6's training from 254 s to 1,174 s on a 2-core host
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env["PYTHONPATH"] = str(Path(cli.__file__).resolve().parents[1])
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    code = ("import os, dnakernel.cli; "
            f"print(*(os.environ[v] for v in {BLAS_THREAD_VARS!r}))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == [preset or "1", "1", "1"]

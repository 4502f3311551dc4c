"""Acceptance suite: the deliverable's contract, with pinned tolerances.

Criteria that need only seconds are computed inline. The experiment-backed
criteria (calibration, headline accuracy, depth trend, classical gap) read
artifacts under results/acceptance/ through the protocol steps of
scripts/run_comparison.py, which holds the frozen seeds and the scale and
regenerates anything missing or corrupt through the command-line pipeline,
so a clean checkout reproduces every number in this file; a cold
regeneration takes hours on one core, a warm run seconds. An artifact counts
only if its manifest records the command and configuration the protocol
would run, so artifacts left by an earlier protocol are regenerated rather
than graded.
"""

import itertools
import json
from pathlib import Path

import numpy as np
import pytest

from test_baselines import fd_gradient as classical_fd
from test_baselines import pair_gradients, safe_instance
from test_edm import bfs_edm_oracle, lev_oracle
from test_kernel import fd_gradient as quantum_fd
from test_kernel import random_params, random_seq
from test_scripts import load_script

from dnakernel.baselines import ClassicalKernelModel
from dnakernel.circuits import ALPHABET, KernelParams, apply_encoding_layer
from dnakernel.dataset import load_triplets
from dnakernel.edm import edm_exact, levenshtein
from dnakernel.kernel import QuantumKernelModel, encode_sequences
from dnakernel.training import OPTIMIZER, order_accuracy

ACCEPT_DIR = Path(__file__).resolve().parents[1] / "results" / "acceptance"
protocol = load_script("run_comparison")


@pytest.fixture(scope="session")
def datasets():
    return {
        name: protocol.ensure_dataset(ACCEPT_DIR, name, seed)
        for name, seed in protocol.DATASETS.items()
    }


def _summaries(datasets, command, key):
    return {
        model.config[key]: protocol.ensure_training(ACCEPT_DIR, model, datasets)
        for model in protocol.MODELS if model.command == command
    }


@pytest.fixture(scope="session")
def quantum_summaries(datasets):
    return _summaries(datasets, "train-quantum", "layers")


@pytest.fixture(scope="session")
def classical_summaries(datasets):
    return _summaries(datasets, "train-classical", "kernel")


def test_committed_artifacts_are_fresh(monkeypatch):
    # a change to the protocol table, to the manifest config the CLI writes,
    # or to a committed file would silently start hours of regeneration in
    # the slow suite; fail in seconds instead
    calls = []
    monkeypatch.setattr(protocol, "run_cli", lambda argv: calls.append(str(argv[0])))
    protocol.run(["--out-dir", str(ACCEPT_DIR)])
    assert calls == ["report"]


class TestArtifactFixture:
    """The regeneration steps on a tiny set in a temporary directory."""

    SHAPE = {"count": 4, "length": 4}
    TRAINING = {**protocol.TRAINING, "epochs": 1, "batch": 4, "runs": 2}
    MODEL = next(m for m in protocol.MODELS if m.prefix == "ck_cosine")

    @pytest.fixture
    def spy(self, monkeypatch):
        calls = []
        run = protocol.run_cli

        def record(argv):
            calls.append(str(argv[0]))
            run(argv)

        monkeypatch.setattr(protocol, "run_cli", record)
        return calls

    def _train(self, directory, data):
        return protocol.ensure_training(directory, self.MODEL, data, self.TRAINING)

    def _data(self, directory):
        return {name: protocol.ensure_dataset(directory, name, seed, self.SHAPE)
                for name, seed in (("train", 1), ("test", 2))}

    @staticmethod
    def _edit_manifest(owner, edit):
        path = Path(f"{owner}.manifest.json")
        manifest = json.loads(path.read_text())
        edit(manifest)
        path.write_text(json.dumps(manifest))

    @pytest.mark.parametrize("key,value", [
        ("optimizer", None), ("seed", 99), ("lr", 0.1), ("epochs", 2),
        ("kernel", "rbf"), ("train", "other.jsonl"),
    ])
    def test_training_manifest_from_another_config_is_regenerated(
            self, tmp_path, spy, key, value):
        data = self._data(tmp_path)
        summary = self._train(tmp_path, data)
        assert spy == ["gen-data", "gen-data", "train-classical"]
        assert self._data(tmp_path) == data
        assert self._train(tmp_path, data) == summary
        assert len(spy) == 3

        def edit(manifest):
            if value is None:
                del manifest["config"][key]
            else:
                manifest["config"][key] = value

        owner = tmp_path / "ck_cosine_curves.csv"
        self._edit_manifest(owner, edit)
        assert self._train(tmp_path, data) == summary
        assert spy[3:] == ["train-classical"]
        regenerated = json.loads(Path(f"{owner}.manifest.json").read_text())["config"]
        assert regenerated["optimizer"] == OPTIMIZER
        assert regenerated["seed"] == self.MODEL.seed
        assert regenerated["lr"] == self.TRAINING["lr"]

    def test_other_command_or_dataset_config_is_regenerated(self, tmp_path, spy):
        data = self._data(tmp_path)
        self._train(tmp_path, data)
        self._edit_manifest(tmp_path / "ck_cosine_curves.csv",
                            lambda m: m.update(command="train-quantum"))
        self._train(tmp_path, data)
        assert spy[3:] == ["train-classical"]

        self._edit_manifest(tmp_path / "train.jsonl",
                            lambda m: m["config"].update(count=5))
        self._data(tmp_path)
        assert spy[4:] == ["gen-data"]

    def test_job_count_is_not_compared(self, tmp_path, spy):
        data = self._data(tmp_path)
        self._train(tmp_path, data)
        for owner in ("train.jsonl", "ck_cosine_curves.csv"):
            self._edit_manifest(tmp_path / owner,
                                lambda m: m["config"].update(jobs=m["config"]["jobs"] + 1))
        self._data(tmp_path)
        self._train(tmp_path, data)
        assert len(spy) == 3


class TestEncoding:
    def test_sic_pairwise_overlaps_exact_third(self):
        # criterion 1: |<a|b>|^2 = 1/3 for all six unordered base pairs
        for a, b in itertools.combinations(ALPHABET, 2):
            zero = np.array([1.0, 0.0], dtype=np.complex128)
            state_a, state_b = (apply_encoding_layer(zero, s) for s in (a, b))
            overlap = abs(np.vdot(state_a, state_b)) ** 2
            assert abs(overlap - 1.0 / 3.0) < 1e-12


class TestInvariance:
    @pytest.mark.parametrize("layers", [1, 6, 24])
    def test_kernel_invariant_under_paired_position_swaps(self, layers):
        # criterion 2: swapping the same two positions in both sequences
        # leaves the kernel unchanged, 100 instances x all 28 pairs at n=8
        n = 8
        model = QuantumKernelModel(num_qubits=n, num_layers=layers)
        rng = np.random.default_rng(20_000 + layers)
        swaps = list(itertools.combinations(range(n), 2))
        for _ in range(100):
            flat = rng.uniform(-np.pi, np.pi, model.num_parameters)
            base_x = encode_sequences([random_seq(rng, n)])[0]
            base_y = encode_sequences([random_seq(rng, n)])[0]
            codes_x = np.tile(base_x, (len(swaps) + 1, 1))
            codes_y = np.tile(base_y, (len(swaps) + 1, 1))
            for row, (i, j) in enumerate(swaps, start=1):
                codes_x[row, [i, j]] = codes_x[row, [j, i]]
                codes_y[row, [i, j]] = codes_y[row, [j, i]]
            k = model.kernel_batch(flat, codes_x, codes_y)
            assert np.max(np.abs(k[1:] - k[0])) < 1e-10

    def test_self_kernel_is_unity(self):
        # criterion 3: K(x, x) = 1 for 100 random (theta, x)
        model = QuantumKernelModel(num_qubits=8, num_layers=24)
        rng = np.random.default_rng(30_000)
        for _ in range(100):
            flat = rng.uniform(-np.pi, np.pi, model.num_parameters)
            codes = encode_sequences([random_seq(rng, 8)])
            (k,) = model.kernel_batch(flat, codes, codes)
            assert abs(k - 1.0) < 1e-10


class TestGradients:
    def test_quantum_gradient_matches_finite_differences(self):
        # criterion 4: engine gradient vs central differences of the
        # gate-by-gate route, 50 instances, n <= 4, L <= 6
        rng = np.random.default_rng(40_000)
        for _ in range(50):
            n = int(rng.integers(2, 5))
            layers = int(rng.integers(1, 7))
            x, y = random_seq(rng, n), random_seq(rng, n)
            params = random_params(rng, layers)
            model = QuantumKernelModel(num_qubits=n, num_layers=layers)
            _, grads = model.kernel_and_grad_batch(
                params.flat(), encode_sequences([x]), encode_sequences([y])
            )
            fd = quantum_fd(x, y, params)
            # relative error 1e-5, floored at |fd| = 0.01 where a pure
            # ratio is ill-posed (derivative crossing zero)
            assert np.all(np.abs(grads[0] - fd) < 1e-5 * np.maximum(np.abs(fd), 1e-2))

    def test_classical_gradients_match_finite_differences(self):
        # criterion 7: same check for every baseline head at 1e-4
        rng = np.random.default_rng(70_000)
        heads = ["cosine", "rbf", "poly2"]
        for i in range(50):
            model = ClassicalKernelModel(heads[i % 3])
            flat, ca, cb = safe_instance(model, rng)
            _, grads = pair_gradients(model, flat, ca, cb)
            fd = classical_fd(model, flat, ca, cb)
            assert np.all(np.abs(grads[0] - fd) < 1e-4 * np.maximum(np.abs(fd), 1e-2))


class TestEditDistance:
    def test_exact_solver_matches_exhaustive_search(self):
        # criterion 5a: bidirectional solver == plain BFS on 200 random
        # pairs with lengths up to 6; also never exceeds Levenshtein
        rng = np.random.default_rng(50_000)
        for _ in range(200):
            x = random_seq(rng, int(rng.integers(1, 7)))
            y = random_seq(rng, int(rng.integers(1, 7)))
            d = edm_exact(x, y)
            assert d == bfs_edm_oracle(x, y)
            assert d <= levenshtein(x, y)
            assert levenshtein(x, y) == lev_oracle(x, y)

    def test_paired_swap_changes_distance_by_at_most_two(self):
        # criterion 5b: |D(x,y) - D(sx,sy)| <= 2 for the same position swap
        rng = np.random.default_rng(50_001)
        for _ in range(100):
            n = int(rng.integers(4, 9))
            x, y = random_seq(rng, n), random_seq(rng, n)
            i, j = rng.choice(n, size=2, replace=False)

            def swap(s):
                out = list(s)
                out[i], out[j] = out[j], out[i]
                return "".join(out)

            assert abs(edm_exact(x, y) - edm_exact(swap(x), swap(y))) <= 2


class TestParameterCounts:
    @pytest.mark.parametrize("layers,count", [(24, 72), (12, 36), (6, 18)])
    def test_quantum(self, layers, count):
        # criterion 6: three shared angles per layer
        assert QuantumKernelModel(num_qubits=8, num_layers=layers).num_parameters == count
        assert KernelParams(layers, np.zeros((layers, 3))).flat().size == count

    @pytest.mark.parametrize("head,count", [("cosine", 816), ("rbf", 817), ("poly2", 818)])
    def test_classical(self, head, count):
        assert ClassicalKernelModel(head).num_parameters == count


@pytest.mark.slow
class TestCalibration:
    def test_untrained_kernel_scores_near_chance(self, datasets):
        # criterion 8: random parameters, the fresh protocol-scale set, 50% +/- 3%
        triplets = load_triplets(datasets["fresh"])
        assert len(triplets) == protocol.SHAPE["count"]
        model = QuantumKernelModel(num_qubits=8, num_layers=24)
        params = model.init_params(np.random.default_rng(80_000))
        acc = order_accuracy(model, params, triplets)
        assert 0.47 <= acc <= 0.53


@pytest.mark.slow
class TestTrainedModels:
    def test_headline_accuracy(self, quantum_summaries):
        # criterion 9: 24-layer kernel, mean best order accuracy >= 0.70
        assert quantum_summaries[24]["mean_best"] >= 0.70

    def test_accuracy_increases_with_depth(self, quantum_summaries):
        # criterion 10: 6 < 12 <= 24 within one CI half-width, where the
        # slack for each comparison is the larger of the two half-widths
        mean = {L: quantum_summaries[L]["mean_best"] for L in (6, 12, 24)}
        hw = {L: quantum_summaries[L]["ci95_halfwidth"] for L in (6, 12, 24)}
        assert mean[6] < mean[12] + max(hw[6], hw[12])
        assert mean[12] <= mean[24] + max(hw[12], hw[24])

    def test_classical_baselines_trail_quantum(self, quantum_summaries,
                                               classical_summaries):
        # criterion 11: every baseline lands in [0.50, 0.68] and at least
        # five points below the 24-layer quantum kernel
        quantum_mean = quantum_summaries[24]["mean_best"]
        for head, summary in classical_summaries.items():
            mean = summary["mean_best"]
            assert 0.50 <= mean <= 0.68, f"{head} out of band: {mean}"
            assert quantum_mean - mean >= 0.05, f"{head} gap too small: {mean}"

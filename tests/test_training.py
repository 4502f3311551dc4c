"""Training-loop tests on a cheap linear stand-in model plus real-model smoke.

The stand-in exposes the same protocol as the kernel models but its outputs
and gradients are exact closed forms, so loop mechanics (shuffling, batching,
epoch accounting, aggregation) are checked without circuit cost.
"""

import json
import re
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from dnakernel.baselines import ClassicalKernelModel
from dnakernel import training
from dnakernel.dataset import LabeledTriplet, TripletSet, generate_triplets, load_triplets
from dnakernel.kernel import QuantumKernelModel, encode_sequences
from dnakernel.training import (
    CURVE_HEADER,
    CurveRecord,
    LearningCurve,
    PairSet,
    TrainingConfig,
    TrainingDivergedError,
    aggregate_runs,
    dataset_mse,
    load_curves,
    order_accuracy,
    pairs_from_triplets,
    run_experiment,
    save_curves,
    save_json,
    train_epoch,
    train_run,
)

ACCEPT_DIR = Path(__file__).resolve().parents[1] / "results" / "acceptance"


class ToyModel:
    """Linear model over fixed pair features: K = w . phi(a, b).

    phi(a, b) = [1, mean(a) + mean(b), mean(a * b)] on integer codes, so
    kernel_and_grad_batch is exact and SGD behaves like linear regression.
    """

    num_parameters = 3

    def init_params(self, rng):
        return rng.uniform(-1.0, 1.0, self.num_parameters)

    @staticmethod
    def _features(codes_a, codes_b):
        a = codes_a.astype(np.float64)
        b = codes_b.astype(np.float64)
        return np.stack(
            [np.ones(a.shape[0]), a.mean(axis=1) + b.mean(axis=1),
             (a * b).mean(axis=1)],
            axis=1,
        )

    def kernel_batch(self, params, codes_a, codes_b):
        return self._features(codes_a, codes_b) @ params

    def kernel_and_grad_batch(self, params, codes_a, codes_b, cotangent=None):
        feats = self._features(codes_a, codes_b)
        k = feats @ params
        if cotangent is None:
            return k, feats
        return k, (cotangent(k)[:, None] * feats).sum(axis=0)


class NaNGradModel(ToyModel):
    def kernel_and_grad_batch(self, params, codes_a, codes_b, cotangent=None):
        k, grad = super().kernel_and_grad_batch(params, codes_a, codes_b, cotangent)
        return k, np.full_like(grad, np.nan)


class FixedKernelModel:
    """Returns a preset kernel value per sequence hash; for ranking tests."""

    num_parameters = 1

    def __init__(self, table):
        self.table = table  # (tuple(codes_a), tuple(codes_b)) -> value

    def init_params(self, rng):
        return np.zeros(1)

    def kernel_batch(self, params, codes_a, codes_b):
        return np.array(
            [self.table[tuple(a), tuple(b)] for a, b in zip(codes_a, codes_b)]
        )


def make_triplets(num, length=4, seed=7):
    return generate_triplets(seed, num, length)


def per_object_pairs(triplets) -> PairSet:
    """The pair layout built one triplet object at a time, from the strings
    and the s_ab / s_ac properties: the reference of the array build."""
    triplets = list(triplets)
    return PairSet(encode_sequences([t.a for t in triplets for _ in "bc"]),
                   encode_sequences([s for t in triplets for s in (t.b, t.c)]),
                   np.array([s for t in triplets for s in (t.s_ab, t.s_ac)]))


def toy_pairs(num=12, seed=3):
    triplets = make_triplets(num, seed=seed)
    return pairs_from_triplets(triplets), triplets


class TestConfig:
    def test_defaults(self):
        cfg = TrainingConfig()
        assert cfg.learning_rate == 0.01
        assert cfg.epochs == 100
        assert cfg.batch_size == 32
        assert cfg.runs == 3

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"learning_rate": 0.0},
            {"learning_rate": -0.1},
            {"epochs": -1},
            {"batch_size": 0},
            {"runs": 0},
            {"learning_rate": float("nan")},
            {"learning_rate": float("inf")},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        (name,) = kwargs
        with pytest.raises(ValueError, match=name):
            TrainingConfig(**kwargs)


class TestPairs:
    def test_two_pairs_per_triplet_in_order(self):
        triplets = make_triplets(5)
        pairs = pairs_from_triplets(triplets)
        assert len(pairs) == 10
        for i, t in enumerate(triplets):
            np.testing.assert_array_equal(
                pairs.codes_a[2 * i], encode_sequences([t.a])[0]
            )
            np.testing.assert_array_equal(
                pairs.codes_b[2 * i], encode_sequences([t.b])[0]
            )
            np.testing.assert_array_equal(
                pairs.codes_b[2 * i + 1], encode_sequences([t.c])[0]
            )
            assert pairs.targets[2 * i] == t.s_ab
            assert pairs.targets[2 * i + 1] == t.s_ac

    @pytest.mark.parametrize("name", ["train", "test", "fresh"])
    def test_committed_sets_match_per_object_build(self, name):
        triplets = load_triplets(ACCEPT_DIR / f"{name}.jsonl", verify_fraction=0)
        got, want = pairs_from_triplets(triplets), per_object_pairs(triplets)
        for field in ("codes_a", "codes_b", "targets"):
            a, b = getattr(got, field), getattr(want, field)
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())

    @pytest.mark.parametrize("source", ["loaded", "generated"])
    def test_array_sets_build_no_triplet_objects(self, monkeypatch, source):
        if source == "loaded":
            triplets = load_triplets(ACCEPT_DIR / "test.jsonl", verify_fraction=0)
        else:
            triplets = make_triplets(6)

        def refuse(*args):
            raise AssertionError("a LabeledTriplet was built")

        monkeypatch.setattr(LabeledTriplet, "__init__", refuse)
        assert len(pairs_from_triplets(triplets)) == 2 * len(triplets)
        order_accuracy(ToyModel(), np.array([0.1, 0.2, 0.3]), triplets)
        order_accuracy(ToyModel(), np.array([0.1, 0.2, 0.3]), triplets[:2])


class TestTrainEpoch:
    def test_zero_residual_is_fixed_point(self):
        pairs, _ = toy_pairs()
        model = ToyModel()
        params = model.init_params(np.random.default_rng(0))
        fitted = pairs.__class__(
            pairs.codes_a, pairs.codes_b,
            model.kernel_batch(params, pairs.codes_a, pairs.codes_b),
        )
        cfg = TrainingConfig(epochs=1, batch_size=4)
        new_params, mse = train_epoch(model, params, fitted, cfg, np.random.default_rng(1))
        np.testing.assert_allclose(new_params, params, atol=1e-14)
        assert mse == pytest.approx(0.0, abs=1e-28)

    def test_full_batch_step_decreases_loss(self):
        pairs, _ = toy_pairs()
        model = ToyModel()
        params = model.init_params(np.random.default_rng(5))
        cfg = TrainingConfig(learning_rate=0.005, batch_size=len(pairs))
        before = dataset_mse(model, params, pairs)
        new_params, _ = train_epoch(model, params, pairs, cfg, np.random.default_rng(2))
        assert dataset_mse(model, new_params, pairs) < before

    def test_same_rng_same_result(self):
        pairs, _ = toy_pairs()
        model = ToyModel()
        params = model.init_params(np.random.default_rng(5))
        cfg = TrainingConfig(batch_size=4)
        p1, m1 = train_epoch(model, params, pairs, cfg, np.random.default_rng(9))
        p2, m2 = train_epoch(model, params, pairs, cfg, np.random.default_rng(9))
        np.testing.assert_array_equal(p1, p2)
        assert m1 == m2

    def test_does_not_mutate_input_params(self):
        pairs, _ = toy_pairs()
        model = ToyModel()
        params = model.init_params(np.random.default_rng(5))
        snapshot = params.copy()
        train_epoch(model, params, pairs, TrainingConfig(), np.random.default_rng(0))
        np.testing.assert_array_equal(params, snapshot)

    def test_non_finite_gradient_aborts(self):
        pairs, _ = toy_pairs()
        model = NaNGradModel()
        params = model.init_params(np.random.default_rng(0))
        with pytest.raises(TrainingDivergedError, match="non-finite"):
            train_epoch(model, params, pairs, TrainingConfig(), np.random.default_rng(0))

    def test_diverged_classical_kernel_aborts(self):
        # an infinite RBF bandwidth makes kernel values and gradients
        # non-finite; the loop's own check reports it like any other model's
        pairs, _ = toy_pairs()
        model = ClassicalKernelModel("rbf", seq_length=4)
        params = model.init_params(np.random.default_rng(0))
        params[-1] = 1e3  # the head's log-bandwidth, the last parameter
        with pytest.raises(TrainingDivergedError, match="non-finite"), \
                np.errstate(all="ignore"):
            train_epoch(model, params, pairs, TrainingConfig(), np.random.default_rng(0))

    def test_empty_pairs_rejected(self):
        pairs, _ = toy_pairs(num=2)
        empty = pairs.__class__(pairs.codes_a[:0], pairs.codes_b[:0], pairs.targets[:0])
        with pytest.raises(ValueError, match="empty"):
            train_epoch(ToyModel(), np.zeros(3), empty, TrainingConfig(),
                        np.random.default_rng(0))

    def test_identity_pair_has_zero_gradient(self):
        # K(x, x) = 1 regardless of parameters, so a target of 1 is a minimum
        model = QuantumKernelModel(num_qubits=4, num_layers=2)
        codes = encode_sequences(["ATGC"])
        pairs = PairSet(codes, codes.copy(), np.array([1.0]))
        params = model.init_params(np.random.default_rng(3))
        new_params, mse = train_epoch(
            model, params, pairs, TrainingConfig(batch_size=1), np.random.default_rng(0)
        )
        np.testing.assert_allclose(new_params, params, atol=1e-12)
        assert mse < 1e-24

    def test_single_pair_step_decreases_loss(self):
        model = QuantumKernelModel(num_qubits=4, num_layers=2)
        pairs = PairSet(
            encode_sequences(["ATGC"]), encode_sequences(["GGTA"]), np.array([0.9])
        )
        params = model.init_params(np.random.default_rng(8))
        cfg = TrainingConfig(learning_rate=1e-3, batch_size=1)
        before = dataset_mse(model, params, pairs)
        new_params, _ = train_epoch(model, params, pairs, cfg, np.random.default_rng(0))
        assert dataset_mse(model, new_params, pairs) < before


class ScaledToyModel(ToyModel):
    """ToyModel with every feature, and so every gradient, scaled down."""

    def __init__(self, scale):
        self.scale = scale

    def _features(self, codes_a, codes_b):
        return self.scale * ToyModel._features(codes_a, codes_b)


class TestAdamUpdate:
    @pytest.mark.parametrize("scale", [1.0, 1e-6])
    def test_first_step_is_learning_rate_against_gradient_sign(self, scale):
        # one full batch: the bias-corrected first Adam step is
        # lr * |g| / (|g| + eps) per parameter, however small g is
        pairs, _ = toy_pairs()
        model = ScaledToyModel(scale)
        params = model.init_params(np.random.default_rng(5))
        cfg = TrainingConfig(learning_rate=0.05, batch_size=len(pairs))
        k, feats = model.kernel_and_grad_batch(params, pairs.codes_a, pairs.codes_b)
        grad = (2.0 / len(pairs)) * ((k - pairs.targets)[:, None] * feats).sum(axis=0)
        assert np.all(grad != 0)
        new_params, _ = train_epoch(model, params, pairs, cfg, np.random.default_rng(2))
        step = cfg.learning_rate * np.abs(grad) / (np.abs(grad) + 1e-8)
        np.testing.assert_allclose(params - new_params, np.sign(grad) * step,
                                   rtol=1e-9, atol=0)

    def test_train_run_replays_train_epoch_calls(self):
        # moments restart in every epoch: a run is reproducible from
        # (params, rng) alone, epoch by epoch
        train = make_triplets(8, seed=1)
        test = make_triplets(8, seed=2)
        cfg = TrainingConfig(epochs=4, batch_size=3)
        model = ToyModel()
        curve, final = train_run(model, cfg, train, test, run_seed=42)
        rng = np.random.default_rng(42)
        params = model.init_params(rng)
        pairs = pairs_from_triplets(train)
        for record in curve.records[1:]:
            params, mse = train_epoch(model, params, pairs, cfg, rng)
            assert mse == record.train_mse
            assert order_accuracy(model, params, test) == record.test_order_accuracy
        np.testing.assert_array_equal(params, final)


class TestOrderAccuracy:
    def test_counts_sign_matches(self):
        t1 = LabeledTriplet("AAAA", "AAAT", "TTTT", 1, 4)  # s_ab > s_ac
        t2 = LabeledTriplet("CCCC", "CCCC", "CCGG", 0, 2)  # s_ab > s_ac
        table = {}
        for t, (k_ab, k_ac) in [(t1, (0.9, 0.2)), (t2, (0.1, 0.8))]:
            a, b, c = (tuple(encode_sequences([s])[0]) for s in (t.a, t.b, t.c))
            table[a, b] = k_ab
            table[a, c] = k_ac
        model = FixedKernelModel(table)
        # t1 ranked correctly, t2 inverted
        assert order_accuracy(model, np.zeros(1), TripletSet.of([t1, t2])) == 0.5

    def test_ground_truth_model_scores_one(self):
        triplets = make_triplets(6, seed=4)
        table = {}
        for t in triplets:
            a, b, c = (tuple(encode_sequences([s])[0]) for s in (t.a, t.b, t.c))
            table[a, b] = t.s_ab
            table[a, c] = t.s_ac
        model = FixedKernelModel(table)
        assert order_accuracy(model, np.zeros(1), triplets) == 1.0

    def test_predicted_tie_counts_incorrect(self):
        t = LabeledTriplet("AAAA", "AAAT", "TTTT", 1, 4)
        a, b, c = (tuple(encode_sequences([s])[0]) for s in (t.a, t.b, t.c))
        model = FixedKernelModel({(a, b): 0.5, (a, c): 0.5})
        assert order_accuracy(model, np.zeros(1), TripletSet.of([t])) == 0.0

    def test_ground_truth_tie_rejected(self):
        t = LabeledTriplet("AAAA", "AAAT", "AATA", 1, 1)
        with pytest.raises(ValueError, match="tie"):
            order_accuracy(ToyModel(), np.zeros(3), TripletSet.of([t]))

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            order_accuracy(ToyModel(), np.zeros(3), TripletSet.of([]))

    @pytest.mark.parametrize("name, ties", [("test", []), ("train", [309]), ("fresh", [366])])
    def test_committed_sets_exact_kernel_ties(self, name, ties):
        # a triplet whose (a, b) and (a, c) hold the same aligned letter
        # pairs, position order aside, is an exact tie of the invariant
        # kernel, so float rounding alone signs it; test.jsonl has none, so
        # its accuracies do not depend on the overlap's summation order
        pairs = pairs_from_triplets(load_triplets(ACCEPT_DIR / f"{name}.jsonl",
                                                  verify_fraction=0))
        aligned = 4 * pairs.codes_a.astype(np.int64) + pairs.codes_b
        tables = (aligned[:, :, None] == np.arange(16)).sum(axis=1)
        assert list(np.flatnonzero((tables[0::2] == tables[1::2]).all(axis=1))) == ties


def test_dataset_mse_rejects_empty_pairs():
    pairs, _ = toy_pairs(num=2)
    empty = PairSet(pairs.codes_a[:0], pairs.codes_b[:0], pairs.targets[:0])
    with pytest.raises(ValueError, match="empty pair set"):
        dataset_mse(ToyModel(), np.zeros(3), empty)


class TestOneCallPerSet:
    # each evaluation hands its whole set to one kernel_batch call; the
    # model bounds its own working set
    @pytest.fixture(params=[ClassicalKernelModel("rbf"), QuantumKernelModel(8, 2)],
                    ids=["classical", "quantum"])
    def counted(self, request, monkeypatch):
        model = request.param
        calls = []
        original = type(model).kernel_batch

        def counting(self, *args):
            calls.append(1)
            return original(self, *args)

        monkeypatch.setattr(type(model), "kernel_batch", counting)
        return model, calls

    def test_order_accuracy_one_call(self, counted):
        model, calls = counted
        test = load_triplets(ACCEPT_DIR / "test.jsonl", verify_fraction=0)
        assert len(test) == 3200
        order_accuracy(model, model.init_params(np.random.default_rng(0)), test)
        assert len(calls) == 1

    def test_dataset_mse_one_call(self, counted):
        model, calls = counted
        train = load_triplets(ACCEPT_DIR / "train.jsonl", verify_fraction=0)
        pairs = pairs_from_triplets(train)
        assert len(pairs) == 6400
        dataset_mse(model, model.init_params(np.random.default_rng(0)), pairs)
        assert len(calls) == 1


class TestTrainRun:
    def test_epochs_zero_single_initial_record(self):
        train = make_triplets(6, seed=1)
        test = make_triplets(6, seed=2)
        cfg = TrainingConfig(epochs=0)
        curve, params = train_run(ToyModel(), cfg, train, test, run_seed=11)
        assert len(curve.records) == 1
        rec = curve.records[0]
        assert rec.epoch == 0
        assert rec.best_so_far == rec.test_order_accuracy
        assert params.shape == (3,)

    def test_record_bookkeeping(self):
        train = make_triplets(8, seed=1)
        test = make_triplets(8, seed=2)
        cfg = TrainingConfig(epochs=4, batch_size=4)
        curve, _ = train_run(ToyModel(), cfg, train, test, run_seed=11, run_index=3)
        assert curve.run == 3
        assert curve.seed == 11
        assert [r.epoch for r in curve.records] == [0, 1, 2, 3, 4]
        running = 0.0
        for r in curve.records:
            running = max(running, r.test_order_accuracy)
            assert r.best_so_far == running
        assert curve.best == running

    def test_reproducible(self):
        train = make_triplets(6, seed=1)
        test = make_triplets(6, seed=2)
        cfg = TrainingConfig(epochs=3, batch_size=4)
        c1, p1 = train_run(ToyModel(), cfg, train, test, run_seed=42)
        c2, p2 = train_run(ToyModel(), cfg, train, test, run_seed=42)
        assert c1 == c2
        np.testing.assert_array_equal(p1, p2)

    def test_divergence_names_run_seed_and_epoch(self):
        train = make_triplets(6, seed=1)
        test = make_triplets(6, seed=2)
        with pytest.raises(TrainingDivergedError,
                           match=r"^run 4 \(seed 42\), epoch 1: non-finite gradient"):
            train_run(NaNGradModel(), TrainingConfig(epochs=3, batch_size=4),
                      train, test, run_seed=42, run_index=4)

    def test_sequences_encoded_once_per_run(self, monkeypatch):
        # the train and test pairs are built once, whatever the epoch count
        calls = []
        build = training.pairs_from_triplets

        def counting_build(triplets):
            calls.append(1)
            return build(triplets)

        monkeypatch.setattr(training, "pairs_from_triplets", counting_build)
        train = make_triplets(6, seed=1)
        test = make_triplets(6, seed=2)
        counts = []
        for epochs in (1, 4):
            calls.clear()
            train_run(ToyModel(), TrainingConfig(epochs=epochs, batch_size=4),
                      train, test, run_seed=42)
            counts.append(len(calls))
        assert counts == [2, 2]

    @pytest.mark.parametrize("head", ["cosine", "rbf", "poly2"])
    def test_committed_classical_epoch0_reproduced(self, head):
        # the epoch-0 row of every committed ck_* run follows from init_params
        # and the run seed in its manifest alone
        train = load_triplets(ACCEPT_DIR / "train.jsonl", verify_fraction=0)
        test = load_triplets(ACCEPT_DIR / "test.jsonl", verify_fraction=0)
        pairs = pairs_from_triplets(train)
        manifest = json.loads(
            (ACCEPT_DIR / f"ck_{head}_curves.csv.manifest.json").read_text())
        curves = load_curves(ACCEPT_DIR / f"ck_{head}_curves.csv")
        model = ClassicalKernelModel(head, seq_length=train[0].length)
        assert len(manifest["seeds"]) == len(curves)
        for seed, curve in zip(manifest["seeds"], curves):
            params = model.init_params(np.random.default_rng(seed))
            first = curve.records[0]
            assert dataset_mse(model, params, pairs) == first.train_mse
            assert order_accuracy(model, params, test) == first.test_order_accuracy

    @pytest.mark.parametrize("head", ["cosine", "rbf", "poly2"])
    def test_committed_classical_checkpoints_reproduced(self, head):
        # every committed ck_* final checkpoint scores its curve's last
        # accuracy exactly
        test = load_triplets(ACCEPT_DIR / "test.jsonl", verify_fraction=0)
        checkpoints = json.loads(
            (ACCEPT_DIR / f"ck_{head}_checkpoints.json").read_text())["runs"]
        curves = load_curves(ACCEPT_DIR / f"ck_{head}_curves.csv")
        model = ClassicalKernelModel(head, seq_length=test[0].length)
        assert len(checkpoints) == len(curves)
        for ckpt, curve in zip(checkpoints, curves):
            last = curve.records[-1]
            assert ckpt["epoch"] == last.epoch
            params = np.asarray(ckpt["params"])
            assert order_accuracy(model, params, test) == last.test_order_accuracy

    @pytest.mark.parametrize("head", ["cosine", "rbf", "poly2"])
    def test_committed_classical_epoch1_reproduced(self, head):
        # the classical training path pinned to the committed bytes: run 0 of
        # each ck_* head, initialized from its manifest seed, takes one
        # train_epoch to the committed epoch-1 row exactly
        train = load_triplets(ACCEPT_DIR / "train.jsonl", verify_fraction=0)
        test = load_triplets(ACCEPT_DIR / "test.jsonl", verify_fraction=0)
        manifest = json.loads(
            (ACCEPT_DIR / f"ck_{head}_curves.csv.manifest.json").read_text())
        config = manifest["config"]
        row = load_curves(ACCEPT_DIR / f"ck_{head}_curves.csv")[0].records[1]
        model = ClassicalKernelModel(head, seq_length=train[0].length)
        rng = np.random.default_rng(manifest["seeds"][0])
        params, train_mse = train_epoch(
            model, model.init_params(rng), pairs_from_triplets(train),
            TrainingConfig(learning_rate=config["lr"], batch_size=config["batch"]), rng)
        assert row.epoch == 1
        assert train_mse == row.train_mse
        assert order_accuracy(model, params, test) == row.test_order_accuracy

    @staticmethod
    def _quantum_epoch1(layers):
        """Run 0 of qk{layers}, initialized from its manifest seed and taken
        through one train_epoch: (committed epoch-1 row, train_mse, test
        accuracy)."""
        train = load_triplets(ACCEPT_DIR / "train.jsonl", verify_fraction=0)
        test = load_triplets(ACCEPT_DIR / "test.jsonl", verify_fraction=0)
        manifest = json.loads((ACCEPT_DIR / f"qk{layers}_curves.csv.manifest.json").read_text())
        config = manifest["config"]
        row = load_curves(ACCEPT_DIR / f"qk{layers}_curves.csv")[0].records[1]
        model = QuantumKernelModel(train[0].length, config["layers"])
        rng = np.random.default_rng(manifest["seeds"][0])
        params, train_mse = train_epoch(
            model, model.init_params(rng), pairs_from_triplets(train),
            TrainingConfig(learning_rate=config["lr"], batch_size=config["batch"]), rng)
        return row, train_mse, order_accuracy(model, params, test)

    def test_committed_quantum_epoch1_reproduced(self):
        # the training path pinned to the committed bytes: run 0 of qk6 takes
        # one train_epoch to the committed epoch-1 row exactly
        row, train_mse, accuracy = self._quantum_epoch1(6)
        assert row.epoch == 1
        assert train_mse == row.train_mse == 0.059200911652415165
        assert accuracy == row.test_order_accuracy

    def test_committed_qk24_epoch1_reproduced(self):
        # the same at L = 24, where summation-order drift grows fastest
        row, train_mse, accuracy = self._quantum_epoch1(24)
        assert row.epoch == 1
        assert train_mse == row.train_mse
        assert accuracy == row.test_order_accuracy

    @pytest.mark.parametrize("layers", [6, 12, 24])
    def test_committed_quantum_runs_reproduced(self, layers):
        # every committed qk* run: its final checkpoint scores the curve's
        # last accuracy exactly, and its epoch-0 row follows exactly from
        # the run seed in the manifest
        train = load_triplets(ACCEPT_DIR / "train.jsonl", verify_fraction=0)
        test = load_triplets(ACCEPT_DIR / "test.jsonl", verify_fraction=0)
        pairs = pairs_from_triplets(train)
        manifest = json.loads(
            (ACCEPT_DIR / f"qk{layers}_curves.csv.manifest.json").read_text())
        checkpoints = json.loads(
            (ACCEPT_DIR / f"qk{layers}_checkpoints.json").read_text())["runs"]
        curves = load_curves(ACCEPT_DIR / f"qk{layers}_curves.csv")
        model = QuantumKernelModel(train[0].length, layers)
        assert len(manifest["seeds"]) == len(checkpoints) == len(curves)
        for seed, ckpt, curve in zip(manifest["seeds"], checkpoints, curves):
            first, last = curve.records[0], curve.records[-1]
            assert ckpt["seed"] == seed and ckpt["epoch"] == last.epoch
            theta = np.asarray(ckpt["theta"])
            assert order_accuracy(model, theta, test) == last.test_order_accuracy
            params = model.init_params(np.random.default_rng(seed))
            assert order_accuracy(model, params, test) == first.test_order_accuracy
            assert dataset_mse(model, params, pairs) == first.train_mse


class TestAggregate:
    @staticmethod
    def _curve(run, bests):
        records = tuple(
            CurveRecord(e, 0.1, b, max(bests[: e + 1])) for e, b in enumerate(bests)
        )
        return LearningCurve(run, run, records)

    def test_mean_and_halfwidth(self):
        summary = aggregate_runs([self._curve(0, [0.6, 0.7]), self._curve(1, [0.6, 0.8])])
        assert summary["per_run_best"] == [0.7, 0.8]
        assert summary["mean_best"] == pytest.approx(0.75)
        sd = np.std([0.7, 0.8], ddof=1)
        expected_hw = stats.t.ppf(0.975, 1) * sd / np.sqrt(2)
        assert summary["ci95_halfwidth"] == pytest.approx(expected_hw)
        assert "note" not in summary

    def test_identical_runs_zero_halfwidth(self):
        curves = [self._curve(i, [0.5, 0.72]) for i in range(4)]
        summary = aggregate_runs(curves)
        assert summary["ci95_halfwidth"] == 0.0
        assert summary["mean_best"] == pytest.approx(0.72)

    def test_mean_best_so_far_curve(self):
        summary = aggregate_runs([self._curve(0, [0.2, 0.6]), self._curve(1, [0.4, 0.4])])
        assert summary["mean_best_so_far"] == pytest.approx([0.3, 0.5])

    def test_single_run_summary(self):
        curve = self._curve(0, [0.5, 0.4, 0.7])
        summary = aggregate_runs([curve])
        assert "ci95_halfwidth" not in summary
        assert "at least 2" in summary["note"]
        assert summary["per_run_best"] == [0.7]
        assert summary["mean_best"] == 0.7
        assert summary["mean_best_so_far"] == [r.best_so_far for r in curve.records]

    def test_no_runs_rejected(self):
        with pytest.raises(ValueError, match="no runs"):
            aggregate_runs([])

    def test_ragged_runs_rejected(self):
        with pytest.raises(ValueError, match="differing"):
            aggregate_runs([self._curve(0, [0.5]), self._curve(1, [0.5, 0.6])])

    @pytest.mark.parametrize("prefix", ["qk6", "qk12", "qk24",
                                        "ck_cosine", "ck_rbf", "ck_poly2"])
    def test_committed_summaries_reproduced(self, tmp_path, prefix):
        # the summaries train-quantum/train-classical wrote are recomputed
        # byte for byte from their curve files alone
        out = tmp_path / "summary.json"
        save_json(out, aggregate_runs(load_curves(ACCEPT_DIR / f"{prefix}_curves.csv")))
        assert out.read_bytes() == (ACCEPT_DIR / f"{prefix}_curves.summary.json").read_bytes()


class TestRunExperiment:
    def test_runs_and_determinism(self):
        train = make_triplets(6, seed=1)
        test = make_triplets(6, seed=2)
        cfg = TrainingConfig(epochs=2, batch_size=4, runs=3, seed=99)
        curves, finals = run_experiment(ToyModel(), cfg, train, test)
        assert [c.run for c in curves] == [0, 1, 2]
        assert len({c.seed for c in curves}) == 3
        assert len(finals) == 3
        curves2, _ = run_experiment(ToyModel(), cfg, train, test)
        assert curves == curves2

    def test_parallel_matches_serial(self):
        train = make_triplets(5, seed=1)
        test = make_triplets(5, seed=2)
        cfg = TrainingConfig(epochs=1, batch_size=4, runs=2, seed=7)
        serial, _ = run_experiment(ToyModel(), cfg, train, test, jobs=1)
        parallel, _ = run_experiment(ToyModel(), cfg, train, test, jobs=2)
        assert serial == parallel


class TestCurveIO:
    def test_round_trip_exact(self, tmp_path):
        train = make_triplets(5, seed=1)
        test = make_triplets(5, seed=2)
        cfg = TrainingConfig(epochs=2, batch_size=4, runs=2, seed=5)
        curves, _ = run_experiment(ToyModel(), cfg, train, test)
        path = tmp_path / "curves.csv"
        save_curves(path, curves)
        loaded = load_curves(path)
        assert len(loaded) == len(curves)
        for got, want in zip(loaded, curves):
            assert got.run == want.run
            assert got.records == want.records

    def test_header_written(self, tmp_path):
        path = tmp_path / "curves.csv"
        save_curves(path, [])
        assert path.read_text() == CURVE_HEADER + "\n"

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "curves.csv"
        path.write_text("run,epoch\n")
        with pytest.raises(ValueError, match="header"):
            load_curves(path)

    def test_no_rows_rejected(self, tmp_path):
        path = tmp_path / "curves.csv"
        save_curves(path, [])
        with pytest.raises(ValueError, match="no learning curves"):
            load_curves(path)

    def test_bad_field_count_rejected(self, tmp_path):
        path = tmp_path / "curves.csv"
        path.write_text(CURVE_HEADER + "\n0,1,0.5\n")
        with pytest.raises(ValueError, match="5 fields"):
            load_curves(path)

    @pytest.mark.parametrize("epochs", [[0, 2, 1, 1], [1, 2], [0, 1, 1], [0, 0]])
    def test_epochs_out_of_order_rejected(self, tmp_path, epochs):
        # a run whose rows skip, repeat or reorder epochs has no best-so-far
        # curve to report; run 0 is well formed, so the error is run 1's
        path = tmp_path / "curves.csv"
        rows = [f"0,{e},0.1,0.5,0.5" for e in range(len(epochs))]
        rows += [f"1,{e},0.1,0.9,0.9" for e in epochs]
        path.write_text("\n".join([CURVE_HEADER, *rows]) + "\n")
        bad = next(i for i, e in enumerate(epochs) if e != i)
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: line "
                           rf"{len(epochs) + bad + 2}: run 1 has epoch {epochs[bad]}, not {bad}$"):
            load_curves(path)

    @pytest.mark.parametrize("row", ["0,0,zz,0.5,0.5", "0,0.5,0.1,0.5,0.5", "x,0,0.1,0.5,0.5",
                                     "0,0,0.1,,0.5"])
    def test_non_numeric_field_rejected(self, tmp_path, row):
        path = tmp_path / "curves.csv"
        path.write_text(f"{CURVE_HEADER}\n0,0,0.1,0.5,0.5\n{row}\n")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: line 3: non-numeric"):
            load_curves(path)

    @pytest.mark.parametrize("row", ["0,1,nan,0.5,0.5", "0,1,0.1,inf,0.5", "0,1,0.1,0.5,-inf"])
    def test_non_finite_field_rejected(self, tmp_path, row):
        path = tmp_path / "curves.csv"
        path.write_text(f"{CURVE_HEADER}\n0,0,0.1,0.5,0.5\n{row}\n")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: line 3: non-finite"):
            load_curves(path)

    def test_no_tmp_left_behind(self, tmp_path):
        path = tmp_path / "curves.csv"
        save_curves(path, [])
        save_json(tmp_path / "s.json", {"a": 1})
        leftovers = [p for p in tmp_path.iterdir() if ".tmp." in p.name]
        assert leftovers == []

    def test_save_json_sorted(self, tmp_path):
        path = tmp_path / "s.json"
        save_json(path, {"b": 2, "a": 1})
        text = path.read_text()
        assert text.index('"a"') < text.index('"b"')
        assert text.endswith("\n")


class TestRealModels:
    def test_quantum_smoke(self):
        train = make_triplets(4, length=3, seed=1)
        test = make_triplets(4, length=3, seed=2)
        model = QuantumKernelModel(num_qubits=3, num_layers=1)
        cfg = TrainingConfig(epochs=2, batch_size=4)
        curve, params = train_run(model, cfg, train, test, run_seed=0)
        assert len(curve.records) == 3
        for r in curve.records:
            assert np.isfinite(r.train_mse)
            assert 0.0 <= r.test_order_accuracy <= 1.0
        assert params.shape == (3,)

    def test_classical_smoke(self):
        train = make_triplets(4, length=3, seed=1)
        test = make_triplets(4, length=3, seed=2)
        model = ClassicalKernelModel(seq_length=3, head="rbf")
        cfg = TrainingConfig(epochs=2, batch_size=4)
        curve, params = train_run(model, cfg, train, test, run_seed=0)
        assert len(curve.records) == 3
        for r in curve.records:
            assert np.isfinite(r.train_mse)
        assert params.shape == (model.num_parameters,)

"""Shared training protocol: pair regression on similarity labels, ranking eval.

Both kernel families train the same way: minimize the mean squared error
between kernel outputs and the normalized EDM similarities over the two
labeled pairs of every training triplet with mini-batch Adam, then score
test triplets by whether the kernel orders (a,b) against (a,c) the same way
the ground truth does.
A model here is anything with init_params / kernel_batch /
kernel_and_grad_batch over code arrays and a flat parameter vector, where
kernel_and_grad_batch(params, codes_a, codes_b, cotangent) returns the
kernel values K and the gradient of sum_r w_r K_r, w = cotangent(K). Only
``mse`` here knows the loss: its cotangent is the batch MSE's dloss/dK.
The quantum model's per-row form without a cotangent exists only for the
benchmark's train_quantum correctness check.
Triplet sets arrive as ``dataset.TripletSet``, whose letter-code and
distance arrays the pair layout reads directly: no ``LabeledTriplet`` is
built to train or rank.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from dnakernel.dataset import TripletSet, pool_starmap, write_atomic

# pairs per partial sum of dataset_mse; fixes its float summation order,
# which the committed train_mse values record
EVAL_CHUNK = 1024

# Adam constants of train_epoch; "optimizer" in the training manifests
OPTIMIZER = "adam"
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

CURVE_HEADER = "run,epoch,train_mse,test_order_accuracy,best_so_far"


class TrainingDivergedError(RuntimeError):
    """Non-finite loss or gradient encountered during training."""


@dataclass(frozen=True)
class TrainingConfig:
    learning_rate: float = 0.01
    epochs: int = 100
    batch_size: int = 32
    runs: int = 3
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.learning_rate < math.inf:
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.runs < 1:
            raise ValueError(f"runs must be >= 1, got {self.runs}")


@dataclass(frozen=True)
class CurveRecord:
    epoch: int
    train_mse: float
    test_order_accuracy: float
    best_so_far: float


@dataclass(frozen=True)
class LearningCurve:
    run: int
    seed: int
    records: tuple

    @property
    def best(self) -> float:
        return self.records[-1].best_so_far


@dataclass(frozen=True)
class PairSet:
    """Labeled pairs as aligned code arrays plus similarity targets.

    Rows 2i and 2i + 1 are the pairs (a, b) and (a, c) of triplet i.
    """

    codes_a: np.ndarray
    codes_b: np.ndarray
    targets: np.ndarray

    def __len__(self) -> int:
        return self.targets.shape[0]


def pairs_from_triplets(triplets: TripletSet) -> PairSet:
    """Two labeled pairs per triplet: (a, b, s_ab) and (a, c, s_ac).

    Pure array work on the set: every a's codes twice, the b and c codes
    row by row, and the targets (n - d) / n over the distance array, the
    same doubles as s_ab and s_ac.
    """
    if not triplets:
        raise ValueError("empty triplet list")
    codes, n = triplets.codes, triplets.length
    return PairSet(np.repeat(codes[:, 0], 2, axis=0), codes[:, 1:].reshape(-1, n),
                   ((n - triplets.distances) / n).reshape(-1))


def mse(targets):
    """The batch MSE's cotangent, values K -> (2 / batch)(K - targets)."""
    targets = np.asarray(targets, dtype=np.float64)
    if not targets.size:
        raise ValueError("the batch MSE needs at least one pair, got an empty batch")

    def cotangent(values):
        if np.shape(values) != targets.shape:
            raise ValueError(f"expected {len(values)} targets, got shape {targets.shape}")
        return (2.0 / len(values)) * (values - targets)

    return cotangent


def dataset_mse(model, params, pairs: PairSet) -> float:
    """Mean squared error over a pair set without updating parameters.

    One kernel_batch call covers every pair; the squared residuals are then
    summed EVAL_CHUNK pairs at a time, in order.
    """
    if len(pairs) == 0:
        raise ValueError("empty pair set")
    sq = (model.kernel_batch(params, pairs.codes_a, pairs.codes_b) - pairs.targets) ** 2
    return sum(float(np.sum(sq[lo : lo + EVAL_CHUNK]))
               for lo in range(0, len(pairs), EVAL_CHUNK)) / len(pairs)


def train_epoch(model, params, pairs: PairSet, config: TrainingConfig, rng):
    """One pass of shuffled mini-batches with exact gradients and Adam steps.

    Returns (updated params, epoch mean MSE). Each step follows the batch
    MSE's gradient, through ``mse``'s cotangent. The Adam moments
    (Kingma & Ba, arXiv:1412.6980; beta1 0.9, beta2 0.999, eps 1e-8,
    step size config.learning_rate) start from zero in every call, so an
    epoch depends only on (params, rng). The adaptive step matters at depth:
    freshly initialized 24-layer kernels sit near zero with batch gradients
    around 1e-2, where a plain lr * grad step barely moves the angles.
    """
    if len(pairs) == 0:
        raise ValueError("empty training pair set")
    params = np.asarray(params, dtype=np.float64).copy()
    first = np.zeros_like(params)
    second = np.zeros_like(params)
    order = rng.permutation(len(pairs))
    total_loss = 0.0
    for step, lo in enumerate(range(0, len(pairs), config.batch_size), start=1):
        idx = order[lo : lo + config.batch_size]
        targets = pairs.targets[idx]
        # a diverging model overflows here; the check below reports it
        with np.errstate(over="ignore", invalid="ignore"):
            k, grad = model.kernel_and_grad_batch(params, pairs.codes_a[idx],
                                                  pairs.codes_b[idx], mse(targets))
        total_loss += float(np.sum((k - targets) ** 2))
        if not np.isfinite(grad).all():
            raise TrainingDivergedError(f"non-finite gradient in batch starting at pair {lo}")
        first = ADAM_BETA1 * first + (1.0 - ADAM_BETA1) * grad
        second = ADAM_BETA2 * second + (1.0 - ADAM_BETA2) * grad**2
        first_hat = first / (1.0 - ADAM_BETA1**step)
        second_hat = second / (1.0 - ADAM_BETA2**step)
        params -= config.learning_rate * first_hat / (np.sqrt(second_hat) + ADAM_EPS)
    return params, total_loss / len(pairs)


def order_accuracy(model, params, triplets: TripletSet) -> float:
    """Fraction of triplets whose kernel ranking matches the ground truth.

    A predicted exact tie counts as incorrect; a ground-truth tie is a
    dataset defect and rejected. A triplet whose (a, b) and (a, c) hold the
    same aligned letter pairs in another position order is an exact tie of
    the permutation-invariant quantum kernel, so float rounding alone
    decides its predicted sign: the committed test set holds none, train
    and fresh one each.
    """
    return _pair_order_accuracy(model, params, pairs_from_triplets(triplets))


def _pair_order_accuracy(model, params, pairs: PairSet) -> float:
    """order_accuracy over the pair set of the triplets.

    One kernel_batch call gets every pair row, (a, b) and (a, c)
    interleaved, so it sees the set's a, b and c together (the quantum
    kernel simulates each of their compositions once, and each model
    bounds its own working set); k[0::2] and k[1::2] are then the (a, b)
    and (a, c) values.
    """
    t = pairs.targets
    truth = np.sign(t[0::2] - t[1::2])
    if np.any(truth == 0):
        raise ValueError("ground-truth tie: order accuracy is undefined")
    # a diverging model's non-finite values count as incorrect, like a
    # predicted tie; train_epoch's finiteness check reports the divergence
    with np.errstate(over="ignore", invalid="ignore"):
        k = model.kernel_batch(params, pairs.codes_a, pairs.codes_b)
        predicted = np.sign(k[0::2] - k[1::2])
    return int(np.sum(predicted == truth)) / truth.size


def train_run(model, config: TrainingConfig, train_triplets: TripletSet,
              test_triplets: TripletSet, run_seed: int, run_index: int):
    """One full training run, evaluated on the test set after every epoch.

    Returns (curve, final flat parameters). The curve always starts with an
    epoch-0 record of the freshly initialized model, so even epochs=0 yields
    one evaluation. A diverged epoch raises TrainingDivergedError naming
    the run index, the run seed and the epoch.
    """
    rng = np.random.default_rng(run_seed)
    params = model.init_params(rng)
    pairs = pairs_from_triplets(train_triplets)
    test_pairs = pairs_from_triplets(test_triplets)
    records = []
    acc = _pair_order_accuracy(model, params, test_pairs)
    best = acc
    records.append(CurveRecord(0, dataset_mse(model, params, pairs), acc, best))
    for epoch in range(1, config.epochs + 1):
        try:
            params, train_mse = train_epoch(model, params, pairs, config, rng)
        except TrainingDivergedError as exc:
            raise TrainingDivergedError(
                f"run {run_index} (seed {run_seed}), epoch {epoch}: {exc}"
            ) from exc
        acc = _pair_order_accuracy(model, params, test_pairs)
        best = max(best, acc)
        records.append(CurveRecord(epoch, train_mse, acc, best))
    curve = LearningCurve(run_index, run_seed, tuple(records))
    return curve, params


def aggregate_runs(curves) -> dict:
    """Summary of independent runs, as written to ``*.summary.json``.

    Holds the per-run and mean best accuracies and the best-so-far curve
    averaged across runs; the Student-t 95% interval of the mean needs at
    least 2 runs, and a single run gets a note in its place.
    """
    if not curves:
        raise ValueError("no runs to summarize")
    lengths = {len(c.records) for c in curves}
    if len(lengths) != 1:
        raise ValueError("runs have differing epoch counts")
    bests = np.array([c.best for c in curves])
    per_epoch = np.array([[r.best_so_far for r in c.records] for c in curves])
    summary = {
        "per_run_best": [float(b) for b in bests],
        "mean_best": float(bests.mean()),
        "mean_best_so_far": [float(v) for v in per_epoch.mean(axis=0)],
    }
    if len(bests) < 2:
        summary["note"] = "confidence interval omitted: requires at least 2 runs"
    else:
        from scipy import stats  # imported here: it adds about 1 s to every CLI start
        sd = float(bests.std(ddof=1))
        tcrit = float(stats.t.ppf(0.975, len(bests) - 1))
        summary["ci95_halfwidth"] = float(tcrit * sd / np.sqrt(len(bests)))
    return summary


def run_experiment(model, config: TrainingConfig, train_triplets: TripletSet,
                   test_triplets: TripletSet, jobs: int = 1):
    """Independent runs with per-run child seeds; returns (curves, params list)."""
    run_seeds = [
        int(ss.generate_state(1)[0])
        for ss in np.random.SeedSequence(config.seed).spawn(config.runs)
    ]
    args = [
        (model, config, train_triplets, test_triplets, seed, i)
        for i, seed in enumerate(run_seeds)
    ]
    results = pool_starmap(train_run, args, jobs)
    return [r[0] for r in results], [r[1] for r in results]


def save_curves(path, curves) -> None:
    """Learning curves as delimited text, one row per (run, epoch)."""
    rows = [
        f"{c.run},{r.epoch},{r.train_mse!r},{r.test_order_accuracy!r},{r.best_so_far!r}\n"
        for c in curves
        for r in c.records
    ]
    write_atomic(path, CURVE_HEADER + "\n" + "".join(rows))


def load_curves(path):
    """Read a curve file back into LearningCurve objects (seeds not stored);
    each run's epochs must read 0, 1, 2, ... and every field be a finite number."""
    runs: dict[int, list] = {}
    with open(path) as fh:
        header = fh.readline().strip()
        if header != CURVE_HEADER:
            raise ValueError(f"{path}: unexpected header {header!r}")
        for lineno, line in enumerate(fh, start=2):
            where, parts = f"{path}: line {lineno}", line.strip().split(",")
            if len(parts) != 5:
                raise ValueError(f"{where}: expected 5 fields")
            try:
                run, epoch, *values = int(parts[0]), int(parts[1]), *map(float, parts[2:])
            except ValueError:
                raise ValueError(f"{where}: non-numeric field") from None
            if not all(map(math.isfinite, values)):
                raise ValueError(f"{where}: non-finite field")
            records = runs.setdefault(run, [])
            if epoch != len(records):
                raise ValueError(f"{where}: run {run} has epoch {epoch}, not {len(records)}")
            records.append(CurveRecord(epoch, *values))
    if not runs:
        raise ValueError(f"{path}: no learning curves found")
    return [LearningCurve(run, -1, tuple(records)) for run, records in sorted(runs.items())]


def save_json(path, payload: dict) -> None:
    write_atomic(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")

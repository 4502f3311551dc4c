#!/usr/bin/env python3
"""Full model comparison: quantum kernels at 3 depths vs classical baselines.

This file is the one written record of the experiment protocol: three
labelled triplet sets (train, test, and a fresh set for the untrained-kernel
calibration), six models (the quantum kernel with 6, 12 and 24 layers; the
classical deep kernels with cosine, RBF and degree-2 polynomial heads), their
frozen seeds, and the dataset scale. The training scale is the default
TrainingConfig, which the command line also uses. The acceptance fixtures in
tests/test_acceptance.py call the functions below with these tables.

Every step runs one command of the pipeline, and every command writes a
manifest. A step is skipped when its manifest records the command and
configuration the step would run and every file it lists matches its hash,
so an interrupted run resumes at the first missing or stale step, and a run
on a finished directory only prints the report. The default run writes to
results/comparison the same datasets, curves, checkpoints and summaries as
the committed results/acceptance (about one CPU-hour);
``--out-dir results/acceptance`` verifies the committed set in seconds.
Smaller ``--count/--length/--epochs/--runs`` give a smoke pass. Set the
worker count with the DNAKERNEL_JOBS environment variable; outputs do not
depend on it.
"""

import argparse
import hashlib
import json
import os
from collections import namedtuple
from pathlib import Path

from dnakernel.cli import main as cli_main
from dnakernel.training import OPTIMIZER, TrainingConfig

DATASETS = {"train": 101, "test": 202, "fresh": 303}
SHAPE = {"count": 3200, "length": 8}
_defaults = TrainingConfig()
TRAINING = {"epochs": _defaults.epochs, "batch": _defaults.batch_size,
            "lr": _defaults.learning_rate, "runs": _defaults.runs}

Model = namedtuple("Model", "label prefix command config seed")
MODELS = (
    Model("QKernel-6", "qk6", "train-quantum", {"layers": 6}, 13),
    Model("QKernel-12", "qk12", "train-quantum", {"layers": 12}, 12),
    Model("QKernel-24", "qk24", "train-quantum", {"layers": 24}, 11),
    Model("CKernel-cosine", "ck_cosine", "train-classical", {"kernel": "cosine"}, 21),
    Model("CKernel-rbf", "ck_rbf", "train-classical", {"kernel": "rbf"}, 22),
    Model("CKernel-poly2", "ck_poly2", "train-classical", {"kernel": "poly2"}, 23),
)


def run_cli(argv):
    # paths go in relative to the working directory, so the manifests they
    # end up in do not depend on where the checkout lives
    argv = [os.path.relpath(a) if isinstance(a, Path) else str(a) for a in argv]
    if cli_main(argv) != 0:
        raise RuntimeError(f"pipeline command failed: {argv}")


def _flags(config):
    return [item for key, value in config.items() for item in (f"--{key}", value)]


def artifacts_ok(manifest_owner, expected_paths, command, config):
    """True when the manifest records this command and config, and every
    expected file matches its hash.

    ``config`` holds the manifest config entries the caller would run with;
    the "train" and "test" entries are compared by file name. Entries not
    named (such as "jobs", which leaves the output unchanged) are ignored.
    """
    manifest_path = Path(f"{manifest_owner}.manifest.json")
    if not manifest_path.exists():
        return False
    try:
        manifest = json.loads(manifest_path.read_text())
        recorded = manifest["config"]
        entries = {Path(a["path"]).name: a["sha256"] for a in manifest["artifacts"]}
    except (ValueError, KeyError, TypeError):
        return False
    if manifest.get("command") != command:
        return False
    for key, want in config.items():
        got = recorded.get(key)
        if key in ("train", "test"):
            got = None if got is None else Path(got).name
            want = Path(want).name
        if got != want:
            return False
    for path in expected_paths:
        path = Path(path)
        want = entries.get(path.name)
        if want is None or not path.exists():
            return False
        if hashlib.sha256(path.read_bytes()).hexdigest() != want:
            return False
    return True


def ensure_dataset(directory, name, seed, shape=SHAPE):
    """Path of one triplet set, generating it unless the file on disk was
    made by this exact seed and shape."""
    Path(directory).mkdir(parents=True, exist_ok=True)
    out = Path(directory) / f"{name}.jsonl"
    config = {"seed": seed, **shape}
    if not artifacts_ok(out, [out], "gen-data", config):
        run_cli(["gen-data", *_flags(config), "--out", out])
    return out


def ensure_training(directory, model, datasets, training=TRAINING):
    """Summary of one trained model, retraining unless the artifacts on disk
    were made by this exact command, training scale, seed and model."""
    curves = Path(directory) / f"{model.prefix}_curves.csv"
    checkpoints = Path(directory) / f"{model.prefix}_checkpoints.json"
    summary = Path(directory) / f"{model.prefix}_curves.summary.json"
    flags = {**training, "seed": model.seed, **model.config}
    recorded = {**flags, "train": datasets["train"], "test": datasets["test"],
                "optimizer": OPTIMIZER}
    if not artifacts_ok(curves, [curves, checkpoints, summary], model.command, recorded):
        run_cli([model.command, "--train", datasets["train"], "--test", datasets["test"],
                 *_flags(flags),
                 "--out-curves", curves, "--out-checkpoints", checkpoints])
    return json.loads(summary.read_text())


def run(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out-dir", type=Path, default=Path("results/comparison"))
    parser.add_argument("--count", type=int, default=SHAPE["count"])
    parser.add_argument("--length", type=int, default=SHAPE["length"])
    parser.add_argument("--epochs", type=int, default=TRAINING["epochs"])
    parser.add_argument("--runs", type=int, default=TRAINING["runs"])
    args = parser.parse_args(argv)

    shape = {"count": args.count, "length": args.length}
    training = {**TRAINING, "epochs": args.epochs, "runs": args.runs}
    datasets = {name: ensure_dataset(args.out_dir, name, seed, shape)
                for name, seed in DATASETS.items()}
    for model in MODELS:
        ensure_training(args.out_dir, model, datasets, training)
    curves = [f"{model.label}={os.path.relpath(args.out_dir / f'{model.prefix}_curves.csv')}"
              for model in MODELS]
    run_cli(["report", "--curves", *curves])


if __name__ == "__main__":
    run()

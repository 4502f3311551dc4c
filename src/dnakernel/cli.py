"""Command-line pipeline: dataset generation, training, distances, reports.

Every command that produces files also writes a manifest next to them with
the full flag configuration, the seeds actually used, and a sha256 hash of
each artifact, so an experiment directory is self-describing and reruns are
checkable byte for byte.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import time

from dnakernel.baselines import HEADS, ClassicalKernelModel
from dnakernel.dataset import generate_triplets, load_triplets, save_triplets
from dnakernel.edm import BudgetExceededError, edm_exact
from dnakernel.kernel import QuantumKernelModel
from dnakernel.training import (
    OPTIMIZER,
    TrainingConfig,
    TrainingDivergedError,
    aggregate_runs,
    load_curves,
    run_experiment,
    save_curves,
    save_json,
)

JOBS_ENV_VAR = "DNAKERNEL_JOBS"


def _resolve_jobs(flag) -> int:
    """Worker count: ``--jobs``, else the DNAKERNEL_JOBS variable, else 1."""
    if flag is None:
        source, raw = JOBS_ENV_VAR, os.environ.get(JOBS_ENV_VAR, "1")
    else:
        source, raw = "--jobs", flag
    try:
        jobs = int(raw)
    except ValueError:
        raise ValueError(f"{source} must be an integer, got {raw!r}")
    if jobs < 1:
        raise ValueError(f"{source} must be >= 1, got {jobs}")
    return jobs


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _artifact_entry(path) -> dict:
    return {
        "path": str(path),
        "sha256": _sha256(path),
        "bytes": os.path.getsize(path),
    }


# parsed names that are not settings: the subcommand, its handler, and the
# output files, which the manifest lists with their hashes
_NOT_CONFIG = ("command", "func", "out", "out_curves", "out_checkpoints")


def write_manifest(out_path, args, seeds, artifacts, timings: dict, **derived) -> str:
    """Manifest describing one command invocation; returns its path.

    Its config is the parsed command line without the output files, plus the
    ``derived`` facts that the flags do not show.
    """
    config = {k: v for k, v in vars(args).items() if k not in _NOT_CONFIG}
    manifest = {
        "command": args.command,
        "config": {**config, **derived},
        "seeds": list(seeds),
        "artifacts": [_artifact_entry(p) for p in artifacts],
        "timings_seconds": {k: round(v, 3) for k, v in timings.items()},
    }
    path = f"{out_path}.manifest.json"
    save_json(path, manifest)
    return path


def cmd_gen_data(args) -> int:
    t0 = time.perf_counter()
    triplets = generate_triplets(args.seed, args.count, args.length, jobs=args.jobs)
    t1 = time.perf_counter()
    save_triplets(triplets, args.out)
    t2 = time.perf_counter()
    timings = {"label": t1 - t0, "save": t2 - t1, "total": t2 - t0}
    write_manifest(args.out, args, [args.seed], [args.out], timings)
    print(f"wrote {len(triplets)} triplets to {args.out}")
    return 0


def _train_command(args, make_model) -> int:
    """Load both triplet files once, then train ``make_model(sequence length)``."""
    t0 = time.perf_counter()
    train_set = load_triplets(args.train)
    test_set = load_triplets(args.test)
    load_seconds = time.perf_counter() - t0
    length = train_set.length
    if test_set.length != length:
        raise ValueError(
            f"test file {args.test} holds length-{test_set.length} sequences, "
            f"train file {args.train} length-{length}"
        )
    model = make_model(length)

    config = TrainingConfig(
        learning_rate=args.lr,
        epochs=args.epochs,
        batch_size=args.batch,
        runs=args.runs,
        seed=args.seed,
    )
    t1 = time.perf_counter()
    curves, finals = run_experiment(model, config, train_set, test_set,
                                    jobs=args.jobs)
    train_seconds = time.perf_counter() - t1

    save_curves(args.out_curves, curves)
    checkpoints = {
        "runs": [
            model.checkpoint_payload(flat, curve.seed, curve.records[-1].epoch)
            for curve, flat in zip(curves, finals)
        ]
    }
    save_json(args.out_checkpoints, checkpoints)

    summary = aggregate_runs(curves)
    summary_path = f"{os.path.splitext(args.out_curves)[0]}.summary.json"
    save_json(summary_path, summary)

    write_manifest(
        args.out_curves,
        args,
        [c.seed for c in curves],
        [args.out_curves, args.out_checkpoints, summary_path],
        {"load": load_seconds, "train": train_seconds},
        optimizer=OPTIMIZER,
        num_parameters=model.num_parameters,
    )
    mean = summary["mean_best"]
    if "ci95_halfwidth" in summary:
        print(f"mean best order accuracy {mean:.4f} "
              f"+/- {summary['ci95_halfwidth']:.4f} over {len(curves)} runs")
    else:
        print(f"best order accuracy {mean:.4f} (single run, no interval)")
    return 0


def cmd_train_quantum(args) -> int:
    return _train_command(
        args, lambda length: QuantumKernelModel(num_qubits=length, num_layers=args.layers)
    )


def cmd_train_classical(args) -> int:
    return _train_command(
        args, lambda length: ClassicalKernelModel(seq_length=length, head=args.kernel)
    )


def cmd_edm(args) -> int:
    print(edm_exact(args.a, args.b))
    return 0


def cmd_report(args) -> int:
    specs = {}
    for spec in args.curves:
        if "=" not in spec:
            raise ValueError(
                f"--curves entries must look like LABEL=PATH, got {spec!r}"
            )
        label, path = spec.split("=", 1)
        if label in specs:  # two rows under one label: an ambiguous table
            raise ValueError(f"--curves label {label!r} is given more than once")
        specs[label] = path
    rows = [(label, aggregate_runs(load_curves(path))) for label, path in specs.items()]

    width = max(5, max(len(r[0]) for r in rows))
    print(f"{'model':<{width}}  runs  best order accuracy")
    for label, summary in rows:
        runs, mean = len(summary["per_run_best"]), summary["mean_best"]
        if "ci95_halfwidth" in summary:
            hw = summary["ci95_halfwidth"]
            print(f"{label:<{width}}  {runs:>4}  {100 * mean:5.1f} +/- {100 * hw:3.1f}%")
        else:
            print(f"{label:<{width}}  {runs:>4}  {100 * mean:5.1f}%  "
                  "(single run, no interval)")
    return 0


def _add_train_flags(parser):
    defaults = TrainingConfig()
    parser.add_argument("--train", required=True, help="training triplet file")
    parser.add_argument("--test", required=True, help="test triplet file")
    parser.add_argument("--lr", type=float, default=defaults.learning_rate)
    parser.add_argument("--epochs", type=int, default=defaults.epochs)
    parser.add_argument("--batch", type=int, default=defaults.batch_size)
    parser.add_argument("--runs", type=int, default=defaults.runs)
    parser.add_argument("--seed", type=int, default=defaults.seed)
    parser.add_argument("--out-curves", required=True)
    parser.add_argument("--out-checkpoints", required=True)
    parser.add_argument("--jobs", type=int, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dnakernel",
        description="Sequence-similarity kernels trained on exact "
                    "edit-distance-with-moves labels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a labeled triplet dataset")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=3200)
    p.add_argument("--length", type=int, default=8)
    p.add_argument("--out", required=True)
    p.add_argument("--jobs", type=int, default=None)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train-quantum", help="train the variational kernel")
    p.add_argument("--layers", type=int, default=24)
    _add_train_flags(p)
    p.set_defaults(func=cmd_train_quantum)

    p = sub.add_parser("train-classical", help="train a deep-kernel baseline")
    p.add_argument("--kernel", choices=sorted(HEADS), required=True)
    _add_train_flags(p)
    p.set_defaults(func=cmd_train_classical)

    p = sub.add_parser("edm", help="exact edit distance with moves")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.set_defaults(func=cmd_edm)

    p = sub.add_parser("report", help="summarize learning-curve files")
    p.add_argument("--curves", nargs="+", required=True, metavar="LABEL=PATH")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if hasattr(args, "jobs"):
            args.jobs = _resolve_jobs(args.jobs)
        return args.func(args)
    except (ValueError, BudgetExceededError, TrainingDivergedError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Fast guard on the library surface the benchmark harness relies on.

``benchmarks/workloads.py`` imports library names and reads more of them as
module attributes while a workload runs; ``benchmarks/tracing.py`` patches
the functions it traces and both model classes' kernel methods, reading
each from its owner's own ``__dict__``. Loading both files and installing the
tracer here makes a cut that removes or moves one of those names fail in
seconds instead of at a benchmark run, and one cycle of each workload with
its output checks catches a change to what the workloads consume. The files
are only read: no bytecode is written beside them.
"""

import importlib.util
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from dnakernel import cli, dataset, training
from dnakernel.baselines import ClassicalKernelModel
from dnakernel.kernel import QuantumKernelModel

BENCH = Path(__file__).resolve().parents[1] / "benchmarks"


def _load(name, monkeypatch):
    spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


@pytest.fixture()
def workloads(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    return _load("workloads", monkeypatch)  # tracing.py imports it by this name


@pytest.fixture()
def tracing(workloads, monkeypatch):
    return _load("tracing", monkeypatch)


def test_module_attributes_read_by_workloads_exist():
    source = (BENCH / "workloads.py").read_text()
    modules = {"cli": cli, "dataset": dataset, "training": training}
    used = set(re.findall(r"\b(cli|dataset|training)\.([A-Za-z_]\w*)", source))
    assert used
    assert [f"{m}.{n}" for m, n in sorted(used) if not hasattr(modules[m], n)] == []


def test_tracer_installs_and_restores(tracing):
    targets = [(owner, attr) for owners, attr, _ in tracing.TARGETS.values()
               for owner in owners]
    before = [owner.__dict__[attr] for owner, attr in targets]
    tracer = tracing.Tracer("guard")
    triplets = dataset.generate_triplets(seed=0, count=2, length=8)
    model = ClassicalKernelModel("cosine")
    with tracer.installed():
        training.order_accuracy(model, model.init_params(np.random.default_rng(0)),
                                triplets)
    assert [owner.__dict__[attr] for owner, attr in targets] == before
    spans = {s["name"]: s for s in tracer.spans}
    # the pair build inside order_accuracy is its own span, under the ranking
    outer = spans["training.order_accuracy"]["id"]
    assert spans["training.pairs_from_triplets"]["parent"] == outer
    assert spans["baselines.value"]["parent"] == outer


@pytest.mark.parametrize("model, span", [(QuantumKernelModel(8, 2), "kernel.grad"),
                                         (ClassicalKernelModel("rbf"), "baselines.grad")],
                         ids=["quantum", "classical"])
def test_train_epoch_batches_are_traced(tracing, model, span):
    # training.batches, training.pairs and the grad_ms metrics read the
    # model's grad spans under training.train_epoch: 64 pairs at batch 32
    # must record two of them, each with its 32 rows
    train = dataset.load_triplets(BENCH.parent / "results" / "acceptance" / "train.jsonl")
    pairs = training.pairs_from_triplets(train[:32])
    rng = np.random.default_rng(0)
    tracer = tracing.Tracer("guard")
    with tracer.installed():
        training.train_epoch(model, model.init_params(rng), pairs,
                             training.TrainingConfig(batch_size=32), rng)
    (epoch,) = [s["id"] for s in tracer.spans if s["name"] == "training.train_epoch"]
    grads = [(s["parent"], s["rows"]) for s in tracer.spans if s["name"] == span]
    assert grads == [(epoch, 32)] * 2
    metrics, _ = tracing.layer_metrics(tracer)
    assert (metrics["training.batches"][0], metrics["training.pairs"][0]) == (2, 64)


def test_gen_data_manifest_write_is_traced(tracing, tmp_path):
    # workloads.gen_data drives cli.main; the manifest write it records is
    # the span behind the cli.manifest_s metric
    tracer = tracing.Tracer("guard")
    with tracer.installed():
        sys.modules["workloads"].gen_data(0, 2, 4, tmp_path / "t.jsonl")
    names = [s["name"] for s in tracer.spans]
    assert names.count("cli.write_manifest") == 1
    metrics, from_probe = tracing.layer_metrics(tracer)
    assert metrics["cli.manifest_s"][0] > 0
    assert "cli.manifest_s" not in from_probe


def test_every_label_goes_through_dataset_edm_exact(tracing, monkeypatch, tmp_path):
    # the tracer's edm.* counts and distance histogram, and the benchmark's
    # perturbed-label check, hook dataset.edm_exact: each pair that is
    # labelled or verified must go through it once, and its return value
    # must be the label
    triplets = dataset.generate_triplets(seed=0, count=4, length=6)
    dataset.save_triplets(triplets, tmp_path / "t.jsonl")
    tracer = tracing.Tracer("guard")
    monkeypatch.setattr(dataset, "VERIFY_STRIDE", 1)
    with tracer.installed():
        dataset.load_triplets(tmp_path / "t.jsonl")
    got = [s["d"] for s in tracer.spans if s["name"] == "edm.edm_exact"]
    assert got == triplets.distances.ravel().tolist()
    real = dataset.edm_exact
    monkeypatch.setattr(dataset, "edm_exact", lambda a, b, **kw: real(a, b, **kw) + 1)
    shifted = dataset.generate_triplets(seed=0, count=4, length=6)
    assert np.array_equal(shifted.distances, triplets.distances + 1)


@pytest.mark.parametrize("name", ["train_quantum", "evaluate", "label", "train_classical"])
def test_workload_cycle_passes_its_checks(workloads, monkeypatch, tmp_path, name):
    # one whole cycle of each workload on the committed inputs, as
    # benchmarks/run.py drives it, with every output check passing
    monkeypatch.setattr(workloads, "SCRATCH", tmp_path)
    workload = workloads.WORKLOADS[name](seed=7)
    workload.setup()
    workload.reset()
    for r in range(workload.cycle):
        assert workload.round(r) > 0
    checks = workloads.Checks()
    workload.check(checks)
    assert checks.attempted > 0 and checks.failures == []

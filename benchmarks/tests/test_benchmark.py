"""Tests of the benchmark itself: smoke runs, a negative check, determinism.

Run from the repository root: python3 -m pytest benchmarks/tests
"""

import json
import subprocess
import sys
import time

import numpy as np
import pytest

import run
import workloads
from run import BENCH_DIR, ROOT, run_workload
from tracing import Tracer, layer_metrics
from dnakernel.baselines import ClassicalKernelModel
from dnakernel.kernel import QuantumKernelModel

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
# evaluate's seed 0 checks the full-set accuracy at L = 6, the cheapest depth
SEEDS = {"train_quantum": 1, "evaluate": 0, "label": 1, "train_classical": 1}
COUNTS = ["kernel.grad_calls", "kernel.value_calls", "kernel.unique_state_share",
          "edm.calls", "edm.calls_per_label", "training.batches", "training.pairs"]
COUNTS += [f"edm.dist_hist.d{d}" for d in range(1, 9)]


@pytest.fixture
def tiny(monkeypatch):
    """Shrink the label rounds so a smoke run takes seconds."""
    monkeypatch.setattr(workloads, "LABEL_ROUND_COUNT", 5)


def _units(metrics):
    return {name: unit for name, (_, unit) in metrics.items()}


@pytest.mark.parametrize("name", sorted(SEEDS))
def test_smoke_untraced(name, tiny):
    metrics, checks, info = run_workload(name, SEEDS[name], 0, False, setup_repeats=1)
    assert _units(metrics) == END_TO_END
    assert all(value > 0 for value, _ in metrics.values())
    assert checks.attempted > 0 and checks.failed == 0, checks.failures
    assert info["rounds"] == workloads.WORKLOADS[name].cycle


# a per-layer time each workload measures on its own calls, never the probe's
OWN_LAYER = {"train_quantum": "kernel.grad_ms_p50", "evaluate": "kernel.value_ms_p50",
             "label": "edm.call_ms_p50", "train_classical": "baselines.grad_ms_p50"}


@pytest.mark.parametrize("name", sorted(SEEDS))
def test_smoke_traced(name, tiny):
    metrics, checks, info = run_workload(name, SEEDS[name], 0, True)
    assert _units(metrics) == PER_LAYER
    assert checks.attempted > 0 and checks.failed == 0, checks.failures
    for metric, (value, unit) in metrics.items():
        if unit in ("s", "ms"):
            assert value > 0, metric
    assert OWN_LAYER[name] not in info["probe_metrics"]
    assert set(info["probe_metrics"]) <= set(PER_LAYER)


def test_host_clock_counts_reference_host_seconds(monkeypatch):
    def half_speed_reference():
        end = time.perf_counter() + 2 * run.REFERENCE_S
        while time.perf_counter() < end:
            pass

    def busy(n):
        return sum(i * i % 7 for i in range(n))

    monkeypatch.setattr(run, "reference_loop", half_speed_reference)
    clock = run.HostClock()
    t0 = time.perf_counter()
    result, seconds, scaled = clock.time(busy, 3_000_000)
    wall = time.perf_counter() - t0
    assert result == busy(3_000_000)
    assert len(clock.samples) >= 4  # before, after and at least two inside
    assert seconds < wall - 3 * 2 * run.REFERENCE_S  # reference runs excluded
    assert scaled == pytest.approx(seconds / 2, rel=0.05)


def _span(tracer, name, start, end, parent=None, **attrs):
    tracer.spans.append({"id": len(tracer.spans), "name": name, "parent": parent,
                         "run": "t", "start": start, "end": end, **attrs})
    return len(tracer.spans) - 1


def test_probe_spans_only_stand_in_for_unused_layers():
    t = Tracer("t")
    rnd = _span(t, "bench.round", 0.0, 10.0)
    acc = _span(t, "training.order_accuracy", 0.0, 9.0, rnd)
    _span(t, "kernel.value", 0.0, 4.0, acc, rows=1024, layers=6)
    _span(t, "kernel.value", 4.0, 8.0, acc, rows=1024, layers=6)
    probe = _span(t, "bench.probe", 20.0, 21.0)
    _span(t, "kernel.value", 20.0, 20.001, probe, rows=2, layers=12)
    _span(t, "kernel.grad", 20.1, 20.3, probe, rows=4, layers=6)
    m, from_probe = layer_metrics(t)
    # the workload's own calls: the probe's short call is left out
    assert m["kernel.value_calls"][0] == 2
    assert m["kernel.value_ms_p50"][0] == pytest.approx(4000)
    assert m["kernel.busy_s.L6"][0] == pytest.approx(8.0)
    assert m["kernel.busy_frac"][0] == pytest.approx(0.8)  # of the round, not the probe
    assert m["training.eval_self_s"][0] == pytest.approx(1.0)
    # layers the workload never reached: measured on the probe, and listed
    assert m["kernel.grad_calls"][0] == 0
    assert m["kernel.grad_ms_p50"][0] == pytest.approx(200)
    assert m["kernel.busy_s.L12"][0] == pytest.approx(0.001)
    assert {"kernel.grad_ms_p50", "kernel.busy_s.L12"} <= set(from_probe)
    assert not {"kernel.value_ms_p50", "kernel.busy_s.L6", "kernel.busy_frac"} & set(from_probe)


@pytest.mark.parametrize("name", ["train_quantum", "evaluate", "train_classical"])
def test_perturbed_kernel_batch_fails_checks(name, tiny, monkeypatch):
    for cls in (QuantumKernelModel, ClassicalKernelModel):
        original = cls.kernel_batch
        monkeypatch.setattr(
            cls, "kernel_batch",
            lambda self, *args, _f=original: _f(self, *args) + 1e-3)
    _, checks, _ = run_workload(name, SEEDS[name], 0, False, setup_repeats=1)
    assert checks.failed > 0


def test_perturbed_labels_fail_checks(tiny, monkeypatch):
    real = workloads.dataset.edm_exact
    monkeypatch.setattr(workloads.dataset, "edm_exact",
                        lambda a, b, **kw: min(real(a, b, **kw) + 1, len(a)))
    _, checks, _ = run_workload("label", 1, 0, False, setup_repeats=1)
    assert checks.failed > 0


@pytest.mark.parametrize("name", ["train_quantum", "label"])
def test_same_seed_repeats_every_count(name, tiny):
    first = run_workload(name, 3, 0, True)[0]
    again = run_workload(name, 3, 0, True)[0]
    for metric in COUNTS:
        assert first[metric] == again[metric], metric


def test_other_seed_labels_other_triplets(tiny):
    first = run_workload("label", 3, 0, True)[0]
    other = run_workload("label", 4, 0, True)[0]
    hist = [f"edm.dist_hist.d{d}" for d in range(1, 9)]
    assert [first[m] for m in hist] != [other[m] for m in hist]


def test_seed_picks_inputs():
    a, b = workloads.TrainQuantum(3), workloads.TrainQuantum(4)
    a.pairs = b.pairs = workloads.training.PairSet(
        np.zeros((64, 8), np.uint8), np.zeros((64, 8), np.uint8), np.zeros(64))
    a.model = b.model = QuantumKernelModel(8, 24)
    a.reset(), b.reset()
    assert not np.array_equal(a.params0, b.params0)
    assert not np.array_equal(a.order, b.order)


def test_fails_without_program(tmp_path):
    """In a directory holding only the benchmark, it exits non-zero, no result."""
    (tmp_path / "benchmarks").mkdir()
    for f in BENCH_DIR.glob("*.py"):
        (tmp_path / "benchmarks" / f.name).write_text(f.read_text())
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "label", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""

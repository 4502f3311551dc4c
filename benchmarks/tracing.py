"""In-memory span tracer for the benchmark's traced run, and the per-layer
metrics computed from its spans.

The tracer wraps the library's public entry points from outside (no change
to the program): the two model classes' kernel methods, the training loop
functions, dataset load/save, the EDM solver under the name the dataset
module imported it as, and the CLI's manifest writer. Each call becomes a
span with a name, start, end, parent span and run id. Spans stay in memory
until the run ends. A span's self time is its duration minus the time its
direct children cover.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager

import numpy as np

from dnakernel import cli, dataset, training
from dnakernel.baselines import ClassicalKernelModel
from dnakernel.kernel import QuantumKernelModel
from workloads import DEPTHS

# edm.call_ms_p50.d3 holds d <= 3 and .d7 holds d >= 7
EDM_BUCKETS = (3, 4, 5, 6, 7)
EDM_HIST_MAX = 8


def _model_attrs(tracer, span, args, result):
    model, flat, codes_a, codes_b = args[:4]
    span["rows"] = len(codes_a)
    span["layers"] = getattr(model, "num_layers", None)
    if span["layers"] is None:
        return
    # distinct feature states among all the states computed with one
    # parameter vector inside one enclosing call (a batch, an evaluation)
    key = (span["parent"], np.asarray(flat).tobytes())
    rows = np.concatenate([np.asarray(codes_a), np.asarray(codes_b)])
    tracer.unique_states.setdefault(key, set()).update(r.tobytes() for r in rows)


def _edm_attrs(tracer, span, args, result):
    span["d"] = int(result)


def _save_attrs(tracer, span, args, result):
    span["count"] = len(args[0])


# span name -> (owners patched under that name, attribute, attrs recorder)
TARGETS = {
    "kernel.value": ((QuantumKernelModel,), "kernel_batch", _model_attrs),
    "kernel.grad": ((QuantumKernelModel,), "kernel_and_grad_batch", _model_attrs),
    "baselines.value": ((ClassicalKernelModel,), "kernel_batch", _model_attrs),
    "baselines.grad": ((ClassicalKernelModel,), "kernel_and_grad_batch", _model_attrs),
    "training.train_epoch": ((training,), "train_epoch", None),
    "training.order_accuracy": ((training,), "order_accuracy", None),
    "training.pairs_from_triplets": ((training,), "pairs_from_triplets", None),
    "dataset.load_triplets": ((dataset, cli), "load_triplets", None),
    "dataset.save_triplets": ((dataset, cli), "save_triplets", _save_attrs),
    "edm.edm_exact": ((dataset,), "edm_exact", _edm_attrs),
    "cli.write_manifest": ((cli,), "write_manifest", None),
}


class Tracer:
    """Collects spans in memory; ``installed()`` patches the wrappers in."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.unique_states: dict = {}
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "run": self.run_id,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name, fn, recorder):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
            if recorder is not None:
                recorder(self, rec, args, result)
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Patch every target for the duration of the block, then restore."""
        saved = []
        try:
            for name, (owners, attr, recorder) in TARGETS.items():
                for owner in owners:
                    original = owner.__dict__[attr]
                    saved.append((owner, attr, original))
                    setattr(owner, attr, self._wrap(name, original, recorder))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def _pct(values, q) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> tuple[dict, list]:
    """Per-layer metrics of the traced run: ({name: (value, unit)}, from_probe).

    Every metric is computed from the workload's own spans (set-up and
    rounds). A time metric whose layer, depth or distance bucket the
    workload never reaches is computed the same way from the probe's spans
    instead, and its name is listed in from_probe. Counts (calls, the
    unique-state share, the distance histogram, EDM calls per label,
    batches and pairs trained) never include the probe.
    """
    spans = tracer.spans
    dur = {s["id"]: s["end"] - s["start"] for s in spans}
    child = {s["id"]: 0.0 for s in spans}
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += dur[s["id"]]

    def under(span, name):
        pid = span["parent"]
        while pid is not None:
            if spans[pid]["name"] == name:
                return True
            pid = spans[pid]["parent"]
        return False

    probe = [s for s in spans if s["name"] == "bench.probe" or under(s, "bench.probe")]
    probe_ids = {s["id"] for s in probe}
    own = [s for s in spans if s["id"] not in probe_ids]
    from_probe: list[str] = []

    def pick(metrics, keep):
        """Own spans that keep() selects, or the probe's if there are none."""
        sel = [s for s in own if keep(s)]
        if sel:
            return sel
        from_probe.extend(metrics)
        return [s for s in probe if keep(s)]

    def named(*names):
        return lambda s: s["name"] in names

    def total(sel):
        return sum(dur[s["id"]] for s in sel)

    def self_s(sel):
        return sum(dur[s["id"]] - child[s["id"]] for s in sel)

    def ms(sel):
        return [1e3 * dur[s["id"]] for s in sel]

    m: dict[str, tuple] = {}

    grad = pick(["kernel.grad_ms_p50", "kernel.grad_ms_p95"], named("kernel.grad"))
    value = pick(["kernel.value_ms_p50", "kernel.value_ms_p95"], named("kernel.value"))
    m["kernel.grad_calls"] = (sum(1 for s in own if s["name"] == "kernel.grad"), "count")
    m["kernel.grad_ms_p50"] = (_pct(ms(grad), 50), "ms")
    m["kernel.grad_ms_p95"] = (_pct(ms(grad), 95), "ms")
    m["kernel.value_calls"] = (sum(1 for s in own if s["name"] == "kernel.value"), "count")
    m["kernel.value_ms_p50"] = (_pct(ms(value), 50), "ms")
    m["kernel.value_ms_p95"] = (_pct(ms(value), 95), "ms")
    # share of the timed rounds, the section items_per_s is measured over
    is_q = named("kernel.value", "kernel.grad")
    q_rounds = [s for s in own if is_q(s) and under(s, "bench.round")]
    if q_rounds:
        section = [s for s in own if s["name"] == "bench.round"]
    else:
        from_probe.append("kernel.busy_frac")
        q_rounds = [s for s in probe if is_q(s)]
        section = [s for s in probe if s["name"] == "bench.probe"]
    m["kernel.busy_frac"] = (_ratio(total(q_rounds), total(section)), "fraction")
    for depth in DEPTHS:
        sel = pick([f"kernel.busy_s.L{depth}"],
                   lambda s, d=depth: is_q(s) and s["layers"] == d)
        m[f"kernel.busy_s.L{depth}"] = (total(sel), "s")
    q_spans = pick(["kernel.state_layers_per_s"], is_q)
    state_layers = sum(2 * s["rows"] * s["layers"] for s in q_spans)
    m["kernel.state_layers_per_s"] = (_ratio(state_layers, total(q_spans)), "1/s")
    q_own = [s for s in own if is_q(s)]
    q_parents = {s["parent"] for s in q_own}
    distinct = sum(len(v) for k, v in tracer.unique_states.items() if k[0] in q_parents)
    states = sum(2 * s["rows"] for s in q_own)
    m["kernel.unique_state_share"] = (_ratio(distinct, states), "fraction")

    m["training.loop_self_s"] = (
        self_s(pick(["training.loop_self_s"], named("training.train_epoch"))), "s")
    m["training.eval_self_s"] = (
        self_s(pick(["training.eval_self_s"], named("training.order_accuracy"))), "s")
    m["training.pairs_build_s"] = (
        total(pick(["training.pairs_build_s"], named("training.pairs_from_triplets"))), "s")
    trained = [s for s in own if s["name"] in ("kernel.grad", "baselines.grad")
               and under(s, "training.train_epoch")]
    m["training.batches"] = (len(trained), "count")
    m["training.pairs"] = (sum(s["rows"] for s in trained), "count")

    b_grad = ms(pick(["baselines.grad_ms_p50", "baselines.grad_ms_p95"],
                     named("baselines.grad")))
    m["baselines.grad_ms_p50"] = (_pct(b_grad, 50), "ms")
    m["baselines.grad_ms_p95"] = (_pct(b_grad, 95), "ms")
    b_value = ms(pick(["baselines.value_ms_p50"], named("baselines.value")))
    m["baselines.value_ms_p50"] = (_pct(b_value, 50), "ms")

    is_edm = named("edm.edm_exact")
    edm_own = [s for s in own if is_edm(s)]
    edm = pick(["edm.busy_s", "edm.call_ms_p50", "edm.call_ms_p95", "edm.call_ms_max"],
               is_edm)
    m["edm.calls"] = (len(edm_own), "count")
    m["edm.busy_s"] = (total(edm), "s")
    m["edm.call_ms_p50"] = (_pct(ms(edm), 50), "ms")
    m["edm.call_ms_p95"] = (_pct(ms(edm), 95), "ms")
    m["edm.call_ms_max"] = (max(ms(edm), default=0.0), "ms")
    lo, hi = EDM_BUCKETS[0], EDM_BUCKETS[-1]
    for b in EDM_BUCKETS:
        sel = pick([f"edm.call_ms_p50.d{b}"],
                   lambda s, b=b: is_edm(s) and min(max(s["d"], lo), hi) == b)
        m[f"edm.call_ms_p50.d{b}"] = (_pct(ms(sel), 50), "ms")
    labels = sum(s["count"] for s in own if s["name"] == "dataset.save_triplets")
    label_calls = sum(1 for s in edm_own if not under(s, "dataset.load_triplets"))
    m["edm.calls_per_label"] = (_ratio(label_calls, labels), "ratio")
    for d in range(1, EDM_HIST_MAX + 1):
        m[f"edm.dist_hist.d{d}"] = (sum(1 for s in edm_own if s["d"] == d), "count")

    load = pick(["dataset.load_s", "dataset.parse_s"], named("dataset.load_triplets"))
    m["dataset.load_s"] = (total(load), "s")
    m["dataset.parse_s"] = (self_s(load), "s")
    verify = [s for s in edm_own if under(s, "dataset.load_triplets")]
    m["dataset.verify_calls"] = (len(verify), "count")
    m["dataset.save_s"] = (
        total(pick(["dataset.save_s"], named("dataset.save_triplets"))), "s")
    m["cli.manifest_s"] = (
        total(pick(["cli.manifest_s"], named("cli.write_manifest"))), "s")
    return m, from_probe

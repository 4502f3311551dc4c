"""Run one benchmark workload and print its metrics.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. Workloads: train_quantum, evaluate,
label, train_classical (see workloads.py for what each does and why).

--trace 0 measures the end-to-end metrics with tracing off. The workload is
set up several times (three; five for label) and the median set-up time
reported; then rounds run until they have taken S seconds and end on a whole
cycle (one round; three for evaluate, one per depth). Set-ups and rounds
are timed in reference-host seconds (HostClock): a short fixed reference
loop that calls no program code runs every 0.1 s, and each stretch of
program time between two of its runs is scaled by how much slower than on
a quiet host the reference ran around it. Other tenants of a shared host
slow all code alike, by up to 1.7x in spells that switch within a second,
and this cancels them. The info line also gives the unscaled seconds.

--trace 1 is the traced run that gives the per-layer metrics: one
traced set-up, a fixed number of rounds run first untraced and then traced
(their time ratio is the tracing overhead), and one small probe call into
every layer, whose spans stand in only for layers the workload never
reaches. Both modes check the outputs after the timed section.

Output: one line per metric (name, value, unit), one JSON line with the
host, the sha256 of every committed input read and the counts, and as the
last line {"correct", "attempted", "failed", "metrics"}. Spans of a traced
run are written to .bench_out/. Everything runs in one process on one core:
BLAS is pinned to one thread and gen-data runs with --jobs 1.
"""

import os

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


# the reference loop's seconds on a quiet 2-core Xeon sandbox; fixed, so
# reference-host seconds compare across commits and runs
REFERENCE_S = 0.0055
SAMPLE_PERIOD_S = 0.1  # how often the reference loop runs during a timed call
_REF_DIM = 8  # qubits of the reference statevectors


def reference_loop() -> None:
    """Fixed work like the program's, calling none of its code: batched 2x2
    complex products on 8-qubit statevectors (numpy) and a breadth-first
    walk over string edits (pure Python, dicts and sets)."""
    rng = np.random.default_rng(0)
    states = rng.standard_normal((32, 1 << _REF_DIM)) + 0j
    mats = rng.standard_normal((32, 2, 2)) + 1j * rng.standard_normal((32, 2, 2))
    for q in range(_REF_DIM):
        t = states.reshape(32, 1 << q, 2, 1 << (_REF_DIM - q - 1))
        states = np.matmul(mats[:, None], t).reshape(32, -1)
        states /= np.abs(states).max()
    frontier, seen = {"ACGTACGT"}, {}
    for depth in range(3):
        nxt = set()
        for x in frontier:
            for i in range(len(x)):
                for ch in "ACGT":
                    y = x[:i] + ch + x[i + 1:]
                    if y not in seen:
                        seen[y] = depth
                        nxt.add(y)
        frontier = nxt


class HostClock:
    """Times calls in reference-host seconds.

    The reference loop runs right before and right after a timed call, and
    every SAMPLE_PERIOD_S seconds during it from a SIGALRM handler. The
    call's own time (its wall time less the reference runs inside it) is cut
    at those runs, and each piece is scaled by REFERENCE_S over the mean of
    the two reference times around it. Other tenants of a shared host slow
    all code alike, by up to 1.7x in spells that switch within a second, so
    a piece's scaled time is the time it would take on the quiet host.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, end) of each run
        self._busy = False

    def _sample(self, *_):
        if self._busy:  # a late signal while a run is in progress
            return
        self._busy = True
        t0 = time.perf_counter()
        reference_loop()
        self.samples.append((t0, time.perf_counter()))
        self._busy = False

    def time(self, fn, *args):
        """Call fn(*args); return (result, seconds, reference-host seconds),
        where seconds is the call's own time."""
        self._sample()
        before = self.samples[-1]
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        try:
            start = time.perf_counter()
            result = fn(*args)
            end = time.perf_counter()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        inside = [(a, b) for a, b in self.samples if a >= start and b <= end]
        self._sample()
        after = self.samples[-1]
        seconds = scaled = 0.0
        t, ref = start, before[1] - before[0]
        for a, b in inside + [(end, end + after[1] - after[0])]:
            piece = a - t
            seconds += piece
            scaled += piece * 2 * REFERENCE_S / (ref + b - a)
            t, ref = b, b - a
        return result, seconds, scaled


def _time_rounds(wl, count, tracer=None):
    """Reset the workload and run rounds 0..count-1; return each round's seconds."""
    span = tracer.span if tracer else (lambda name: contextlib.nullcontext())
    with span("bench.reset"):
        wl.reset()
    times = []
    for r in range(count):
        with span("bench.round"):
            t0 = time.perf_counter()
            wl.round(r)
            times.append(time.perf_counter() - t0)
    return times


def run_workload(name, seed, seconds, trace, setup_repeats=None):
    """Run one workload; return (metrics {name: (value, unit)}, checks, info)."""
    from tracing import Tracer, layer_metrics
    from workloads import SCRATCH, WORKLOADS, Checks, probe

    SCRATCH.mkdir(exist_ok=True)
    wl = WORKLOADS[name](seed)
    checks = Checks()
    info = {}
    if not trace:
        clock = HostClock()
        setup, setup_raw = [], []
        for _ in range(setup_repeats or wl.setup_repeats):
            _, raw, scaled = clock.time(wl.setup)
            setup.append(scaled)
            setup_raw.append(raw)
        wl.reset()
        round_s, round_raw, items = [], [], 0
        while not round_s or sum(round_raw) < seconds or len(round_s) % wl.cycle:
            done, raw, scaled = clock.time(wl.round, len(round_s))
            items += done
            round_s.append(scaled)
            round_raw.append(raw)
        wl.check(checks)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "items_per_s": (items / sum(round_s), "1/s"),
            "peak_rss_mb": (peak_mb, "MB"),
        }
        info.update(setup_s=setup, setup_raw_s=setup_raw, rounds=len(round_s),
                    items=items, round_s=round_s, round_raw_s=round_raw,
                    items_per_raw_s=items / sum(round_raw))
    else:
        tracer = Tracer(run_id=f"{name}-{seed}-{os.getpid()}")
        with tracer.installed(), tracer.span("bench.setup"):
            wl.setup()
        cycle_s = wl.cycle * wl.nominal_round_s
        count = wl.cycle * max(1, round(seconds / 2 / cycle_s))
        plain = _time_rounds(wl, count)
        with tracer.installed():
            traced = _time_rounds(wl, count, tracer)
        wl.check(checks)
        workdir = SCRATCH / f"probe-{os.getpid()}"
        workdir.mkdir(parents=True, exist_ok=True)
        try:
            with tracer.installed(), tracer.span("bench.probe"):
                probe(workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        metrics, from_probe = layer_metrics(tracer)
        overhead = sum(traced) / sum(plain) - 1
        metrics["bench.trace_overhead_frac"] = (overhead, "fraction")
        spans_path = SCRATCH / f"spans-{name}-{seed}.json"
        with open(spans_path, "w") as fh:
            json.dump(tracer.spans, fh)
        info.update(rounds=count, plain_round_s=plain, traced_round_s=traced,
                    probe_metrics=from_probe, spans=str(spans_path.relative_to(ROOT)))
    info["inputs_sha256"] = wl.inputs
    return metrics, checks, info


def host_info() -> dict:
    import scipy

    cpu = "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.CalledProcessError):
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                capture_output=True, text=True).stdout.strip()
    return {
        "cores": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {var: os.environ[var] for var in BLAS_ENV},
        "commit": commit,
    }


def main(argv=None) -> int:
    for needed in ("src/dnakernel", "results/acceptance"):
        if not (ROOT / needed).is_dir():
            print(f"error: {needed} not found under {ROOT}; "
                  "run from the root of a full checkout", file=sys.stderr)
            return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH_DIR))
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    metrics, checks, info = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace))
    probed = set(info.get("probe_metrics", ()))
    for metric, (value, unit) in metrics.items():
        note = "  (probe)" if metric in probed else ""
        print(f"{metric:32s} {value!r:>24} {unit}{note}")
    info.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                trace=args.trace, host=host_info(),
                failed_frac=checks.failed / checks.attempted,
                failures=checks.failures[:20])
    print(json.dumps(info))
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Repository benchmark: host cost per simulated operation, by layer.

Run from the repository root::

    python3 perfbench/run.py --workload kv-read --seed 1 --seconds 25 --trace 0

``--trace 0`` repeats the workload's measurement point for
``--seconds`` of host time (one process, one thread; simulated clients
are coroutines) and reports the end-to-end metrics as medians over the
timed repetitions. ``--trace 1`` runs one pass, whatever
``--seconds`` says, of each of: the plain point, the point under
cProfile (host self time per layer), the point with entry-point
counters, span tracing and utilization accounting, and, for an
observed workload, the point with its collectors off. It reports the
per-layer metrics and writes the host-clock and simulated-clock Chrome
traces under ``.perfbench_out/``.

Every run also checks the program's outputs: with the default seed the
simulated results must equal ``expected.json``; with any seed, results
must repeat exactly between repetitions, passes and earlier runs of the
same sources. Metric names and units come from ``BENCHMARK.json``. The
last line of standard output is one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

``--record`` (default seed only) rewrites the workload's entry in
``expected.json`` instead of checking it.
"""

import argparse
import gc
import hashlib
import json
import math
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
EXPECTED = HERE / "expected.json"
DEFAULT_SEED = 1
#: repetitions a --trace 0 run makes at least; their median discards
#: the first, cold one when it is the outlier
MIN_REPS = 3
#: the traced pass's layer self times must sum to its wall time within
SELF_TIME_TOLERANCE = 0.05
#: entry-point counts taken by ``layers.EntryCounts``
COUNTED = ("sim.spawns", "sim.timers", "net.messages", "net.requests",
           "net.retransmits", "faults.drops", "hw.mem_bytes",
           "prism.chains", "prism.cas_attempts", "prism.cas_successes",
           "workload.arrivals")
#: totals reported per measured operation as ``<name>_per_op``
PER_OP = ("sim.events", "sim.spawns", "sim.timers", "net.messages",
          "net.requests", "net.retransmits", "faults.drops", "hw.mem_bytes",
          "prism.chains")
#: the tracer's phase sums must reconcile with mean latency within (on
#: workloads whose operations are sequential span chains)
PHASE_TOLERANCE = 0.01


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)
    if args.record and args.seed != DEFAULT_SEED:
        parser.error(f"--record pins the default seed ({DEFAULT_SEED}) only")
    return args


class Checks:
    """Collects failed correctness checks; any failure fails the run."""

    def __init__(self):
        self.failures = []

    def require(self, ok, message):
        if not ok:
            self.failures.append(message)
            print(f"CHECK FAILED: {message}", file=sys.stderr)
        return ok


def signature(result):
    """The simulated results of one repetition, JSON round-tripped.

    Everything here is simulated, so it must repeat exactly for one
    seed on one commit.
    """
    sig = {
        "ops": result.ops,
        "throughput_ops_per_sec": result.throughput_ops_per_sec,
        "mean_latency_us": result.mean_latency_us,
        "median_latency_us": result.median_latency_us,
        "p99_latency_us": result.p99_latency_us,
        "aborts": result.aborts,
        "retries": result.retries,
        "events_executed": result.extra["events_executed"],
        "stalled_arrivals": result.extra.get("stalled_arrivals", 0),
    }
    faults = result.extra.get("faults")
    if faults is not None:
        sig["faults"] = {key: value for key, value in faults.items()
                         if key not in ("plan", "goodput_mops")}
    return json.loads(json.dumps(sig))


def ledger_key(workload, seed, mode):
    """Names one simulation: the program's sources, the workload's
    definition, the seed and the mode."""
    digest = hashlib.sha256(repr(workload).encode())
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return f"{digest.hexdigest()[:16]}:{workload.name}:{seed}:{mode}"


def check_ledger(checks, key, values):
    """Exactness across runs: ``values`` must equal what earlier runs
    of the same simulation recorded (see :func:`ledger_key`)."""
    OUT.mkdir(exist_ok=True)
    path = OUT / "ledger.json"
    ledger = json.loads(path.read_text()) if path.exists() else {}
    seen = ledger.get(key)
    if seen is None:
        ledger[key] = values
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(ledger, indent=1, sort_keys=True))
        tmp.replace(path)
        return
    drift = sorted(name for name in set(seen) | set(values)
                   if seen.get(name) != values.get(name))
    checks.require(not drift, f"{key}: exact values drifted from an "
                   f"earlier run of the same simulation: {drift}")


def check_result(checks, workload, seed, label, result, reference,
                 expected):
    """Per-repetition checks; returns the repetition's signature."""
    sig = signature(result)
    checks.require(result.ops > 0, f"{label}: no measured operations")
    if reference is not None:
        checks.require(sig == reference,
                       f"{label}: simulated results differ from the first "
                       f"repetition (hidden nondeterminism)")
    elif seed == DEFAULT_SEED and expected is not None:
        checks.require(sig == expected.get(workload.name),
                       f"{label}: default-seed results differ from "
                       f"expected.json: {sig}")
    if workload.open_loop:
        checks.require(sig["stalled_arrivals"] == 0,
                       f"{label}: {sig['stalled_arrivals']} arrivals "
                       f"stalled behind a full window")
    if workload.faults:
        checks.require(sig["faults"]["messages_dropped"] > 0,
                       f"{label}: the fault plan injected no drops")
    return sig


def phase_report(tracer):
    """The tracer's phase breakdown over the measured operations."""
    from repro.bench.tracing import measured_roots
    from repro.obs import breakdown
    return breakdown(measured_roots(tracer))


def mean_phases(report):
    """Count-weighted mean µs per op of each phase over all op kinds."""
    from repro.obs import PHASES
    total = max(sum(entry["count"] for entry in report.values()), 1)
    return {phase: sum(entry["phases"].get(phase, 0.0) * entry["count"]
                       for entry in report.values()) / total
            for phase in PHASES}


def check_phases(checks, result, report):
    """Tracer phase sums reconcile with the measured mean latency."""
    from repro.bench.tracing import check_breakdown
    try:
        check_breakdown(result, report, tolerance=PHASE_TOLERANCE)
    except AssertionError as exc:
        checks.require(False, str(exc))


class Tally:
    """Attempted/failed operation counts across a run's repetitions."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self._last_ops = 1

    def ran(self, result):
        self.attempted += result.ops
        self._last_ops = result.ops

    def aborted(self):
        """A repetition raised: its operations all count as failed."""
        self.attempted += self._last_ops
        self.failed += self._last_ops


def run_rep(workload, seed, tally, label, **kwargs):
    """One repetition; returns ``(result, host seconds of run_point)``
    or ``None`` when it raised."""
    # Free the previous repetition's simulation (its processes form
    # reference cycles) so every repetition starts from the same heap.
    gc.collect()
    start = time.perf_counter()
    try:
        result = workload.run(seed, **kwargs)
    except Exception:  # the run must still report
        traceback.print_exc()
        print(f"{label}: repetition aborted", file=sys.stderr)
        tally.aborted()
        return None
    tally.ran(result)
    return result, time.perf_counter() - start


def host_us_per_op(result):
    return result.wall_s / result.ops * 1e6


def untraced(workload, args, checks, tally, expected):
    """Repeat the point for ``--seconds``; end-to-end metrics."""
    reference = None
    samples = []
    started = time.perf_counter()
    while (len(samples) < MIN_REPS
           or time.perf_counter() - started < args.seconds):
        label = f"{workload.name} rep {len(samples)}"
        outcome = run_rep(workload, args.seed, tally, label)
        if not checks.require(outcome is not None, f"{label} raised"):
            break
        result, total_s = outcome
        sig = check_result(checks, workload, args.seed, label, result,
                           reference, expected)
        reference = reference or sig
        samples.append((host_us_per_op(result), total_s - result.wall_s))
        print(f"{label}: {samples[-1][0]:.1f} us/op over {result.ops} "
              f"ops, setup {samples[-1][1]:.3f} s")
    # Before the traced check below, whose spans would inflate it.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if workload.check_phases and reference is not None:
        # A traced repetition (untimed) checks that the tracer's phase
        # attribution reconciles and that tracing leaves the simulated
        # results unchanged.
        from repro.obs import Tracer
        tracer = Tracer()
        outcome = run_rep(workload, args.seed, tally,
                          f"{workload.name} traced check", tracer=tracer)
        if checks.require(outcome is not None, "traced check raised"):
            check_result(checks, workload, args.seed, "traced check",
                         outcome[0], reference, expected)
            check_phases(checks, outcome[0], phase_report(tracer))
    if reference is not None:
        check_ledger(checks, ledger_key(workload, args.seed, "untraced"),
                     reference)
    if not samples:
        return {}, reference
    return {
        "host_us_per_op": statistics.median(s[0] for s in samples),
        "setup_s": statistics.median(s[1] for s in samples),
        "peak_rss_mb": peak_rss_mb,
        "sim_tput_mops": result.throughput_ops_per_sec / 1e6,
        "sim_p50_us": result.median_latency_us,
        "sim_p99_us": result.p99_latency_us,
    }, reference


def traced(workload, args, checks, tally, expected):
    """One pass per instrument; per-layer metrics."""
    from layers import (LAYERS, EntryCounts, HostSpans, LayerProfile,
                        build_seconds)
    from repro.obs import (Tracer, UtilizationCollector, analyze,
                           write_chrome_trace)
    spans = HostSpans()
    profile = LayerProfile()
    counts = EntryCounts()
    tracer = Tracer()
    utilization = UtilizationCollector()
    passes = [("plain", None, {}),
              ("profiled", profile, {}),
              ("counted", counts, {"tracer": tracer,
                                   "utilization": utilization})]
    if workload.observed:
        passes.append(("collectors-off", None, {"observers": False}))
    results = {}
    reference = None
    for name, instrument, kwargs in passes:
        label = f"{workload.name} {name} pass"
        installed = instrument.installed() if instrument else nullcontext()
        with spans.span_pass(name) as root, installed:
            outcome = run_rep(workload, args.seed, tally, label, **kwargs)
        if not checks.require(outcome is not None, f"{label} raised"):
            return {}, reference
        result = outcome[0]
        sig = check_result(checks, workload, args.seed, label, result,
                           reference, expected)
        reference = reference or sig
        results[name] = (result, root)
    OUT.mkdir(exist_ok=True)
    stem = OUT / workload.name
    spans.write(f"{stem}.host-trace.json")
    write_chrome_trace(tracer.roots, f"{stem}.sim-trace.json",
                       process_spans=tracer.process_spans)

    plain, plain_root = results["plain"]
    ops = plain.ops
    metrics = {}

    prof_result = results["profiled"][0]
    self_s = profile.self_seconds()
    coverage = sum(self_s.values()) / prof_result.wall_s
    print(f"profiled pass: layer self times sum to {coverage:.1%} of its "
          f"{prof_result.wall_s:.3f} s wall time")
    checks.require(abs(coverage - 1.0) <= SELF_TIME_TOLERANCE,
                   f"layer self times cover {coverage:.1%} of the profiled "
                   f"wall time (tolerance {SELF_TIME_TOLERANCE:.0%})")
    for layer in LAYERS:
        metrics[f"{layer}.self_us_per_op"] = self_s[layer] / ops * 1e6

    # Exact totals over the measured run; the ledger keeps them whole.
    totals = {"sim.events": plain.extra["events_executed"],
              **{name: counts.counts[name] for name in COUNTED}}
    check_ledger(checks, ledger_key(workload, args.seed, "traced"),
                 {**reference, **totals})
    for name in PER_OP:
        metrics[f"{name}_per_op"] = totals[name] / ops
    cas = totals["prism.cas_attempts"]
    # No CAS attempted wastes none: the ratio reads 1.
    metrics["prism.cas_success_ratio"] = (
        totals["prism.cas_successes"] / cas if cas else 1.0)
    metrics["apps.tx.abort_ratio"] = plain.aborts / (ops + plain.aborts)
    arrivals = totals["workload.arrivals"]
    metrics["workload.stall_frac"] = (
        plain.extra.get("stalled_arrivals", 0) / arrivals if arrivals
        else 0.0)

    metrics["bench.build_s"] = build_seconds(plain_root)
    plain_us = host_us_per_op(plain)
    # Without collectors there is nothing to switch off: the ratio is 1.
    metrics["obs.overhead_ratio"] = (
        plain_us / host_us_per_op(results["collectors-off"][0])
        if workload.observed else 1.0)
    metrics["trace.overhead_ratio"] = (
        host_us_per_op(results["counted"][0]) / plain_us)

    report = phase_report(tracer)
    if workload.check_phases:
        check_phases(checks, results["counted"][0], report)
    for phase, value in mean_phases(report).items():
        metrics[f"phase.{phase}_us"] = value
    rows = utilization.report()
    verdict = analyze(rows)
    print(f"bottleneck: {verdict['verdict']} at {verdict['resource']}")
    metrics["util.bottleneck_busy"] = verdict["utilization"]
    binding = next(row for row in rows if row["name"] == verdict["resource"])
    # Slot resources sample a queueing delay per grant; charged ones
    # (wires, PCIe) have no queue.
    delay = binding["queue"].get("delay_us", {}).get("mean", 0.0)
    metrics["util.queue_wait_us"] = 0.0 if math.isnan(delay) else delay
    return metrics, reference


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: the program's sources are missing ({SRC}); "
              "run from the root of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    expected = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
    checks = Checks()
    tally = Tally()
    measure = traced if args.trace else untraced
    metrics, reference = measure(workload, args, checks, tally,
                                 None if args.record else expected)
    if args.record and not checks.failures:
        expected[workload.name] = reference
        EXPECTED.write_text(json.dumps(expected, indent=2, sort_keys=True)
                            + "\n")
    if checks.failures:
        tally.failed = tally.attempted
    if not args.trace:
        metrics["ok_frac"] = 1.0 - tally.failed / max(tally.attempted, 1)
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    checks.require(not missing, f"metrics not measured: {missing}")
    if missing:
        return 1
    print(f"{workload.name} seed {args.seed} "
          f"({'traced' if args.trace else 'untraced'}):")
    for m in declared:
        print(f"  {m['name']:<28} {metrics[m['name']]:>14.6g} {m['unit']}")
    print(json.dumps({
        "correct": not checks.failures,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]],
                                "unit": m["unit"]} for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

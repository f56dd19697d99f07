"""Machine-readable benchmark results and regression comparison.

Every benchmark run can be captured as a versioned JSON record —
config, seed, git commit, throughput, mean/p50/p99 latency, per-phase
breakdown, per-resource utilization, bottleneck verdict — via
``--json PATH`` on the bench CLI and the ``benchmarks/bench_fig*``
scripts. :func:`compare` then diffs two records under per-metric
tolerance bands, so "did this change regress fig3?" is a command with
an exit code instead of a table to eyeball::

    PYTHONPATH=src python benchmarks/bench_fig3_kv_read.py \\
        --clients 4 --keys 1000 --json /tmp/run.json
    PYTHONPATH=src python -m repro.bench.cli compare \\
        benchmarks/BENCH_baseline.json /tmp/run.json   # exit 1 on regression

The simulator is deterministic, so a same-commit self-compare matches
exactly; the tolerance bands absorb legitimate model recalibration and
cross-platform float noise, and anything beyond them is a regression.

Record shape (one file, one or more measurement points)::

    {"schema": "repro-bench-result", "schema_version": 3,
     "benchmark": "fig3",
     "provenance": {"git_commit": ..., "python": ...},
     "points": [{"id": "kv/prism-sw/c4",
                 "config": {...}, "metrics": {...},
                 "phases": {...}, "utilization": [...],
                 "bottleneck": {...},
                 "primitives": {...}, "critpath": {...},
                 "faults": {...}, "host": {...}}]}

All optional point fields are additive; v1 records (without
``primitives``/``critpath``) and v2 records (without ``host``) still
load and compare — only metrics present in both baseline and
tolerance bands are diffed.

The ``host`` section is *wall-clock* self-profiling of the simulator
itself (events/sec, host-time bucket shares; see
:mod:`repro.obs.hostprof`) — it describes the machine the benchmark
ran on, not the simulated system, so :func:`compare` only looks at it
in ``host=True`` mode, under deliberately wide bands that gate gross
(>2x) slowdowns of the simulator and nothing subtler.
"""

import json
import math
import platform
import subprocess

SCHEMA = "repro-bench-result"
#: v2 (additive over v1): points may carry "primitives" (the
#: PrimitiveCollector snapshot) and "critpath" (the per-op
#: critical-path profile). v3 (additive over v2): points may carry
#: "host" (wall-clock self-profiling of the simulator: events/sec,
#: wall seconds, bucket shares). v4 (additive over v3): points may
#: carry "series" (the windowed time-series report: per-window
#: throughput/latency/counters, MSER steady-state block, changepoint
#: annotations; see :mod:`repro.obs.series`). v5 (additive over v4):
#: points may carry "wall" (wall-clock cost of the simulated run:
#: wall_s, events_executed, events_per_sec) — recorded on every run of
#: every entry point, unlike the richer "host" section which needs
#: ``--profile``. v6
#: (additive over v5): points may carry "views" (the online
#: sliding-window telemetry report: end-of-run window rates, per-conn
#: EWMAs, hot keys, and the shadow-probe decision log; see
#: :mod:`repro.obs.views`). Every earlier field is unchanged, so this
#: tool still reads v1-v5 baselines.
SCHEMA_VERSION = 6
SUPPORTED_SCHEMA_VERSIONS = (1, 2, 3, 4, 5, 6)

#: per-metric tolerance bands: direction is which way is *better*;
#: ``rel`` is the allowed relative degradation before failing
DEFAULT_TOLERANCES = {
    "throughput_ops_per_sec": {"direction": "higher", "rel": 0.02},
    "mean_us": {"direction": "lower", "rel": 0.02},
    "p50_us": {"direction": "lower", "rel": 0.02},
    "p99_us": {"direction": "lower", "rel": 0.05},
    "ops": {"direction": "higher", "rel": 0.02},
}

#: bands for ``compare(host=True)``: host wall-clock numbers vary with
#: load, CPU model, and interpreter version, so these are deliberately
#: wide — half the events/sec or double the wall time (a 2x simulator
#: slowdown) fails; anything subtler passes.
HOST_TOLERANCES = {
    "host.events_per_sec": {"direction": "higher", "rel": 0.5},
    "host.wall_s": {"direction": "lower", "rel": 1.0},
}

#: bands for ``compare(series=True)``: steady-state-only aggregates
#: from the windowed series (transient windows excluded by the MSER
#: detector), so these can be as tight as the end-of-run bands without
#: averaging warm-up noise into the gate.
SERIES_TOLERANCES = {
    "series.steady_tput_ops_per_sec": {"direction": "higher", "rel": 0.02},
    "series.steady_mean_us": {"direction": "lower", "rel": 0.02},
    "series.steady_p99_us": {"direction": "lower", "rel": 0.05},
}


def git_commit():
    """Current commit hash, or None outside a git checkout."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip()


def point_id(kind, flavor, clients, zipf=None):
    """``kind/flavor/cN``, plus ``/zipfZ`` for a point of a Zipf sweep."""
    suffix = "" if zipf is None else f"/zipf{zipf:g}"
    return f"{kind}/{flavor}/c{clients}{suffix}"


def result_metrics(result):
    """The comparable metrics of a :class:`~repro.workload.driver.RunResult`."""
    return {
        "ops": result.ops,
        "throughput_ops_per_sec": result.throughput_ops_per_sec,
        "mean_us": result.mean_latency_us,
        "p50_us": result.median_latency_us,
        "p99_us": result.p99_latency_us,
        "aborts": result.aborts,
        "retries": result.retries,
    }


def wall_section(result):
    """The ``wall`` point section from a :class:`RunResult`.

    Returns None when the harness did not record wall timing (old
    callers leave ``wall_s`` at 0.0), keeping the section strictly
    additive.
    """
    wall_s = getattr(result, "wall_s", 0.0)
    if not wall_s:
        return None
    events = result.extra.get("events_executed", 0)
    return {
        "wall_s": wall_s,
        "events_executed": events,
        "events_per_sec": events / wall_s if wall_s > 0 else 0.0,
    }


def make_point(kind, flavor, result, config, zipf=None, phases=None,
               utilization=None, bottleneck=None, primitives=None,
               critpath=None, faults=None, host=None, series=None, views=None,
               wall=None):
    """One measurement point: config + metrics (+ optional telemetry).

    ``config`` must contain everything needed to reproduce the point
    (clients, keys, seed, windows); it is compared verbatim by
    :func:`compare`, so a config drift fails loudly instead of
    producing an apples-to-oranges diff. ``zipf`` tags the point id of
    a Zipf sweep, whose points share kind, flavor and client count.
    """
    point = {
        "id": point_id(kind, flavor, result.clients, zipf),
        "kind": kind,
        "flavor": flavor,
        "config": dict(config),
        "metrics": result_metrics(result),
    }
    if phases is not None:
        point["phases"] = phases
    if utilization is not None:
        point["utilization"] = utilization
    if bottleneck is not None:
        point["bottleneck"] = bottleneck
    if primitives is not None:
        point["primitives"] = primitives
    if critpath is not None:
        point["critpath"] = critpath
    if faults is not None:
        point["faults"] = faults
    if host is not None:
        point["host"] = host
    if series is not None:
        point["series"] = series
    if views is not None:
        point["views"] = views
    if wall is not None:
        point["wall"] = wall
    return point


def make_record(benchmark, points):
    """Wrap measurement points in the versioned result envelope."""
    return {
        "schema": SCHEMA,
        "schema_version": SCHEMA_VERSION,
        "benchmark": benchmark,
        "provenance": {
            "git_commit": git_commit(),
            "python": platform.python_version(),
        },
        "points": list(points),
    }


def write_record(record, path):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def load_record(path):
    with open(path, encoding="utf-8") as handle:
        record = json.load(handle)
    if record.get("schema") != SCHEMA:
        raise ValueError(f"{path}: not a {SCHEMA} file")
    if record.get("schema_version") not in SUPPORTED_SCHEMA_VERSIONS:
        raise ValueError(
            f"{path}: schema_version {record.get('schema_version')} "
            f"(this tool speaks {SUPPORTED_SCHEMA_VERSIONS})")
    return record


# -- comparison -------------------------------------------------------------


def _is_nan(value):
    return isinstance(value, float) and math.isnan(value)


def _check_metric(metric, base, run, band):
    """One finding dict for one metric of one point."""
    finding = {"metric": metric, "baseline": base, "run": run,
               "limit_rel": band["rel"], "direction": band["direction"]}
    if _is_nan(base) and _is_nan(run):
        finding.update(status="ok", delta_rel=0.0)
        return finding
    if _is_nan(run):
        finding.update(status="regression", delta_rel=float("inf"))
        return finding
    if _is_nan(base) or base == 0:
        # No meaningful baseline: a real measurement can only be news.
        finding.update(status="ok", delta_rel=0.0)
        return finding
    delta = (run - base) / base
    if band["direction"] == "higher":
        degraded = delta < -band["rel"]
        improved = delta > 0
    else:
        degraded = delta > band["rel"]
        improved = delta < 0
    finding["delta_rel"] = delta
    finding["status"] = ("regression" if degraded
                         else "improved" if improved else "ok")
    return finding


def compare(baseline, run, tolerances=None, host=False, series=False):
    """Diff two result records; returns a report dict.

    ``report["ok"]`` is False when any baseline point is missing from
    the run, any point's config drifted, or any metric degraded beyond
    its tolerance band. Improvements never fail.

    ``host=True`` compares the *host* self-profiling sections instead
    of the simulated metrics, under :data:`HOST_TOLERANCES` — wide
    bands that only gate gross (>2x) simulator slowdowns. A baseline
    point without a ``host`` section (any v1/v2 record, or a run made
    without ``--profile``) is skipped silently: old baselines are not
    errors.

    ``series=True`` compares *steady-state-only* aggregates from the
    windowed series sections (``series.steady_state``), under
    :data:`SERIES_TOLERANCES` — the MSER detector has already excluded
    transient windows, so these gates never average warm-up noise. A
    baseline point without a ``series`` section (any v1-v3 record, or
    a run made without ``--series``) is skipped silently.

    ``host=True`` and ``series=True`` combine: every point is checked
    against *both* band families (the union of their metrics), and a
    trip in either fails the compare. ``tolerances`` overrides are
    looked up across the union of the selected families.
    """
    bands = {}
    if host:
        bands.update(HOST_TOLERANCES)
    if series:
        bands.update(SERIES_TOLERANCES)
    if not bands:
        bands = dict(DEFAULT_TOLERANCES)
    if tolerances:
        for metric, rel in tolerances.items():
            if metric not in bands:
                raise ValueError(f"no tolerance band for metric {metric!r}")
            bands[metric] = dict(bands[metric], rel=rel)

    findings = []
    run_points = {point["id"]: point for point in run["points"]}
    for base_point in baseline["points"]:
        pid = base_point["id"]
        run_point = run_points.get(pid)
        if run_point is None:
            findings.append({"point": pid, "metric": "-", "status": "missing",
                             "baseline": None, "run": None,
                             "delta_rel": None, "limit_rel": None,
                             "direction": None})
            continue
        drifted = sorted(
            key for key in
            set(base_point["config"]) | set(run_point["config"])
            if base_point["config"].get(key) != run_point["config"].get(key))
        if drifted:
            findings.append({
                "point": pid, "metric": f"config:{','.join(drifted)}",
                "status": "config-drift", "baseline": None, "run": None,
                "delta_rel": None, "limit_rel": None, "direction": None})
            continue
        if host:
            base_host = base_point.get("host")
            run_host = run_point.get("host") or {}
            for metric in HOST_TOLERANCES:
                if base_host is None:
                    break
                band = bands[metric]
                key = metric.split(".", 1)[1]
                if key not in base_host:
                    continue
                finding = _check_metric(metric, base_host[key],
                                        run_host.get(key, float("nan")),
                                        band)
                finding["point"] = pid
                findings.append(finding)
        if series:
            base_steady = (base_point.get("series") or {}).get("steady_state")
            run_steady = ((run_point.get("series") or {})
                          .get("steady_state") or {})
            for metric in SERIES_TOLERANCES:
                if base_steady is None:
                    break
                band = bands[metric]
                key = metric.split(".", 1)[1]
                if key not in base_steady:
                    continue
                finding = _check_metric(metric, base_steady[key],
                                        run_steady.get(key, float("nan")),
                                        band)
                finding["point"] = pid
                findings.append(finding)
        if host or series:
            continue
        for metric, band in bands.items():
            if metric not in base_point["metrics"]:
                continue
            finding = _check_metric(metric, base_point["metrics"][metric],
                                    run_point["metrics"].get(metric,
                                                             float("nan")),
                                    band)
            finding["point"] = pid
            findings.append(finding)

    bad = [f for f in findings
           if f["status"] in ("regression", "missing", "config-drift")]
    return {
        "ok": not bad,
        "baseline_commit": baseline.get("provenance", {}).get("git_commit"),
        "run_commit": run.get("provenance", {}).get("git_commit"),
        "findings": findings,
        "regressions": bad,
    }


def format_compare(report):
    """Plain-text rendering of a :func:`compare` report."""

    def fmt(value):
        if value is None:
            return "-"
        if isinstance(value, float):
            return f"{value:.4g}"
        return str(value)

    lines = []
    for finding in report["findings"]:
        delta = finding.get("delta_rel")
        delta_text = "-" if delta is None else f"{delta:+.2%}"
        lines.append(
            f"  {finding['status']:<12} {finding['point']:<24} "
            f"{finding['metric']:<24} base={fmt(finding['baseline'])} "
            f"run={fmt(finding['run'])} delta={delta_text}")
    verdict = "PASS" if report["ok"] else "FAIL"
    lines.append(f"compare: {verdict} "
                 f"({len(report['regressions'])} finding(s) over tolerance)")
    return "\n".join(lines)

"""Command-line experiment runner.

Regenerate any paper figure (or run a custom point) without pytest::

    python -m repro.bench.cli fig1
    python -m repro.bench.cli fig3 --clients 1,8,32 --keys 4000
    python -m repro.bench.cli point --kind tx --flavor prism-sw \\
        --clients 96 --zipf 0.9
    python -m repro.bench.cli list

The measured figures (fig3/4/6/9 client sweeps, fig7/fig10 Zipf
sweeps) are declared once in :mod:`repro.bench.figures`; with no flags
a figure command measures exactly what the ``benchmarks/bench_fig*``
pytest body measures, and ``--clients``/``--keys``/``--zipfs``/
``--flavor``/``--warmup-us``/``--measure-us`` rescale it. ``point`` is
the same path for one ad-hoc system. The ``benchmarks/bench_fig*.py``
scripts' ``__main__`` runs their figure through this module,
restricted to its first flavor.

Every flag is defined once, with the commands that consume it; any
other command rejects it with exit status 2 instead of ignoring it.

Regression workflow: ``--json PATH`` on ``point`` and every measured
figure writes a versioned result record (see
:mod:`repro.bench.regress`) in which every point carries ``config``,
``metrics``, the per-phase breakdown and the ``wall`` section;
``compare baseline.json run.json`` diffs two records under per-metric
tolerance bands and exits non-zero on regression — the CI perf-smoke
gate is exactly that pipeline. ``--util`` prints per-resource
utilization and the bottleneck verdict; ``--primitives`` prints
primitive-level telemetry (CAS contention, pointer-chase depth,
allocator watermarks, key hotness) plus the per-operation
critical-path profile. All telemetry flags leave simulated timing
bit-identical.

``--faults SPEC`` (e.g. ``seed=3,drop=0.01,crash=replica1@500+400``)
runs any point or sweep under a seeded fault plan — message loss /
duplication / jitter, crash-stop windows, free-list starvation — with
timeout + retry recovery on, and prints the goodput-under-faults
report (see :mod:`repro.faults` and docs/faults.md).

``--clients-aggregated N`` replaces the closed-loop clients with
aggregated open-loop arrival sources modeling N clients (see
:mod:`repro.workload.sources`), drawing the figure's own read share
and Zipf coefficient. Only read-only KV/RS mixes are accepted.

``--profile[=cprofile|sample]`` turns the lens on the simulator
itself: every measured point is metered on the *wall* clock
(events/sec, per-bucket host-time shares sampled on every
:data:`HOST_PROFILE_STRIDE`-th event; see :mod:`repro.obs.hostprof`),
the whole command is captured as either a cProfile session
(``<command>.pstats`` + collapsed digest) or sampled collapsed stacks
(``flame.<command>.txt``, flamegraph.pl-ready), and ``--json`` records
gain a ``host`` section. ``compare --host`` then diffs those host
sections under wide bands that only gate gross (>2x) simulator
slowdowns. Host profiling never touches the simulated clock.

``--flight[=N]`` arms the causal flight recorder (a bounded ring of N
events, default 65536; see :mod:`repro.obs.flight`) on every measured
point: each point prints a digest, and the first point that looks
anomalous — aborted operations, ack timeouts, exhausted retries,
crash-window drops — dumps its raw event log to
``flight.<command>.json`` (``--flight-dump PATH`` picks the path and
forces a dump of the last point even when every point was clean).
``explain <flight.json> [--top K]`` replays a dump into per-request
timelines and prints the K worst requests' causal narratives
(:mod:`repro.obs.forensics`).

``--series[=WINDOW_US]`` collects windowed time-series telemetry on
the simulated clock (default window 50 µs; see
:mod:`repro.obs.series`): per-window throughput/goodput/latency
digests and retry/timeout/NAK counters, an MSER steady-state verdict
that warns when the configured warmup is shorter than the detected
transient, and changepoint annotations cross-referenced against
injected fault windows. ``compare --series`` diffs steady-state-only
aggregates so regression gates stop averaging warm-up noise.

``--views[=WINDOW_US]`` installs the *online* telemetry views (default
window 50 µs; see :mod:`repro.obs.views`): per-connection/per-key
sliding-window CAS-retry/NAK/timeout/backoff rates, pointer-chase and
service-time EWMAs — queryable mid-run by policy code — plus the
bounded decision log that shadow-mode probes write into. On the
fig7/fig10 contention sweeps a shadow RFP-crossover probe is armed
automatically; with ``--series`` also on, its verdicts are validated
against the post-hoc changepoint windows. ``--views-log PATH`` writes
the decision-log transcript to a file (the CI artifact).
"""

import argparse
import dataclasses
import sys
import time

from repro.bench.figures import FIGURES, Figure, peak
from repro.bench.microbench import (
    CLASSIC_PRIMITIVES,
    PRIMITIVES,
    measure_one_sided_read,
    measure_primitive,
    measure_rpc_read,
    measure_two_rdma_reads,
)
from repro.bench.reporting import (
    CURVE_HEADERS,
    UTILIZATION_HEADERS,
    curve_rows,
    print_faults,
    print_flight,
    print_host,
    print_primitives,
    print_series,
    print_table,
    print_views,
    utilization_rows,
    views_report_lines,
)
from repro.bench.tracing import check_breakdown, check_critpath, measured_roots
from repro.net.topology import CLUSTER, DATACENTER, DIRECT, RACK
from repro.obs import (
    FLIGHT_DEFAULT_CAPACITY,
    SERIES_DEFAULT_WINDOW_US,
    VIEWS_DEFAULT_WINDOW_US,
    FlightRecorder,
    HostProfiler,
    PrimitiveCollector,
    RfpCrossoverProbe,
    SeriesCollector,
    Tracer,
    UtilizationCollector,
    ViewCollector,
    analyze,
    breakdown,
    breakdown_rows,
    critpath_profile,
    critpath_rows,
    crossover_vs_series,
    format_analysis,
    write_chrome_trace,
)
from repro.obs.critpath import format_contributors

#: --profile samples host-time attribution on every N-th kernel event
#: (counters stay exact). One value for every entry point, so their
#: ``host`` sections compare; it is the stride the committed
#: BENCH_host_baseline.json was measured at.
HOST_PROFILE_STRIDE = 16

#: the ``point`` command's system when --kind/--flavor/... are absent
POINT_DEFAULTS = Figure("kv", ("prism-sw",), seed=1, read_fraction=0.5,
                        keys=8_000, clients=(1,))
DEFAULT_ARRIVAL_RATE = 50.0

POINT = {"point"}
CLIENT_SWEEPS = {"fig3", "fig4", "fig6", "fig9"}
ZIPF_SWEEPS = {"fig7", "fig10"}
MEASURED = POINT | CLIENT_SWEEPS | ZIPF_SWEEPS
RUNS = MEASURED | {"motivation", "fig1", "fig2"}
COMMANDS = ["motivation", "fig1", "fig2", "fig3", "fig4", "fig6", "fig7",
            "fig9", "fig10", "point", "compare", "explain", "list"]


def _int_list(text):
    return [int(piece) for piece in text.split(",") if piece]


def _float_list(text):
    return [float(piece) for piece in text.split(",") if piece]


#: every option once: (flag, commands that consume it, argparse kwargs).
#: Defaults are None/False so an explicitly given flag is detectable;
#: figure defaults come from repro.bench.figures.
_FLAGS = [
    ("--clients", MEASURED, dict(
        type=_int_list, metavar="N[,N...]",
        help="comma-separated client counts (default: the figure's)")),
    ("--clients-aggregated", MEASURED, dict(
        type=int, metavar="N",
        help="replace the closed-loop clients with aggregated open-loop "
             "arrival sources modeling N clients (10⁵–10⁶ is fine; see "
             "repro.workload.sources); read-only KV/RS mixes only")),
    ("--arrival-rate", MEASURED, dict(
        type=float, metavar="OPS_PER_S",
        help="with --clients-aggregated, each modeled client's Poisson "
             f"op rate (default {DEFAULT_ARRIVAL_RATE:g} op/s)")),
    ("--source-window", MEASURED, dict(
        type=int, metavar="W",
        help="with --clients-aggregated, max ops in flight per source "
             "(default: population-scaled, see the sources module)")),
    ("--keys", MEASURED, dict(
        type=int, help="key count (default: the figure's)")),
    ("--zipf", POINT | CLIENT_SWEEPS, dict(
        type=float, help="Zipf coefficient of key choice (default 0)")),
    ("--zipfs", ZIPF_SWEEPS, dict(
        type=_float_list, metavar="Z[,Z...]",
        help="comma-separated Zipf coefficients (default: the figure's)")),
    ("--kind", POINT, dict(choices=["kv", "rs", "tx"],
                           help="system kind (default kv)")),
    ("--flavor", MEASURED, dict(
        help="system flavor (point default prism-sw); on a figure, run "
             "only this flavor")),
    ("--read-fraction", POINT, dict(
        type=float, help="YCSB read share of a kv/rs point (default 0.5)")),
    ("--trace", MEASURED, dict(
        metavar="PATH",
        help="write Chrome trace-event JSON of one designated point to "
             "PATH: the first flavor at the largest client count and the "
             "most skewed zipf")),
    ("--json", MEASURED, dict(
        metavar="PATH",
        help="write a machine-readable result record (repro.bench.regress "
             "schema) to PATH")),
    ("--util", MEASURED, dict(
        action="store_true",
        help="print per-resource utilization and the bottleneck verdict")),
    ("--primitives", MEASURED, dict(
        action="store_true",
        help="print primitive-level telemetry (CAS contention, "
             "pointer-chase depth, allocator watermarks, key hotness) and "
             "the per-op critical-path profile")),
    ("--faults", MEASURED, dict(
        metavar="SPEC",
        help="run under a seeded fault plan, e.g. seed=3,drop=0.01 or "
             "crash=replica1@500+400 (see repro.faults.parse_faults); "
             "prints the goodput-under-faults report")),
    ("--profile", RUNS, dict(
        nargs="?", const="sample", choices=["cprofile", "sample"],
        metavar="MODE",
        help="profile the simulator itself on the host clock: meter "
             "events/sec and per-bucket wall time for every measured "
             "point, and capture the whole command as a cProfile session "
             "(cprofile: <command>.pstats + collapsed digest) or sampled "
             "collapsed stacks (sample, the default: flame.<command>.txt)")),
    ("--flight", MEASURED, dict(
        nargs="?", const=FLIGHT_DEFAULT_CAPACITY, type=int, metavar="N",
        help="arm the causal flight recorder with an N-event ring "
             f"(default {FLIGHT_DEFAULT_CAPACITY}); prints a per-point "
             "digest and dumps the event log on anomalies (aborts, "
             "timeouts, exhausted retries) for the explain command")),
    ("--flight-dump", MEASURED, dict(
        metavar="PATH",
        help="(with --flight) write the flight dump to PATH even when the "
             "run is clean; sweeps still prefer the first anomalous point")),
    ("--series", MEASURED | {"compare"}, dict(
        nargs="?", const=SERIES_DEFAULT_WINDOW_US, type=float,
        metavar="WINDOW_US",
        help="collect windowed time-series telemetry on the simulated "
             f"clock (default window {SERIES_DEFAULT_WINDOW_US:g} µs): "
             "per-window throughput/latency/retry counters with "
             "sparklines, MSER steady-state detection, and fault-correlated "
             "changepoint annotations; (compare) diff the records' "
             "steady-state-only series aggregates instead of the "
             "end-of-run metrics")),
    ("--views", MEASURED, dict(
        nargs="?", const=VIEWS_DEFAULT_WINDOW_US, type=float,
        metavar="WINDOW_US",
        help="install the online telemetry views (default window "
             f"{VIEWS_DEFAULT_WINDOW_US:g} µs): per-connection/per-key "
             "sliding-window CAS-retry/NAK/timeout rates and chase/"
             "service-time EWMAs, plus the shadow-probe decision log; "
             "fig7/fig10 arm the RFP-crossover probe automatically")),
    ("--views-log", MEASURED, dict(
        metavar="PATH",
        help="(with --views) write the per-point views reports and "
             "decision-log transcript to PATH")),
    ("--warmup-us", MEASURED, dict(
        type=float, metavar="US",
        help="warmup before the measurement window (default: the "
             "figure's, 300 µs); the series steady-state verdict checks "
             "it covers the detected transient")),
    ("--measure-us", MEASURED, dict(
        type=float, metavar="US",
        help="measurement window length (default: the figure's; 1500 µs, "
             "fig7 2500 µs, fig10 1200 µs)")),
    ("--tolerance", {"compare"}, dict(
        action="append", metavar="METRIC=REL",
        help="override a tolerance band, e.g. --tolerance p99_us=0.10 "
             "(repeatable)")),
    ("--host", {"compare"}, dict(
        action="store_true",
        help="diff the records' host self-profiling sections (events/sec, "
             "wall seconds) under wide bands instead of the simulated "
             "metrics; combines with --series (both families checked, "
             "either failing fails the compare)")),
    ("--top", {"explain"}, dict(
        type=int, metavar="K",
        help="how many worst-request narratives to print (default 5)")),
]


def build_parser(flags=None):
    """The CLI parser; ``flags`` restricts it to those options alone."""
    parser = argparse.ArgumentParser(
        prog=None if flags else "repro.bench.cli",
        description="Regenerate figures from the PRISM paper.")
    if flags is None:
        parser.add_argument("command", choices=COMMANDS)
        parser.add_argument("paths", nargs="*", metavar="PATH",
                            help="(compare) baseline.json and run.json; "
                                 "(explain) a flight dump")
    for flag, consumers, options in _FLAGS:
        if flags is None or flag in flags:
            parser.add_argument(flag, **options)
    return parser


def _reject(args):
    """The fail-fast check: an error message, or None to go ahead."""
    for flag, consumers, _options in _FLAGS:
        value = getattr(args, flag[2:].replace("-", "_"))
        given = value is not None and value is not False  # 0.0 == False
        if given and args.command not in consumers:
            return (f"{flag} is not supported by {args.command!r} "
                    f"(supported by: {', '.join(sorted(consumers))})")
    if args.paths and args.command not in ("compare", "explain"):
        return f"PATH arguments are not supported by {args.command!r}"
    for broken, message in (
            (args.flight is not None and args.flight < 1,
             "--flight capacity must be >= 1"),
            (args.series is not None and args.series <= 0,
             "--series window must be > 0 µs"),
            (args.views is not None and args.views <= 0,
             "--views window must be > 0 µs"),
            (args.views_log and args.views is None,
             "--views-log requires --views"),
            (args.flight_dump and args.flight is None,
             "--flight-dump requires --flight"),
            (args.warmup_us is not None and args.warmup_us <= 0,
             "--warmup-us must be positive"),
            (args.measure_us is not None and args.measure_us <= 0,
             "--measure-us must be positive (the warmup must end before "
             "the run does)"),
            (args.clients_aggregated is not None
             and args.clients_aggregated < 1,
             "--clients-aggregated must be >= 1"),
            (args.clients_aggregated is not None and args.clients,
             "--clients and --clients-aggregated are exclusive"),
            ((args.arrival_rate is not None or args.source_window is not None)
             and args.clients_aggregated is None,
             "--arrival-rate and --source-window require "
             "--clients-aggregated"),
            (args.arrival_rate is not None and args.arrival_rate <= 0,
             "--arrival-rate must be > 0"),
            (args.read_fraction is not None and args.kind == "tx",
             "--read-fraction is not supported by 'point' --kind tx: "
             "YCSB-T transactions are read-modify-write")):
        if broken:
            return message
    return None


def resolve_figure(args):
    """The :class:`Figure` a measured command runs, flags applied."""
    if args.command == "point":
        kind = args.kind or POINT_DEFAULTS.kind
        spec = dataclasses.replace(
            POINT_DEFAULTS, kind=kind,
            flavors=(args.flavor or POINT_DEFAULTS.flavors[0],),
            strict_sum=kind != "rs",
            read_fraction=(None if kind == "tx" else
                           _given(args.read_fraction,
                                  POINT_DEFAULTS.read_fraction)))
    else:
        spec = FIGURES[args.command]
        if args.flavor:
            spec = dataclasses.replace(spec, flavors=(args.flavor,))
    if args.command in ZIPF_SWEEPS:
        zipfs = tuple(args.zipfs or spec.zipfs)
    else:
        zipfs = (_given(args.zipf, 0.0),)
    if args.clients_aggregated is not None:
        clients = (args.clients_aggregated,)
    else:
        clients = tuple(args.clients or spec.clients)
    return dataclasses.replace(
        spec, keys=_given(args.keys, spec.keys), clients=clients,
        zipfs=zipfs, warmup_us=_given(args.warmup_us, spec.warmup_us),
        measure_us=_given(args.measure_us, spec.measure_us))


def _given(value, default):
    return default if value is None else value


def _aggregated_error(command, spec):
    """Why aggregated sources cannot run this figure's mix, or None."""
    if spec.read_fraction is None:
        return (f"--clients-aggregated is not supported by {command!r}: "
                "aggregated sources draw single-key KV operations, not "
                "YCSB-T transactions")
    if spec.read_fraction < 1.0:
        return (f"--clients-aggregated is not supported by {command!r} "
                f"(read fraction {spec.read_fraction:g}): concurrent "
                "writes from one aggregated source share one client's "
                "SRAM scratch slot and overwrite each other's staged "
                "install (known defect 2 in perfbench/NOTES.md); only "
                "read-only mixes are accepted")
    return None


#: flight events that make a run worth a post-mortem on their own
_FLIGHT_ANOMALY_KINDS = {"req.timeout", "req.exhausted", "fault.crash_drop"}


def _flight_anomalous(flight, result):
    """Dump-on-anomaly trigger: failed ops, timeouts, retry give-ups."""
    if result.aborts:
        return True
    for event in flight.events:
        if event["kind"] in _FLIGHT_ANOMALY_KINDS:
            return True
        if event["kind"] == "op.close" and event.get("status") != "ok":
            return True
    return False


def _write_flight(flight, path, anomaly):
    flight.dump(path)
    why = "anomaly detected; " if anomaly else ""
    print(f"flight dump written to {path} ({why}inspect with: "
          f"python -m repro.bench.cli explain {path})")
    return path


class _Measurement:
    """One measured command: its points, and what spans them.

    :meth:`point` is the one per-point path: it builds the collectors
    the flags ask for, runs :func:`repro.bench.harness.run_point`,
    prints the per-point reports, and builds the ``--json`` point.
    State that spans points — the record, the first flight dump, the
    views-log transcript — lives here and is settled by :meth:`finish`.
    """

    def __init__(self, args, spec):
        self.args = args
        self.spec = spec
        self.contention = args.command in ZIPF_SWEEPS
        self.trace_at = (spec.flavors[0], spec.zipfs[-1], max(spec.clients))
        self.points = []
        self.views_lines = []
        self.flight = None
        self.flight_written = None

    def tag(self, flavor, zipf, n_clients):
        parts = [flavor]
        if self.contention:
            parts.append(f"zipf={zipf}")
        if not self.contention or len(self.spec.clients) > 1:
            parts.append(f"c={n_clients}")
        return " ".join(parts)

    def point(self, flavor, zipf, n_clients):
        args, spec = self.args, self.spec
        tag = self.tag(flavor, zipf, n_clients)
        label = f"{args.command}: {tag}"
        traced = (flavor, zipf, n_clients) == self.trace_at and args.trace
        tracer = (Tracer() if (args.json or args.primitives or traced)
                  else None)
        # --series reads per-window busy fractions from the monitors.
        utilization = (UtilizationCollector()
                       if (args.json or args.util or args.series) else None)
        primitives = PrimitiveCollector() if args.primitives else None
        hostprof = (HostProfiler(stride=HOST_PROFILE_STRIDE)
                    if args.profile else None)
        flight = FlightRecorder(args.flight) if args.flight else None
        series = SeriesCollector(args.series) if args.series else None
        views = ViewCollector(args.views) if args.views else None
        if views is not None and self.contention:
            # Shadow-mode RFP crossover detection (see repro.obs.views):
            # logs which transport the RFP rule would pick, switches
            # nothing.
            views.add_probe(RfpCrossoverProbe())
        source_model = None
        if args.clients_aggregated is not None:
            source_model = {
                "rate_per_client_ops_s": _given(args.arrival_rate,
                                                DEFAULT_ARRIVAL_RATE),
                "read_fraction": spec.read_fraction, "zipf": zipf,
                "seed": spec.seed}
            if args.source_window is not None:
                source_model["window"] = args.source_window
        result = spec.run_point(
            flavor, n_clients, zipf, tracer=tracer, utilization=utilization,
            primitives=primitives, faults=args.faults, hostprof=hostprof,
            flight=flight, series=series, views=views,
            source_model=source_model)

        if source_model is not None:
            model = result.extra["source_model"]
            print(f"{label} source model: aggregated open-loop, "
                  f"{model['clients']:,} modeled clients over "
                  f"{model['n_sources']} sources at "
                  f"{model['rate_per_client_ops_s']:g} op/s each "
                  f"(window {model['window']}, "
                  f"{result.extra['stalled_arrivals']} stalled arrivals)")
        phases = None
        if tracer is not None:
            phases = breakdown(measured_roots(tracer))
            print_table(f"{label} phase breakdown (mean µs per op)",
                        *breakdown_rows(phases))
            self._reconcile(result, phases)
            if traced:
                write_chrome_trace(tracer.roots, args.trace,
                                   process_spans=tracer.process_spans)
                print(f"chrome trace written to {args.trace} ({tag})")
        faults = result.extra.get("faults")
        if faults is not None:
            print_faults(f"{label} faults", faults)
        util = verdict = None
        if utilization is not None:
            util = utilization.report()
            verdict = analyze(util)
        if args.util:
            print_table(f"{label} resource utilization (measurement window)",
                        UTILIZATION_HEADERS, utilization_rows(util))
            print(format_analysis(verdict))
        prim = profile = None
        if primitives is not None:
            prim = primitives.report()
            profile = critpath_profile(measured_roots(tracer))
            print_primitives(f"{label} primitive telemetry", prim)
            print_table(f"{label} critical path (mean µs per op)",
                        *critpath_rows(profile))
            print(format_contributors(profile))
            weighted = check_critpath(result, profile)
            print(f"critical-path sum {weighted:.3f} µs == mean latency "
                  f"{result.mean_latency_us:.3f} µs (exact)")
        host = None
        if hostprof is not None:
            host = hostprof.report()
            print_host(f"{label} host self-profile", host)
        series_report = None
        if series is not None:
            series_report = series.report(utilization=utilization,
                                          faults=faults)
            print_series(f"{label} time series", series_report)
        views_report = None
        if views is not None:
            views_report = self._views(label, views, series_report)
        if flight is not None:
            print_flight(f"{label} flight recorder", flight.to_dict())
            self.flight = flight
            if (self.flight_written is None
                    and _flight_anomalous(flight, result)):
                self.flight_written = _write_flight(
                    flight, args.flight_dump or f"flight.{args.command}.json",
                    True)
        if args.json:
            from repro.bench.regress import make_point, wall_section
            config = {"kind": spec.kind, "flavor": flavor,
                      "clients": n_clients, "keys": spec.keys, "zipf": zipf,
                      "seed": spec.seed, "warmup_us": spec.warmup_us,
                      "measure_us": spec.measure_us}
            if spec.read_fraction is not None:
                config["read_fraction"] = spec.read_fraction
            if args.faults:
                config["faults"] = args.faults
            if source_model is not None:
                # The resolved model (with per-source windows) from the
                # harness, so the record reproduces the point exactly.
                config["source_model"] = result.extra["source_model"]
            self.points.append(make_point(
                spec.kind, flavor, result, config,
                zipf=zipf if self.contention else None, phases=phases,
                utilization=util, bottleneck=verdict, primitives=prim,
                critpath=profile, faults=faults, host=host,
                series=series_report, views=views_report,
                wall=wall_section(result)))
        return result

    def _reconcile(self, result, phases):
        """Print (and, where it must hold, assert) the phase-sum check."""
        total = sum(entry["count"] for entry in phases.values())
        if not total:
            return
        if self.spec.strict_sum:
            weighted = check_breakdown(result, phases)
            print(f"phase sum {weighted:.3f} µs == mean latency "
                  f"{result.mean_latency_us:.3f} µs (within 1%)")
        else:
            weighted = sum(entry["phase_sum_us"] * entry["count"]
                           for entry in phases.values()) / total
            print(f"total traced work {weighted:.3f} µs/op vs wall-clock "
                  f"mean {result.mean_latency_us:.3f} µs (parallel fan-out)")

    def _views(self, label, views, series_report):
        report = views.report()
        print_views(f"{label} online views", report)
        if series_report is not None and report["decisions"]["recorded"]:
            check = crossover_vs_series(views.decision_log(), series_report)
            verdict = ("agree" if check["agree"]
                       else f"CONFLICT ({len(check['conflicts'])})")
            print(f"shadow probe vs series changepoints: {verdict} "
                  f"({check['decisions']} decision(s), "
                  f"{check['changepoints']} changepoint window(s))")
        self.views_lines.append(f"== {label} ==")
        self.views_lines.extend(views_report_lines(report))
        return report

    def finish(self):
        args = self.args
        if (args.flight_dump and self.flight_written is None
                and self.flight is not None):
            _write_flight(self.flight, args.flight_dump, False)
        if args.views_log:
            with open(args.views_log, "w", encoding="utf-8") as handle:
                handle.write("\n".join(self.views_lines) + "\n")
            print(f"views decision-log report written to {args.views_log}")
        if args.json:
            from repro.bench.regress import make_record, write_record
            name = (f"point:{self.spec.kind}/{self.spec.flavors[0]}"
                    if args.command == "point" else args.command)
            write_record(make_record(name, self.points), args.json)
            print(f"result record written to {args.json}")


def cmd_measure(args):
    """``point`` and every measured figure: one loop over the points."""
    spec = resolve_figure(args)
    if args.clients_aggregated is not None:
        error = _aggregated_error(args.command, spec)
        if error:
            print(error, file=sys.stderr)
            return 2
    run = _Measurement(args, spec)
    peaks = {}
    for zipf in spec.zipfs:
        for flavor in spec.flavors:
            started = time.perf_counter()
            results = [run.point(flavor, zipf, n) for n in spec.clients]
            wall_s = time.perf_counter() - started
            events = sum(r.extra.get("events_executed", 0) for r in results)
            where = f" zipf={zipf}" if run.contention else ""
            print_table(f"{args.command}: {spec.kind}/{flavor}{where} "
                        f"({wall_s:.1f}s wall, "
                        f"{events / max(wall_s, 1e-9):,.0f} events/s)",
                        CURVE_HEADERS, curve_rows(results))
            peaks[(zipf, flavor)] = peak(results)
    if run.contention:
        # fig7 plots latency, fig10 peak throughput, per Zipf coefficient.
        if spec.kind == "rs":
            metric, value = "mean latency (µs)", (
                lambda r: r.mean_latency_us)
        else:
            metric, value = "peak throughput (M/s)", (
                lambda r: r.throughput_ops_per_sec / 1e6)
        print_table(f"{args.command}: {metric} vs zipf",
                    ["zipf"] + list(spec.flavors),
                    [[zipf] + [value(peaks[(zipf, flavor)])
                               for flavor in spec.flavors]
                     for zipf in spec.zipfs])
    run.finish()
    return 0


def cmd_motivation(args):
    print_table("§2.1 motivation (512 B, one ToR switch)",
                ["operation", "latency_us"],
                [["one-sided READ", measure_one_sided_read(profile=RACK)],
                 ["two-sided eRPC", measure_rpc_read(profile=RACK)],
                 ["two dependent READs", measure_two_rdma_reads(profile=RACK)]])


def cmd_fig1(args):
    columns = ["rdma", "prism-sw", "prism-bluefield", "prism-hw"]
    rows = [[primitive] + [
        "-" if backend == "rdma" and primitive not in CLASSIC_PRIMITIVES
        else measure_primitive(backend, primitive, profile=DIRECT)
        for backend in columns] for primitive in PRIMITIVES]
    print_table("Fig. 1: primitive latency, direct link (µs)",
                ["primitive"] + columns, rows)


def cmd_fig2(args):
    backends = ["prism-sw", "prism-bluefield", "prism-hw"]
    rows = [[name, measure_two_rdma_reads(profile=profile)] + [
        measure_primitive(backend, "indirect-read", profile=profile)
        for backend in backends]
        for name, profile in (("rack", RACK), ("cluster", CLUSTER),
                              ("datacenter", DATACENTER))]
    print_table("Fig. 2: indirect read latency by deployment (µs)",
                ["tier", "2x-rdma"] + backends, rows)


def cmd_compare(args):
    from repro.bench.regress import compare, format_compare, load_record
    if len(args.paths) != 2:
        print("usage: repro.bench.cli compare <baseline.json> <run.json>",
              file=sys.stderr)
        return 2
    tolerances = {}
    for spec in args.tolerance or []:
        metric, sep, frac = spec.partition("=")
        if not sep:
            print(f"--tolerance expects metric=frac, got {spec!r}",
                  file=sys.stderr)
            return 2
        tolerances[metric] = float(frac)
    baseline = load_record(args.paths[0])
    run = load_record(args.paths[1])
    report = compare(baseline, run, tolerances=tolerances, host=args.host,
                     series=args.series is not None)
    print(f"baseline: {args.paths[0]} "
          f"(commit {report['baseline_commit'] or 'unknown'})")
    print(f"run:      {args.paths[1]} "
          f"(commit {report['run_commit'] or 'unknown'})")
    print(format_compare(report))
    return 0 if report["ok"] else 1


def cmd_explain(args):
    from repro.obs import explain_lines, load_flight_dump
    if len(args.paths) != 1:
        print("usage: repro.bench.cli explain <flight.json> [--top K]",
              file=sys.stderr)
        return 2
    dump = load_flight_dump(args.paths[0])
    for line in explain_lines(dump, top=_given(args.top, 5)):
        print(line)
    return 0


def cmd_list(args):
    print("figures: motivation fig1 fig2 fig3 fig4 fig6 fig7 fig9 fig10")
    print("systems: kv={prism-sw,prism-hw,prism-bluefield,pilaf-hw,pilaf-sw}")
    print("         rs={prism-sw,prism-hw,abdlock-hw,abdlock-sw}")
    print("         tx={prism-sw,prism-hw,farm-hw,farm-sw}")


_DISPATCH = {"motivation": cmd_motivation, "fig1": cmd_fig1, "fig2": cmd_fig2,
             "compare": cmd_compare, "explain": cmd_explain,
             "list": cmd_list}


def profiled(mode, prefix, body):
    """Run ``body()`` under host self-profiling; returns its exit status.

    An ambient profiler meters every simulator built meanwhile —
    including ones built inside the microbenchmark helpers — the whole
    run is captured as a cProfile session or sampled collapsed stacks,
    and the ambient host self-profile is printed afterwards.
    """
    from repro.obs.hostprof import activate, deactivate, profile_session
    ambient = activate(HostProfiler(stride=HOST_PROFILE_STRIDE))
    session = profile_session(mode, prefix=prefix)
    try:
        with session:
            status = body()
    finally:
        deactivate(ambient)
    if ambient.events:
        print_host(f"{prefix}: host self-profile", ambient.report())
    for path in session.paths:
        print(f"profile artifact written to {path}")
    return int(status or 0)


def main(argv=None):
    args = build_parser().parse_args(argv)
    error = _reject(args)
    if error:
        print(error, file=sys.stderr)
        return 2
    command = _DISPATCH.get(args.command, cmd_measure)
    if args.profile is None:
        return int(command(args) or 0)
    return profiled(args.profile, args.command, lambda: command(args))


def figure_main(figure, argv=None):
    """``__main__`` of a ``benchmarks/bench_fig*.py`` script.

    Runs the figure's CLI command, restricted to its first flavor for
    the measured figures (``--flavor`` overrides).
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    if figure in FIGURES:
        argv = ["--flavor", FIGURES[figure].flavors[0]] + argv
    return main([figure] + argv)


class NullBenchmark:
    """pytest-benchmark stand-in for ``__main__`` runs.

    The benchmark scripts' test functions take the pytest-benchmark
    fixture; running one outside pytest only needs ``pedantic`` to
    call the target once and hand back its result — no timing, no
    stats. Lets :func:`script_main` drive a test body unchanged.
    """

    def pedantic(self, target, **_options):
        return target()


def script_main(test, prefix, argv=None):
    """``__main__`` of a benchmark script that has no CLI command.

    Runs the pytest body ``test`` once; its only flag is ``--profile``,
    handled exactly as ``main`` handles it.
    """
    args = build_parser(["--profile"]).parse_args(argv)
    body = lambda: test(NullBenchmark())  # noqa: E731
    if args.profile is None:
        body()
        return 0
    return profiled(args.profile, prefix, body)


if __name__ == "__main__":
    sys.exit(main())

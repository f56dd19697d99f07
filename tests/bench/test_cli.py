"""CLI smoke tests (small scales)."""

import json
import os

import pytest

from repro.bench.cli import build_parser, main, resolve_figure


def test_list(capsys):
    assert main(["list"]) == 0
    assert "fig9" in capsys.readouterr().out


def test_parser_defaults():
    # Flags default to None so a given flag is detectable; the figure's
    # own geometry fills them in.
    args = build_parser().parse_args(["fig3"])
    assert args.keys is None and args.clients is None
    spec = resolve_figure(args)
    assert spec.keys == 8000
    assert spec.clients == (1, 8, 32, 96, 176)


def test_parser_client_list():
    args = build_parser().parse_args(["fig3", "--clients", "1,2,4"])
    assert args.clients == [1, 2, 4]


def test_point_kv(capsys):
    assert main(["point", "--kind", "kv", "--flavor", "prism-hw",
                 "--clients", "2", "--keys", "200"]) == 0
    out = capsys.readouterr().out
    assert "kv/prism-hw" in out


def test_point_tx(capsys):
    assert main(["point", "--kind", "tx", "--flavor", "farm-hw",
                 "--clients", "2", "--keys", "200"]) == 0
    assert "tx/farm-hw" in capsys.readouterr().out


def test_point_with_faults(capsys, tmp_path):
    record = tmp_path / "chaos.json"
    assert main(["point", "--kind", "rs", "--flavor", "prism-sw",
                 "--clients", "2", "--keys", "200",
                 "--faults", "seed=3,drop=0.01",
                 "--json", str(record)]) == 0
    out = capsys.readouterr().out
    assert "goodput under faults" in out
    assert "retransmissions" in out
    import json
    point = json.loads(record.read_text())["points"][0]
    assert point["config"]["faults"] == "seed=3,drop=0.01"
    assert point["faults"]["plan"]["drop"] == 0.01


def test_motivation(capsys):
    assert main(["motivation"]) == 0
    assert "one-sided READ" in capsys.readouterr().out


def test_fig3_tiny_sweep(capsys):
    assert main(["fig3", "--clients", "1,2", "--keys", "300"]) == 0
    out = capsys.readouterr().out
    assert "prism-sw" in out and "pilaf-hw" in out


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["nope"])


def test_parser_profile_modes():
    parser = build_parser()
    assert parser.parse_args(["point"]).profile is None
    assert parser.parse_args(["point", "--profile"]).profile == "sample"
    assert parser.parse_args(
        ["point", "--profile=cprofile"]).profile == "cprofile"
    with pytest.raises(SystemExit):
        parser.parse_args(["point", "--profile", "perf"])


def test_point_profile_writes_host_record(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    record = tmp_path / "run.json"
    assert main(["point", "--kind", "kv", "--flavor", "prism-sw",
                 "--clients", "2", "--keys", "200",
                 "--json", str(record), "--profile"]) == 0
    out = capsys.readouterr().out
    assert "host self-profile" in out
    assert "events/s" in out
    assert "profile artifact written" in out
    data = json.loads(record.read_text())
    assert data["schema_version"] == 6
    host = data["points"][0]["host"]
    assert host["events_per_sec"] > 0
    assert host["wall_s"] > 0
    shares = sum(entry["share"] for entry in host["buckets"].values())
    assert 0 < shares <= 1.0 + 1e-9
    assert os.path.exists(tmp_path / "flame.point.txt")


def test_point_profile_cprofile_artifacts(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["point", "--kind", "kv", "--flavor", "prism-sw",
                 "--clients", "2", "--keys", "200",
                 "--profile=cprofile"]) == 0
    capsys.readouterr()
    assert os.path.exists(tmp_path / "point.pstats")
    assert os.path.exists(tmp_path / "flame.point.txt")


def _without_wall(record):
    """A record minus ``wall``, the host wall-clock time of each run."""
    for point in record["points"]:
        del point["wall"]
    return record


def test_record_identical_apart_from_host_section(tmp_path):
    # The host section is the ONLY difference --profile makes to the
    # record: wall-clock numbers never leak into simulated metrics.
    # Fresh interpreter per run — in-process back-to-back runs differ
    # in global channel-name counters, which is not what users diff.
    import subprocess
    import sys

    import repro
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(repro.__file__)))
    base = [sys.executable, "-m", "repro.bench.cli", "point",
            "--kind", "kv", "--flavor", "prism-sw",
            "--clients", "2", "--keys", "200"]
    plain, profiled = tmp_path / "plain.json", tmp_path / "prof.json"
    for extra in ([f"--json={plain}"], [f"--json={profiled}", "--profile"]):
        proc = subprocess.run(base + extra, env=env, cwd=tmp_path,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
    expected = _without_wall(json.loads(plain.read_text()))
    observed = _without_wall(json.loads(profiled.read_text()))
    del observed["points"][0]["host"]
    assert observed == expected


def test_sweep_wall_line_reports_events_per_sec(capsys):
    assert main(["fig3", "--clients", "1", "--keys", "200"]) == 0
    out = capsys.readouterr().out
    assert "s wall" in out
    assert "events/s" in out


def test_compare_host_flag(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    record = tmp_path / "host.json"
    assert main(["point", "--kind", "kv", "--flavor", "prism-sw",
                 "--clients", "2", "--keys", "200",
                 "--json", str(record), "--profile"]) == 0
    assert main(["compare", str(record), str(record), "--host"]) == 0
    out = capsys.readouterr().out
    assert "host.events_per_sec" in out
    assert "compare: PASS" in out


def test_fig1_profile_meters_internal_simulators(tmp_path, monkeypatch,
                                                 capsys):
    # fig1 builds its simulators inside the microbench helpers; the
    # ambient profiler must still meter them.
    monkeypatch.chdir(tmp_path)
    assert main(["fig1", "--profile"]) == 0
    out = capsys.readouterr().out
    assert "host self-profile" in out
    assert os.path.exists(tmp_path / "flame.fig1.txt")


def test_parser_flight_modes():
    parser = build_parser()
    assert parser.parse_args(["point"]).flight is None
    assert parser.parse_args(["point", "--flight"]).flight == 65536
    assert parser.parse_args(["point", "--flight=128"]).flight == 128


def test_flight_dump_and_explain(capsys, tmp_path):
    dump = tmp_path / "flight.json"
    assert main(["point", "--kind", "rs", "--flavor", "prism-sw",
                 "--clients", "2", "--keys", "200",
                 "--faults", "seed=3,drop=0.02",
                 "--flight", "--flight-dump", str(dump)]) == 0
    out = capsys.readouterr().out
    assert "flight recorder" in out
    assert f"flight dump written to {dump}" in out
    data = json.loads(dump.read_text())
    assert data["ops_opened"] == data["ops_closed"] > 0
    assert main(["explain", str(dump), "--top", "2"]) == 0
    text = capsys.readouterr().out
    assert "anomalous requests" in text
    assert "causes:" in text
    assert "= measured" in text


def test_flight_dump_on_anomaly_without_explicit_path(capsys, monkeypatch,
                                                      tmp_path):
    monkeypatch.chdir(tmp_path)
    assert main(["point", "--kind", "rs", "--flavor", "prism-sw",
                 "--clients", "2", "--keys", "200",
                 "--faults", "seed=3,drop=0.02", "--flight"]) == 0
    out = capsys.readouterr().out
    assert "anomaly detected" in out
    assert os.path.exists(tmp_path / "flight.point.json")


def test_flight_clean_run_writes_no_dump(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    assert main(["point", "--kind", "kv", "--flavor", "prism-sw",
                 "--clients", "2", "--keys", "200", "--flight"]) == 0
    out = capsys.readouterr().out
    assert "flight recorder" in out
    assert "flight dump written" not in out
    assert not os.path.exists(tmp_path / "flight.point.json")


def test_record_identical_with_flight(tmp_path):
    # --flight must leave the --json record byte-identical: the flight
    # recorder observes transitions, it never creates or times them.
    import subprocess
    import sys

    import repro
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(repro.__file__)))
    base = [sys.executable, "-m", "repro.bench.cli", "point",
            "--kind", "rs", "--flavor", "prism-sw",
            "--clients", "2", "--keys", "200",
            "--faults", "seed=3,drop=0.02"]
    plain, flighted = tmp_path / "plain.json", tmp_path / "flight.json"
    for extra in ([f"--json={plain}"], [f"--json={flighted}", "--flight"]):
        proc = subprocess.run(base + extra, env=env, cwd=tmp_path,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
    assert (_without_wall(json.loads(flighted.read_text()))
            == _without_wall(json.loads(plain.read_text())))


def test_sweep_trace_writes_designated_point(capsys, tmp_path):
    # Satellite: --trace used to be silently ignored on fig sweeps.
    trace = tmp_path / "fig3.trace.json"
    assert main(["fig3", "--clients", "1,2", "--keys", "200",
                 "--trace", str(trace)]) == 0
    out = capsys.readouterr().out
    assert f"chrome trace written to {trace} (prism-sw c=2)" in out
    assert json.loads(trace.read_text())


def test_contention_trace_writes_designated_point(capsys, tmp_path):
    trace = tmp_path / "fig7.trace.json"
    assert main(["fig7", "--clients", "2", "--keys", "200",
                 "--zipfs", "0.0,0.9", "--trace", str(trace)]) == 0
    out = capsys.readouterr().out
    assert f"chrome trace written to {trace} (prism-sw zipf=0.9)" in out
    assert json.loads(trace.read_text())


def test_sweep_flight_dumps_first_anomalous_point(capsys, tmp_path):
    dump = tmp_path / "sweep-flight.json"
    assert main(["fig6", "--clients", "1,2", "--keys", "200",
                 "--faults", "seed=3,drop=0.02",
                 "--flight", "--flight-dump", str(dump)]) == 0
    out = capsys.readouterr().out
    assert out.count("flight dump written") == 1
    assert json.loads(dump.read_text())["ops_opened"] > 0


def test_trace_and_flight_rejected_off_point_commands(capsys):
    assert main(["fig1", "--trace", "x.json"]) == 2
    assert "--trace is not supported" in capsys.readouterr().err
    assert main(["list", "--flight"]) == 2
    assert "--flight is not supported" in capsys.readouterr().err
    assert main(["point", "--flight=0"]) == 2
    assert "capacity" in capsys.readouterr().err


def test_explain_requires_one_path(capsys):
    assert main(["explain"]) == 2
    assert "usage" in capsys.readouterr().err


def test_parser_series_modes():
    parser = build_parser()
    assert parser.parse_args(["point"]).series is None
    assert parser.parse_args(["point", "--series"]).series == 50.0
    assert parser.parse_args(["point", "--series=25"]).series == 25.0


def test_series_point_prints_report(capsys):
    assert main(["point", "--kind", "kv", "--flavor", "prism-sw",
                 "--clients", "2", "--keys", "200", "--series"]) == 0
    out = capsys.readouterr().out
    assert "time series" in out
    assert "steady state" in out
    assert "reconciliation" in out
    assert "tput" in out and "lat" in out


def test_series_rejected_off_point_commands(capsys):
    assert main(["fig1", "--series"]) == 2
    assert "--series is not supported" in capsys.readouterr().err
    assert main(["list", "--series"]) == 2
    assert "--series is not supported" in capsys.readouterr().err


def test_series_window_must_be_positive(capsys):
    assert main(["point", "--series=0"]) == 2
    assert "window must be > 0" in capsys.readouterr().err


def test_warmup_measure_flags_validated(capsys):
    assert main(["point", "--warmup-us", "-1"]) == 2
    assert "--warmup-us must be positive" in capsys.readouterr().err
    assert main(["point", "--measure-us", "0"]) == 2
    assert "--measure-us must be positive" in capsys.readouterr().err
    assert main(["list", "--warmup-us", "10"]) == 2
    assert "--warmup-us is not supported" in capsys.readouterr().err


def test_warmup_measure_recorded_in_config(tmp_path, capsys):
    record = tmp_path / "windows.json"
    assert main(["point", "--kind", "kv", "--flavor", "prism-sw",
                 "--clients", "2", "--keys", "200",
                 "--warmup-us", "100", "--measure-us", "800",
                 "--json", str(record)]) == 0
    capsys.readouterr()
    config = json.loads(record.read_text())["points"][0]["config"]
    assert config["warmup_us"] == 100.0
    assert config["measure_us"] == 800.0


def test_series_json_embeds_report(tmp_path, capsys):
    record = tmp_path / "series.json"
    assert main(["point", "--kind", "kv", "--flavor", "prism-sw",
                 "--clients", "2", "--keys", "200",
                 "--series", "--json", str(record)]) == 0
    capsys.readouterr()
    data = json.loads(record.read_text())
    assert data["schema_version"] == 6
    series = data["points"][0]["series"]
    assert series["windows"]
    assert series["steady_state"]["detector"] == "mser"
    assert series["reconciliation"]["window_measured_sum"] == \
        data["points"][0]["metrics"]["ops"]


def test_record_identical_with_series(tmp_path):
    # --series must leave the rest of the --json record byte-identical,
    # faults included: the collector observes transitions, it never
    # creates or times them.
    import subprocess
    import sys

    import repro
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(repro.__file__)))
    base = [sys.executable, "-m", "repro.bench.cli", "point",
            "--kind", "rs", "--flavor", "prism-sw",
            "--clients", "2", "--keys", "200",
            "--faults", "seed=3,drop=0.02"]
    plain, collected = tmp_path / "plain.json", tmp_path / "series.json"
    for extra in ([f"--json={plain}"], [f"--json={collected}", "--series"]):
        proc = subprocess.run(base + extra, env=env, cwd=tmp_path,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
    expected = _without_wall(json.loads(plain.read_text()))
    observed = _without_wall(json.loads(collected.read_text()))
    del observed["points"][0]["series"]
    assert observed == expected


def test_sweep_series_prints_per_point(capsys):
    assert main(["fig3", "--clients", "1,2", "--keys", "200",
                 "--series"]) == 0
    out = capsys.readouterr().out
    # one series block per (flavor, client count) point
    assert out.count("time series") == 6
    assert "steady state" in out


def test_compare_series_flag(tmp_path, capsys):
    record = tmp_path / "series.json"
    assert main(["point", "--kind", "kv", "--flavor", "prism-sw",
                 "--clients", "2", "--keys", "200",
                 "--series", "--json", str(record)]) == 0
    capsys.readouterr()
    assert main(["compare", str(record), str(record), "--series"]) == 0
    out = capsys.readouterr().out
    assert "series.steady_mean_us" in out
    assert "compare: PASS" in out


def test_compare_host_and_series_combined(tmp_path, monkeypatch, capsys):
    # --host and --series compose: one invocation checks both band
    # families, and a trip in either fails the compare.
    monkeypatch.chdir(tmp_path)
    record = tmp_path / "run.json"
    assert main(["point", "--kind", "kv", "--flavor", "prism-sw",
                 "--clients", "2", "--keys", "200",
                 "--series", "--profile", "--json", str(record)]) == 0
    capsys.readouterr()
    assert main(["compare", str(record), str(record),
                 "--host", "--series"]) == 0
    out = capsys.readouterr().out
    assert "host.events_per_sec" in out
    assert "series.steady_mean_us" in out
    assert "compare: PASS" in out
    # A tripped series band still fails while host passes.
    import json as json_mod
    data = json_mod.loads(record.read_text())
    worse = json_mod.loads(record.read_text())
    worse["points"][0]["series"]["steady_state"]["steady_mean_us"] *= 2
    run = tmp_path / "worse.json"
    run.write_text(json_mod.dumps(worse))
    assert data["points"][0]["host"]["events_per_sec"] > 0
    assert main(["compare", str(record), str(run),
                 "--host", "--series"]) == 1
    assert "compare: FAIL" in capsys.readouterr().out


def _run_cli_json(tmp_path, name, argv, script=None):
    """Run the CLI (or a benchmark script) in a fresh interpreter."""
    import subprocess
    import sys

    import repro
    src = os.path.dirname(os.path.dirname(repro.__file__))
    out = tmp_path / name
    command = ([sys.executable, script] if script
               else [sys.executable, "-m", "repro.bench.cli"])
    proc = subprocess.run(command + argv + ["--json", str(out)],
                          env=dict(os.environ, PYTHONPATH=src), cwd=tmp_path,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(out.read_text())


def test_record_identical_script_and_cli(tmp_path):
    # The fig3 script's __main__ and `cli fig3 --flavor prism-sw` are one
    # path: their points differ only in host-side sections, and both
    # meter --profile at the same stride.
    from pathlib import Path

    from repro.bench.cli import HOST_PROFILE_STRIDE
    script = str(Path(__file__).resolve().parents[2] / "benchmarks"
                 / "bench_fig3_kv_read.py")
    geometry = ["--clients", "4", "--keys", "1000", "--profile"]
    from_script = _run_cli_json(tmp_path, "a.json", geometry, script=script)
    from_cli = _run_cli_json(tmp_path, "b.json",
                             ["fig3", "--flavor", "prism-sw"] + geometry)
    for record in (from_script, from_cli):
        del record["provenance"]
        for point in _without_wall(record)["points"]:
            assert point.pop("host")["stride"] == HOST_PROFILE_STRIDE
    assert from_script == from_cli
    assert [point["id"] for point in from_cli["points"]] == ["kv/prism-sw/c4"]


@pytest.mark.parametrize("argv, flag", [
    (["fig1", "--faults", "seed=1,drop=0.01"], "--faults"),
    (["motivation", "--json", "x.json"], "--json"),
    (["fig2", "--primitives"], "--primitives"),
    (["fig3", "--zipfs", "0.5"], "--zipfs"),
    (["fig3", "--kind", "tx"], "--kind"),
    (["fig10", "--zipf", "0.5"], "--zipf"),
    (["fig7", "--zipf", "0"], "--zipf"),
    (["fig7", "--read-fraction", "0.9"], "--read-fraction"),
    (["list", "--host"], "--host"),
    (["list", "--top", "3"], "--top"),
    (["compare", "--profile"], "--profile"),
])
def test_unconsumed_flags_rejected(capsys, argv, flag):
    assert main(argv) == 2
    assert f"{flag} is not supported by '{argv[0]}'" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["point", "--flight-dump", "x.json"], "--flight-dump requires --flight"),
    (["point", "--arrival-rate", "10"], "require --clients-aggregated"),
    (["point", "--kind", "tx", "--read-fraction", "0.9"], "--read-fraction"),
    (["fig3", "--clients", "2", "--clients-aggregated", "1000"],
     "exclusive"),
])
def test_flag_combinations_rejected(capsys, argv, message):
    assert main(argv) == 2
    assert message in capsys.readouterr().err


def test_profile_stride_option_removed():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["point", "--profile-stride", "4"])


@pytest.mark.parametrize("argv", [
    ["point", "--kind", "tx", "--flavor", "prism-sw"],
    ["fig3"], ["fig4"], ["fig6"], ["fig9"],
    ["fig7", "--zipfs", "0.9"], ["fig10", "--zipfs", "0.9"],
])
def test_every_measured_command_writes_a_full_record(tmp_path, capsys,
                                                     argv):
    record = tmp_path / "run.json"
    assert main(argv + ["--clients", "2", "--keys", "200",
                        "--measure-us", "300", "--json", str(record)]) == 0
    capsys.readouterr()
    points = json.loads(record.read_text())["points"]
    assert points
    for point in points:
        assert point["config"]["measure_us"] == 300.0
        assert point["metrics"]["ops"] > 0
        assert point["wall"]["events_per_sec"] > 0
    assert len({point["id"] for point in points}) == len(points)


def test_figure_defaults_follow_the_figure_specs():
    # Resolution only: no simulation runs.
    def resolved(*argv):
        return resolve_figure(build_parser().parse_args(list(argv)))

    fig7 = resolved("fig7")
    assert (fig7.clients, fig7.keys, fig7.measure_us) == ((100,), 4000,
                                                         2500.0)
    assert fig7.zipfs == (0.0, 0.5, 0.9, 1.2)
    fig10 = resolved("fig10")
    assert fig10.clients == (24, 96, 176) and fig10.measure_us == 1200.0
    assert fig10.zipfs == (0.0, 0.6, 0.9, 1.2)
    assert 288 in resolved("fig9").clients
    assert resolved("fig6").strict_sum is False
    assert resolved("fig3", "--flavor", "pilaf-hw").flavors == ("pilaf-hw",)
    point = resolved("point", "--kind", "rs", "--clients", "3")
    assert point.clients == (3,) and point.read_fraction == 0.5
    assert resolved("point", "--kind", "tx").read_fraction is None


@pytest.mark.parametrize("figure, reason", [
    ("fig4", "scratch slot"), ("fig6", "scratch slot"),
    ("fig9", "YCSB-T"), ("fig10", "YCSB-T")])
def test_aggregated_sources_reject_mixes_they_cannot_run(capsys, figure,
                                                         reason):
    assert main([figure, "--clients-aggregated", "1000"]) == 2
    err = capsys.readouterr().err
    assert "--clients-aggregated is not supported by" in err
    assert reason in err


def test_aggregated_fig3_point_runs_the_figure_mix(tmp_path, capsys):
    record = tmp_path / "agg.json"
    assert main(["fig3", "--flavor", "prism-sw", "--clients-aggregated",
                 "10000", "--keys", "200", "--measure-us", "300",
                 "--json", str(record)]) == 0
    assert "modeled clients" in capsys.readouterr().out
    point = json.loads(record.read_text())["points"][0]
    model = point["config"]["source_model"]
    assert model["clients"] == 10000
    assert model["read_fraction"] == 1.0
    assert point["metrics"]["ops"] > 0

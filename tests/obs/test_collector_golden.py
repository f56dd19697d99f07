"""Characterization: every collector's report is pinned byte for byte.

Two small points run with every collector on, each in a fresh
interpreter (message, request, connection and free-list ids are
process-global counters, so only a fresh process replays them
exactly). Each collector's report is hashed as canonical JSON. A
refactor of the hook sites or of the event dispatch must leave every
collector seeing the same event stream, in the same order, so every
digest must stay put. The headline counts name the collector that
moved when a digest does.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]

#: runs one point in a fresh interpreter and prints
#: ``{"digests": {collector: sha256}, "counts": {name: n}}``
_SCRIPT = r"""
import hashlib, json, sys
from repro.bench.harness import run_point
from repro.obs import (FlightRecorder, PrimitiveCollector, RfpCrossoverProbe,
                       SeriesCollector, Tracer, UtilizationCollector,
                       ViewCollector)
from repro.workload import YcsbTransactionalWorkload, YcsbWorkload

kind, = sys.argv[1:]
primitives, series, views = (PrimitiveCollector(), SeriesCollector(),
                             ViewCollector())
utilization, flight = UtilizationCollector(), FlightRecorder()
if kind == "tx":
    factory = lambda i: YcsbTransactionalWorkload(
        400, keys_per_txn=2, zipf=0.6, seed=3, client_id=i)
    faults = "seed=3,drop=0.01,crash=server@600+300"
else:
    views.add_probe(RfpCrossoverProbe())
    factory = lambda i: YcsbWorkload(
        200, read_fraction=0.5, zipf=0.99, seed=3, client_id=i)
    faults = None
result = run_point(kind, "prism-sw", factory, 8, n_keys=400 if kind == "tx"
                   else 200, warmup_us=200.0, measure_us=1000.0,
                   tracer=Tracer(), utilization=utilization,
                   primitives=primitives, series=series, views=views,
                   flight=flight, faults=faults)
reports = {
    "primitives": primitives.report(),
    "series": series.report(utilization=utilization,
                            faults=result.extra.get("faults")),
    "views": views.report(),
    "utilization": utilization.report(),
    "flight": flight.events,
}
digests = {name: hashlib.sha256(json.dumps(
    report, sort_keys=True, default=repr).encode()).hexdigest()
    for name, report in reports.items()}
prim = reports["primitives"]
counts = {
    "ops": result.ops,
    "primitives.cas_attempts": prim["cas"]["attempts"],
    "primitives.chains": prim["chains"]["requests"],
    "primitives.aborted": prim["chains"]["aborted"],
    "series.ops": series.total_ops,
    "views.decisions": views.decisions_recorded,
    "utilization.rows": len(reports["utilization"]),
    "flight.recorded": flight.recorded,
}
print(json.dumps({"digests": digests, "counts": counts}))
"""

#: sha256 of each collector's canonical-JSON report, per point
DIGESTS = {
    ("tx", "primitives"):
        "3cb36b3d8f0893e5f095adc8a2f8880145e38aba93ac5311192db841f2349547",
    ("tx", "series"):
        "7a86b099fd5cbbcbbca998b307560abb18c90b85537da69b4b6138c05a059ac5",
    ("tx", "views"):
        "327a64b1e3d18feab7a4898e68aed71c184e0be050303fb72b74669905fa5ec6",
    ("tx", "utilization"):
        "7617aade494b35e123835a5542296cfa1cec63dcff810397a90c44c7ebd16b28",
    ("tx", "flight"):
        "93603f241f1395041168a03bf55d0eb307e9ac78676cc447dac4c501574f40d9",
    ("rs", "primitives"):
        "1258e390cbd2d3bf2da25abc1b088ffd5ac1308cf2bef1fa91e4e653ab0440a5",
    ("rs", "series"):
        "0b0ab7c45d3f97ed446d106f4d4933bfd7a4eb3efbc5bdc03c325ab632d278ea",
    ("rs", "views"):
        "e2b39f03a45f85574721aa5441e935f11a5f219e5b18ffe9eb882dd507be0c14",
    ("rs", "utilization"):
        "e3fc7a39072618dd87cc1fe6a154a6fc7c384b94df66b65e45119c80ede8baa8",
    ("rs", "flight"):
        "d57f7b6e7f28986965e452bb26e3b166718e986ae4f0351892eadd44b0b8c32e",
}

#: headline counts, per point: which collector moved
COUNTS = {
    "tx": {
        "ops": 185,
        "primitives.cas_attempts": 1686,
        "primitives.chains": 885,
        "primitives.aborted": 34,
        "series.ops": 252,
        "views.decisions": 0,
        "utilization.rows": 36,
        "flight.recorded": 3512,
    },
    "rs": {
        "ops": 642,
        "primitives.cas_attempts": 2331,
        "primitives.chains": 4662,
        "primitives.aborted": 1185,
        "series.ops": 777,
        "views.decisions": 240,
        "utilization.rows": 62,
        "flight.recorded": 18342,
    },
}


@pytest.fixture(scope="module", params=sorted(COUNTS))
def observed(request):
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"),
               PYTHONHASHSEED="0")
    done = subprocess.run([sys.executable, "-c", _SCRIPT, request.param],
                          check=True, env=env, capture_output=True,
                          text=True, timeout=600)
    return request.param, json.loads(done.stdout.splitlines()[-1])


def test_headline_counts_unchanged(observed):
    kind, got = observed
    assert got["counts"] == COUNTS[kind]


@pytest.mark.parametrize("collector", ["primitives", "series", "views",
                                       "utilization", "flight"])
def test_report_digest_unchanged(observed, collector):
    kind, got = observed
    assert got["digests"][collector] == DIGESTS[kind, collector]

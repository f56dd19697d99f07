"""Observability must be free when off and invisible when on.

The collectors (tracer, utilization, primitives, flight, series, views)
only read state at transitions the run already makes, so a fully
monitored run must be *bit-identical* in simulated time to a bare one —
same ops, same mean, same p99, same abort count. This is the regression
test that keeps that guarantee honest.
"""

import pytest

from repro.bench.harness import run_point
from repro.obs import (
    FlightRecorder,
    PrimitiveCollector,
    RfpCrossoverProbe,
    SeriesCollector,
    Tracer,
    UtilizationCollector,
    ViewCollector,
)
from repro.workload import YCSB_C, YcsbTransactionalWorkload, YcsbWorkload

CLIENTS = 4
KEYS = 400

#: per system kind, a workload whose chains survive message loss (KV
#: GETs, RS quorum ops and TX commits are retry-safe)
_WORKLOADS = {
    "kv": lambda i: YCSB_C(KEYS, zipf=0.9, seed=11, client_id=i),
    "rs": lambda i: YcsbWorkload(KEYS, read_fraction=0.5, zipf=0.9,
                                 seed=11, client_id=i),
    "tx": lambda i: YcsbTransactionalWorkload(KEYS, keys_per_txn=2,
                                              zipf=0.6, seed=11,
                                              client_id=i),
}


def _run(kind="kv", **collectors):
    return run_point(kind, "prism-sw", _WORKLOADS[kind], CLIENTS,
                     n_keys=KEYS, warmup_us=100.0, measure_us=500.0,
                     **collectors)


def _all_collectors():
    views = ViewCollector()
    views.add_probe(RfpCrossoverProbe())
    return {"tracer": Tracer(), "utilization": UtilizationCollector(),
            "primitives": PrimitiveCollector(), "flight": FlightRecorder(),
            "series": SeriesCollector(), "views": views}


@pytest.mark.parametrize("faults", [None, "seed=3,drop=0.01"],
                         ids=["clean", "faulty"])
@pytest.mark.parametrize("kind", ["kv", "rs", "tx"])
def test_all_collectors_do_not_perturb_simulated_time(kind, faults):
    bare = _run(kind, faults=faults)
    monitored = _run(kind, faults=faults, **_all_collectors())
    # RunResult is a dataclass: equality compares every measured field
    # (ops, throughput, mean/p50/p99 latency, aborts) exactly; under a
    # fault plan ``extra`` also carries the injector's counters.
    assert monitored == bare


def test_primitives_alone_do_not_perturb_simulated_time():
    bare = _run()
    monitored = _run(primitives=PrimitiveCollector())
    assert monitored == bare


def test_collectors_saw_the_run():
    """The identical-timing run must still have *collected*."""
    primitives = PrimitiveCollector()
    tracer = Tracer()
    _run(tracer=tracer, primitives=primitives)
    report = primitives.report()
    assert report["chains"]["requests"] > 0
    assert report["keys"]["prism-kv"]["total"] > 0
    assert any(root.end is not None for root in tracer.roots)

"""The four benchmark workloads and how to run one repetition of each.

Every workload is one fixed ``repro.bench.harness.run_point`` call:
system kind and flavor, client population, key space, key
distribution, measurement geometry, fault plan and observers. The
workload seed feeds the YCSB / arrival-source seeds and the fault-plan
seed, so the same seed replays the same simulation exactly.

Why each workload was chosen, and which layers it loads and bypasses,
is written down in ``NOTES.md`` beside this file.
"""

from dataclasses import dataclass

from repro.bench.harness import run_point
from repro.faults import parse_faults
from repro.obs import (
    FlightRecorder,
    PrimitiveCollector,
    SeriesCollector,
    UtilizationCollector,
    ViewCollector,
)
from repro.workload import YcsbTransactionalWorkload, YcsbWorkload

WARMUP_US = 300.0


@dataclass(frozen=True)
class Workload:
    """One fixed measurement point; ``run`` repeats it for a seed."""

    name: str
    kind: str
    flavor: str
    clients: int
    keys: int
    measure_us: float
    read_fraction: float = 1.0
    zipf: float = 0.0
    #: YCSB-T keys per transaction (tx only)
    keys_per_txn: int = 0
    #: modeled clients' per-client rate; set for open-loop workloads
    rate_per_client_ops_s: float = 0.0
    #: fault spec without the seed, e.g. ``"drop=0.01"``
    faults: str = ""
    #: install all five collectors (primitives, series, views,
    #: utilization, flight)
    observed: bool = False
    #: check that the tracer's phase sums reconcile with mean latency
    #: (operations are sequential span chains, no parallel fan-out)
    check_phases: bool = False

    @property
    def open_loop(self):
        return self.rate_per_client_ops_s > 0.0

    def workload_factory(self, seed):
        if self.kind == "tx":
            return lambda i: YcsbTransactionalWorkload(
                self.keys, keys_per_txn=self.keys_per_txn, zipf=self.zipf,
                seed=seed, client_id=i)
        return lambda i: YcsbWorkload(
            self.keys, read_fraction=self.read_fraction, zipf=self.zipf,
            seed=seed, client_id=i)

    def collectors(self):
        """Fresh collectors for one repetition (``run_point`` kwargs)."""
        if not self.observed:
            return {}
        return {"primitives": PrimitiveCollector(),
                "series": SeriesCollector(),
                "views": ViewCollector(),
                "utilization": UtilizationCollector(),
                "flight": FlightRecorder()}

    def run(self, seed, observers=True, **extra):
        """One deterministic repetition; returns the ``RunResult``.

        ``observers=False`` drops the workload's own collectors (the
        collectors-off pass of ``obs.overhead_ratio``). ``extra`` adds
        run_point keyword arguments such as a tracer.
        """
        kwargs = self.collectors() if observers else {}
        kwargs.update(extra)
        if self.faults:
            kwargs["faults"] = parse_faults(f"seed={seed},{self.faults}")
        if self.open_loop:
            kwargs["source_model"] = {
                "rate_per_client_ops_s": self.rate_per_client_ops_s,
                "read_fraction": self.read_fraction,
                "zipf": self.zipf, "seed": seed}
        return run_point(self.kind, self.flavor,
                         self.workload_factory(seed), self.clients,
                         n_keys=self.keys, warmup_us=WARMUP_US,
                         measure_us=self.measure_us, **kwargs)


WORKLOADS = {w.name: w for w in (
    Workload("kv-read", "kv", "prism-sw", clients=32, keys=8000,
             measure_us=2000.0, check_phases=True),
    Workload("rs-zipf-rw", "rs", "prism-sw", clients=32, keys=4000,
             measure_us=750.0, read_fraction=0.5, zipf=0.99),
    Workload("kv-open-agg", "kv", "prism-sw", clients=100_000, keys=8000,
             measure_us=4000.0, rate_per_client_ops_s=20.0),
    Workload("tx-chaos-observed", "tx", "prism-sw", clients=32, keys=4000,
             measure_us=4000.0, zipf=0.6, keys_per_txn=2,
             faults="drop=0.01", observed=True),
)}

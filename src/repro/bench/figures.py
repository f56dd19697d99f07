"""The paper's measured figures, declared once.

Each :class:`Figure` fixes what one figure measures: the system kind,
the compared flavors, the workload mix and seed, the key count, the
client counts (and, for the contention figures, the Zipf coefficients)
and the measurement windows. The ``benchmarks/bench_fig*.py`` pytest
bodies and the ``repro.bench.cli`` figure commands both read
:data:`FIGURES`, so the CLI and pytest measure the same figure; the
CLI flags only rescale it.
"""

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.bench.harness import run_point
from repro.workload import YcsbTransactionalWorkload, YcsbWorkload


@dataclass(frozen=True)
class Figure:
    """One measured figure (or, for ``cli point``, one ad-hoc system).

    ``read_fraction`` is the YCSB read share; None selects YCSB-T
    read-modify-write transactions (one key each, as in Figs. 9-10).
    ``zipfs`` is None for the client sweeps, which run uniform keys
    unless told otherwise; the contention figures sweep it.
    ``strict_sum`` says whether per-phase sums must reconcile with the
    measured mean latency: they do not under quorum fan-out, where
    replicas work in parallel and the sums read as total work.
    """

    kind: str
    flavors: Tuple[str, ...]
    seed: int
    read_fraction: Optional[float]
    keys: int
    clients: Tuple[int, ...]
    zipfs: Optional[Tuple[float, ...]] = None
    warmup_us: float = 300.0
    measure_us: float = 1500.0
    strict_sum: bool = True

    def workload(self, zipf=0.0):
        """The per-client workload factory for one Zipf coefficient."""
        if self.read_fraction is None:
            return lambda index: YcsbTransactionalWorkload(
                self.keys, keys_per_txn=1, zipf=zipf, seed=self.seed,
                client_id=index)
        return lambda index: YcsbWorkload(
            self.keys, read_fraction=self.read_fraction, zipf=zipf,
            seed=self.seed, client_id=index)

    def run_point(self, flavor, n_clients, zipf=0.0, **kwargs):
        """:func:`repro.bench.harness.run_point` at this figure's geometry."""
        return run_point(self.kind, flavor, self.workload(zipf), n_clients,
                         n_keys=self.keys, warmup_us=self.warmup_us,
                         measure_us=self.measure_us, **kwargs)

    def sweep(self, flavor, zipf=0.0):
        """One curve: a point per client count."""
        return [self.run_point(flavor, n, zipf) for n in self.clients]


_CLIENT_SWEEP = (1, 8, 32, 96, 176)

FIGURES = {
    # YCSB-C (100% reads), uniform keys.
    "fig3": Figure("kv", ("prism-sw", "pilaf-hw", "pilaf-sw"), seed=11,
                   read_fraction=1.0, keys=8_000, clients=_CLIENT_SWEEP),
    # YCSB-A (50/50), uniform keys.
    "fig4": Figure("kv", ("prism-sw", "pilaf-hw", "pilaf-sw"), seed=13,
                   read_fraction=0.5, keys=8_000, clients=_CLIENT_SWEEP),
    "fig6": Figure("rs", ("prism-sw", "abdlock-hw", "abdlock-sw"), seed=17,
                   read_fraction=0.5, keys=8_000, clients=_CLIENT_SWEEP,
                   strict_sum=False),
    # 100 closed-loop clients; the longer window lets lock-convoy
    # victims complete inside the measurement (their latency belongs
    # in the mean).
    "fig7": Figure("rs", ("prism-sw", "abdlock-hw"), seed=19,
                   read_fraction=0.5, keys=4_000, clients=(100,),
                   zipfs=(0.0, 0.5, 0.9, 1.2), measure_us=2500.0,
                   strict_sum=False),
    "fig9": Figure("tx", ("prism-sw", "farm-hw", "farm-sw"), seed=23,
                   read_fraction=None, keys=8_000,
                   clients=_CLIENT_SWEEP + (288,)),
    # Peak throughput per Zipf coefficient: the max over the client
    # sweep, as the paper plots it.
    "fig10": Figure("tx", ("prism-sw", "farm-hw"), seed=29,
                    read_fraction=None, keys=4_000, clients=(24, 96, 176),
                    zipfs=(0.0, 0.6, 0.9, 1.2), measure_us=1200.0),
}


def peak(results):
    """The highest-throughput result of a client sweep."""
    return max(results, key=lambda result: result.throughput_ops_per_sec)

"""§2.1 motivation numbers: one-sided READ vs two-sided RPC.

Paper (512 B value, 40 GbE through one switch):
  one-sided READ ≈ 3.2 µs, eRPC ≈ 5.6 µs (READ 43% faster);
  two dependent READs ≈ 0.8 µs *slower* than a single RPC.
"""

from repro.bench.microbench import (
    measure_one_sided_read,
    measure_rpc_read,
    measure_two_rdma_reads,
)
from repro.bench.reporting import print_table
from repro.net.topology import RACK


def _run():
    read = measure_one_sided_read(profile=RACK)
    rpc = measure_rpc_read(profile=RACK)
    two_reads = measure_two_rdma_reads(profile=RACK)
    return read, rpc, two_reads


def test_motivation_numbers(benchmark):
    read, rpc, two_reads = benchmark.pedantic(_run, rounds=1, iterations=1)
    print_table(
        "§2.1: RPCs vs memory accesses (512 B, one ToR switch)",
        ["operation", "paper_us", "measured_us"],
        [
            ["one-sided READ", 3.2, read],
            ["two-sided eRPC", 5.6, rpc],
            ["two dependent READs", 6.4, two_reads],
        ])
    # One-sided is substantially faster than an RPC...
    assert read < rpc
    assert 2.4 <= read <= 4.0
    assert 4.6 <= rpc <= 6.6
    # ...but chasing a pointer with two READs loses to a single RPC.
    assert two_reads > rpc
    assert 0.2 <= two_reads - rpc <= 2.5


if __name__ == "__main__":
    import sys

    from repro.bench.cli import figure_main

    sys.exit(figure_main("motivation"))

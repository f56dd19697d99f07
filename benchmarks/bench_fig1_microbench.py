"""Figure 1: primitive microbenchmarks on a direct link (512 B).

Paper: baseline hardware RDMA ops ≈ 2.5 µs; the PRISM software
prototype adds 2.5-2.8 µs; the projected hardware PRISM NIC adds only
PCIe round trips; the BlueField smart NIC is the slowest option.
"""

from repro.bench.microbench import (
    BACKENDS,
    CLASSIC_PRIMITIVES,
    PRIMITIVES,
    measure_primitive,
)
from repro.bench.reporting import print_table
from repro.net.topology import DIRECT

ORDER = ["read", "write", "indirect-read", "allocate", "enhanced-cas"]
COLUMNS = ["rdma", "prism-sw", "prism-bluefield", "prism-hw"]


def _run():
    table = {}
    for primitive in ORDER:
        for backend in COLUMNS:
            if backend == "rdma" and primitive not in CLASSIC_PRIMITIVES:
                table[(primitive, backend)] = None
                continue
            table[(primitive, backend)] = measure_primitive(
                backend, primitive, profile=DIRECT)
    return table


def test_fig1_primitive_latencies(benchmark):
    table = benchmark.pedantic(_run, rounds=1, iterations=1)
    rows = []
    for primitive in ORDER:
        rows.append([primitive] + [
            table[(primitive, backend)] if table[(primitive, backend)]
            is not None else "-"
            for backend in COLUMNS])
    print_table("Fig. 1: primitive latency, direct link (µs)",
                ["primitive"] + COLUMNS, rows)

    read_rdma = table[("read", "rdma")]
    # Baseline RDMA ops land at the paper's ~2.5 µs.
    assert 2.1 <= read_rdma <= 2.9
    assert 2.1 <= table[("write", "rdma")] <= 2.9
    # The software prototype adds ~2.5-2.8 µs over hardware RDMA.
    delta = table[("read", "prism-sw")] - read_rdma
    assert 1.8 <= delta <= 3.5, delta
    for primitive in ORDER:
        sw = table[(primitive, "prism-sw")]
        bf = table[(primitive, "prism-bluefield")]
        hw = table[(primitive, "prism-hw")]
        # BlueField is the slowest deployment option for every primitive.
        assert bf > sw, primitive
        # The projected ASIC beats the software stack everywhere.
        assert hw < sw, primitive
    # Projected-hardware plain ops match today's RDMA NIC.
    assert abs(table[("read", "prism-hw")] - read_rdma) < 0.3
    # Indirection costs the hardware NIC one extra PCIe round trip.
    extra = table[("indirect-read", "prism-hw")] - table[("read", "prism-hw")]
    assert 0.4 <= extra <= 1.6, extra


if __name__ == "__main__":
    import sys

    from repro.bench.cli import figure_main

    sys.exit(figure_main("fig1"))

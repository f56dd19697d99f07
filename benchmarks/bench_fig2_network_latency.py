"""Figure 2: indirect read vs two RDMA READs across network tiers.

Paper: with a single ToR switch (0.6 µs), a three-tier cluster (3 µs),
or reported datacenter RDMA latency (24 µs), PRISM's software
implementation beats the two-round-trip RDMA baseline in every setting
— the gap growing with network latency because PRISM eliminates a
round trip.
"""

from repro.bench.microbench import measure_primitive, measure_two_rdma_reads
from repro.bench.reporting import print_table
from repro.net.topology import CLUSTER, DATACENTER, RACK

TIERS = [("rack", RACK), ("cluster", CLUSTER), ("datacenter", DATACENTER)]


def _run():
    results = {}
    for name, profile in TIERS:
        results[(name, "2x-rdma")] = measure_two_rdma_reads(profile=profile)
        for backend in ("prism-sw", "prism-bluefield", "prism-hw"):
            results[(name, backend)] = measure_primitive(
                backend, "indirect-read", profile=profile)
    return results


def test_fig2_indirect_read_vs_network(benchmark):
    results = benchmark.pedantic(_run, rounds=1, iterations=1)
    columns = ["2x-rdma", "prism-sw", "prism-bluefield", "prism-hw"]
    rows = [[name] + [results[(name, c)] for c in columns]
            for name, _ in TIERS]
    print_table("Fig. 2: indirect read latency by deployment (µs)",
                ["tier"] + columns, rows)

    gaps = []
    for name, _profile in TIERS:
        two_rdma = results[(name, "2x-rdma")]
        sw = results[(name, "prism-sw")]
        hw = results[(name, "prism-hw")]
        # PRISM software beats two RDMA round trips at every tier
        # despite executing on the CPU (§4.3, Fig. 2).
        assert sw < two_rdma, name
        assert hw < sw, name
        gaps.append(two_rdma - sw)
    # The benefit grows with network latency (a whole RTT is saved).
    assert gaps[0] < gaps[1] < gaps[2]
    # At datacenter latency the saved round trip dominates: the gap is
    # roughly one datacenter RTT (~24 µs).
    assert gaps[2] > 12.0
    # BlueField only pays off once the network is slow enough.
    assert (results[("datacenter", "prism-bluefield")]
            < results[("datacenter", "2x-rdma")])


if __name__ == "__main__":
    import sys

    from repro.bench.cli import figure_main

    sys.exit(figure_main("fig2"))

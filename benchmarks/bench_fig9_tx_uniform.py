"""Figure 9: PRISM-TX vs FaRM, YCSB-T (read-modify-write), uniform keys.

Paper: PRISM-TX commits with two one-sided round trips (prepare,
commit) plus one-round-trip execution reads, against FaRM's two-READ
accesses and three-phase commit with two RPCs — 5.5 µs lower latency
and ~1 M more transactions per second at saturation.
"""

from repro.bench.figures import FIGURES
from repro.bench.reporting import (
    CURVE_HEADERS,
    curve_rows,
    low_load_latency,
    maybe_export,
    peak_throughput,
    print_table,
)

FIG = FIGURES["fig9"]


def _run():
    return {flavor: FIG.sweep(flavor) for flavor in FIG.flavors}


def test_fig9_tx_uniform(benchmark):
    curves = benchmark.pedantic(_run, rounds=1, iterations=1)
    maybe_export("fig9", curves)
    for flavor in FIG.flavors:
        print_table(f"Fig. 9: {flavor}, YCSB-T uniform",
                    CURVE_HEADERS, curve_rows(curves[flavor]))
    prism = curves["prism-sw"]
    farm_hw = curves["farm-hw"]

    lat_prism = low_load_latency(prism)
    lat_farm = low_load_latency(farm_hw)
    print_table("Fig. 9 summary: low-load transaction latency (µs)",
                ["system", "measured_us"],
                [["PRISM-TX (sw)", lat_prism],
                 ["FaRM (hw RDMA)", lat_farm]])
    # PRISM-TX is meaningfully faster per transaction (paper: 5.5 µs,
    # an 18% reduction).
    assert lat_prism < lat_farm
    assert 2.0 <= lat_farm - lat_prism <= 9.0
    # And reaches higher peak throughput (paper: ~1 M txn/s more).
    assert peak_throughput(prism) > 1.05 * peak_throughput(farm_hw)
    assert peak_throughput(prism) > 1.05 * peak_throughput(curves["farm-sw"])


if __name__ == "__main__":
    import sys

    from repro.bench.cli import figure_main

    sys.exit(figure_main("fig9"))

"""Figure 4: PRISM-KV vs Pilaf, YCSB-A (50% reads / 50% writes).

Paper: Pilaf serves a PUT with one RPC (~6 µs) while PRISM-KV uses two
round trips (probe + chained install, ~12 µs) — so Pilaf has the lower
mixed-workload latency — but PRISM-KV matches Pilaf's peak throughput
while using no server CPU on the data path.
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

FIG = FIGURES["fig4"]


def _run():
    return {flavor: FIG.sweep(flavor) for flavor in FIG.flavors}


def test_fig4_kv_mixed(benchmark):
    curves = benchmark.pedantic(_run, rounds=1, iterations=1)
    maybe_export("fig4", curves)
    for flavor in FIG.flavors:
        print_table(f"Fig. 4: {flavor}, YCSB-A uniform",
                    CURVE_HEADERS, curve_rows(curves[flavor]))
    prism = curves["prism-sw"]
    pilaf_hw = curves["pilaf-hw"]

    lat_prism = low_load_latency(prism)
    lat_hw = low_load_latency(pilaf_hw)
    print_table("Fig. 4 summary: low-load 50/50 mean latency (µs)",
                ["system", "paper_us", "measured_us"],
                [["PRISM-KV (sw)", 9.0, lat_prism],
                 ["Pilaf (hw RDMA)", 7.25, lat_hw]])
    # Pilaf's RPC PUT path gives it the lower mixed latency...
    assert lat_hw < lat_prism
    # ...with the paper's per-op costs: PRISM PUT ~2x Pilaf PUT.
    assert 7.5 <= lat_prism <= 11.0
    assert 6.0 <= lat_hw <= 8.5

    # Throughput: PRISM-KV stays within ~20% of hardware-RDMA Pilaf
    # (§6.2: "matches it for 50/50 mixed workloads"; in this model the
    # chained PUT request's extended-atomics masks and probe round trip
    # make the server-RX byte stream the binding constraint, costing
    # PRISM-KV ~19% — see EXPERIMENTS.md).
    peak_prism = peak_throughput(prism)
    peak_hw = peak_throughput(pilaf_hw)
    assert peak_prism > 0.75 * peak_hw


if __name__ == "__main__":
    import sys

    from repro.bench.cli import figure_main

    sys.exit(figure_main("fig4"))

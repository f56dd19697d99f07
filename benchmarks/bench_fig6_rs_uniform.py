"""Figure 6: PRISM-RS vs lock-based ABD, 3 replicas, 50% writes, uniform.

Paper: PRISM-RS needs 2 quorum round trips per operation vs 4 for
ABDLOCK (lock, read, write, unlock), making it ~2 µs faster at low load
and ~4 Mops/s higher at saturation — even against ABDLOCK on hardware
RDMA.
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

FIG = FIGURES["fig6"]


def _run():
    return {flavor: FIG.sweep(flavor) for flavor in FIG.flavors}


def test_fig6_rs_uniform(benchmark):
    curves = benchmark.pedantic(_run, rounds=1, iterations=1)
    maybe_export("fig6", curves)
    for flavor in FIG.flavors:
        print_table(f"Fig. 6: {flavor}, 50% writes uniform",
                    CURVE_HEADERS, curve_rows(curves[flavor]))
    prism = curves["prism-sw"]
    abd_hw = curves["abdlock-hw"]
    abd_sw = curves["abdlock-sw"]

    lat_prism = low_load_latency(prism)
    lat_hw = low_load_latency(abd_hw)
    lat_sw = low_load_latency(abd_sw)
    print_table("Fig. 6 summary: low-load latency (µs)",
                ["system", "measured_us"],
                [["PRISM-RS (sw)", lat_prism],
                 ["ABDLOCK (hw RDMA)", lat_hw],
                 ["ABDLOCK (sw RDMA)", lat_sw]])
    # PRISM-RS beats even hardware-RDMA ABDLOCK on latency (paper ~2 µs).
    assert lat_prism < lat_hw < lat_sw
    assert 0.8 <= lat_hw - lat_prism <= 4.5

    # And saturates clearly higher (paper: ~4 Mops/s more).
    peak_prism = peak_throughput(prism)
    peak_hw = peak_throughput(abd_hw)
    assert peak_prism > 1.15 * peak_hw
    assert peak_prism > 1.15 * peak_throughput(abd_sw)


if __name__ == "__main__":
    import sys

    from repro.bench.cli import figure_main

    sys.exit(figure_main("fig6"))

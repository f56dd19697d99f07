"""Figure 7: PRISM-RS vs ABDLOCK latency under contention (Zipf).

Paper: with 100 closed-loop clients and increasingly skewed key choice,
ABDLOCK's latency degrades sharply (lock contention, backoff, retries)
while PRISM-RS stays flat at any contention level — its CAS_GT install
never blocks.
"""

from repro.bench.figures import FIGURES, peak
from repro.bench.reporting import print_table

FIG = FIGURES["fig7"]
ZIPFS = FIG.zipfs


def _run():
    # One client count (100), so the "peak" is that single point.
    return {(zipf, flavor): peak(FIG.sweep(flavor, zipf))
            for zipf in ZIPFS for flavor in FIG.flavors}


def test_fig7_rs_contention(benchmark):
    results = benchmark.pedantic(_run, rounds=1, iterations=1)
    rows = [[zipf,
             results[(zipf, "prism-sw")].mean_latency_us,
             results[(zipf, "abdlock-hw")].mean_latency_us,
             results[(zipf, "abdlock-hw")].retries]
            for zipf in ZIPFS]
    print_table("Fig. 7: mean latency vs Zipf coefficient, 100 clients (µs)",
                ["zipf", "prism-rs", "abdlock", "abd_lock_retries"], rows)

    prism_flat = [results[(z, "prism-sw")].mean_latency_us for z in ZIPFS]
    abd = [results[(z, "abdlock-hw")].mean_latency_us for z in ZIPFS]
    # PRISM-RS remains responsive at any contention level (±35%).
    assert max(prism_flat) <= 1.35 * min(prism_flat)
    # ABDLOCK degrades heavily with skew (lock contention).
    assert abd[-1] > 1.8 * abd[0]
    # At high skew, PRISM-RS is far faster than the lock-based design.
    assert abd[-1] > 1.8 * prism_flat[-1]
    # Lock retries actually happened (the degradation is real).
    assert results[(ZIPFS[-1], "abdlock-hw")].retries > 0


if __name__ == "__main__":
    import sys

    from repro.bench.cli import figure_main

    sys.exit(figure_main("fig7"))

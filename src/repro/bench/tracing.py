"""Reconciliation checks for traced measurement points.

A traced point (any ``repro.bench.cli`` measurement with ``--json``,
``--trace`` or ``--primitives``; or :func:`repro.bench.harness.run_point`
with a :class:`repro.obs.Tracer`) carries one span tree per operation.
:func:`measured_roots` picks the operations counted in the measurement
window, and the checks below assert that their per-phase and
critical-path attributions add up to the measured mean latency.

Because spans only *read* the simulated clock, a traced run's timing
is identical to the untraced run — the breakdown's phase sums match
the measured mean latency exactly, not just within tolerance.
"""


def measured_roots(tracer):
    """The root spans of operations counted in the measurement window."""
    return [root for root in tracer.roots
            if root.end is not None and root.attrs.get("measured")]


def check_critpath(result, profile, tolerance=1e-6):
    """Assert per-request critical-path sums equal measured latency.

    The critical path tiles ``[root.start, root.end]`` by
    construction, so the count-weighted mean of ``critical_sum_us``
    must equal the measured mean latency to float rounding.
    """
    total_ops = sum(entry["count"] for entry in profile.values())
    if total_ops == 0:
        raise AssertionError("no measured operations were traced")
    weighted = sum(entry["critical_sum_us"] * entry["count"]
                   for entry in profile.values()) / total_ops
    mean = result.mean_latency_us
    if abs(weighted - mean) > tolerance * max(mean, 1.0):
        raise AssertionError(
            f"critical-path sums ({weighted:.6f} µs) diverge from measured "
            f"mean latency ({mean:.6f} µs)")
    return weighted


def check_breakdown(result, report, tolerance=0.01):
    """Assert the phase sums reconcile with the measured mean latency.

    The measured mean is the count-weighted mean of the per-op-type
    means, so the weighted phase sums must match it within
    ``tolerance`` (they match exactly up to float rounding; the
    tolerance is the acceptance bound, not slack we expect to use).
    """
    total_ops = sum(entry["count"] for entry in report.values())
    if total_ops == 0:
        raise AssertionError("no measured operations were traced")
    weighted_sum = sum(entry["phase_sum_us"] * entry["count"]
                       for entry in report.values()) / total_ops
    mean = result.mean_latency_us
    if abs(weighted_sum - mean) > tolerance * mean:
        raise AssertionError(
            f"phase sums ({weighted_sum:.4f} µs) diverge from measured "
            f"mean latency ({mean:.4f} µs) by more than {tolerance:.0%}")
    return weighted_sum

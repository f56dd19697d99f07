"""Critical-path attribution: synthetic span trees + end-to-end runs.

The invariant under test everywhere: the critical segments tile
``[root.start, root.end]`` exactly, so per-request attributions sum to
end-to-end latency by construction — for sequential requests *and*
for quorum fan-out, where the phase breakdown over-counts.
"""

import pytest

from repro.bench.harness import run_point
from repro.bench.tracing import check_critpath, measured_roots
from repro.obs import (
    Tracer,
    critical_attribution,
    critical_contributors,
    critical_segments,
    critpath_profile,
    critpath_rows,
    slack_us,
)
from repro.obs.critpath import format_contributors
from repro.workload import YCSB_A, YCSB_C


class _Clock:
    """A settable stand-in for the simulator clock."""

    def __init__(self):
        self.now = 0.0


def _tree():
    clock = _Clock()
    tracer = Tracer(clock)
    return clock, tracer


def _sum(attribution):
    return sum(attribution.values())


class TestSynthetic:
    def test_sequential_children_tile_exactly(self):
        clock, tracer = _tree()
        root = tracer.root("op")
        clock.now = 1.0
        with root.child("a", phase="cpu"):
            clock.now = 4.0
        with root.child("b", phase="wire"):
            clock.now = 9.0
        clock.now = 10.0
        root.finish()
        attribution = critical_attribution(root)
        assert attribution["cpu"] == pytest.approx(3.0)
        assert attribution["wire"] == pytest.approx(5.0)
        assert attribution["other"] == pytest.approx(2.0)  # root self time
        assert _sum(attribution) == pytest.approx(root.duration)
        assert slack_us(root) == pytest.approx(0.0)
        contributors = critical_contributors(root)
        assert contributors == pytest.approx({"a": 3.0, "b": 5.0,
                                              "op": 2.0})

    def test_parallel_fanout_picks_the_later_sibling(self):
        clock, tracer = _tree()
        root = tracer.root("op")
        clock.now = 1.0
        a = root.child("fast-replica", phase="cpu")
        b = root.child("slow-replica", phase="wire")
        clock.now = 6.0
        a.finish()
        clock.now = 9.0
        b.finish()
        clock.now = 10.0
        root.finish()
        attribution = critical_attribution(root)
        # The slow replica bounds the request; the fast one is slack.
        assert attribution["wire"] == pytest.approx(8.0)
        assert "cpu" not in attribution
        assert _sum(attribution) == pytest.approx(root.duration)
        # Slack = traced work minus wall clock. The breakdown charges
        # the root max(0, 10 - 13) = 0 self time, so work is 13 µs.
        assert slack_us(root) == pytest.approx(3.0)
        assert "fast-replica" not in critical_contributors(root)

    def test_straggler_past_root_end_is_excluded(self):
        clock, tracer = _tree()
        root = tracer.root("op")
        clock.now = 1.0
        straggler = root.child("straggler", phase="nic")
        clock.now = 10.0
        root.finish()
        clock.now = 12.0
        straggler.finish()
        attribution = critical_attribution(root)
        assert attribution == pytest.approx({"other": 10.0})
        assert _sum(attribution) == pytest.approx(root.duration)

    def test_open_child_is_excluded(self):
        clock, tracer = _tree()
        root = tracer.root("op")
        clock.now = 2.0
        root.child("never-finished", phase="nic")
        clock.now = 10.0
        root.finish()
        assert critical_attribution(root) == pytest.approx({"other": 10.0})

    def test_open_root_yields_no_segments(self):
        _clock, tracer = _tree()
        root = tracer.root("op")
        assert critical_segments(root) == []
        assert critical_attribution(root) == {}

    def test_parts_scale_to_the_attributed_share(self):
        clock, tracer = _tree()
        root = tracer.root("op")
        # s covers [0, 2]; t covers [1, 10] and wins the walk, so its
        # child u (opened "before" t's clipped window) is attributed
        # only [1, 8] of its [0, 8] life — parts scale by 7/8.
        s = root.child("s", phase="queue")
        clock.now = 1.0
        t = root.child("t", phase="cpu")
        clock.now = 0.0
        u = t.child("u", phase="nic")
        clock.now = 2.0
        s.finish()
        clock.now = 8.0
        u.set_parts({"nic": 4.0, "pcie": 4.0})
        u.finish()
        clock.now = 10.0
        t.finish()
        root.finish()
        attribution = critical_attribution(root)
        assert attribution["nic"] == pytest.approx(3.5)
        assert attribution["pcie"] == pytest.approx(3.5)
        assert attribution["cpu"] == pytest.approx(2.0)   # t self (8, 10]
        assert attribution["other"] == pytest.approx(1.0)  # root (0, 1]
        assert _sum(attribution) == pytest.approx(root.duration)

    def test_profile_aggregates_and_formats(self):
        clock, tracer = _tree()
        for latency in (4.0, 6.0):
            clock.now = 0.0
            root = tracer.root("get")
            with root.child("work", phase="nic"):
                clock.now = latency
            root.finish()
        profile = critpath_profile(tracer.roots)
        entry = profile["get"]
        assert entry["count"] == 2
        assert entry["mean_us"] == pytest.approx(5.0)
        assert entry["critical_sum_us"] == pytest.approx(entry["mean_us"])
        assert entry["contributors"][0]["name"] == "work"
        headers, rows = critpath_rows(profile)
        assert headers[0] == "op"
        assert "nic_us" in headers
        assert rows[0][0] == "get"
        assert "bounded by" in format_contributors(profile)


class TestEndToEnd:
    def _roots(self, kind, flavor, workload, **kwargs):
        tracer = Tracer()
        result = run_point(kind, flavor, workload, 4, n_keys=400,
                           warmup_us=100.0, measure_us=500.0, tracer=tracer,
                           **kwargs)
        roots = measured_roots(tracer)
        assert roots
        return result, roots

    def test_kv_attributions_sum_to_latency(self):
        result, roots = self._roots(
            "kv", "prism-sw",
            lambda i: YCSB_C(400, zipf=0.9, seed=11, client_id=i))
        for root in roots:
            total = _sum(critical_attribution(root))
            assert abs(total - root.duration) < 1e-6
        profile = critpath_profile(roots)
        check_critpath(result, profile)

    def test_rs_quorum_has_slack_but_exact_critical_sums(self):
        result, roots = self._roots(
            "rs", "prism-sw",
            lambda i: YCSB_A(400, zipf=0.9, seed=17, client_id=i))
        for root in roots:
            total = _sum(critical_attribution(root))
            assert abs(total - root.duration) < 1e-6
        profile = critpath_profile(roots)
        check_critpath(result, profile)
        # Quorum fan-out: replicas the request never waited on show up
        # as slack, which the phase breakdown cannot separate.
        assert any(entry["slack_us"] > 0 for entry in profile.values())

    def test_check_critpath_rejects_divergence(self):
        result, roots = self._roots(
            "kv", "prism-sw",
            lambda i: YCSB_C(400, zipf=0.9, seed=11, client_id=i))
        profile = critpath_profile(roots)
        broken = {name: dict(entry, critical_sum_us=entry["critical_sum_us"]
                             + 1.0)
                  for name, entry in profile.items()}
        with pytest.raises(AssertionError):
            check_critpath(result, broken)

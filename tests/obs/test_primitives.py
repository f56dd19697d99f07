"""Unit and end-to-end coverage for :mod:`repro.obs.primitives`."""

import pytest

from repro.bench.harness import run_point
from repro.core import CasMode
from repro.obs import PrimitiveCollector, TopK
from repro.prism.engine import OpResult, OpStatus, abort_reason
from repro.workload import YCSB_A, YCSB_C


class TestTopK:
    def test_exact_when_stream_fits(self):
        sketch = TopK(4)
        for key, times in [("a", 5), ("b", 3), ("c", 1)]:
            for _ in range(times):
                sketch.note(key)
        assert sketch.total == 9
        assert sketch.count("a") == 5
        top = sketch.top()
        assert [entry["key"] for entry in top] == ["a", "b", "c"]
        assert all(entry["max_overestimate"] == 0 for entry in top)

    def test_eviction_inherits_min_count(self):
        sketch = TopK(2)
        sketch.note("a")
        sketch.note("a")
        sketch.note("b")
        sketch.note("c")  # evicts b (count 1); c inherits its floor
        assert "b" not in sketch
        assert sketch.count("c") == 2
        entry = next(e for e in sketch.top() if e["key"] == "c")
        assert entry["max_overestimate"] == 1

    def test_deterministic_ranking(self):
        sketch = TopK(8)
        for key in ["x", "y", "x", "z", "y", "x"]:
            sketch.note(key)
        assert [e["key"] for e in sketch.top(2)] == ["x", "y"]
        # Equal counts rank by key repr — stable across runs.
        tie = TopK(4)
        tie.note("b")
        tie.note("a")
        assert [e["key"] for e in tie.top()] == ["a", "b"]

    def test_top_n_and_len(self):
        sketch = TopK(16)
        for i in range(10):
            sketch.note(i)
        assert len(sketch) == 10
        assert len(sketch.top(3)) == 3

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            TopK(0)


class TestCollectorUnits:
    def test_cas_streaks_close_on_success(self):
        collector = PrimitiveCollector()
        # Connection 1 misses twice on 0x100, then wins.
        collector.note_cas(1, 0x100, CasMode.EQ, swapped=False)
        collector.note_cas(1, 0x100, CasMode.EQ, swapped=False)
        collector.note_cas(1, 0x100, CasMode.EQ, swapped=True)
        # Connection 2 misses once on the same address, never wins.
        collector.note_cas(2, 0x100, CasMode.GT, swapped=False)
        report = collector.report()["cas"]
        assert report["attempts"] == 4
        assert report["misses"] == 3
        assert report["miss_rate"] == pytest.approx(0.75)
        assert report["retry_chains"] == [[2, 1]]
        assert report["open_retry_chains"] == 1
        assert report["by_mode"]["eq"] == {"ok": 1, "miss": 2}
        assert report["by_mode"]["gt"] == {"ok": 0, "miss": 1}
        contended = report["contended_topk"]
        assert contended[0]["key"] == 0x100
        assert contended[0]["count"] == 3

    def test_streaks_are_per_connection_and_target(self):
        collector = PrimitiveCollector()
        collector.note_cas(1, 0x100, CasMode.EQ, swapped=False)
        collector.note_cas(1, 0x200, CasMode.EQ, swapped=False)
        collector.note_cas(1, 0x100, CasMode.EQ, swapped=True)
        report = collector.report()["cas"]
        # Only the 0x100 streak closed (length 1); 0x200 still open.
        assert report["retry_chains"] == [[1, 1]]
        assert report["open_retry_chains"] == 1

    def test_chain_classification(self):
        class _Op:
            indirect = False

        def chain(*results):
            # The backend derives the abort reason once, with the
            # engine's abort_reason, and carries it on the event.
            collector.note_chain(ops, results, None, abort_reason(results))

        collector = PrimitiveCollector()
        ops = [_Op(), _Op(), _Op()]
        ok, miss = OpResult(OpStatus.OK), OpResult(OpStatus.CAS_MISS)
        skipped = OpResult(OpStatus.SKIPPED)
        # Committed chain: all ok.
        chain(ok, ok, ok)
        # Aborted on a CAS miss: trailing ops skipped.
        chain(miss, skipped, skipped)
        # Aborted on a NAK with a typed error.
        chain(ok, OpResult(OpStatus.NAK, error=KeyError("k")), skipped)
        # A zero-op chain keeps its own label.
        assert abort_reason([]) == "empty"
        report = collector.report()["chains"]
        assert report["requests"] == 3
        assert report["committed"] == 1
        assert report["aborted"] == 2
        assert report["lengths"] == [[3, 3]]
        assert report["abort_reasons"] == {"KeyError": 1, "cas_miss": 1}
        # Executed = everything that reached the engine (ok, the
        # missing CAS, the NAK'd op); only post-abort ops are skipped.
        assert report["ops_executed"] == 6
        assert report["ops_skipped"] == 3

    def test_deref_and_nak(self):
        collector = PrimitiveCollector()
        collector.note_deref(1, "READ", 0, False)
        collector.note_deref(1, "READ", 1, True)
        collector.note_deref(1, "WRITE", 2, False)
        collector.note_nak(1, "READ", ValueError("bad"))
        report = collector.report()
        assert report["pointer_chase"]["depth_by_op"]["READ"] == [[0, 1],
                                                                  [1, 1]]
        assert report["pointer_chase"]["bounded_reads"] == 1
        assert report["chains"]["nak_reasons"] == {"READ": {"ValueError": 1}}

    def test_key_hotness_per_app(self):
        collector = PrimitiveCollector(top_k=4)
        for _ in range(3):
            collector.note_key("kv", "get", 7)
        collector.note_key("kv", "put", 9)
        collector.note_key("tx", "read", 7)
        report = collector.report()["keys"]
        assert report["kv"]["ops"] == {"get": 3, "put": 1}
        assert report["kv"]["topk"][0] == {"key": 7, "count": 3,
                                           "max_overestimate": 0}
        assert report["kv"]["total"] == 4
        assert report["tx"]["total"] == 1


class TestEndToEnd:
    def _point(self, flavor, workload, **kwargs):
        primitives = PrimitiveCollector()
        run_point("kv", flavor, workload, 4, n_keys=400,
                  warmup_us=100.0, measure_us=500.0,
                  primitives=primitives, **kwargs)
        return primitives.report()

    def test_read_only_run_reports_reads_and_keys(self):
        report = self._point(
            "prism-sw",
            lambda i: YCSB_C(400, zipf=0.9, seed=3, client_id=i))
        chains = report["chains"]
        assert chains["requests"] > 0
        assert chains["committed"] == chains["requests"]
        # PRISM-KV GETs are single indirect READs: every chain has
        # length 1 and exactly one dereference.
        assert chains["lengths"] == [[1, chains["requests"]]]
        assert report["pointer_chase"]["depth_by_op"]["READ"] == \
            [[1, chains["requests"]]]
        keys = report["keys"]["prism-kv"]
        assert set(keys["ops"]) == {"get"}
        assert keys["ops"]["get"] == chains["requests"]
        assert keys["topk"][0]["count"] >= keys["topk"][-1]["count"]
        # Free lists registered at creation show up even if never popped.
        assert report["allocator"]
        assert all(row["capacity"] > 0 for row in report["allocator"])

    def test_update_run_reports_cas_and_allocations(self):
        report = self._point(
            "prism-sw",
            lambda i: YCSB_A(400, zipf=0.9, seed=3, client_id=i))
        cas = report["cas"]
        assert cas["attempts"] > 0
        assert "gt" in cas["by_mode"]
        assert cas["hot_targets_topk"][0]["count"] > 0
        # PUTs run ALLOCATE -> WRITE -> CAS chains (length 4 with the
        # redirect prefix); pops and watermark movement must register.
        rows = [row for row in report["allocator"] if row["pops"]]
        assert rows
        assert all(row["lifetime_low_watermark"] < row["capacity"]
                   for row in rows)
        lengths = dict((bucket, count) for bucket, count
                       in report["chains"]["lengths"])
        assert any(bucket > 1 for bucket in lengths)
        keys = report["keys"]["prism-kv"]
        assert set(keys["ops"]) == {"get", "put"}

    def test_exhaustion_is_counted(self):
        from repro.core.errors import FreeListExhausted
        from repro.rdma.qp import QueuePair
        collector = PrimitiveCollector()
        qp = QueuePair(64, name="tiny")
        qp.post(0x1000)
        collector.note_freelist(99, qp)
        qp.pop()
        collector.note_allocate(99, qp, True)
        with pytest.raises(FreeListExhausted):
            qp.pop()
        collector.note_allocate(99, qp, False)
        row = next(r for r in collector.report()["allocator"]
                   if r["freelist"] == 99)
        assert row["exhaustions"] == 1
        assert row["low_watermark"] == 0
        assert row["pops"] == 1

"""Hot-path overhaul regressions: timer withdrawal, orphan notes.

These tests pin the two event-loop bugfixes that rode along with the
kernel optimization pass (they fail on the pre-overhaul kernel):

* ``with_timeout`` / ``any_of`` must *withdraw* losing timers from the
  heap instead of leaving them to fire into the void at their (now
  meaningless) deadlines — at 10⁵ clients each doing timed ops, the
  leak turns the heap O(total ops) instead of O(in-flight).
* ``_raise_orphan_failures`` must surface *every* unobserved process
  failure, not just the first: the rest ride along as notes.

A process binds its resume callback once and keeps it; that binding
refers back to the process, so it must be dropped when the generator
finishes. Otherwise every finished process is a reference cycle that
only the garbage collector can free, and the benchmark harness pauses
the collector for the measured run.
"""

import gc

import pytest

from repro.sim import Simulator
from repro.sim.kernel import Process


def _live_queue_entries(sim):
    """Heap entries that are not tombstoned cancelled timers."""
    return sum(1 for _, _, obj in sim._queue
               if not getattr(obj, "cancelled", False))


class TestAbandonedTimerWithdrawal:
    N = 500

    def test_with_timeout_queue_stays_o_in_flight(self):
        sim = Simulator()

        def main():
            for _ in range(self.N):
                # The guarded event (a 1 µs timer) always beats the
                # 1000 µs budget, so every iteration abandons a timer.
                yield from sim.with_timeout(sim.timeout(1.0), 1000.0)

        sim.run_until_complete(sim.spawn(main()))
        # Old kernel: ~N losing timers sit in the heap until their
        # deadlines (never reached here). New kernel: each is
        # tombstoned on loss and compacted away in bulk, so the queue
        # stays O(in-flight), far below N.
        assert _live_queue_entries(sim) <= 2
        assert len(sim._queue) < self.N // 2

    def test_any_of_withdraws_losing_timers(self):
        sim = Simulator()

        def main():
            for _ in range(self.N):
                yield sim.any_of([sim.timeout(1.0), sim.timeout(500.0),
                                  sim.timeout(900.0)])

        sim.run_until_complete(sim.spawn(main()))
        assert _live_queue_entries(sim) <= 2
        assert len(sim._queue) < self.N

    def test_losing_timer_never_fires(self):
        sim = Simulator()
        seen = []
        timers = []

        def main():
            timers.append(sim.timeout(1.0, "fast"))
            timers.append(sim.timeout(50.0, "slow"))
            index, _ = yield sim.any_of(timers)
            seen.append(index)

        sim.spawn(main())
        sim.run(until=100.0)
        assert seen == [0]
        # The loser is withdrawn on loss — cancelled, never triggered —
        # rather than firing into the void at t=50.
        fast, slow = timers
        assert fast.triggered
        assert slow.cancelled
        assert not slow.triggered
        assert len(sim._queue) == 0


class TestOrphanFailureNotes:
    def test_two_crashing_daemons_both_surface(self):
        sim = Simulator()

        def daemon(message, delay):
            yield sim.timeout(delay)
            raise RuntimeError(message)

        sim.spawn(daemon("first failure", 1.0), name="daemon-a")
        sim.spawn(daemon("second failure", 1.0), name="daemon-b")
        with pytest.raises(RuntimeError, match="first failure") as info:
            sim.run(until=10.0)
        notes = getattr(info.value, "__notes__", [])
        assert any("daemon-b" in note and "second failure" in note
                   for note in notes), notes

    def test_single_orphan_has_no_notes(self):
        sim = Simulator()

        def daemon():
            yield sim.timeout(1.0)
            raise ValueError("lonely")

        sim.spawn(daemon(), name="solo")
        with pytest.raises(ValueError, match="lonely") as info:
            sim.run(until=10.0)
        assert not getattr(info.value, "__notes__", [])

    def test_observed_failure_not_reported_as_orphan(self):
        sim = Simulator()

        def crasher():
            yield sim.timeout(1.0)
            raise RuntimeError("seen")

        def watcher(process):
            try:
                yield process
            except RuntimeError:
                return "caught"

        crash = sim.spawn(crasher(), name="crasher")
        watch = sim.spawn(watcher(crash), name="watcher")
        assert sim.run_until_complete(watch) == "caught"


class TestFinishedProcessesAreFreed:
    N = 3000

    @staticmethod
    def _finished_processes(keep):
        return [obj for obj in gc.get_objects()
                if isinstance(obj, Process) and not obj.alive
                and obj not in keep]

    def test_no_finished_process_waits_for_the_collector(self):
        sim = Simulator()

        def short(index):
            yield sim.timeout(1.0)
            yield sim.timeout(0.5)
            return index

        def parent():
            done = 0
            for index in range(self.N):
                # Every third child runs on its own; the rest are
                # waited on, which also exercises the completion path.
                child = sim.spawn(short(index))
                if index % 3:
                    done += (yield child) == index
            return done

        enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            main = sim.spawn(parent())
            sim.run_until_complete(main)
            sim.run()
            leaked = self._finished_processes(keep=(main,))
        finally:
            if enabled:
                gc.enable()
        assert main.value == self.N - self.N // 3
        assert leaked == []

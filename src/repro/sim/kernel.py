"""The event loop and process machinery.

``Simulator`` owns two scheduling structures: a FIFO *ready deque* of
work due at the current instant and a priority heap of future-time
entries. Every entry pushed at the current simulated time lands on the
deque (no heap push, no sequence number, no tuple); only real timers
and deferred callables reach the heap. Because nothing can schedule
work at or before the current time *into the heap*, draining order is
exactly the old single-heap ``(when, seq)`` order: heap entries at a
timestamp were pushed from an earlier instant, so they precede
everything appended to the deque at that timestamp.

Processes are generators driven by the kernel: every value a process
yields must be an :class:`~repro.sim.events.Event` (or another
:class:`Process`, which doubles as its completion event).
"""

import heapq
from functools import partial
from itertools import count

from repro.obs import hostprof as _hostprof
from repro.obs.bus import ObserverBus
from repro.obs.trace import NULL_TRACER
from repro.sim.events import (
    AllOf,
    AnyOf,
    Event,
    Interrupt,
    SimulationError,
    TimeoutExpired,
    TimerEvent,
    _LateCall,
)

from collections import deque

#: Tombstoned timers are compacted out of the heap in bulk once they
#: outnumber live entries (and at least this many have accumulated) —
#: amortized O(1) per cancel, keeping the heap O(in-flight).
_COMPACT_MIN = 64


class _ScheduledCall:
    """Heap payload for :meth:`Simulator.call_at`.

    Gives bare future callables the same ``cancelled``/``fire`` shape
    as :class:`~repro.sim.events.TimerEvent`, so the run loops touch
    exactly one payload type.
    """

    __slots__ = ("fire", "cancelled")

    def __init__(self, callback):
        self.fire = callback
        self.cancelled = False


class _Wake:
    """A wake-up that no real event carries: the first step of a process
    (send ``None``) and an exception thrown into it (an
    :class:`~repro.sim.events.Interrupt`, the bad-yield error). It reads
    like a triggered event to :meth:`Process._resume`, so every step of
    every process runs through that one body."""

    __slots__ = ("_ok", "_value")

    def __init__(self, ok, value):
        self._ok = ok
        self._value = value


#: the wake-up that runs a new process's generator to its first yield.
#: An interrupt in the spawn instant can get there first; the process
#: is then finished or waiting, and ``_resume`` drops this wake-up.
_START = _Wake(True, None)


class Process(Event):
    """A running generator coroutine; also the event of its completion.

    The completion value is whatever the generator returns. An uncaught
    exception inside the generator fails the completion event, and —
    if nothing is waiting on the process — propagates out of
    ``Simulator.run`` so bugs never pass silently.

    ``_wake`` (the callback every waited event runs) and ``_send`` (the
    generator's ``send``) are bound once per process instead of once
    per wait. ``_wake`` refers back to the process, so both are cleared
    when the generator finishes: a finished process must not be a
    reference cycle, because the benchmark harness pauses the garbage
    collector for the measured run.
    """

    __slots__ = ("_generator", "_send", "_wake", "_waiting_on", "name",
                 "_ever_waited", "_flight_ctx")

    def __init__(self, sim, generator, name=None):
        # Inlined Event.__init__ (see TimerEvent).
        self.sim = sim
        self.callbacks = []
        self._value = None
        self._ok = None
        self._triggered = False
        self._processed = False
        self._generator = generator
        self._send = generator.send
        # The host profiler, if any, is installed before processes are
        # spawned; only then does a resume take the bracketed path.
        self._wake = (self._resume if sim.hostprof is None
                      else self._resume_profiled)
        self._waiting_on = None
        self._ever_waited = False
        self.name = name or getattr(generator, "__name__", "process")
        # Flight-recorder causal context: a spawned process inherits the
        # spawner's operation id, so delivery/server/reply processes all
        # attribute their events to the originating client operation.
        fl = sim.flight
        self._flight_ctx = None if fl is None else fl.current_ctx()
        tracer = sim.tracer
        if tracer.trace_processes:
            tracer.process_started(self)
        sim._ready.append(partial(self._wake, _START))

    def add_callback(self, callback):
        self._ever_waited = True
        super().add_callback(callback)

    @property
    def alive(self):
        """True while the generator has not finished."""
        return not self._triggered

    def interrupt(self, cause=None):
        """Throw :class:`Interrupt` into the process at the current time.

        Interrupting a finished process is a no-op.
        """
        if self._triggered:
            return
        interrupt_event = Event(self.sim)
        interrupt_event.add_callback(self._resume_with_interrupt(cause))
        interrupt_event.succeed()

    def _resume_with_interrupt(self, cause):
        def resume(event):
            if self._triggered:
                return
            self._detach_from_waited_event()
            self._wake(_Wake(False, Interrupt(cause)))
        return resume

    def _detach_from_waited_event(self):
        waited = self._waiting_on
        self._waiting_on = None
        if waited is not None:
            if isinstance(waited, Process):
                # This waiter observed the child, even though it leaves
                # before the child's completion sees it (see __call__).
                waited._ever_waited = True
            # Let the event (and, for composites, its sub-events)
            # know the waiter is gone so resource-backed events can
            # withdraw queued claims or hand back granted slots.
            waited.waiter_detached(self._wake)

    def _resume(self, event):
        """Advance the generator with ``event``'s outcome and wait on
        whatever it yields next: the body of every step."""
        if self._triggered:
            return
        waiting = self._waiting_on
        if waiting is not None:
            if waiting is not event:
                # Stale wake-up from an event this process detached
                # from (it was already processed when the interrupt
                # landed, so its callback sat in the queue instead of
                # on the event). Resuming here would drive the
                # generator at the wrong yield point — once for the
                # stale event and again for the one it waits on.
                return
            self._waiting_on = None
        sim = self.sim
        # Who is executing: the flight recorder's causal context.
        sim.active_process = self
        try:
            if event._ok:
                target = self._send(event._value)
            else:
                target = self._generator.throw(event._value)
        except StopIteration as stop:
            sim.active_process = None
            self._wake = self._send = None
            self.succeed(stop.value)
            tracer = sim.tracer
            if tracer.trace_processes:
                tracer.process_finished(self)
            return
        except Exception as exc:
            sim.active_process = None
            self._wake = self._send = None
            self.fail(exc)
            sim.tracer.process_finished(self)
            sim._note_process_failure(self, exc)
            return
        sim.active_process = None
        # Inlined Event.add_callback. Anything without the event
        # attributes is a bad yield; a waited child process is marked
        # observed when its completion runs (see __call__).
        try:
            if target._processed:
                if isinstance(target, Process):
                    target._ever_waited = True
                sim._ready.append(_LateCall(self._wake, target))
            else:
                target.callbacks.append(self._wake)
        except AttributeError:
            message = (
                f"process {self.name!r} yielded {target!r}; processes "
                "may only yield Event instances (use 'yield from' to "
                "call sub-generators)")
            self._resume(_Wake(False, SimulationError(message)))
            return
        self._waiting_on = target

    def _resume_profiled(self, event):
        """:meth:`_resume` under the host profiler: counts the wake-up
        and charges its time to the ``resume`` bucket."""
        hp = self.sim.hostprof
        hp.resumes += 1
        if not hp._timing:
            # Unsampled event (stride sampling): the counter stays
            # exact, bucket attribution is off.
            self._resume(event)
            return
        hp.enter("resume")
        try:
            self._resume(event)
        finally:
            hp.exit()

    def __call__(self):
        # The completion's dispatch (Event._process inlined). A waiter
        # that yielded this process is still in ``callbacks`` here, so
        # this is where a failed process learns it was observed.
        callbacks = self.callbacks
        if callbacks:
            self._ever_waited = True
        self._processed = True
        self.callbacks = None
        for callback in callbacks:
            callback(self)

    def __repr__(self):
        return f"<Process {self.name} {'done' if self._triggered else 'alive'}>"


class Simulator:
    """Deterministic discrete-event simulator with a microsecond clock.

    Observability: :meth:`observe` installs collectors (see
    :mod:`repro.obs.bus`). Hook sites emit events on ``obs``, None
    while no installed collector handles any; a tracer also becomes
    ``tracer`` (default the no-op
    :data:`~repro.obs.trace.NULL_TRACER`), a utilization collector
    ``utilization`` (read when resources are constructed) and a flight
    recorder ``flight`` (read when processes are spawned).
    ``active_process`` is the :class:`Process` whose generator is
    running, None between steps; the flight recorder reads it to
    attribute events to operations.
    ``events_executed`` counts queue entries run — a cheap health
    counter the metrics registry can absorb. (Tombstoned — cancelled —
    timers are skipped, not run, so they are not counted.)
    """

    def __init__(self):
        self._now = 0.0
        self._queue = []
        self._ready = deque()
        self._sequence = count()
        self._cancelled_timers = 0
        self._failed_processes = []
        self.tracer = NULL_TRACER
        self.utilization = None
        self.flight = None
        self.active_process = None
        self.faults = None
        self.obs = None
        # Adopt the ambient host profiler, if one is active (None in
        # normal runs; standalone --profile scripts activate one).
        self.hostprof = _hostprof.ACTIVE
        self.events_executed = 0

    def _check_not_started(self, installer):
        """Installation after the simulation has started executing is a
        programming error — the installed object would have missed
        registrations and transitions and its counts would silently
        disagree with the run — so it raises instead of half-working."""
        if self._now > 0.0 or self.events_executed:
            raise SimulationError(
                f"{installer}: install before the simulation runs "
                f"(now={self._now:g} µs, {self.events_executed} events "
                f"executed) — call sim.{installer}(...) before system "
                "construction so every registration and transition is "
                "seen from time zero")

    def observe(self, *collectors):
        """Install (and bind) observers, before system construction.

        Each collector subscribes to the bus events it has handlers for
        (:mod:`repro.obs.bus`); a collector naming a ``sim_attr`` (the
        tracer, the utilization collector, the flight recorder) is also
        stored on that attribute. Collectors only observe transitions
        the run already makes, so simulated timing stays bit-identical.
        """
        self._check_not_started("observe")
        for collector in collectors:
            collector.bind(self)
            attr = getattr(collector, "sim_attr", None)
            if attr is not None:
                setattr(self, attr, collector)
        installed = self.obs.collectors if self.obs is not None else ()
        bus = ObserverBus(installed + collectors, self.hostprof)
        self.obs = bus if bus.subscribed else None

    def set_faults(self, plan):
        """Install (and bind) a fault injector for ``plan``; returns it.

        Accepts a :class:`~repro.faults.FaultPlan` or an already-built
        :class:`~repro.faults.FaultInjector`. Install *before* system
        construction so the fabric, servers, and free lists register
        themselves. With no injector installed (the default) every
        hook is a single ``is None`` check — same bit-identical-timing
        contract as the observability collectors.
        """
        from repro.faults.injector import FaultInjector
        self._check_not_started("set_faults")
        injector = (plan if isinstance(plan, FaultInjector)
                    else FaultInjector(plan))
        self.faults = injector.bind(self)
        return self.faults

    def set_hostprof(self, profiler):
        """Install a host-side self-profiler; returns it for chaining.

        Unlike the simulated-time collectors, a
        :class:`~repro.obs.hostprof.HostProfiler` measures the *wall
        clock* cost of running this simulator (events/sec, per-bucket
        host-time attribution). It only reads ``time.perf_counter()``
        — never the simulated clock or the queue — so simulated
        results are bit-identical with or without it. Also makes the
        profiler ambient (:func:`repro.obs.hostprof.activate`) so the
        codec hooks, which have no simulator handle, charge to it.
        Install it before spawning processes: a process picks its
        resume path, bracketed or not, when it is created.
        """
        self.hostprof = profiler
        _hostprof.activate(profiler)
        if self.obs is not None:
            # Re-wire so handlers with a hostprof bucket charge to it.
            self.obs = ObserverBus(self.obs.collectors, profiler)
        return profiler

    @property
    def now(self):
        """Current simulated time in microseconds."""
        return self._now

    # -- scheduling ------------------------------------------------------

    def event(self):
        """Create a fresh pending event on this timeline."""
        return Event(self)

    def timeout(self, delay, value=None):
        """An event that succeeds ``delay`` microseconds from now."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        # TimerEvent.__init__ inlined — timers are the most common
        # allocation in the kernel, and skipping the constructor frame
        # is worth ~a call per event on the dominant op path.
        event = TimerEvent.__new__(TimerEvent)
        event.sim = self
        event.callbacks = []
        event._value = None
        event._ok = None
        event._triggered = False
        event._processed = False
        event._fire_value = value
        event.cancelled = False
        # Compare the *computed* deadline, not the delay: a denormal
        # delay that rounds to the current instant must keep FIFO
        # position with other same-instant work (the heap only ever
        # holds strictly-future entries — the ordering invariant the
        # run loops rely on).
        when = self._now + delay
        if when == self._now:
            self._ready.append(event)
        else:
            heapq.heappush(self._queue, (when, next(self._sequence), event))
        return event

    def spawn(self, generator, name=None):
        """Start running a generator as a process."""
        return Process(self, generator, name=name)

    def sleep_until(self, when, value=None):
        """An event that succeeds at absolute simulated time ``when``.

        ``when`` in the past (or now) fires on the next kernel step at
        the current time, so daemons can use it as an idempotent
        "no earlier than" barrier.
        """
        return self.timeout(max(0.0, when - self._now), value)

    def with_timeout(self, event, timeout_us, what="wait"):
        """Process helper: wait on ``event`` for at most ``timeout_us``.

        Returns the event's value, or raises
        :class:`~repro.sim.events.TimeoutExpired` once the budget is
        spent. On timeout the abandoned event is *cancelled*, so a
        resource-backed event (a queued ``acquire``, a blocked ``get``)
        withdraws its claim instead of stranding a slot or swallowing
        an item — which is also what makes the helper interrupt-safe:
        an Interrupt landing inside the wait detaches from both the
        event and the timer through the same cancellation path. When
        ``event`` wins, the losing timer is withdrawn from the heap
        (see :class:`~repro.sim.events.TimerEvent`), so N timed waits
        leave O(in-flight) queue entries, not O(N).
        """
        if not isinstance(event, Event):
            raise SimulationError("with_timeout requires an Event")
        index, value = yield self.any_of([event, self.timeout(timeout_us)])
        if index == 1:
            event.cancel()
            raise TimeoutExpired(timeout_us, what=what)
        return value

    def any_of(self, events):
        """Event that fires with ``(index, value)`` of the first to trigger."""
        return AnyOf(self, events)

    def all_of(self, events):
        """Event that fires with the list of values once all trigger."""
        return AllOf(self, events)

    def call_at(self, when, callback):
        """Run a bare callable at absolute time ``when``."""
        if when < self._now:
            raise SimulationError(f"cannot schedule in the past: {when} < {self._now}")
        if when == self._now:
            self._ready.append(callback)
        else:
            heapq.heappush(self._queue,
                           (when, next(self._sequence), _ScheduledCall(callback)))

    # -- kernel internals -------------------------------------------------

    def _note_timer_cancelled(self):
        """A heap-resident timer was tombstoned; compact when they dominate."""
        self._cancelled_timers += 1
        queue = self._queue
        if (self._cancelled_timers >= _COMPACT_MIN
                and self._cancelled_timers * 2 > len(queue)):
            # In place: the run loops hold a local alias to the list.
            queue[:] = [entry for entry in queue if not entry[2].cancelled]
            heapq.heapify(queue)
            self._cancelled_timers = 0

    def _note_process_failure(self, process, exc):
        self._failed_processes.append((process, exc))

    # -- execution ---------------------------------------------------------

    # The four run loops below share one shape:
    #
    #   1. pop heap entries due at the current instant (they were
    #      pushed from an *earlier* instant, so they precede anything
    #      on the ready deque at this instant);
    #   2. drain the ready deque FIFO — nothing a ready callback does
    #      can make a heap entry due at the current instant, so no
    #      re-check is needed between deque entries;
    #   3. advance the clock to the earliest future heap entry.
    #
    # Tombstoned (cancelled) timers are skipped without advancing the
    # clock and without counting in ``events_executed``.

    def run(self, until=None):
        """Run until the queue drains or simulated time passes ``until``.

        A process that dies with an unhandled exception (and no waiter
        observing its completion) re-raises here at the end of the run.
        """
        if self.hostprof is not None:
            self._run_profiled(until)
            self._raise_orphan_failures()
            return self._now
        ready = self._ready
        popleft = ready.popleft
        queue = self._queue
        pop = heapq.heappop
        now = self._now
        executed = 0
        try:
            while True:
                while queue and queue[0][0] <= now:
                    obj = pop(queue)[2]
                    if obj.cancelled:
                        self._cancelled_timers -= 1
                        continue
                    executed += 1
                    obj.fire()
                while ready:
                    executed += 1
                    popleft()()
                if not queue:
                    if until is not None:
                        self._now = until
                    break
                when = queue[0][0]
                if until is not None and when > until:
                    self._now = until
                    break
                obj = pop(queue)[2]
                if obj.cancelled:
                    self._cancelled_timers -= 1
                    continue
                now = when
                self._now = when
                executed += 1
                obj.fire()
        finally:
            self.events_executed += executed
        self._raise_orphan_failures()
        return self._now

    def _run_profiled(self, until, process=None):
        """The :meth:`run` loop — or, given ``process``, the
        :meth:`run_until_complete` loop with ``until`` as its limit —
        with the host-profiler's wall-clock meters on.

        A separate loop so the unprofiled hot paths stay exactly as they
        were; the simulated schedule is identical — the profiler only
        reads ``perf_counter`` around the same callbacks.
        """
        hp = self.hostprof
        ready = self._ready
        popleft = ready.popleft
        queue = self._queue
        pop = heapq.heappop
        now = self._now
        # Stride sampling inlined: untimed events pay one increment and
        # one modulo, not two method calls and a try/finally.
        stride = hp.stride
        executed = 0
        # The sampling counter lives in a local for the whole loop (an
        # attribute RMW per event is measurable); flushed on exit so
        # report() and nested runs see the true count.
        ev = hp.events

        def timed(callback):
            hp.begin_timed()
            try:
                callback()
            finally:
                hp.event_end()

        hp.run_begin()
        try:
            while process is None or not process._processed:
                while queue and queue[0][0] <= now:
                    obj = pop(queue)[2]
                    if obj.cancelled:
                        self._cancelled_timers -= 1
                        continue
                    executed += 1
                    ev += 1
                    if ev % stride:
                        obj.fire()
                    else:
                        timed(obj.fire)
                    if process is not None and process._processed:
                        break
                if process is not None and process._processed:
                    break
                while ready:
                    executed += 1
                    ev += 1
                    if ev % stride:
                        popleft()()
                    else:
                        timed(popleft())
                    if process is not None and process._processed:
                        break
                if process is not None and process._processed:
                    break
                if not queue:
                    if process is None and until is not None:
                        self._now = until
                    break
                when = queue[0][0]
                if until is not None and when > until:
                    self._now = until
                    break
                obj = pop(queue)[2]
                if obj.cancelled:
                    self._cancelled_timers -= 1
                    continue
                now = when
                self._now = when
                executed += 1
                ev += 1
                if ev % stride:
                    obj.fire()
                else:
                    timed(obj.fire)
        finally:
            self.events_executed += executed
            hp.events = ev
            hp.run_end()

    def run_until_complete(self, process, limit=None):
        """Run until ``process`` finishes; return its value.

        Steps the queue one entry at a time so perpetual background
        daemons cannot keep the run alive forever. ``limit`` bounds
        simulated time as a deadlock guard; when it trips, ``_now``
        advances to ``limit`` — the same contract as :meth:`run` with
        ``until`` — rather than sticking at the last executed event.
        """
        if self.hostprof is not None:
            self._run_profiled(limit, process)
        else:
            ready = self._ready
            popleft = ready.popleft
            queue = self._queue
            pop = heapq.heappop
            now = self._now
            executed = 0
            try:
                while not process._processed:
                    while queue and queue[0][0] <= now:
                        obj = pop(queue)[2]
                        if obj.cancelled:
                            self._cancelled_timers -= 1
                            continue
                        executed += 1
                        obj.fire()
                        if process._processed:
                            break
                    if process._processed:
                        break
                    while ready:
                        executed += 1
                        popleft()()
                        if process._processed:
                            break
                    if process._processed:
                        break
                    if not queue:
                        break
                    when = queue[0][0]
                    if limit is not None and when > limit:
                        self._now = limit
                        break
                    obj = pop(queue)[2]
                    if obj.cancelled:
                        self._cancelled_timers -= 1
                        continue
                    now = when
                    self._now = when
                    executed += 1
                    obj.fire()
            finally:
                self.events_executed += executed
        self._raise_orphan_failures()
        if not process.triggered:
            raise SimulationError(
                f"process {process.name!r} did not complete "
                f"(simulated until t={self._now:.3f})")
        if not process.ok:
            raise process.value
        return process.value

    def _raise_orphan_failures(self):
        failures = self._failed_processes
        if not failures:
            return
        self._failed_processes = []
        # A failure is "observed" if anything ever waited on the
        # process's completion event; otherwise it must not vanish.
        # Waiters still in ``callbacks`` have not been marked yet: the
        # run stopped before the completion was dispatched.
        orphans = [(process, exc) for process, exc in failures
                   if not (process._ever_waited or process.callbacks)]
        if not orphans:
            return
        first_exc = orphans[0][1]
        # Raise the first orphan, but never swallow the rest: attach
        # them as notes so two concurrently-crashing daemons both
        # surface in the traceback.
        for process, exc in orphans[1:]:
            first_exc.add_note(
                f"also unobserved: process {process.name!r} failed with "
                f"{type(exc).__name__}: {exc}")
        raise first_exc

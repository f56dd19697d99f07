"""Contention points: FIFO resources, stores, and bandwidth pipes.

These model the queueing behaviour that produces the paper's
throughput/latency curves: CPU core pools, NIC processing units, and
link serialization are all instances of these classes.
"""

from collections import deque

from repro.obs.trace import NULL_SPAN, Span
from repro.sim.events import Event, SimulationError


class AcquireEvent(Event):
    """The event returned by :meth:`Resource.acquire`.

    Cancellation (waiter interrupted, timeout race lost) withdraws the
    claim: a still-queued request leaves the waiter queue; a request
    whose slot was already granted — but never consumed by the dead
    waiter — releases the slot back, handing it to the next live
    waiter. Without this, an interrupted ``acquire()`` left its event
    in the queue and ``release()`` granted the slot to the dead waiter
    forever, leaking capacity one interrupt at a time.
    """

    __slots__ = ("resource", "cancelled")

    def __init__(self, resource):
        # Inlined Event.__init__ — acquire events are the hottest
        # allocation on the model path; skip the super() call.
        self.sim = resource.sim
        self.callbacks = []
        self._value = None
        self._ok = None
        self._triggered = False
        self._processed = False
        self.resource = resource
        self.cancelled = False

    def cancel(self):
        if self.cancelled:
            return
        self.cancelled = True
        self.resource._waiter_cancelled(self)


class GetEvent(Event):
    """The event returned by :meth:`Store.get`.

    Cancellation removes a blocked getter from the queue; if an item
    was already handed to the (now dead) getter, the item is put back
    at the front of the buffer so it goes to the next live getter in
    FIFO order instead of vanishing.
    """

    __slots__ = ("store", "cancelled")

    def __init__(self, store):
        # Inlined Event.__init__ (see AcquireEvent).
        self.sim = store.sim
        self.callbacks = []
        self._value = None
        self._ok = None
        self._triggered = False
        self._processed = False
        self.store = store
        self.cancelled = False

    def cancel(self):
        if self.cancelled:
            return
        self.cancelled = True
        self.store._getter_cancelled(self)


class Resource:
    """A ``capacity``-server FIFO resource.

    Usage from a process::

        grant = yield resource.acquire()
        ...
        resource.release()

    Fairness is strict FIFO, which keeps runs deterministic.

    ``kind`` classifies the resource for utilization reports and the
    bottleneck analyzer ("cpu", "nic", "wire", ...). When the owning
    simulator has a utilization collector installed
    (``sim.observe``), the resource self-registers a
    :class:`~repro.obs.timeline.ResourceMonitor` that observes every
    acquire/grant/release; with no collector the hooks are a single
    ``is None`` check and timing is untouched.
    """

    __slots__ = ("sim", "capacity", "name", "kind", "_in_use", "_waiters",
                 "_total_acquired", "_busy_time", "_last_change", "monitor",
                 "_wait_since")

    def __init__(self, sim, capacity=1, name=None, kind="other"):
        if capacity < 1:
            raise SimulationError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name or "resource"
        self.kind = kind
        self._in_use = 0
        self._waiters = deque()
        self._total_acquired = 0
        self._busy_time = 0.0
        self._last_change = 0.0
        self.monitor = None
        self._wait_since = None
        if sim.utilization is not None:
            sim.utilization.watch_resource(self)

    @property
    def in_use(self):
        """Number of currently held slots."""
        return self._in_use

    @property
    def queue_length(self):
        """Number of acquire requests waiting for a slot."""
        return len(self._waiters)

    def acquire(self):
        """Request a slot; the returned event fires when granted.

        The event supports :meth:`~AcquireEvent.cancel`: a waiter that
        stops waiting (interrupt, ``with_timeout``) withdraws its claim
        instead of leaking the slot it queued for.
        """
        hp = self.sim.hostprof
        if hp is not None and not hp._timing:
            # Stride sampling: attribution is off for this event.
            hp = None
        if hp is None and self.monitor is None:
            # Fast path: no profiler, no utilization monitor — the
            # common configuration for fig sweeps. The grant inlines
            # ``Event.succeed`` (the event is new, so still pending).
            event = AcquireEvent(self)
            if self._in_use < self.capacity:
                self._account()
                self._in_use += 1
                self._total_acquired += 1
                event._ok = True
                event._value = self
                event._triggered = True
                self.sim._ready.append(event)
            else:
                self._waiters.append(event)
            return event
        if hp is not None:
            hp.enter("resource")
        try:
            event = AcquireEvent(self)
            if self._in_use < self.capacity:
                self._account()
                self._in_use += 1
                self._total_acquired += 1
                if self.monitor is not None:
                    if hp is not None:
                        hp.enter("hooks.obs")
                    self.monitor.on_uncontended_grant()
                    if hp is not None:
                        hp.exit()
                event.succeed(self)
            else:
                self._waiters.append(event)
                if self.monitor is not None:
                    if hp is not None:
                        hp.enter("hooks.obs")
                    self.monitor.on_request(queued=True)
                    self._wait_since.append(self.sim._now)
                    if hp is not None:
                        hp.exit()
            return event
        finally:
            if hp is not None:
                hp.exit()

    def release(self):
        """Free a slot, handing it to the oldest *live* waiter if any.

        Cancelled waiters are skipped (cancellation removes them
        eagerly, so this is belt-and-braces for a waiter cancelled in
        the same kernel step).
        """
        hp = self.sim.hostprof
        if hp is not None and not hp._timing:
            # Stride sampling: attribution is off for this event.
            hp = None
        if hp is None and self.monitor is None:
            if self._in_use <= 0:
                raise SimulationError(f"{self.name}: release without acquire")
            waiters = self._waiters
            while waiters:
                event = waiters.popleft()
                if event.cancelled or event._triggered:
                    continue
                self._total_acquired += 1
                # Inlined Event.succeed (the event is still pending).
                event._ok = True
                event._value = self
                event._triggered = True
                self.sim._ready.append(event)
                return
            self._account()
            self._in_use -= 1
            return
        if hp is not None:
            hp.enter("resource")
        try:
            if self._in_use <= 0:
                raise SimulationError(f"{self.name}: release without acquire")
            while self._waiters:
                event = self._waiters.popleft()
                waited_since = (self._wait_since.popleft()
                                if self.monitor is not None else None)
                if event.cancelled or event.triggered:
                    if self.monitor is not None:
                        if hp is not None:
                            hp.enter("hooks.obs")
                        self.monitor.on_cancel()
                        if hp is not None:
                            hp.exit()
                    continue
                self._total_acquired += 1
                if self.monitor is not None:
                    if hp is not None:
                        hp.enter("hooks.obs")
                    self.monitor.on_handoff(self.sim._now - waited_since)
                    if hp is not None:
                        hp.exit()
                event.succeed(self)
                return
            self._account()
            self._in_use -= 1
            if self.monitor is not None:
                if hp is not None:
                    hp.enter("hooks.obs")
                self.monitor.on_release()
                if hp is not None:
                    hp.exit()
        finally:
            if hp is not None:
                hp.exit()

    def _waiter_cancelled(self, event):
        """An acquire's waiter went away (interrupt or timeout race)."""
        if event.triggered:
            # The slot was already granted to this event but the value
            # was never consumed — hand the slot straight back.
            self.release()
            return
        try:
            index = self._waiters.index(event)
        except ValueError:
            return
        del self._waiters[index]
        if self.monitor is not None:
            del self._wait_since[index]
            self.monitor.on_cancel()

    def utilization(self, elapsed):
        """Mean busy fraction over ``elapsed`` simulated microseconds."""
        if elapsed <= 0:
            return 0.0
        self._account()
        return self._busy_time / (elapsed * self.capacity)

    def _account(self):
        now = self.sim._now
        self._busy_time += self._in_use * (now - self._last_change)
        self._last_change = now

    def occupy(self, duration):
        """Process helper: hold one slot for ``duration``.

        Equivalent to acquire / timeout / release, expressed as a
        sub-generator for ``yield from``. Interrupt-safe at every
        suspension point: an Interrupt delivered while *queued* (or in
        the same kernel step as the grant) cancels the acquire event,
        withdrawing the claim or handing the un-consumed slot back;
        one delivered while *holding* runs the ``finally`` release.
        Capacity is conserved either way.
        """
        yield self.acquire()
        try:
            yield self.sim.timeout(duration)
        finally:
            self.release()


class Store:
    """An unbounded FIFO buffer of items with blocking ``get``."""

    __slots__ = ("sim", "name", "_items", "_getters")

    def __init__(self, sim, name=None):
        self.sim = sim
        self.name = name or "store"
        self._items = deque()
        self._getters = deque()

    def __len__(self):
        return len(self._items)

    def put(self, item):
        """Deposit ``item``; wakes the oldest *live* blocked getter.

        Cancelled getters are skipped (cancellation removes them
        eagerly; the guard covers a getter cancelled within the same
        kernel step) — waking one would make the item vanish.
        """
        hp = self.sim.hostprof
        if hp is not None and not hp._timing:
            # Stride sampling: attribution is off for this event.
            hp = None
        if hp is None:
            getters = self._getters
            while getters:
                getter = getters.popleft()
                if getter.cancelled or getter._triggered:
                    continue
                getter.succeed(item)
                return
            self._items.append(item)
            return
        hp.enter("resource")
        try:
            while self._getters:
                getter = self._getters.popleft()
                if getter.cancelled or getter.triggered:
                    continue
                getter.succeed(item)
                return
            self._items.append(item)
        finally:
            hp.exit()

    def get(self):
        """Event that fires with the next item (FIFO).

        The event supports :meth:`~GetEvent.cancel`: an abandoned
        getter leaves the queue, and an item already handed to it is
        returned to the front of the buffer instead of being lost.
        """
        hp = self.sim.hostprof
        if hp is not None and not hp._timing:
            # Stride sampling: attribution is off for this event.
            hp = None
        if hp is None:
            event = GetEvent(self)
            if self._items:
                event.succeed(self._items.popleft())
            else:
                self._getters.append(event)
            return event
        hp.enter("resource")
        try:
            event = GetEvent(self)
            if self._items:
                event.succeed(self._items.popleft())
            else:
                self._getters.append(event)
            return event
        finally:
            hp.exit()

    def _getter_cancelled(self, event):
        """A blocked getter went away (interrupt or timeout race)."""
        if event.triggered:
            # The item was already handed over but never consumed;
            # repossess it for the next getter, front of the line.
            item = event.value
            while self._getters:
                getter = self._getters.popleft()
                if getter.cancelled or getter.triggered:
                    continue
                getter.succeed(item)
                return
            self._items.appendleft(item)
            return
        try:
            self._getters.remove(event)
        except ValueError:
            pass

    def try_get(self):
        """Immediately pop an item, or return None if empty."""
        if self._items:
            return self._items.popleft()
        return None


class BandwidthPipe:
    """A serializing transmission port of fixed bandwidth.

    Models a NIC TX port or link: each message occupies the port for
    ``size / bytes_per_us`` plus a fixed per-message overhead. The event
    returned by :meth:`transmit` fires when the last byte has left the
    port — propagation delay is added by the fabric, not here.
    """

    __slots__ = ("sim", "bytes_per_us", "per_message_us", "name", "_port",
                 "bytes_total", "messages_total", "_queue_label",
                 "_xmit_label")

    def __init__(self, sim, bytes_per_us, per_message_us=0.0, name=None):
        if bytes_per_us <= 0:
            raise SimulationError("bandwidth must be positive")
        self.sim = sim
        self.bytes_per_us = float(bytes_per_us)
        self.per_message_us = float(per_message_us)
        self.name = name or "pipe"
        # Span labels are fixed per pipe; building them per transmit()
        # was two f-strings on the hottest wire path.
        self._queue_label = f"{self.name}.queue"
        self._xmit_label = f"{self.name}.xmit"
        self._port = Resource(sim, capacity=1, name=f"{self.name}.port",
                              kind="wire")
        if self._port.monitor is not None:
            # Enrich the port's utilization row with wire throughput.
            self._port.monitor.extra = lambda: {
                "bytes": self.bytes_total,
                "messages": self.messages_total}
        # Direction-neutral totals: a pipe serves as either a TX or an
        # RX port, so "bytes that crossed it" is the honest name — an
        # RX pipe's total is bytes *received*, not sent.
        self.bytes_total = 0
        self.messages_total = 0

    @property
    def bytes_sent(self):
        """Deprecated alias for :attr:`bytes_total` (TX-centric name)."""
        return self.bytes_total

    @property
    def messages_sent(self):
        """Deprecated alias for :attr:`messages_total`."""
        return self.messages_total

    def serialization_time(self, size_bytes):
        """Time for ``size_bytes`` to cross the port."""
        return self.per_message_us + size_bytes / self.bytes_per_us

    def transmit(self, size_bytes, span=NULL_SPAN):
        """Process helper: occupy the port long enough to send the message.

        ``span`` parents two tracing children: a queue span for the
        wait on the (busy) port and a wire span for the serialization
        itself.
        """
        if not span.enabled:
            # Untraced fast path: no span children, no context managers.
            yield self._port.acquire()
            try:
                yield self.sim.timeout(
                    self.per_message_us + size_bytes / self.bytes_per_us)
                self.bytes_total += size_bytes
                self.messages_total += 1
            finally:
                self._port.release()
            return
        # Traced path with the span protocol inlined: children are
        # opened/closed by direct field writes instead of the
        # child()/context-manager/finish() call chain — three Python
        # calls per span on the hottest wire path.
        sim = self.sim
        tracer = span.tracer
        queue_span = Span(tracer, self._queue_label, "queue", span,
                          sim._now, {})
        span.children.append(queue_span)
        try:
            yield self._port.acquire()
        finally:
            queue_span.end = sim._now
        try:
            xmit_span = Span(tracer, self._xmit_label, "wire", span,
                             sim._now, {"bytes": size_bytes})
            span.children.append(xmit_span)
            try:
                yield sim.timeout(
                    self.per_message_us + size_bytes / self.bytes_per_us)
            finally:
                xmit_span.end = sim._now
            self.bytes_total += size_bytes
            self.messages_total += 1
        finally:
            self._port.release()

    def utilization(self, elapsed):
        """Mean busy fraction of the port over ``elapsed`` microseconds."""
        return self._port.utilization(elapsed)

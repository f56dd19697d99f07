"""Event primitives for the simulation kernel.

An :class:`Event` is a one-shot future living on a simulator's timeline.
Processes wait on events by yielding them; the kernel resumes the
process when the event triggers, delivering ``event.value`` (or raising
the failure exception inside the generator).
"""


class SimulationError(RuntimeError):
    """Raised for kernel misuse (double-trigger, yielding non-events...)."""


class Interrupt(Exception):
    """Thrown into a process that another process interrupted.

    The ``cause`` attribute carries whatever object the interrupter
    supplied, typically a short reason string.
    """

    def __init__(self, cause=None):
        super().__init__(cause)
        self.cause = cause


class TimeoutExpired(TimeoutError):
    """A bounded wait (``Simulator.with_timeout``, a request timeout)
    ran out of simulated time before its event triggered.

    Subclasses the builtin :class:`TimeoutError` so existing
    ``except TimeoutError`` handlers keep working; carries the budget
    so retry layers can report what they waited for.
    """

    def __init__(self, timeout_us, what="wait"):
        super().__init__(f"{what} did not complete within {timeout_us} us")
        self.timeout_us = timeout_us
        self.what = what


class _LateCall:
    """A callback registered on an already-processed event.

    A tiny ``__slots__`` callable for the ready queue — the hot path
    never allocates closures for this (or anything else).
    """

    __slots__ = ("callback", "event")

    def __init__(self, callback, event):
        self.callback = callback
        self.event = event

    def __call__(self):
        self.callback(self.event)


class Event:
    """A one-shot occurrence on the simulation timeline.

    Lifecycle: *pending* -> *triggered* (``succeed``/``fail`` called,
    callbacks scheduled) -> *processed* (callbacks have run).
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_triggered", "_processed")

    def __init__(self, sim):
        self.sim = sim
        self.callbacks = []
        self._value = None
        self._ok = None
        self._triggered = False
        self._processed = False

    @property
    def triggered(self):
        """True once ``succeed`` or ``fail`` has been called."""
        return self._triggered

    @property
    def processed(self):
        """True once the kernel has run this event's callbacks."""
        return self._processed

    @property
    def ok(self):
        """True if the event succeeded; None while still pending."""
        return self._ok

    @property
    def value(self):
        """Payload delivered to waiters (or the failure exception)."""
        return self._value

    def succeed(self, value=None):
        """Trigger the event successfully, delivering ``value``."""
        if self._triggered:
            raise SimulationError("event has already been triggered")
        self._ok = True
        self._value = value
        self._triggered = True
        # Same-instant work goes on the ready deque (FIFO == the old
        # heap's seq order at one timestamp) — no heap push, no seq.
        # The event itself is the deque entry (it is callable, see
        # ``__call__``); appending a bound ``_process`` method would
        # allocate one per trigger on the hottest kernel path.
        self.sim._ready.append(self)
        return self

    def fail(self, exception):
        """Trigger the event as failed; waiters see ``exception`` raised."""
        if self._triggered:
            raise SimulationError("event has already been triggered")
        if not isinstance(exception, BaseException):
            raise SimulationError("fail() requires an exception instance")
        self._ok = False
        self._value = exception
        self._triggered = True
        self.sim._ready.append(self)
        return self

    def add_callback(self, callback):
        """Run ``callback(event)`` when the event is processed.

        If the event was already processed the callback fires on the
        next kernel step rather than being silently dropped.
        """
        if self._processed:
            self.sim._ready.append(_LateCall(callback, self))
        else:
            self.callbacks.append(callback)

    def discard_callback(self, callback):
        """Remove ``callback`` if attached; no-op otherwise."""
        callbacks = self.callbacks
        if callbacks and callback in callbacks:
            callbacks.remove(callback)

    def waiter_detached(self, callback):
        """A process that was waiting on this event went away
        (interrupt, timeout race). Removes its resume callback and,
        once nobody is listening anymore, cancels the event so that
        resource-backed subclasses can hand back whatever the dead
        waiter held or queued for.
        """
        self.discard_callback(callback)
        if not self.callbacks:
            self.cancel()

    def cancel(self):
        """Abandon interest in this event.

        The base event has nothing to release, so this is a no-op;
        subclasses that represent a claim on a resource (a queued
        ``Resource.acquire``, a blocked ``Store.get``, a composite
        wait) override it to withdraw that claim. Cancelling never
        un-triggers an event and is always safe to call twice.
        """

    def _process(self):
        self._processed = True
        callbacks = self.callbacks
        # Dropped, not replaced by a fresh list: a callback added from
        # now on goes through ``_LateCall``, and letting go of the list
        # breaks the event -> waiter -> generator frame -> event cycle.
        self.callbacks = None
        for callback in callbacks:
            callback(self)

    # A triggered event on the ready deque is dispatched by calling it;
    # subclasses that use ``__call__`` for another deque role (pending
    # zero-delay timers) dispatch on their trigger state instead.
    __call__ = _process

    def __repr__(self):
        state = "processed" if self._processed else (
            "triggered" if self._triggered else "pending")
        return f"<Event {state} at t={self.sim.now:.3f}>"


class TimerEvent(Event):
    """The event behind ``Simulator.timeout``: fires at a fixed time.

    The simulator stores the timer itself as the queue payload — no
    per-timeout lambda. Cancelling a pending timer *withdraws* it: a
    heap-resident timer is tombstoned (skipped, and compacted away in
    bulk once tombstones dominate) instead of firing into the void.
    This is what keeps the queue O(in-flight) when ``with_timeout`` /
    ``any_of`` waits are won by the guarded event and the losing timer
    is abandoned — previously each one sat in the heap until its
    deadline.
    """

    __slots__ = ("_fire_value", "cancelled")

    def __init__(self, sim, value=None):
        # Inlined Event.__init__ — timers are the single most common
        # allocation in the kernel; skip the super() call.
        self.sim = sim
        self.callbacks = []
        self._value = None
        self._ok = None
        self._triggered = False
        self._processed = False
        self._fire_value = value
        self.cancelled = False

    def fire(self):
        """Heap-pop path: trigger (the kernel already checked ``cancelled``)."""
        # Inlined Event.succeed: one frame per timer instead of two.
        if self._triggered:
            raise SimulationError("event has already been triggered")
        self._ok = True
        self._value = self._fire_value
        self._triggered = True
        self.sim._ready.append(self)

    def __call__(self):
        """Ready-deque path: a pending entry is a zero-delay timer
        firing (unless cancelled); a triggered entry is running its
        callbacks, like any other event (``_process`` inlined)."""
        if self._triggered:
            self._processed = True
            callbacks = self.callbacks
            self.callbacks = None
            for callback in callbacks:
                callback(self)
        elif not self.cancelled:
            self.fire()

    def cancel(self):
        if self.cancelled or self._triggered:
            return
        self.cancelled = True
        self.sim._note_timer_cancelled()


class _Composite(Event):
    """Shared sub-event bookkeeping for :class:`AnyOf`/:class:`AllOf`.

    Keeps the ``(event, callback)`` subscription pairs so that when the
    waiting process detaches (interrupt), the composite can detach from
    its sub-events in turn. Without this, an interrupted quorum wait
    left stale callbacks on the sub-events, and a sub-event triggering
    later could resume work nobody was waiting for — or strand a
    granted resource slot forever.
    """

    __slots__ = ("_events", "_subscriptions")

    def __init__(self, sim, events):
        super().__init__(sim)
        self._events = list(events)
        self._subscriptions = []

    def _subscribe(self):
        for index, event in enumerate(self._events):
            callback = self._make_callback(index)
            self._subscriptions.append((event, callback))
            event.add_callback(callback)

    def cancel(self):
        """Withdraw from every sub-event still pending.

        Cascades: a sub-event left with no other listeners is itself
        cancelled, so e.g. an interrupted quorum wait hands back any
        resource slots its branches were queued for. A composite that
        already triggered consumed a real sub-event value, so it keeps
        its remaining subscriptions (their callbacks are inert).
        """
        if self._triggered:
            return
        subscriptions, self._subscriptions = self._subscriptions, []
        for event, callback in subscriptions:
            event.waiter_detached(callback)


class AnyOf(_Composite):
    """Triggers when the first of several events triggers.

    The value is the ``(index, value)`` pair of the first event. Failure
    of the first event to trigger propagates as failure of the AnyOf.
    """

    __slots__ = ()

    def __init__(self, sim, events):
        super().__init__(sim, events)
        if not self._events:
            raise SimulationError("AnyOf requires at least one event")
        self._subscribe()

    def _make_callback(self, index):
        def on_trigger(event):
            if self._triggered:
                return
            if event.ok:
                self.succeed((index, event.value))
            else:
                self.fail(event.value)
            # Withdraw losing *timers* so they don't sit in the heap
            # until their (now meaningless) deadlines. Only timers:
            # auto-cancelling a losing resource claim here would move
            # its withdrawal earlier within the timestep than the
            # waiter's own explicit cancel, perturbing grant order.
            for sub, callback in self._subscriptions:
                if (sub is not event and not sub._triggered
                        and type(sub) is TimerEvent):
                    sub.waiter_detached(callback)
        return on_trigger


class AllOf(_Composite):
    """Triggers when every one of several events has triggered.

    The value is the list of individual values, in input order. The
    first failure fails the AllOf immediately.
    """

    __slots__ = ("_remaining", "_values")

    def __init__(self, sim, events):
        super().__init__(sim, events)
        self._remaining = len(self._events)
        self._values = [None] * len(self._events)
        if self._remaining == 0:
            self.succeed([])
            return
        self._subscribe()

    def _make_callback(self, index):
        def on_trigger(event):
            if self._triggered:
                return
            if not event.ok:
                self.fail(event.value)
                return
            self._values[index] = event.value
            self._remaining -= 1
            if self._remaining == 0:
                self.succeed(list(self._values))
        return on_trigger

"""Causal flight recorder: one bounded event log across every layer.

The other collectors each watch one family of transitions (spans,
resource busy time, primitive outcomes, fault counters). The flight
recorder is the layer that ties them into *stories*: a bounded
ring buffer of structured events — operation open/close, request
send/reply/timeout/backoff, CAS misses and NAKs, chain aborts, and
every fault injection — each stamped with the id of the client
operation it belongs to, so :mod:`repro.obs.forensics` can rebuild the
causal timeline of any single slow or failed request after the run.

Install contract (same as every collector)::

    recorder = FlightRecorder(capacity=65536)
    sim.observe(recorder)         # BEFORE system construction
    ... build system, run ...
    recorder.dump("flight.json")  # or recorder.to_dict()

Off by default: with no recorder installed every hook on the data path
is a single ``sim.obs is None`` check and the run's simulated timing is
bit-identical to an unrecorded one. The recorder itself never reads or
schedules simulator events — it only appends to a host-side deque — so
a recorded run is also bit-identical in simulated time.

Causal attribution works without threading ids through any call
signature: the kernel records which :class:`Process` is executing
(``Simulator.active_process``, set around each step), the workload's
``op_open`` event binds the new operation's id to its process, and a
process spawned while another runs *inherits* the spawner's operation
context. Since the fabric spawns delivery from the sender's process,
the server spawns its handler from the delivery process, and replies
are sent from the handler, the whole request/reply tree — including
fault fates on either direction — lands on the originating operation
automatically. Events recorded outside any operation (crash schedules,
background daemons) carry ``op=None`` and are reported as global.

Retransmissions are linkable because :mod:`repro.net.port` stamps every
:class:`~repro.net.port.Request` with a stable ``logical_id`` that
survives fresh-id retransmission attempts; flight events on the
request path carry both the per-attempt ``req`` id and the ``logical``
id.
"""

import json
from collections import deque
from itertools import count

DEFAULT_CAPACITY = 65536


class FlightRecorder:
    """Bounded structured event log with per-operation causal context.

    Events are plain dicts ``{"seq", "t", "op", "kind", ...fields}``;
    ``seq`` is a monotone append index (so eviction is observable),
    ``t`` the simulated time, ``op`` the owning client operation id or
    None for global events. The ring holds the most recent
    ``capacity`` events; ``evicted`` counts what fell off the front.
    """

    #: the Simulator attribute a spawning process reads to inherit
    #: its spawner's operation context
    sim_attr = "flight"

    def __init__(self, capacity=DEFAULT_CAPACITY):
        if capacity < 1:
            raise ValueError("FlightRecorder needs capacity >= 1")
        self.capacity = capacity
        self._events = deque(maxlen=capacity)
        self.recorded = 0
        self.ops_opened = 0
        self.ops_closed = 0
        self._sim = None
        self._op_ids = count(1)

    def bind(self, sim):
        """Attach to the simulator (``sim.observe`` calls this)."""
        self._sim = sim
        return self

    # -- process context (read from the kernel) ----------------------------

    def _active_process(self):
        return None if self._sim is None else self._sim.active_process

    def current_ctx(self):
        """The operation id of the currently executing process (or None)."""
        process = self._active_process()
        return None if process is None else process._flight_ctx

    # -- bus events (see repro.obs.bus) ------------------------------------

    def note_op_open(self, name, client):
        """A client operation begins; binds its id to the current process."""
        op_id = next(self._op_ids)
        self.ops_opened += 1
        process = self._active_process()
        if process is not None:
            process._flight_ctx = op_id
        self.record("op.open", op=op_id, name=name, client=client)

    def note_op_close(self, latency_us, aborts, retries, measured):
        """The current process's operation finished; clears its binding."""
        self.ops_closed += 1
        self.record("op.close", status="aborted" if aborts else "ok",
                    latency_us=latency_us, aborts=aborts, retries=retries,
                    measured=measured)
        process = self._active_process()
        if process is not None:
            process._flight_ctx = None

    def note_send(self, logical, req, dst, service):
        self.record("req.send", logical=logical, req=req, dst=dst,
                    service=service)

    def note_reply(self, logical, req, ok, stale):
        self.record("req.stale" if stale else "req.reply", logical=logical,
                    req=req, ok=ok)

    def note_timeout(self, conn, logical, req, dst, timeout_us):
        self.record("req.timeout", logical=logical, req=req, dst=dst,
                    timeout_us=timeout_us)

    def note_backoff(self, conn, logical, attempt, backoff_us):
        self.record("req.backoff", logical=logical, attempt=attempt,
                    backoff_us=backoff_us)

    def note_exhausted(self, logical, attempts):
        self.record("req.exhausted", logical=logical, attempts=attempts)

    def note_cas(self, conn, target, mode, swapped):
        # Only misses are flight-worthy: they are what retry storms on
        # hot addresses are made of (forensics groups by target).
        if not swapped:
            self.record("cas.miss", target=target, mode=mode.value)

    def note_nak(self, conn, opname, error):
        self.record("op.nak", opname=opname, error=type(error).__name__)

    def note_chain_submit(self, ops, server):
        self.record("chain.submit", ops=len(ops),
                    kinds="+".join(op.opname for op in ops), server=server)

    def note_chain(self, ops, results, logical, reason):
        if reason is not None and results:
            self.record("chain.abort", logical=logical, ops=len(results),
                        reason=reason)

    def note_rpc_submit(self, method, server):
        self.record("rpc.submit", method=method, server=server)

    def note_fate(self, message, fate):
        # Recorded from the sender's process, so injected fates
        # attribute to the operation the message serves (requests and
        # replies alike).
        logical = getattr(message.payload, "logical_id", None)
        if fate.drop:
            self.record("fault.drop", msg=message.id, logical=logical,
                        dst=message.dst, service=message.service)
            return
        if fate.duplicate:
            self.record("fault.dup", msg=message.id, logical=logical,
                        dst=message.dst, service=message.service)
        if fate.delay_us > 0.0:
            self.record("fault.delay", msg=message.id, logical=logical,
                        dst=message.dst, service=message.service,
                        delay_us=fate.delay_us)

    def note_crash_drop(self, message, host):
        self.record("fault.crash_drop", msg=message.id,
                    logical=getattr(message.payload, "logical_id", None),
                    host=host, dst=message.dst)

    def note_crash(self, host, down):
        # Crash schedules run outside any process, so the event is
        # global (op=None): forensics turns crash/recover pairs into
        # down windows and overlaps them with requests.
        self.record("fault.crash" if down else "fault.recover", host=host)

    def note_starve(self, freelist_id, name, buffers, restored):
        if restored:
            self.record("fault.restore", freelist=freelist_id, name=name,
                        restored=buffers)
        else:
            self.record("fault.starve", freelist=freelist_id, name=name,
                        taken=buffers)

    # -- recording -----------------------------------------------------------

    def record(self, kind, op=None, **fields):
        """Append one event; ``op`` defaults to the current context."""
        if op is None:
            op = self.current_ctx()
        event = {"seq": self.recorded,
                 "t": self._sim.now if self._sim is not None else 0.0,
                 "op": op, "kind": kind}
        event.update(fields)
        self.recorded += 1
        self._events.append(event)

    # -- reading back --------------------------------------------------------

    @property
    def evicted(self):
        """Events lost to the ring bound (oldest first)."""
        return self.recorded - len(self._events)

    @property
    def events(self):
        """The surviving events, oldest first."""
        return list(self._events)

    def to_dict(self):
        """JSON-ready snapshot (the flight-dump format)."""
        return {
            "capacity": self.capacity,
            "recorded": self.recorded,
            "evicted": self.evicted,
            "ops_opened": self.ops_opened,
            "ops_closed": self.ops_closed,
            "events": self.events,
        }

    def dump(self, path):
        """Write the flight dump as JSON; returns ``path``."""
        with open(path, "w") as handle:
            json.dump(self.to_dict(), handle, indent=1, default=repr)
            handle.write("\n")
        return path


def load_dump(path):
    """Read a flight dump written by :meth:`FlightRecorder.dump`."""
    with open(path) as handle:
        return json.load(handle)

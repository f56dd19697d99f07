"""Client-side PRISM API.

:class:`PrismClient` is what application code holds: it wraps a
connection to one server and turns the Table 1 primitives into
round trips over the simulated fabric. All methods are process helpers
(``yield from`` them inside a simulation process).

The convenience wrappers (:meth:`read`, :meth:`write`, :meth:`cas`,
:meth:`allocate`) unwrap single-op results and raise on NAK;
:meth:`execute` submits a chain and returns the full
:class:`~repro.prism.engine.ChainResult` for callers that inspect
per-op outcomes (e.g. distinguishing a CAS miss from success).
"""

from repro.core.chain import Chain
from repro.core.ops import AllocateOp, CasOp, ReadOp, WriteOp
from repro.net.port import RequestChannel
from repro.obs.trace import NULL_SPAN
from repro.prism.engine import OpStatus


class PrismClient:
    """A connection from one client host to one PRISM server."""

    def __init__(self, sim, fabric, client_name, server, channel=None,
                 post_overhead_us=0.25, completion_overhead_us=0.25,
                 retry_policy=None):
        self.sim = sim
        self.fabric = fabric
        self.client_name = client_name
        self.server = server
        self.connection = server.connect(client_name)
        self.channel = channel or RequestChannel(
            sim, fabric, client_name,
            post_overhead_us=post_overhead_us,
            completion_overhead_us=completion_overhead_us)
        # With a fault plan installed, clients adopt its retry policy
        # automatically — no plumbing through the system builders, and
        # with no plan the request path is byte-for-byte the old one.
        if retry_policy is None and sim.faults is not None:
            retry_policy = sim.faults.plan.retry
        self.retry_policy = retry_policy
        self.round_trips = 0
        # The channel's timeout/backoff events name this connection
        # instead of the whole client host.
        self.channel.conn = self.connection.id

    @property
    def sram_slot(self):
        """This connection's 32 B on-NIC scratch address (for redirects)."""
        return self.connection.sram_slot

    @property
    def default_rkey(self):
        """Convenience: the first shared application region's rkey."""
        candidates = self.connection.granted_rkeys - {self.server.sram_rkey}
        return min(candidates) if candidates else self.server.sram_rkey

    # -- raw submission ----------------------------------------------------

    def execute(self, *ops, span=NULL_SPAN, retryable=None):
        """Submit ops as one request (one round trip); ChainResult back.

        With a :class:`~repro.faults.plan.RetryPolicy` attached (see
        ``__init__``), a lost request or reply is retransmitted for
        ``retryable`` chains and surfaces as
        :class:`~repro.sim.events.TimeoutExpired` otherwise. By default
        a chain is retryable iff every op is READ/WRITE/CAS —
        at-least-once execution of those is harmless, while a blind
        ALLOCATE or FETCH-ADD retransmission would leak a buffer or
        double-count. Callers whose chains are retry-safe by protocol
        design (the CAS_GT install chains of PRISM-RS/TX, where a
        duplicate execution misses the CAS and the client retires the
        fresh allocation) pass ``retryable=True`` explicitly.

        A NAK is never retried: it is a delivered negative answer and
        raises immediately via ``raise_on_nak`` in the callers.
        """
        if len(ops) == 1 and isinstance(ops[0], Chain):
            chain = ops[0]
        else:
            chain = Chain(ops)
        policy = self.retry_policy
        obs = self.sim.obs
        submitted = self.sim._now
        if obs is not None:
            obs.note_chain_submit(chain.ops, self.server.host_name)
        # Untraced round trips skip the null span's child() and context
        # manager: three calls per request for nothing.
        trip = (span.child("roundtrip", phase="cpu", ops=len(chain.ops))
                if span.enabled else span)
        try:
            if policy is None:
                result = yield from self.channel.request(
                    self.server.host_name, self.server.service,
                    (self.connection.id, chain), chain.request_bytes(),
                    span=trip)
            else:
                if retryable is None:
                    retryable = all(isinstance(op, (ReadOp, WriteOp, CasOp))
                                    for op in chain.ops)
                if retryable:
                    result = yield from self.channel.request_with_retry(
                        self.server.host_name, self.server.service,
                        (self.connection.id, chain), chain.request_bytes(),
                        policy, span=trip)
                else:
                    result = yield from self.channel.request(
                        self.server.host_name, self.server.service,
                        (self.connection.id, chain), chain.request_bytes(),
                        timeout_us=policy.timeout_us, span=trip)
        finally:
            if trip is not span:
                trip.finish()
        self.round_trips += 1
        if obs is not None:
            obs.note_round_trip(self.connection.id,
                                self.sim._now - submitted)
        return result

    # -- Table 1 convenience wrappers --------------------------------------

    def read(self, addr, length, rkey=None, indirect=False, bounded=False,
             redirect_to=None, span=NULL_SPAN):
        """READ; returns bytes (b'' when redirected)."""
        op = ReadOp(addr=addr, length=length,
                    rkey=self._rkey(rkey), indirect=indirect, bounded=bounded,
                    redirect_to=redirect_to)
        result = yield from self.execute(op, span=span)
        result.raise_on_nak()
        return result[0].value

    def write(self, addr, data, rkey=None, length=None, addr_indirect=False,
              addr_bounded=False, data_indirect=False, span=NULL_SPAN):
        """WRITE; returns None."""
        op = WriteOp(addr=addr, data=data, rkey=self._rkey(rkey),
                     length=length, addr_indirect=addr_indirect,
                     addr_bounded=addr_bounded, data_indirect=data_indirect)
        result = yield from self.execute(op, span=span)
        result.raise_on_nak()

    def allocate(self, freelist, data, rkey=None, redirect_to=None,
                 span=NULL_SPAN):
        """ALLOCATE; returns the buffer address (0 when redirected)."""
        op = AllocateOp(freelist=freelist, data=data, rkey=self._rkey(rkey),
                        redirect_to=redirect_to)
        result = yield from self.execute(op, span=span)
        result.raise_on_nak()
        return result[0].value

    def cas(self, target, data, rkey=None, mode=None, compare_mask=None,
            swap_mask=None, compare_data=None, target_indirect=False,
            data_indirect=False, operand_width=None, span=NULL_SPAN):
        """Enhanced CAS; returns ``(swapped, old_value_bytes)``."""
        kwargs = {}
        if mode is not None:
            kwargs["mode"] = mode
        op = CasOp(target=target, data=data, rkey=self._rkey(rkey),
                   compare_mask=compare_mask, swap_mask=swap_mask,
                   compare_data=compare_data,
                   target_indirect=target_indirect,
                   data_indirect=data_indirect,
                   operand_width=operand_width, **kwargs)
        result = yield from self.execute(op, span=span)
        result.raise_on_nak()
        outcome = result[0]
        return outcome.status is OpStatus.OK, outcome.value

    def fetch_add(self, target, delta, rkey=None, span=NULL_SPAN):
        """Classic FETCH-AND-ADD; returns the previous 64-bit value."""
        from repro.core.ops import FetchAddOp
        op = FetchAddOp(target=target, delta=delta, rkey=self._rkey(rkey))
        result = yield from self.execute(op, span=span)
        result.raise_on_nak()
        return int.from_bytes(result[0].value, "little")

    def _rkey(self, rkey):
        return self.default_rkey if rkey is None else rkey

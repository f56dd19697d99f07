"""The server side: memory, registrations, free lists, and the NIC service.

A :class:`PrismServer` owns one host's memory system and executes
incoming operation requests through a timing backend. It also provides
the *server-CPU* control-plane duties the paper assigns to the host
(§3.2): registering memory, creating free lists, and re-posting
recycled buffers — the latter only when concurrent NIC operations have
quiesced, via a reader/writer-style gate.
"""

from itertools import count

from repro.core.chain import Chain
from repro.core.constants import REDIRECT_SLOT_BYTES
from repro.net.port import send_reply
from repro.prism.address_space import ServerAddressSpace
from repro.prism.engine import Connection, PrismEngine
from repro.rdma.mr import AccessFlags, MemoryRegionTable
from repro.rdma.qp import QueuePair

DEFAULT_MEMORY_BYTES = 64 * 1024 * 1024


class PrismServer:
    """One host's PRISM (or plain RDMA) service."""

    _freelist_ids = count(1)

    def __init__(self, sim, fabric, host_name, backend_cls, config=None,
                 memory_bytes=DEFAULT_MEMORY_BYTES, service="prism",
                 backend_kwargs=None):
        self.sim = sim
        self.fabric = fabric
        self.host_name = host_name
        self.service = service
        self.space = ServerAddressSpace(memory_bytes)
        self.regions = MemoryRegionTable()
        self.freelists = {}
        self.engine = PrismEngine(self.space, self.regions, self.freelists,
                                  sim=sim)
        self.backend = backend_cls(sim, self.engine, config,
                                   **(backend_kwargs or {}))
        # Register the on-NIC SRAM once; every connection gets this rkey
        # so redirect targets in its scratch slot pass protection checks.
        self.sram_rkey = self.regions.register(
            self.space.sram_base, self.space.sram_bytes, AccessFlags.ALL)
        self._shared_rkeys = {self.sram_rkey}
        self.connections = {}
        # Name of every request-handler process, built once.
        self._handler_name = f"{service}@{host_name}"
        self.failed = False
        self.requests_dropped = 0
        fabric.host(host_name).register_service(service, self._on_request)
        if sim.faults is not None:
            sim.faults.register_server(host_name, self)

    # -- control plane (server CPU, setup / daemon time) ------------------

    def add_region(self, nbytes, flags=AccessFlags.ALL, align=8,
                   shared=True):
        """Allocate + register host memory; returns ``(addr, rkey)``.

        ``shared`` regions are granted automatically to every new
        connection (and retroactively to existing ones), which models
        the usual one-protection-domain-per-application setup.
        """
        addr = self.space.sbrk(nbytes, align)
        rkey = self.regions.register(addr, nbytes, flags)
        if shared:
            self._shared_rkeys.add(rkey)
            for connection in self.connections.values():
                connection.grant(rkey)
        return addr, rkey

    def create_freelist(self, buffer_size, buffer_count, name=None):
        """Carve ``buffer_count`` buffers and post them to a new free list.

        Returns ``(freelist_id, region_rkey)``. The buffers sit in one
        registered region so ALLOCATE's derived-address check passes.
        """
        freelist_id = next(self._freelist_ids)
        qp = QueuePair(buffer_size, name=name or f"freelist{freelist_id}")
        base, rkey = self.add_region(buffer_size * buffer_count)
        qp.post_many(base + i * buffer_size for i in range(buffer_count))
        self.freelists[freelist_id] = qp
        obs = self.sim.obs
        if obs is not None:
            obs.note_freelist(freelist_id, qp)
        if self.sim.faults is not None:
            self.sim.faults.register_freelist(self, freelist_id, qp)
        return freelist_id, rkey

    def freelist(self, freelist_id):
        return self.freelists[freelist_id]

    def connect(self, client_name):
        """Create a connection: all shared rkeys + a 32 B SRAM scratch slot."""
        slot = self.space.sram_sbrk(REDIRECT_SLOT_BYTES)
        connection = Connection(client_name, set(self._shared_rkeys),
                                sram_slot=slot)
        self.connections[connection.id] = connection
        return connection

    # -- buffer recycling gate (§3.2) ---------------------------------------

    def post_buffers(self, freelist_id, addrs):
        """Process helper: re-post recycled buffers safely.

        Takes the write side of the NIC's reader/writer gate: new
        operation *executions* stall, the currently executing ops drain
        (a few µs of NIC pipeline), the buffers are posted, and the
        gate reopens. This is the guarantee that makes PRISM-KV/RS/TX
        reads safe against use-after-free (§6.1): a buffer can never be
        handed back to ALLOCATE while an operation that might still
        dereference it is running.
        """
        yield from self.backend.gate.drain()
        try:
            self.freelists[freelist_id].post_many(addrs)
        finally:
            self.backend.gate.release()

    # -- failure injection ---------------------------------------------------

    def fail(self):
        """Crash-stop: silently drop every subsequent request.

        Models the replica failures ABD tolerates (§7.1): clients see
        no reply (as from a dead host), and quorum protocols proceed
        with the remaining replicas.
        """
        self.failed = True

    def recover(self):
        """Return to service. Memory contents survive (fail-recover
        with stable state); protocol-level catch-up is the
        application's business — ABD repairs via its write-back phase.
        """
        self.failed = False

    # -- data plane ----------------------------------------------------------

    def _on_request(self, message):
        if self.failed:
            self.requests_dropped += 1
            return
        self.sim.spawn(self._serve(message), name=self._handler_name)

    def _serve(self, message):
        request = message.payload
        root = request.span
        connection_id, ops = request.body
        connection = self.connections.get(connection_id)
        if connection is None:
            from repro.core.errors import RemoteNak
            yield from send_reply(
                self.fabric, self.host_name, request,
                RemoteNak(f"unknown connection {connection_id}"), 12,
                ok=False, span=root)
            return
        # Untraced requests skip the null span's child() and context
        # manager: three calls per request for nothing.
        span = (root.child("server.process", phase="queue",
                           host=self.host_name, backend=self.backend.label)
                if root.enabled else root)
        try:
            result = yield from self.backend.process(
                connection, ops, span=span, logical=request.logical_id)
        finally:
            if span is not root:
                span.finish()
        size = self._response_bytes(ops, result)
        yield from send_reply(self.fabric, self.host_name, request,
                              result, size, span=root)

    @staticmethod
    def _response_bytes(ops, result):
        if isinstance(ops, Chain):
            ops = ops.ops
        total = 0
        for op, op_result in zip(ops, result):
            value = op_result.value
            length = len(value) if isinstance(value, (bytes, bytearray)) else 0
            total += op.response_bytes(length)
        return total

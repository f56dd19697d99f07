"""Byte-exact execution semantics for PRISM operations (Table 1).

The engine performs the *functional* side of a primitive — dereference,
bounds clamping, free-list pop, masked compare-and-swap, redirection —
against a :class:`~repro.prism.address_space.ServerAddressSpace`, and
records every memory access it makes as an :class:`Access`. Timing
backends replay that trace to charge PCIe round trips (hardware NIC),
core time (software stack), or host-access latency (BlueField).

Protection model: the ``rkey`` carried by an operation must be granted
to the issuing connection and must cover the operation's primary target.
Addresses *derived* during execution — a dereferenced pointer, an
indirect data source, a redirect destination, an allocated buffer —
must be covered by some region granted to the same connection with the
required permission. (The paper states the single-region form of this
rule in §3.1; granting a connection several regions is the natural
generalization its applications need, e.g. state region + on-NIC
scratch region.)
"""

import enum
from dataclasses import dataclass
from itertools import count
from typing import Optional

from repro.core.constants import POINTER_BYTES
from repro.core.errors import (
    AccessViolation,
    AllocationFailure,
    InvalidOperation,
    PrismError,
)
from repro.core.chain import Chain
from repro.core.ops import AllocateOp, CasOp, FetchAddOp, ReadOp, WriteOp
from repro.hw.layout import BOUNDED_PTR_SIZE, unpack_bounded_ptr
from repro.rdma.mr import AccessFlags


class OpStatus(enum.Enum):
    """Outcome of one operation within a chain."""

    OK = "ok"
    CAS_MISS = "cas_miss"   # comparison failed; old value still returned
    SKIPPED = "skipped"     # conditional op whose predecessor failed
    NAK = "nak"             # protection violation / empty free list / ...

    @property
    def successful(self):
        """§3.4: NAKs, errors, and CAS misses count as unsuccessful."""
        return self is OpStatus.OK


@dataclass
class Access:
    """One memory touch made while executing a primitive."""

    kind: str       # "r" or "w"
    domain: str     # "host" or "sram"
    nbytes: int
    atomic: bool = False


@dataclass
class OpResult:
    """Result of one operation: status plus its return payload.

    ``value`` is bytes for READ (empty if redirected) and CAS (the old
    value), an integer buffer address for ALLOCATE (0 if redirected),
    and None for WRITE.
    """

    status: OpStatus
    value: object = None
    error: Optional[PrismError] = None

    @property
    def successful(self):
        return self.status.successful


class ChainResult:
    """Results of a whole chain, in op order."""

    def __init__(self, results):
        self.results = list(results)

    def __iter__(self):
        return iter(self.results)

    def __len__(self):
        return len(self.results)

    def __getitem__(self, index):
        return self.results[index]

    @property
    def last(self):
        return self.results[-1]

    @property
    def committed(self):
        """True when the final operation of the chain succeeded."""
        return self.results[-1].successful

    def raise_on_nak(self):
        """Raise the first hard error, if any op NAK'd."""
        for result in self.results:
            if result.status is OpStatus.NAK and result.error is not None:
                raise result.error
        return self


def abort_reason(results):
    """Why a chain's OpResults did not commit, or None if it committed.

    The first decisive op wins: a NAK names its error class, then a CAS
    miss or a skipped op; a zero-op chain is ``"empty"``.
    """
    if results and results[-1].successful:
        return None
    for result in results:
        if result.status is OpStatus.NAK:
            return (type(result.error).__name__
                    if result.error is not None else "nak")
        if result.status is OpStatus.CAS_MISS:
            return "cas_miss"
        if result.status is OpStatus.SKIPPED:
            return "skipped"
    return "uncommitted" if results else "empty"


class Connection:
    """Per-client NIC state: granted regions and redirect scratch slot."""

    _ids = count(1)

    def __init__(self, client_name, granted_rkeys, sram_slot=None):
        self.id = next(self._ids)
        self.client_name = client_name
        self.granted_rkeys = set(granted_rkeys)
        self.sram_slot = sram_slot

    def grant(self, rkey):
        self.granted_rkeys.add(rkey)


class _Unobserved:
    """Stand-in simulator for an engine run outside any simulation."""

    obs = None


class PrismEngine:
    """Executes single operations and chains against server memory.

    ``sim`` is the simulator whose observer bus (``sim.obs``) receives
    the engine's deref/CAS/NAK/ALLOCATE events; an engine driven
    outside a simulation (unit tests) has none.
    """

    def __init__(self, space, region_table, freelists=None,
                 allow_extensions=True, allow_extended_atomics=True,
                 sim=None):
        self.sim = sim if sim is not None else _Unobserved
        self.space = space
        self.regions = region_table
        self.freelists = freelists if freelists is not None else {}
        self.allow_extensions = allow_extensions
        self.allow_extended_atomics = allow_extended_atomics
        self.ops_executed = 0
        #: optional repro.obs.timeline.ChargeMonitor counting executed
        #: ops and touched bytes per window (the engine itself is
        #: functional — time is charged by the owning backend)
        self.monitor = None

    # -- protection helpers ------------------------------------------------

    def _check_primary(self, connection, op, addr, length, need):
        if op.rkey not in connection.granted_rkeys:
            raise AccessViolation(
                f"rkey {op.rkey:#x} not granted to connection {connection.id}")
        self.regions.check(addr, length, op.rkey, need)

    def _check_derived(self, connection, addr, length, need, what):
        """A derived address must fall inside *some* granted region."""
        permitting = self.regions.permitting
        mask = need.value
        for rkey in connection.granted_rkeys:
            if permitting(addr, length, rkey, mask) is not None:
                return
        raise AccessViolation(
            f"{what}: [{addr}, {addr + length}) not covered by any region "
            f"granted to connection {connection.id}")

    def _feature_check(self, op):
        if not self.allow_extensions and op.uses_extensions():
            if isinstance(op, CasOp) and self.allow_extended_atomics:
                if not op.uses_prism_only_features():
                    return  # extended atomics exist on stock Mellanox NICs
            raise InvalidOperation(
                f"{op.opname}: PRISM extension used, but this NIC supports "
                "only the classic RDMA interface")

    # -- address resolution ---------------------------------------------

    def _resolve_read_target(self, connection, op, accesses):
        """Dereference for READ: returns (effective_addr, effective_len)."""
        if not op.indirect:
            self._check_primary(connection, op, op.addr, op.length,
                                AccessFlags.READ)
            return op.addr, op.length
        struct_len = BOUNDED_PTR_SIZE if op.bounded else POINTER_BYTES
        self._check_primary(connection, op, op.addr, struct_len,
                            AccessFlags.READ)
        raw = self.space.read(op.addr, struct_len)
        accesses.append(Access("r", self.space.domain(op.addr), struct_len))
        if op.bounded:
            target, bound = unpack_bounded_ptr(raw)
            effective = min(op.length, bound)
        else:
            target = int.from_bytes(raw[:POINTER_BYTES], "little")
            effective = op.length
        self._check_derived(connection, target, effective, AccessFlags.READ,
                            "READ pointee")
        return target, effective

    def _resolve_write_target(self, connection, op, accesses):
        if not op.addr_indirect:
            self._check_primary(connection, op, op.addr, op.length,
                                AccessFlags.WRITE)
            return op.addr, op.length
        struct_len = BOUNDED_PTR_SIZE if op.addr_bounded else POINTER_BYTES
        self._check_primary(connection, op, op.addr, struct_len,
                            AccessFlags.READ)
        raw = self.space.read(op.addr, struct_len)
        accesses.append(Access("r", self.space.domain(op.addr), struct_len))
        if op.addr_bounded:
            target, bound = unpack_bounded_ptr(raw)
            effective = min(op.length, bound)
        else:
            target = int.from_bytes(raw[:POINTER_BYTES], "little")
            effective = op.length
        self._check_derived(connection, target, effective, AccessFlags.WRITE,
                            "WRITE pointee")
        return target, effective

    # -- single-op execution ------------------------------------------------

    def execute_op(self, connection, op, prev_ok=True):
        """Execute one op; returns ``(OpResult, [Access])``.

        ``prev_ok`` is the chain predicate: a conditional op with a
        failed predecessor is skipped without touching memory.
        """
        accesses = []
        if op.conditional and not prev_ok:
            return OpResult(OpStatus.SKIPPED), accesses
        try:
            self._feature_check(op)
            if isinstance(op, ReadOp):
                result = self._do_read(connection, op, accesses)
            elif isinstance(op, WriteOp):
                result = self._do_write(connection, op, accesses)
            elif isinstance(op, AllocateOp):
                result = self._do_allocate(connection, op, accesses)
            elif isinstance(op, CasOp):
                result = self._do_cas(connection, op, accesses)
            elif isinstance(op, FetchAddOp):
                result = self._do_fetch_add(connection, op, accesses)
            else:
                raise InvalidOperation(f"unknown operation {op!r}")
        except (AccessViolation, AllocationFailure, InvalidOperation) as exc:
            obs = self.sim.obs
            if obs is not None:
                obs.note_nak(connection.id, op.opname, exc)
            return OpResult(OpStatus.NAK, error=exc), accesses
        self.ops_executed += 1
        if self.monitor is not None:
            self.monitor.count(
                events=1, units=sum(access.nbytes for access in accesses))
        return result, accesses

    def _do_read(self, connection, op, accesses):
        target, length = self._resolve_read_target(connection, op, accesses)
        obs = self.sim.obs
        if obs is not None:
            obs.note_deref(connection.id, "READ", int(op.indirect),
                           op.bounded)
        data = self.space.read(target, length)
        accesses.append(Access("r", self.space.domain(target), length))
        if op.redirect_to is not None:
            self._check_derived(connection, op.redirect_to, length,
                                AccessFlags.WRITE, "READ redirect target")
            self.space.write(op.redirect_to, data)
            accesses.append(
                Access("w", self.space.domain(op.redirect_to), length))
            return OpResult(OpStatus.OK, value=b"")
        return OpResult(OpStatus.OK, value=data)

    def _source_data(self, connection, op, length, accesses, what):
        """WRITE/CAS data operand, honouring data_indirect."""
        if not op.data_indirect:
            return op.data
        source = int.from_bytes(op.data, "little")
        self._check_derived(connection, source, length, AccessFlags.READ, what)
        data = self.space.read(source, length)
        accesses.append(Access("r", self.space.domain(source), length))
        return data

    def _do_write(self, connection, op, accesses):
        target, length = self._resolve_write_target(connection, op, accesses)
        obs = self.sim.obs
        if obs is not None:
            obs.note_deref(connection.id, "WRITE",
                           int(op.addr_indirect) + int(op.data_indirect),
                           False)
        data = self._source_data(connection, op, op.length, accesses,
                                 "WRITE data source")
        data = data[:length]
        self.space.write(target, data)
        accesses.append(Access("w", self.space.domain(target), len(data)))
        return OpResult(OpStatus.OK)

    def _do_allocate(self, connection, op, accesses):
        freelist = self.freelists.get(op.freelist)
        if freelist is None:
            raise InvalidOperation(f"ALLOCATE: no free list {op.freelist}")
        if not freelist.would_satisfy(len(op.data)):
            raise InvalidOperation(
                f"ALLOCATE: {len(op.data)} bytes exceeds buffer size "
                f"{freelist.buffer_size} of {freelist.name}")
        obs = self.sim.obs
        try:
            buffer_addr = freelist.pop()  # FreeListExhausted when empty
        except AllocationFailure:
            if obs is not None:
                obs.note_allocate(op.freelist, freelist, False)
            raise
        if obs is not None:
            obs.note_allocate(op.freelist, freelist, True)
        self._check_derived(connection, buffer_addr, freelist.buffer_size,
                            AccessFlags.WRITE, "ALLOCATE buffer")
        self.space.write(buffer_addr, op.data)
        accesses.append(
            Access("w", self.space.domain(buffer_addr), len(op.data)))
        pointer = buffer_addr.to_bytes(POINTER_BYTES, "little")
        if op.redirect_to is not None:
            self._check_derived(connection, op.redirect_to, POINTER_BYTES,
                                AccessFlags.WRITE, "ALLOCATE redirect target")
            self.space.write(op.redirect_to, pointer)
            accesses.append(Access(
                "w", self.space.domain(op.redirect_to), POINTER_BYTES))
            return OpResult(OpStatus.OK, value=0)
        return OpResult(OpStatus.OK, value=buffer_addr)

    def _do_cas(self, connection, op, accesses):
        width = op.operand_width
        # Resolve target (the dereference is NOT atomic; only the CAS is).
        target = op.target
        if op.target_indirect:
            self._check_primary(connection, op, op.target, POINTER_BYTES,
                                AccessFlags.READ)
            target = self.space.read_ptr(op.target)
            accesses.append(
                Access("r", self.space.domain(op.target), POINTER_BYTES))
            self._check_derived(connection, target, width,
                                AccessFlags.ATOMIC, "CAS pointee")
        else:
            self._check_primary(connection, op, target, width,
                                AccessFlags.ATOMIC)
        operand_bytes = self._source_data(connection, op, width, accesses,
                                          "CAS data source")
        operand = int.from_bytes(operand_bytes, "little")
        if op.compare_data is not None:
            comparand = int.from_bytes(op.compare_data, "little")
        else:
            comparand = operand

        old_bytes = self.space.read(target, width)
        accesses.append(
            Access("r", self.space.domain(target), width, atomic=True))
        old = int.from_bytes(old_bytes, "little")

        swapped = op.mode.compare(comparand & op.compare_mask,
                                  old & op.compare_mask)
        obs = self.sim.obs
        if obs is not None:
            obs.note_deref(connection.id, "CAS",
                           int(op.target_indirect) + int(op.data_indirect),
                           False)
            obs.note_cas(connection.id, target, op.mode, swapped)
        if swapped:
            new = (old & ~op.swap_mask) | (operand & op.swap_mask)
            self.space.write(target, new.to_bytes(width, "little"))
            accesses.append(
                Access("w", self.space.domain(target), width, atomic=True))
            return OpResult(OpStatus.OK, value=old_bytes)
        return OpResult(OpStatus.CAS_MISS, value=old_bytes)

    def _do_fetch_add(self, connection, op, accesses):
        self._check_primary(connection, op, op.target, 8,
                            AccessFlags.ATOMIC)
        old_bytes = self.space.read(op.target, 8)
        accesses.append(
            Access("r", self.space.domain(op.target), 8, atomic=True))
        old = int.from_bytes(old_bytes, "little")
        new = (old + op.delta) % (1 << 64)
        self.space.write(op.target, new.to_bytes(8, "little"))
        accesses.append(
            Access("w", self.space.domain(op.target), 8, atomic=True))
        return OpResult(OpStatus.OK, value=old_bytes)

    # -- whole-chain execution (used by tests and simple callers) ---------

    def execute_chain(self, connection, ops):
        """Execute a chain back to back, honouring §3.4 semantics.

        Timing backends interleave their own delays between ops; they
        call :meth:`execute_op` directly. A hard NAK stops processing of
        everything after it, like an RDMA QP entering the error state.
        """
        if isinstance(ops, Chain):
            ops = ops.ops
        results = []
        prev_ok = True
        aborted = False
        for op in ops:
            if aborted:
                results.append(OpResult(OpStatus.SKIPPED))
                continue
            result, _accesses = self.execute_op(connection, op, prev_ok)
            results.append(result)
            if result.status is OpStatus.NAK:
                aborted = True
            prev_ok = result.successful
        obs = self.sim.obs
        if obs is not None:
            obs.note_chain(ops, results, None, abort_reason(results))
        return ChainResult(results)

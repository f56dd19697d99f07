"""READ semantics: direct, indirect, bounded, redirect, protection."""

import pytest

from repro.core import AccessViolation, ReadOp
from repro.hw.layout import pack_bounded_ptr
from repro.prism.address_space import DOMAIN_HOST, DOMAIN_SRAM
from repro.prism.engine import OpStatus
from repro.rdma.mr import AccessFlags


def test_direct_read(harness):
    harness.space.write(harness.base, b"hello world")
    result, accesses = harness.run(
        ReadOp(addr=harness.base, length=11, rkey=harness.rkey))
    assert result.status is OpStatus.OK
    assert result.value == b"hello world"
    assert [(a.kind, a.nbytes) for a in accesses] == [("r", 11)]


def test_indirect_read_dereferences(harness):
    target = harness.base + 256
    harness.space.write(target, b"pointee data")
    harness.space.write_ptr(harness.base, target)
    result, accesses = harness.run(
        ReadOp(addr=harness.base, length=12, rkey=harness.rkey,
               indirect=True))
    assert result.value == b"pointee data"
    # Pointer fetch (8 B) then data fetch.
    assert [(a.kind, a.nbytes) for a in accesses] == [("r", 8), ("r", 12)]


def test_bounded_read_clamps_to_bound(harness):
    target = harness.base + 256
    harness.space.write(target, b"0123456789")
    harness.space.write(harness.base, pack_bounded_ptr(target, 4))
    result, _ = harness.run(
        ReadOp(addr=harness.base, length=100, rkey=harness.rkey,
               indirect=True, bounded=True))
    assert result.value == b"0123"


def test_bounded_read_uses_request_length_when_smaller(harness):
    target = harness.base + 256
    harness.space.write(target, b"0123456789")
    harness.space.write(harness.base, pack_bounded_ptr(target, 10))
    result, _ = harness.run(
        ReadOp(addr=harness.base, length=3, rkey=harness.rkey,
               indirect=True, bounded=True))
    assert result.value == b"012"


def test_null_pointer_dereference_naks(harness):
    harness.space.write_ptr(harness.base, 0)
    result, _ = harness.run(
        ReadOp(addr=harness.base, length=8, rkey=harness.rkey,
               indirect=True))
    assert result.status is OpStatus.NAK
    assert isinstance(result.error, AccessViolation)


def test_unknown_rkey_naks(harness):
    result, _ = harness.run(ReadOp(addr=harness.base, length=8, rkey=0xBEEF))
    assert result.status is OpStatus.NAK


def test_rkey_not_granted_to_connection_naks(harness):
    other_rkey = harness.regions.register(harness.base, 64)
    result, _ = harness.run(ReadOp(addr=harness.base, length=8,
                                   rkey=other_rkey))
    assert result.status is OpStatus.NAK
    assert "not granted" in str(result.error)


def test_out_of_region_naks(harness):
    result, _ = harness.run(
        ReadOp(addr=harness.base + (1 << 16) - 4, length=8,
               rkey=harness.rkey))
    assert result.status is OpStatus.NAK


def test_pointee_outside_granted_regions_naks(harness):
    # Pointer escapes into unregistered memory: must be rejected (§3.1).
    outside = harness.space.sbrk(64)  # allocated but never registered
    harness.space.write_ptr(harness.base, outside)
    result, _ = harness.run(
        ReadOp(addr=harness.base, length=8, rkey=harness.rkey,
               indirect=True))
    assert result.status is OpStatus.NAK
    assert isinstance(result.error, AccessViolation)
    assert str(result.error) == (
        f"READ pointee: [{outside}, {outside + 8}) not covered by any "
        f"region granted to connection {harness.connection.id}")


def test_pointee_in_granted_region_lacking_permission_naks(harness):
    # The pointee lies inside a granted region, but that region does
    # not allow READ: covering the bytes is not enough.
    start = harness.space.sbrk(64)
    harness.connection.grant(
        harness.regions.register(start, 64, AccessFlags.WRITE))
    harness.space.write_ptr(harness.base, start)
    result, _ = harness.run(
        ReadOp(addr=harness.base, length=8, rkey=harness.rkey,
               indirect=True))
    assert result.status is OpStatus.NAK
    assert isinstance(result.error, AccessViolation)
    assert "not covered by any region granted" in str(result.error)


def test_pointee_in_other_granted_region_allowed(harness):
    # Cross-region indirection is fine when both are granted (the
    # state-region -> buffer-region pattern every app uses).
    _, _, buffers = harness.add_freelist(64, 4)
    harness.space.write(buffers, b"buffered")
    harness.space.write_ptr(harness.base, buffers)
    result, _ = harness.run(
        ReadOp(addr=harness.base, length=8, rkey=harness.rkey,
               indirect=True))
    assert result.value == b"buffered"


def test_redirect_writes_to_memory_not_response(harness):
    harness.space.write(harness.base, b"payload!")
    slot = harness.connection.sram_slot
    result, accesses = harness.run(
        ReadOp(addr=harness.base, length=8, rkey=harness.rkey,
               redirect_to=slot))
    assert result.status is OpStatus.OK
    assert result.value == b""  # nothing returned to the client
    assert harness.space.read(slot, 8) == b"payload!"
    assert accesses[-1].kind == "w"
    assert accesses[-1].domain == DOMAIN_SRAM


def test_redirect_to_unregistered_address_naks(harness):
    harness.space.write(harness.base, b"payload!")
    outside = harness.space.sbrk(64)
    result, _ = harness.run(
        ReadOp(addr=harness.base, length=8, rkey=harness.rkey,
               redirect_to=outside))
    assert result.status is OpStatus.NAK


def test_access_domains_reported(harness):
    harness.space.write(harness.base, b"x" * 8)
    _, accesses = harness.run(
        ReadOp(addr=harness.base, length=8, rkey=harness.rkey))
    assert accesses[0].domain == DOMAIN_HOST


def test_zero_length_read(harness):
    result, _ = harness.run(
        ReadOp(addr=harness.base, length=0, rkey=harness.rkey))
    assert result.status is OpStatus.OK
    assert result.value == b""

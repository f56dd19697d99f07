"""Memory registration and rkey protection checks."""

import enum
from itertools import count

from repro.core.errors import AccessViolation


class AccessFlags(enum.Flag):
    """Remote access permissions attached to a registered region."""

    READ = enum.auto()
    WRITE = enum.auto()
    ATOMIC = enum.auto()
    ALL = READ | WRITE | ATOMIC


class MemoryRegion:
    """A registered, remotely accessible span of server memory."""

    __slots__ = ("rkey", "start", "length", "flags", "_mask")

    def __init__(self, rkey, start, length, flags):
        self.rkey = rkey
        self.start = start
        self.length = length
        self.flags = flags
        # Plain-int permission mask: ``check`` runs once per memory
        # access, and enum.Flag operators are ~10x an int ``&``.
        self._mask = flags.value

    @property
    def end(self):
        return self.start + self.length

    def covers(self, addr, length):
        return self.start <= addr and addr + length <= self.end

    def __repr__(self):
        return f"<MR rkey={self.rkey} [{self.start}, {self.end}) {self.flags}>"


class MemoryRegionTable:
    """The NIC's registration table.

    ``check`` enforces the paper's security rule for indirect operations:
    an operation is rejected if either the target address *or the
    location pointed to by the target address* lies in a region with a
    different rkey, or in no registered region at all (§3.1).
    """

    def __init__(self):
        self._regions = {}
        self._rkeys = count(start=0x1000)

    def register(self, start, length, flags=AccessFlags.ALL):
        """Register [start, start+length); returns the new rkey."""
        if length <= 0:
            raise AccessViolation(f"cannot register empty region at {start}")
        rkey = next(self._rkeys)
        self._regions[rkey] = MemoryRegion(rkey, start, length, flags)
        return rkey

    def deregister(self, rkey):
        self._regions.pop(rkey, None)

    def region(self, rkey):
        try:
            return self._regions[rkey]
        except KeyError:
            raise AccessViolation(f"unknown rkey {rkey:#x}") from None

    def permitting(self, addr, length, rkey, mask):
        """The region ``rkey`` names if it grants every permission bit
        in ``mask`` (an :class:`AccessFlags` value as a plain int) and
        covers ``[addr, addr + length)``; None otherwise. Never raises:
        this is the one coverage test, shared by :meth:`check` and by
        the engine's scan over a connection's granted regions."""
        region = self._regions.get(rkey)
        if region is None or mask & ~region._mask:
            return None
        start = region.start
        if addr < start or addr + length > start + region.length:
            return None
        return region

    def check(self, addr, length, rkey, need):
        """Validate an access of ``length`` bytes at ``addr`` under ``rkey``.

        Returns the region on success; raises :class:`AccessViolation`
        otherwise.
        """
        region = self.permitting(addr, length, rkey, need.value)
        if region is not None:
            return region
        region = self._regions.get(rkey)
        if region is None:
            raise AccessViolation(f"unknown rkey {rkey:#x}")
        if need.value & ~region._mask:
            raise AccessViolation(
                f"rkey {rkey:#x} lacks {need} (has {region.flags})")
        raise AccessViolation(
            f"[{addr}, {addr + length}) outside region {region!r}")

"""Layer attribution taken from outside the program.

Nothing here changes the program. Three instruments, each installed
only for the duration of one pass by patching public entry points and
restoring them afterwards:

* :class:`LayerProfile` — cProfile over the measured run
  (``driver.run``), with every function's self time charged to the
  ``repro`` package its code lives in.
* :class:`EntryCounts` — exact counts at layer entry points (kernel
  spawns and timers, fabric messages, request attempts, fault drops and
  retransmissions, host-memory bytes, PRISM chains and CAS outcomes,
  open-loop arrivals), taken by wrapping the public functions.
* :class:`HostSpans` — spans on the host clock around the calls the
  benchmark makes into the program (system build, measured run), kept
  in memory and written as a Chrome trace when the run ends.
"""

import cProfile
import json
import pstats
import time
from collections import Counter
from contextlib import ExitStack, contextmanager
from pathlib import PurePath

from repro.bench import harness
from repro.core.ops import CasOp
from repro.faults import FaultInjector
from repro.hw import HostMemory
from repro.net.fabric import Fabric
from repro.net.port import RequestChannel
from repro.obs import Tracer, to_chrome_events
from repro.prism.client import PrismClient
from repro.prism.engine import OpStatus, PrismEngine
from repro.sim import Simulator
from repro.workload.driver import ClosedLoopDriver, OpenLoopDriver
from repro.workload.sources import AggregatedOpenLoopSource

#: layers self time is reported for, named by ``repro`` package;
#: ``other`` is everything outside ``repro`` (stdlib, builtins, numpy)
#: and the few ``repro`` modules outside these packages
LAYERS = ("sim", "net", "hw", "rdma", "core", "prism", "apps.kv",
          "apps.blockstore", "apps.tx", "workload", "faults", "obs",
          "other")


def layer_of(filename):
    """The layer a code object's file belongs to."""
    parts = PurePath(filename).parts
    if "repro" not in parts:
        return "other"
    package = parts[len(parts) - parts[::-1].index("repro"):]
    if package[0] == "apps" and len(package) > 2:
        name = f"apps.{package[1]}"
    else:
        name = package[0]
    return name if name in LAYERS else "other"


@contextmanager
def patched(owner, name, make_wrapper):
    """Replace ``owner.name`` (class or module attribute) by
    ``make_wrapper(original)`` for the duration of a block."""
    original = getattr(owner, name)
    setattr(owner, name, make_wrapper(original))
    try:
        yield
    finally:
        setattr(owner, name, original)


@contextmanager
def around_driver_run(before, after=None):
    """Call ``before()`` and ``after()`` around every driver's ``run``."""
    def wrap(original):
        def run(self):
            before()
            try:
                return original(self)
            finally:
                if after is not None:
                    after()
        return run
    with patched(ClosedLoopDriver, "run", wrap), \
            patched(OpenLoopDriver, "run", wrap):
        yield


class LayerProfile:
    """cProfile self time of the measured run, grouped by layer."""

    def __init__(self):
        self.profile = cProfile.Profile()

    def installed(self):
        return around_driver_run(self.profile.enable, self.profile.disable)

    def self_seconds(self):
        """``{layer: seconds}`` over every layer in :data:`LAYERS`."""
        totals = dict.fromkeys(LAYERS, 0.0)
        for (filename, _line, _func), row in \
                pstats.Stats(self.profile).stats.items():
            totals[layer_of(filename)] += row[2]  # tottime
        return totals


def _counted(counts, key, amount=None):
    """Wrapper maker: add ``amount(*args)`` (default 1) to ``key``."""
    def wrap(original):
        def counted(*args, **kwargs):
            counts[key] += 1 if amount is None else amount(*args, **kwargs)
            return original(*args, **kwargs)
        return counted
    return wrap


def _counted_cas(counts):
    def wrap(original):
        def execute_op(self, connection, op, prev_ok=True):
            result, accesses = original(self, connection, op, prev_ok)
            if isinstance(op, CasOp):
                counts["prism.cas_attempts"] += 1
                if result.status is OpStatus.OK:
                    counts["prism.cas_successes"] += 1
            return result, accesses
        return execute_op
    return wrap


def _counted_drops(counts):
    def wrap(original):
        def on_message(self, message):
            fate = original(self, message)
            if fate.drop:
                counts["faults.drops"] += 1
            return fate
        return on_message
    return wrap


#: bytes each public HostMemory accessor moves, from its arguments
_MEMORY_BYTES = {
    "read": lambda self, addr, length: length,
    "write": lambda self, addr, data: len(data),
    "read_uint": lambda self, addr, width=8: width,
    "write_uint": lambda self, addr, value, width=8: width,
    "read_ptr": lambda self, addr: 8,
    "fill": lambda self, addr, length, byte=0: length,
}


class EntryCounts:
    """Exact call counts at layer entry points during the measured run.

    Counting restarts when a driver's ``run`` begins (bulk loading is
    not counted); read :attr:`counts` after the run.
    """

    def __init__(self):
        self.counts = Counter()

    @contextmanager
    def installed(self):
        counts = self.counts
        patches = [
            (Simulator, "spawn", _counted(counts, "sim.spawns")),
            (Simulator, "timeout", _counted(counts, "sim.timers")),
            (Simulator, "call_at", _counted(counts, "sim.timers")),
            (Fabric, "send", _counted(counts, "net.messages")),
            (RequestChannel, "request", _counted(counts, "net.requests")),
            (FaultInjector, "note_retransmit",
             _counted(counts, "net.retransmits")),
            (FaultInjector, "on_message", _counted_drops(counts)),
            (PrismClient, "execute", _counted(counts, "prism.chains")),
            (PrismEngine, "execute_op", _counted_cas(counts)),
            (AggregatedOpenLoopSource, "next_op",
             _counted(counts, "workload.arrivals")),
        ] + [(HostMemory, name, _counted(counts, "hw.mem_bytes", size))
             for name, size in _MEMORY_BYTES.items()]
        with ExitStack() as stack:
            for owner, name, wrap in patches:
                stack.enter_context(patched(owner, name, wrap))
            stack.enter_context(around_driver_run(counts.clear))
            yield self


class HostClock:
    """Duck-typed clock for :class:`repro.obs.Tracer`: host µs."""

    def __init__(self):
        self._origin = time.perf_counter()

    @property
    def now(self):
        return (time.perf_counter() - self._origin) * 1e6


class HostSpans:
    """Host-clock spans around the benchmark's calls into the program.

    One root span per pass; its children time each ``build_system``
    call (fabric, servers, bulk load) and each measured ``driver.run``.
    """

    def __init__(self):
        self.tracer = Tracer(HostClock())

    @contextmanager
    def span_pass(self, name):
        """Record one pass; yields its root span."""
        root = self.tracer.root(f"pass.{name}", phase="bench")
        children = []

        def run_started():
            children.append(root.child("driver.run", phase="run"))

        def run_finished():
            children[-1].finish()

        def wrap_build(original):
            def build_system(*args, **kwargs):
                with root.child("build_system", phase="setup"):
                    return original(*args, **kwargs)
            return build_system

        with root, patched(harness, "build_system", wrap_build), \
                around_driver_run(run_started, run_finished):
            yield root

    def write(self, path):
        payload = {"traceEvents": to_chrome_events(self.tracer.roots),
                   "displayTimeUnit": "ms",
                   "otherData": {"clock": "host microseconds"}}
        with open(path, "w") as fh:
            json.dump(payload, fh)
        return path


def build_seconds(root):
    """Host seconds of the ``build_system`` calls under a pass span."""
    return sum(child.duration for child in root.children
               if child.name == "build_system") / 1e6

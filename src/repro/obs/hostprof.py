"""Host-side self-profiling: where does the *simulator's* time go?

Every other observability layer measures simulated time; this one
measures the wall-clock cost of producing it — the quantity ROADMAP
item 1 ("10x events/sec") is judged against. Three pieces:

* :class:`HostProfiler` — a lightweight meter the kernel drives:
  events/sec and resumes/sec from plain counters, plus per-bucket
  wall-time attribution from paired ``time.perf_counter()`` samples at
  the instrumented hot paths. Buckets (:data:`BUCKETS`):

  ========  =====================================================
  bucket    host time spent in
  ========  =====================================================
  dispatch  kernel event dispatch (callback execution, exclusive
            of the nested buckets below)
  resume    driving process generators (``Process._resume``)
  resource  ``Resource.acquire``/``release`` and ``Store`` put/get
  codec     ``repro.hw`` codec pack/unpack (layout structs,
            memory integer codecs)
  hooks.obs     observability hook overhead (resource monitors)
  hooks.faults  fault-injection hook overhead (message fates)
  hooks.views   sliding-window view maintenance + probe evaluation
                (:mod:`repro.obs.views`)
  ========  =====================================================

  Attribution is *exclusive*: entering a nested bucket suspends the
  enclosing one, so bucket seconds are disjoint slices of measured
  wall time and their shares sum to <= 1.0. The remainder (heap
  operations, loop overhead, un-bucketed model code) is the
  unattributed share.

* :class:`StackSampler` — a daemon-thread sampler over
  ``sys._current_frames()`` that emits collapsed stacks
  (``a;b;c count`` lines, flamegraph.pl / speedscope ready).

* :class:`ProfileSession` / :func:`profile_session` — wraps a block of
  host work in either a ``cProfile`` capture (writes ``<prefix>.pstats``
  plus a collapsed-stack digest) or a :class:`StackSampler` capture
  (writes ``flame.<prefix>.txt``).

The off-by-default contract, same as every obs/faults layer: with no
profiler installed, every hook is a single ``is None`` check; the
kernel keeps its uninstrumented run loop. And because the profiler
only *reads* the wall clock — it never touches the simulated clock,
the event queue, or any model state — simulated results are
bit-identical whether profiling is off or on.

Installation: ``sim.set_hostprof(HostProfiler())`` (the bench harness
does this for ``--profile`` runs), or :func:`activate` to set the
ambient profiler that every subsequently constructed
:class:`~repro.sim.kernel.Simulator` picks up — the hook for
standalone benchmark scripts that build simulators internally.
"""

import os
import sys
import threading
from time import perf_counter

#: attribution buckets, in report order
BUCKETS = ("dispatch", "resume", "resource", "codec",
           "hooks.obs", "hooks.faults", "hooks.views")

#: the ambient profiler: codec hooks (which have no simulator handle)
#: read it, and ``Simulator.__init__`` adopts it when set. None means
#: profiling is off everywhere — the default.
ACTIVE = None


def activate(profiler):
    """Make ``profiler`` the ambient profiler; returns it.

    Every :class:`~repro.sim.kernel.Simulator` constructed while a
    profiler is active adopts it, and the module-level codec hooks
    charge to it. ``sim.set_hostprof`` calls this implicitly so the
    codec hooks always agree with the kernel's installed profiler.
    """
    global ACTIVE
    ACTIVE = profiler
    return profiler


def deactivate(profiler=None):
    """Clear the ambient profiler (if ``profiler`` is given, only when
    it is the one currently active)."""
    global ACTIVE
    if profiler is None or ACTIVE is profiler:
        ACTIVE = None


class HostProfiler:
    """Wall-clock meter for the kernel hot path.

    Counters (``events``, ``resumes``) are exact; bucket attribution
    is paired sampling — ``perf_counter()`` at every bucket boundary.
    ``stride=k`` times only every k-th kernel event (counters stay
    exact) and extrapolates bucket seconds by k, trading attribution
    precision for lower observer overhead on very hot loops.
    """

    __slots__ = ("stride", "events", "resumes", "runs", "wall_s",
                 "timed_events", "bucket_s", "_timing", "_stack",
                 "_current", "_last", "_run_t0")

    def __init__(self, stride=1):
        if stride < 1:
            raise ValueError(f"stride must be >= 1, got {stride}")
        self.stride = int(stride)
        self.events = 0
        self.resumes = 0
        self.runs = 0
        self.wall_s = 0.0
        self.timed_events = 0
        self.bucket_s = {bucket: 0.0 for bucket in BUCKETS}
        self._timing = False
        self._stack = []
        self._current = None
        self._last = 0.0
        self._run_t0 = 0.0

    # -- kernel loop hooks -------------------------------------------------

    def run_begin(self):
        """The kernel entered its run loop; wall time starts counting."""
        self.runs += 1
        self._run_t0 = perf_counter()

    def run_end(self):
        """The kernel left its run loop."""
        self.wall_s += perf_counter() - self._run_t0

    def event_begin(self):
        """One queue entry is about to execute."""
        self.events += 1
        if self.events % self.stride:
            return
        self.begin_timed()

    def begin_timed(self):
        """Start timing one event. The kernel's profiled loops inline
        the counter increment and stride check and call this only for
        the sampled events (see ``_run_profiled``); ``event_begin`` is
        the equivalent single-call form."""
        self.timed_events += 1
        self._timing = True
        self.enter("dispatch")

    def event_end(self):
        """The queue entry finished; close any buckets it left open
        (a callback exception can strand nested enters)."""
        if not self._timing:
            return
        while self._current is not None:
            self.exit()
        self._stack.clear()
        self._timing = False

    # -- bucket attribution --------------------------------------------------

    def enter(self, bucket):
        """Charge elapsed time to the enclosing bucket, start ``bucket``."""
        if not self._timing:
            return
        now = perf_counter()
        current = self._current
        if current is not None:
            self.bucket_s[current] += now - self._last
        self._stack.append(current)
        self._current = bucket
        self._last = now

    def exit(self):
        """Close the innermost bucket, resuming its parent."""
        if not self._timing:
            return
        now = perf_counter()
        self.bucket_s[self._current] += now - self._last
        self._current = self._stack.pop() if self._stack else None
        self._last = now

    # -- reporting -----------------------------------------------------------

    def report(self):
        """The ``host`` section: rates, wall seconds, bucket shares.

        Bucket shares are fractions of measured wall time and sum to
        <= 1.0 (exclusive attribution; with ``stride > 1`` the
        extrapolated totals are clipped to the wall time).
        """
        wall = self.wall_s
        scale = float(self.stride)
        attributed = sum(self.bucket_s[name] for name in BUCKETS) * scale
        clip = wall / attributed if 0.0 < wall < attributed else 1.0
        buckets = {}
        for name in BUCKETS:
            seconds = self.bucket_s[name] * scale * clip
            buckets[name] = {
                "seconds": seconds,
                "share": seconds / wall if wall > 0.0 else 0.0,
            }
        return {
            "wall_s": wall,
            "runs": self.runs,
            "events": self.events,
            "resumes": self.resumes,
            "events_per_sec": self.events / wall if wall > 0.0 else 0.0,
            "resumes_per_sec": self.resumes / wall if wall > 0.0 else 0.0,
            "stride": self.stride,
            "buckets": buckets,
            "attributed_share": (min(attributed * clip, wall) / wall
                                 if wall > 0.0 else 0.0),
        }


# -- collapsed stacks ---------------------------------------------------------


def _frame_label(filename, funcname):
    return f"{os.path.basename(filename)}:{funcname}"


class StackSampler:
    """Periodic stack sampler for the calling thread.

    A daemon thread wakes every ``interval_s`` and snapshots the
    target thread's Python stack via ``sys._current_frames()``;
    :meth:`collapsed` folds the samples into flamegraph-ready
    ``frame;frame;frame count`` lines. Sampling reads frames without
    tracing hooks, so the profiled code runs at full speed.
    """

    def __init__(self, interval_s=0.002):
        self.interval_s = interval_s
        self.samples = {}
        self._stop = threading.Event()
        self._thread = None
        self._target_id = None

    def start(self):
        self._target_id = threading.get_ident()
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._loop, name="hostprof-sampler", daemon=True)
        self._thread.start()
        return self

    def _loop(self):
        while not self._stop.wait(self.interval_s):
            frame = sys._current_frames().get(self._target_id)
            if frame is None:
                continue
            stack = []
            while frame is not None:
                code = frame.f_code
                stack.append(_frame_label(code.co_filename, code.co_name))
                frame = frame.f_back
            key = ";".join(reversed(stack))
            self.samples[key] = self.samples.get(key, 0) + 1

    def stop(self):
        self._stop.set()
        if self._thread is not None:
            self._thread.join()
            self._thread = None
        return self

    def collapsed(self):
        """``{stack: count}`` of every sample taken so far."""
        return dict(self.samples)


def write_collapsed(samples, path):
    """Write ``{stack: count}`` as flamegraph.pl collapsed lines."""
    with open(path, "w", encoding="utf-8") as handle:
        for stack, count in sorted(samples.items(),
                                   key=lambda item: (-item[1], item[0])):
            handle.write(f"{stack} {count}\n")
    return path


def _pstats_collapsed(stats):
    """Approximate collapsed stacks from a pstats table.

    cProfile records caller->callee pairs, not full stacks, so the
    folded output is two frames deep: each function's self time
    (microsecond counts) split across its direct callers by call
    count. Enough for a flamegraph of where self time concentrates.
    """
    lines = {}
    for func, (_cc, _nc, tottime, _ct, callers) in stats.items():
        label = _frame_label(func[0], func[2])
        self_us = int(tottime * 1e6)
        if self_us <= 0:
            continue
        total_calls = sum(entry[0] for entry in callers.values())
        if not callers or total_calls <= 0:
            lines[label] = lines.get(label, 0) + self_us
            continue
        for caller, (call_count, _n, _t, _c) in callers.items():
            key = f"{_frame_label(caller[0], caller[2])};{label}"
            part = int(self_us * call_count / total_calls)
            if part > 0:
                lines[key] = lines.get(key, 0) + part
    return lines


# -- whole-block capture ------------------------------------------------------


class ProfileSession:
    """cProfile or sampling capture around a block of host work.

    ``mode`` is ``"cprofile"`` (deterministic per-function profile,
    written as ``<prefix>.pstats`` plus a collapsed digest) or
    ``"sample"`` (wall-clock stack sampling, written as
    ``flame.<prefix>.txt``). ``paths`` lists every artifact written,
    in write order.
    """

    MODES = ("cprofile", "sample")

    def __init__(self, mode, prefix="hostprof", out_dir="."):
        if mode not in self.MODES:
            raise ValueError(f"profile mode must be one of {self.MODES}, "
                             f"got {mode!r}")
        self.mode = mode
        self.prefix = prefix
        self.out_dir = out_dir
        self.paths = []
        self._cprofile = None
        self._sampler = None

    def _path(self, name):
        return os.path.join(self.out_dir, name)

    def start(self):
        if self.mode == "cprofile":
            import cProfile
            self._cprofile = cProfile.Profile()
            self._cprofile.enable()
        else:
            self._sampler = StackSampler().start()
        return self

    def stop(self):
        if self._cprofile is not None:
            self._cprofile.disable()
            pstats_path = self._path(f"{self.prefix}.pstats")
            self._cprofile.dump_stats(pstats_path)
            self.paths.append(pstats_path)
            import pstats
            stats = pstats.Stats(self._cprofile).stats
            self.paths.append(write_collapsed(
                _pstats_collapsed(stats),
                self._path(f"flame.{self.prefix}.txt")))
            self._cprofile = None
        if self._sampler is not None:
            self._sampler.stop()
            self.paths.append(write_collapsed(
                self._sampler.collapsed(),
                self._path(f"flame.{self.prefix}.txt")))
            self._sampler = None
        return self

    def __enter__(self):
        return self.start()

    def __exit__(self, exc_type, exc, tb):
        self.stop()
        return False


def profile_session(mode, prefix="hostprof", out_dir="."):
    """Context manager: ``with profile_session("sample", "fig3"): ...``"""
    return ProfileSession(mode, prefix=prefix, out_dir=out_dir)

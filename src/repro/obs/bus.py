"""The observer bus: one event stream every collector subscribes to.

Each hook site in the simulated system reads ``sim.obs`` once and, when
it is not None, emits one event by calling the bus method named after
the event kind. The bus calls the same-named handler, with the same
arguments, on every installed collector that defines one, in install
order. So a collector subscribes to an event kind by defining
``note_<kind>``, and adding a collector (or a policy) touches no hook
site.

Install collectors before the simulation runs with
``sim.observe(*collectors)``. ``sim.obs`` stays None while no installed
collector handles any event, so the off path of every hook site is one
``is None`` check. The bus allocates nothing per emit: handlers get the
hook site's own arguments (only a host-profiled run's charged handlers
pack them into a tuple).

A collector that sets ``hostprof_bucket`` has its handler time charged
to that :mod:`repro.obs.hostprof` bucket when a host profiler is
installed (the views' ``hooks.views``).

The dispatch methods below list every event kind and its arguments,
grouped by the layer that emits it. ``conn`` is a connection id, or a
host name for requests outside a PRISM connection.
"""


def _charged(hostprof, bucket, handler):
    def charged(*args):
        hostprof.enter(bucket)
        try:
            handler(*args)
        finally:
            hostprof.exit()
    return charged


class ObserverBus:
    """One dispatch method per event kind, over the collectors' handlers.

    A kind exactly one collector handles is bound straight to that
    handler, so its emit costs one call.
    """

    def __init__(self, collectors, hostprof=None):
        self.collectors = tuple(collectors)
        #: the event kinds some collector handles
        self.subscribed = set()
        for kind in EVENTS:
            handlers = []
            for collector in self.collectors:
                handler = getattr(collector, kind, None)
                if handler is None:
                    continue
                bucket = getattr(collector, "hostprof_bucket", None)
                if bucket is not None and hostprof is not None:
                    handler = _charged(hostprof, bucket, handler)
                handlers.append(handler)
                self.subscribed.add(kind)
            setattr(self, "_" + kind, tuple(handlers))
            if len(handlers) == 1:
                setattr(self, kind, handlers[0])

    # -- engine ---------------------------------------------------------------

    def note_deref(self, conn, opname, hops, bounded):
        for handler in self._note_deref:
            handler(conn, opname, hops, bounded)

    def note_cas(self, conn, target, mode, swapped):
        for handler in self._note_cas:
            handler(conn, target, mode, swapped)

    def note_nak(self, conn, opname, error):
        for handler in self._note_nak:
            handler(conn, opname, error)

    def note_allocate(self, freelist_id, freelist, ok):
        for handler in self._note_allocate:
            handler(freelist_id, freelist, ok)

    # -- server and backend (``reason`` is None when the chain committed) -----

    def note_freelist(self, freelist_id, freelist):
        for handler in self._note_freelist:
            handler(freelist_id, freelist)

    def note_chain(self, ops, results, logical, reason):
        for handler in self._note_chain:
            handler(ops, results, logical, reason)

    # -- clients and apps -----------------------------------------------------

    def note_chain_submit(self, ops, server):
        for handler in self._note_chain_submit:
            handler(ops, server)

    def note_round_trip(self, conn, latency_us):
        for handler in self._note_round_trip:
            handler(conn, latency_us)

    def note_rpc_submit(self, method, server):
        for handler in self._note_rpc_submit:
            handler(method, server)

    def note_key(self, app, kind, key):
        for handler in self._note_key:
            handler(app, kind, key)

    # -- request channel ------------------------------------------------------

    def note_send(self, logical, req, dst, service):
        for handler in self._note_send:
            handler(logical, req, dst, service)

    def note_reply(self, logical, req, ok, stale):
        for handler in self._note_reply:
            handler(logical, req, ok, stale)

    def note_timeout(self, conn, logical, req, dst, timeout_us):
        for handler in self._note_timeout:
            handler(conn, logical, req, dst, timeout_us)

    def note_backoff(self, conn, logical, attempt, backoff_us):
        for handler in self._note_backoff:
            handler(conn, logical, attempt, backoff_us)

    def note_exhausted(self, logical, attempts):
        for handler in self._note_exhausted:
            handler(logical, attempts)

    # -- workload driver ------------------------------------------------------

    def note_op_open(self, name, client):
        for handler in self._note_op_open:
            handler(name, client)

    def note_op_close(self, latency_us, aborts, retries, measured):
        for handler in self._note_op_close:
            handler(latency_us, aborts, retries, measured)

    # -- fault injection ------------------------------------------------------

    def note_fate(self, message, fate):
        for handler in self._note_fate:
            handler(message, fate)

    def note_crash_drop(self, message, host):
        for handler in self._note_crash_drop:
            handler(message, host)

    def note_crash(self, host, down):
        for handler in self._note_crash:
            handler(host, down)

    def note_starve(self, freelist_id, name, buffers, restored):
        for handler in self._note_starve:
            handler(freelist_id, name, buffers, restored)


#: every event kind, i.e. every handler name a collector may define
EVENTS = tuple(name for name in vars(ObserverBus) if name.startswith("note_"))

"""Ablation: out-of-place CAS_GT installs vs lock-based in-place writes.

DESIGN.md calls out the paper's core update pattern (§2.2/§3.5):
write-out-of-place + atomically swing a versioned pointer, instead of
lock / write in place / unlock. This bench isolates that choice on a
single server under increasing key contention, with everything else
identical (same backend, same payload, same key distribution):

* ``cas-install`` — PRISM-KV style chained ALLOCATE/CAS_GT, 1 RT;
* ``lock-inplace`` — classic CAS lock, WRITE, CAS unlock, 3 RTs, plus
  backoff on lock failure.
"""

from repro.bench.reporting import print_table
from repro.core.ops import AllocateOp, CasMode, CasOp, WriteOp
from repro.hw.layout import pack_uint
from repro.net.topology import RACK, make_fabric
from repro.prism import PrismClient, PrismServer, SoftwarePrismBackend
from repro.sim import SeededRng, Simulator
from repro.sim.stats import LatencyRecorder
from repro.workload.keydist import ZipfKeys

N_KEYS = 64
N_CLIENTS = 24
VALUE = b"u" * 256
DURATION_US = 1500.0
ZIPFS = [0.0, 1.2]


def _build(sim):
    fabric = make_fabric(sim, RACK,
                         ["server"] + [f"c{i}" for i in range(N_CLIENTS)])
    server = PrismServer(sim, fabric, "server", SoftwarePrismBackend,
                         memory_bytes=64 << 20)
    # slot layout per key: [lock u64 | ver u64 | ptr u64 | inline value]
    stride = 24 + len(VALUE)
    base, rkey = server.add_region(N_KEYS * stride)
    # Enough buffers for the whole run (no recycler in this ablation:
    # retired buffers are simply not reused, isolating the update-path
    # comparison from recycling costs).
    freelist, buf_rkey = server.create_freelist(8 + len(VALUE), 24_000)
    for key in range(N_KEYS):
        addr = server.space.sbrk(0)  # no-op; values start zeroed
    return fabric, server, base, stride, rkey, freelist, buf_rkey


def _run(variant, zipf):
    sim = Simulator()
    fabric, server, base, stride, rkey, freelist, buf_rkey = _build(sim)
    recorder = LatencyRecorder(warmup_until=200.0)

    def client_loop(index):
        client = PrismClient(sim, fabric, f"c{index}", server)
        keys = ZipfKeys(N_KEYS, zipf, seed=index, permutation_seed=1)
        rng = SeededRng(index).stream("backoff")
        version = 0
        while sim.now < 200.0 + DURATION_US:
            key = keys.sample()
            slot = base + key * stride
            start = sim.now
            version += 1
            if variant == "cas-install":
                tmp = client.sram_slot
                result = yield from client.execute(
                    WriteOp(addr=tmp, data=pack_uint(version, 8),
                            rkey=server.sram_rkey),
                    AllocateOp(freelist=freelist,
                               data=pack_uint(version, 8) + VALUE,
                               rkey=buf_rkey, redirect_to=tmp + 8,
                               conditional=True),
                    CasOp(target=slot + 8, data=pack_uint(tmp, 8),
                          rkey=rkey, mode=CasMode.GT,
                          compare_mask=(1 << 64) - 1, data_indirect=True,
                          operand_width=16, conditional=True),
                )
                result.raise_on_nak()
            else:
                attempt = 0
                while True:
                    attempt += 1
                    locked, _ = yield from client.cas(
                        slot, data=pack_uint(index + 1, 8),
                        compare_data=pack_uint(0, 8), rkey=rkey)
                    if locked:
                        break
                    yield sim.timeout(rng.uniform(1.0, 4.0 * attempt))
                yield from client.write(slot + 24, VALUE, rkey=rkey)
                yield from client.cas(slot, data=pack_uint(0, 8),
                                      compare_data=pack_uint(index + 1, 8),
                                      rkey=rkey)
            recorder.record(sim.now, sim.now - start)

    processes = [sim.spawn(client_loop(i)) for i in range(N_CLIENTS)]
    waiter = sim.spawn((lambda d: (yield d))(sim.all_of(processes)))
    sim.run_until_complete(waiter, limit=1e7)
    return recorder.mean(), recorder.count / DURATION_US * 1e6


def test_ablation_out_of_place_vs_locks(benchmark):
    results = benchmark.pedantic(
        lambda: {(variant, zipf): _run(variant, zipf)
                 for variant in ("cas-install", "lock-inplace")
                 for zipf in ZIPFS},
        rounds=1, iterations=1)
    rows = [[variant, zipf, results[(variant, zipf)][0],
             results[(variant, zipf)][1] / 1e6]
            for variant in ("cas-install", "lock-inplace")
            for zipf in ZIPFS]
    print_table("Ablation: out-of-place CAS install vs lock-based in-place",
                ["variant", "zipf", "mean_us", "Mops/s"], rows)
    for zipf in ZIPFS:
        cas_lat, cas_tput = results[("cas-install", zipf)]
        lock_lat, lock_tput = results[("lock-inplace", zipf)]
        # One round trip beats three at any contention level...
        assert cas_lat < lock_lat, zipf
        assert cas_tput > lock_tput, zipf
    # ...and the gap explodes under contention (lock convoys).
    gap_uniform = (results[("lock-inplace", 0.0)][0]
                   / results[("cas-install", 0.0)][0])
    gap_contended = (results[("lock-inplace", 1.2)][0]
                     / results[("cas-install", 1.2)][0])
    assert gap_contended > gap_uniform


if __name__ == "__main__":
    import sys

    from repro.bench.cli import script_main

    sys.exit(script_main(test_ablation_out_of_place_vs_locks, "ablation-inplace-locks"))

"""Ablation: operation chaining (§3.4).

What does chaining buy? Run PRISM-KV's PUT install both ways:

* chained — WRITE/WRITE/ALLOCATE/CAS in ONE request (the real design);
* unchained — the same four operations as four dependent round trips
  (what the plain extended interface without chaining would force).

The chained form must cost ~1 network round trip; the unchained form
~4. This isolates the chaining contribution from indirection/allocation.
"""

from repro.bench.reporting import print_table
from repro.core.ops import AllocateOp, CasMode, CasOp, WriteOp
from repro.hw.layout import pack_uint
from repro.net.topology import RACK, make_fabric
from repro.prism import PrismClient, PrismServer, SoftwarePrismBackend
from repro.sim import Simulator

REPEATS = 20
VALUE = b"v" * 512


def _build():
    sim = Simulator()
    fabric = make_fabric(sim, RACK, ["client", "server"])
    server = PrismServer(sim, fabric, "server", SoftwarePrismBackend)
    slot, rkey = server.add_region(4096)
    freelist, buf_rkey = server.create_freelist(len(VALUE) + 16, 4096)
    client = PrismClient(sim, fabric, "client", server)
    server.space.write(slot, pack_uint(0, 8) + pack_uint(0, 8))
    return sim, server, client, slot, rkey, freelist, buf_rkey


def _ops(version, tmp, slot, rkey, freelist, buf_rkey, sram_rkey,
         conditional):
    return [
        WriteOp(addr=tmp, data=pack_uint(version, 8), rkey=sram_rkey),
        AllocateOp(freelist=freelist, data=pack_uint(version, 8) + VALUE,
                   rkey=buf_rkey, redirect_to=tmp + 8,
                   conditional=conditional),
        CasOp(target=slot, data=pack_uint(tmp, 8), rkey=rkey,
              mode=CasMode.GT, compare_mask=(1 << 64) - 1,
              data_indirect=True, operand_width=16,
              conditional=conditional),
    ]


def _measure(chained):
    sim, server, client, slot, rkey, freelist, buf_rkey = _build()
    samples = []

    def run():
        for i in range(1, REPEATS + 1):
            ops = _ops(i, client.sram_slot, slot, rkey, freelist, buf_rkey,
                       server.sram_rkey, conditional=chained)
            start = sim.now
            if chained:
                result = yield from client.execute(*ops)
                result.raise_on_nak()
            else:
                for op in ops:
                    result = yield from client.execute(op)
                    result.raise_on_nak()
            samples.append(sim.now - start)

    sim.run_until_complete(sim.spawn(run()), limit=1e6)
    return sum(samples) / len(samples)


def test_ablation_chaining(benchmark):
    chained, unchained = benchmark.pedantic(
        lambda: (_measure(True), _measure(False)), rounds=1, iterations=1)
    print_table("Ablation: chained vs unchained out-of-place install (µs)",
                ["variant", "latency_us", "round_trips"],
                [["chained (one request)", chained, 1],
                 ["unchained (per-op round trips)", unchained, 3]])
    # Chaining collapses three dependent round trips into one.
    assert chained < unchained / 2
    assert unchained - chained > 2 * 5.0  # ≥ two RTTs saved


if __name__ == "__main__":
    import sys

    from repro.bench.cli import script_main

    sys.exit(script_main(test_ablation_chaining, "ablation-chaining"))

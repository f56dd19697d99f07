"""Ablation: request batching (doorbell batching).

PRISM-TX issues each phase as ONE request carrying every key's
operations (§8.2's one-round-trip phases); the alternative is one
request per operation. Batching pays the network round trip and the
software stack's per-request cost once, so per-op latency collapses as
batch size grows — the effect that makes multi-key transaction phases
affordable.
"""

from repro.bench.reporting import print_table
from repro.core.ops import ReadOp
from repro.net.topology import RACK, make_fabric
from repro.prism import PrismClient, PrismServer, SoftwarePrismBackend
from repro.sim import Simulator

BATCH_SIZES = [1, 2, 4, 8]
REPEATS = 10


def _measure(batch, batched):
    sim = Simulator()
    fabric = make_fabric(sim, RACK, ["client", "server"])
    server = PrismServer(sim, fabric, "server", SoftwarePrismBackend)
    addr, rkey = server.add_region(64 * batch)
    client = PrismClient(sim, fabric, "client", server)
    samples = []

    def run():
        for _ in range(REPEATS):
            ops = [ReadOp(addr=addr + 64 * i, length=64, rkey=rkey)
                   for i in range(batch)]
            start = sim.now
            if batched:
                result = yield from client.execute(*ops)
                result.raise_on_nak()
            else:
                for op in ops:
                    result = yield from client.execute(op)
                    result.raise_on_nak()
            samples.append(sim.now - start)

    sim.run_until_complete(sim.spawn(run()), limit=1e6)
    return sum(samples) / len(samples)


def test_ablation_batching(benchmark):
    results = benchmark.pedantic(
        lambda: {(batch, mode): _measure(batch, mode == "batched")
                 for batch in BATCH_SIZES
                 for mode in ("batched", "sequential")},
        rounds=1, iterations=1)
    rows = [[batch, results[(batch, "batched")],
             results[(batch, "sequential")],
             results[(batch, "batched")] / batch]
            for batch in BATCH_SIZES]
    print_table("Ablation: batched vs sequential reads (prism-sw, µs)",
                ["ops", "batched", "sequential", "batched_per_op"], rows)

    for batch in BATCH_SIZES[1:]:
        # Sequential pays a round trip per op; batched pays ~one.
        assert results[(batch, "batched")] < results[(batch, "sequential")]
    # Per-op cost collapses with batch size.
    per_op_1 = results[(1, "batched")]
    per_op_8 = results[(8, "batched")] / 8
    assert per_op_8 < per_op_1 / 3
    # Sequential scales linearly with ops (within 20%).
    ratio = results[(8, "sequential")] / results[(1, "sequential")]
    assert 6.0 < ratio < 9.5


if __name__ == "__main__":
    import sys

    from repro.bench.cli import script_main

    sys.exit(script_main(test_ablation_batching, "ablation-batching"))

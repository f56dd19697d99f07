"""Extension: PRISM-TX across shards (§8's full distributed setting).

The paper's testbed limited PRISM-TX's evaluation to one shard; the
protocol is defined for partitioned data. With the client as
coordinator and timestamps fixing one serialization point, commit
stays two round trips no matter how many shards a transaction touches
— so throughput should scale with shard count while cross-shard
transaction latency stays flat.
"""

from repro.apps.tx import PrismTxServer
from repro.apps.tx.sharded import ShardedPrismTxClient, load_sharded
from repro.bench.reporting import print_table
from repro.net.topology import RACK, make_fabric
from repro.prism import SoftwarePrismBackend
from repro.sim import SeededRng, Simulator
from repro.workload.driver import ClosedLoopDriver
from repro.workload.ycsb import TxnOp

KEYS_PER_SHARD = 2000
N_CLIENTS = 176
SHARD_COUNTS = [1, 2, 4]


class _CrossShardWorkload:
    """Single-key RMW transactions spread uniformly over all shards."""

    def __init__(self, n_keys, seed, client_id):
        import random
        self._rng = random.Random(seed * 7919 + client_id)
        self.n_keys = n_keys
        self._payload = bytes((client_id + i) % 256 for i in range(512))

    def next_op(self):
        key = self._rng.randrange(self.n_keys)
        return TxnOp("txn", (key,), (key,), self._payload)


def _run(n_shards):
    sim = Simulator()
    n_keys = KEYS_PER_SHARD * n_shards
    hosts = ([f"shard{i}" for i in range(n_shards)]
             + [f"client{i}" for i in range(11)])
    fabric = make_fabric(sim, RACK, hosts)
    servers = [PrismTxServer(sim, fabric, f"shard{i}", SoftwarePrismBackend,
                             n_keys=KEYS_PER_SHARD + 1, value_size=512,
                             spare_buffers=4096 + 48 * N_CLIENTS)
               for i in range(n_shards)]
    for key in range(n_keys):
        load_sharded(servers, key, bytes([key % 256]) * 512)
    driver = ClosedLoopDriver(sim, warmup_us=300.0, measure_us=1200.0)
    for index in range(N_CLIENTS):
        client = ShardedPrismTxClient(sim, fabric, f"client{index % 11}",
                                      servers, client_id=index + 1)
        driver.add_client(client.execute,
                          _CrossShardWorkload(n_keys, 41, index))
    return driver.run()


def test_ext_sharded_tx_scaling(benchmark):
    results = benchmark.pedantic(
        lambda: {n: _run(n) for n in SHARD_COUNTS}, rounds=1, iterations=1)
    rows = [[n, results[n].throughput_ops_per_sec / 1e6,
             results[n].mean_latency_us, results[n].aborts]
            for n in SHARD_COUNTS]
    print_table("Extension: PRISM-TX shard scaling "
                f"({N_CLIENTS} clients, uniform single-key RMW)",
                ["shards", "Mtxn/s", "mean_us", "aborts"], rows)
    # Adding shards adds servers: throughput scales up...
    assert (results[4].throughput_ops_per_sec
            > 1.6 * results[1].throughput_ops_per_sec)
    assert (results[2].throughput_ops_per_sec
            > 1.3 * results[1].throughput_ops_per_sec)
    # ...while per-transaction latency does not degrade (same 3
    # one-round-trip phases regardless of the shard count).
    assert results[4].mean_latency_us < 1.3 * results[1].mean_latency_us


if __name__ == "__main__":
    import sys

    from repro.bench.cli import script_main

    sys.exit(script_main(test_ext_sharded_tx_scaling, "ext-sharded-tx"))

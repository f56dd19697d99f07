"""Ablation: redirect scratch in on-NIC SRAM vs host memory (§4.2).

"Applications using output redirection should redirect to this on-NIC
memory when possible" — because a host-memory temporary costs the
hardware NIC extra PCIe round trips on every chained access. We measure
the PRISM-KV install chain on the projected hardware NIC with its
temporary in (a) the connection's SRAM slot and (b) a host-memory
scratch buffer.

(The software backend is indifferent — both are one load/store away —
which we also verify; the SRAM advantage is a *hardware* argument.)
"""

from repro.bench.reporting import print_table
from repro.core.ops import AllocateOp, CasMode, CasOp, WriteOp
from repro.hw.layout import pack_uint
from repro.net.topology import RACK, make_fabric
from repro.prism import (
    HardwarePrismBackend,
    PrismClient,
    PrismServer,
    SoftwarePrismBackend,
)
from repro.sim import Simulator

REPEATS = 20
VALUE = b"r" * 512


def _measure(backend_cls, scratch_in_sram):
    sim = Simulator()
    fabric = make_fabric(sim, RACK, ["client", "server"])
    server = PrismServer(sim, fabric, "server", backend_cls)
    slot, rkey = server.add_region(4096)
    host_scratch, _scratch_rkey = server.add_region(64)
    freelist, buf_rkey = server.create_freelist(len(VALUE) + 16, 1024)
    client = PrismClient(sim, fabric, "client", server)
    samples = []

    def run():
        tmp = client.sram_slot if scratch_in_sram else host_scratch
        tmp_rkey = server.sram_rkey if scratch_in_sram else _scratch_rkey
        for version in range(1, REPEATS + 1):
            start = sim.now
            result = yield from client.execute(
                WriteOp(addr=tmp, data=pack_uint(version, 8), rkey=tmp_rkey),
                AllocateOp(freelist=freelist,
                           data=pack_uint(version, 8) + VALUE,
                           rkey=buf_rkey, redirect_to=tmp + 8,
                           conditional=True),
                CasOp(target=slot, data=pack_uint(tmp, 8), rkey=rkey,
                      mode=CasMode.GT, compare_mask=(1 << 64) - 1,
                      data_indirect=True, operand_width=16,
                      conditional=True),
            )
            result.raise_on_nak()
            samples.append(sim.now - start)

    sim.run_until_complete(sim.spawn(run()), limit=1e6)
    return sum(samples) / len(samples)


def test_ablation_redirect_target(benchmark):
    results = benchmark.pedantic(
        lambda: {
            ("hw", True): _measure(HardwarePrismBackend, True),
            ("hw", False): _measure(HardwarePrismBackend, False),
            ("sw", True): _measure(SoftwarePrismBackend, True),
            ("sw", False): _measure(SoftwarePrismBackend, False),
        }, rounds=1, iterations=1)
    print_table(
        "Ablation: chain scratch placement (install chain latency, µs)",
        ["backend", "sram_scratch", "host_scratch", "penalty_us"],
        [["prism-hw", results[("hw", True)], results[("hw", False)],
          results[("hw", False)] - results[("hw", True)]],
         ["prism-sw", results[("sw", True)], results[("sw", False)],
          results[("sw", False)] - results[("sw", True)]]])
    # On the hardware NIC, host-memory scratch pays several extra PCIe
    # round trips (write, read-back for the CAS operand, ...).
    hw_penalty = results[("hw", False)] - results[("hw", True)]
    assert hw_penalty > 1.0
    # The software stack barely cares where the scratch lives.
    sw_penalty = abs(results[("sw", False)] - results[("sw", True)])
    assert sw_penalty < 0.5


if __name__ == "__main__":
    import sys

    from repro.bench.cli import script_main

    sys.exit(script_main(test_ablation_redirect_target, "ablation-redirect-sram"))

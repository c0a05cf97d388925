#!/usr/bin/env python
"""A real UDP DAT cluster on localhost (paper Sec. 4/5.1).

The prototype ran up to 64 DAT instances per machine over UDP sockets;
this example boots a 16-node cluster of genuine socket-backed protocol
nodes on 127.0.0.1, waits for stabilization, and runs a continuous SUM
aggregation over the live overlay.

Run:  python examples/udp_cluster.py
"""

import time

from repro.chord import IdSpace
from repro.chord.node import ChordConfig
from repro.core.overlay import DatOverlay
from repro.sim.udprpc import UdpRpcTransport


def main() -> None:
    n = 16
    space = IdSpace(16)
    idents = [(i * space.size) // n + 5 for i in range(n)]
    values = {ident: float(i + 1) for i, ident in enumerate(idents)}
    config = ChordConfig(
        stabilize_interval=0.05, fix_fingers_interval=0.02,
        check_predecessor_interval=0.1, rpc_timeout=0.5,
    )

    with UdpRpcTransport() as transport:
        overlay = DatOverlay(
            space, transport, config, value_provider=values.__getitem__
        )
        print(f"booting {n} UDP nodes on 127.0.0.1...")
        for ident in idents:
            overlay.add_node(ident)
            time.sleep(0.05)

        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline and not overlay.network.is_converged():
            time.sleep(0.1)
        print("overlay stabilized; refreshing fingers...")
        for node in overlay.network.nodes.values():
            node.fix_all_fingers()
        time.sleep(1.0)

        key = 1000
        root = overlay.start_continuous_everywhere(key, "sum", interval=0.05)
        expected = sum(values.values())
        print(f"continuous SUM aggregation toward root {root} "
              f"(expected {expected:.0f})...")
        deadline = time.monotonic() + 15.0
        estimate = None
        while time.monotonic() < deadline:
            estimate = overlay.root_estimate(key)
            if estimate is not None and abs(estimate - expected) < 1e-9:
                break
            time.sleep(0.1)
        print(f"root estimate: {estimate} "
              f"({'exact' if estimate == expected else 'converging'})")

        sent = transport.stats.total_messages()
        print(f"total UDP datagrams exchanged: {sent}")
        overlay.close()
    print("cluster shut down cleanly")


if __name__ == "__main__":
    main()

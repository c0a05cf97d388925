"""Integration: the net layer's retry policy under injected loss.

The acceptance scenario for the RPC-plane refactor: an on-demand
collection round over a lossy simulated network. Under the historical
(default, unbounded) policy a single lost ``agg_collect`` or
``agg_partial`` datagram stalls the round forever; with a bounded
:class:`~repro.net.RetryPolicy` the same round retransmits and completes.
Also exercises batched continuous push end-to-end.
"""

import pytest

from repro.chord.idspace import IdSpace
from repro.chord.ring import StaticRing
from repro.core.service import DatNodeService, StandaloneDatHost
from repro.net import RetryPolicy
from repro.sim.latency import ConstantLatency
from repro.sim.simnet import SimTransport
from tests.oracles import build_balanced_dat

#: Bounded policy used by the robust runs: retransmit lost collects on a
#: fixed 0.5 s deadline. Attempts are deliberately generous — an interior
#: node answers only after its own subtree gather settles, so a parent's
#: retry window must cover the child's whole window recursively.
ROBUST = RetryPolicy(timeout=0.5, max_attempts=30)


def build_overlay(n, loss_rate, seed=1, retry_policy=None, push_batch_window=0.0):
    space = IdSpace(12)
    ring = StaticRing(space, [(i * space.size) // n for i in range(n)])
    tables = ring.all_finger_tables()
    transport = SimTransport(
        latency=ConstantLatency(0.002), loss_rate=loss_rate, rng=seed
    )
    key = 0
    tree = build_balanced_dat(ring, key, tables=tables)
    values = {node: float(node % 7 + 1) for node in ring}
    services = {}
    for node in ring:
        host = StandaloneDatHost(node, space, transport)
        services[node] = DatNodeService(
            host,
            finger_provider=lambda node=node: tables[node],
            value_provider=lambda node=node: values[node],
            scheme="balanced",
            d0_provider=lambda: space.size / n,
            children_resolver=lambda key, root, node=node: sorted(
                tree.children(node)
            ),
            retry_policy=retry_policy,
            push_batch_window=push_batch_window,
        )
    return ring, transport, tree, services, values


class TestOnDemandUnderLoss:
    def test_default_policy_stalls(self):
        """The historical semantics: one lost datagram hangs the round."""
        ring, transport, tree, services, values = build_overlay(32, 0.3, seed=2)
        results = []
        services[tree.root].collect(0, tree.root, "sum", results.append)
        transport.run(until=120.0)
        assert results == []  # the round never completes
        assert transport.pending_calls() > 0  # stuck open forever

    def test_bounded_policy_completes(self):
        """Same topology, same loss, same seed — retries finish the round."""
        ring, transport, tree, services, values = build_overlay(
            32, 0.3, seed=2, retry_policy=ROBUST
        )
        results = []
        services[tree.root].collect(0, tree.root, "sum", results.append)
        transport.run(until=120.0)
        assert len(results) == 1
        # With 30 attempts at 30% loss every subtree answers: the result
        # is exact, not merely approximate.
        assert results[0] == pytest.approx(sum(values.values()))
        assert transport.pending_calls() == 0

    def test_zero_loss_identical_under_both_policies(self):
        """On a clean network the bounded policy changes nothing."""
        outcomes = []
        for policy in (None, ROBUST):
            ring, transport, tree, services, values = build_overlay(
                16, 0.0, retry_policy=policy
            )
            results = []
            services[tree.root].collect(0, tree.root, "sum", results.append)
            transport.run(until=10.0)
            outcomes.append((results[0], transport.stats.total_messages()))
        assert outcomes[0] == outcomes[1]

    def test_duplicate_suppression_keeps_result_exact(self):
        """Retransmitted collects must not double-count subtrees.

        An aggressive policy (short deadline vs. round-trip depth) forces
        redundant retransmissions; DeferredResponder's at-most-once
        execution and cached-reply replay keep the merged sum exact.
        """
        ring, transport, tree, services, values = build_overlay(
            32, 0.2, seed=5,
            retry_policy=RetryPolicy(timeout=0.05, max_attempts=30),
        )
        results = []
        services[tree.root].collect(0, tree.root, "sum", results.append)
        transport.run(until=60.0)
        assert len(results) == 1
        assert results[0] == pytest.approx(sum(values.values()))


class TestBatchedContinuousPush:
    def test_batched_pushes_converge_to_truth(self):
        ring, transport, tree, services, values = build_overlay(
            16, 0.0, push_batch_window=0.1
        )
        for service in services.values():
            service.start_continuous(0, tree.root, "sum", interval=0.5)
        transport.run(until=10.0)
        assert services[tree.root].root_estimate(0) == pytest.approx(
            sum(values.values())
        )

    def test_batching_reduces_wire_messages(self):
        def wire_messages(window):
            ring, transport, tree, services, values = build_overlay(
                16, 0.0, push_batch_window=window
            )
            for service in services.values():
                service.start_continuous(0, tree.root, "sum", interval=0.2)
            transport.run(until=10.0)
            for service in services.values():
                service.close()
            return transport.stats.total_messages()

        # The batcher is per-sender: it coalesces a node's successive
        # pushes to its parent. With a flush window spanning several push
        # intervals, 2-3 pushes ride per datagram.
        assert wire_messages(0.5) < wire_messages(0.0) * 0.6

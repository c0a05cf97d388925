"""Property-based protocol tests.

Two families share the file: stabilization convergence (the overlay the
DAT layer reads always converges to the ideal ring regardless of
membership order) and the slab equivalence contract (the bulk-simulation
path reproduces the per-node service oracle bit for bit). Bounded (small
rings, few examples) because each case runs a discrete-event simulation.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chord.idgen import make_assigner
from repro.chord.idspace import IdSpace
from repro.chord.network import ChordNetwork
from repro.chord.node import ChordConfig
from repro.core.aggregates import HistogramAggregate, QuantileAggregate
from repro.core.slab import run_protocol_slab
from repro.sim.latency import ConstantLatency, LatencyModel
from repro.sim.messages import reset_msg_ids
from repro.sim.simnet import SimTransport
from tests.oracles import run_protocol_oracle


@st.composite
def join_sequences(draw):
    space = IdSpace(10)
    count = draw(st.integers(min_value=2, max_value=8))
    idents = draw(
        st.lists(
            st.integers(min_value=0, max_value=space.max_id),
            min_size=count,
            max_size=count,
            unique=True,
        )
    )
    return space, idents


def build_network(space: IdSpace) -> ChordNetwork:
    transport = SimTransport(latency=ConstantLatency(0.005))
    config = ChordConfig(stabilize_interval=0.25, fix_fingers_interval=0.05)
    return ChordNetwork(space, transport, config)


class TestConvergenceProperties:
    @settings(max_examples=15, deadline=None)
    @given(join_sequences())
    def test_any_join_order_converges(self, args):
        space, idents = args
        network = build_network(space)
        for ident in idents:
            network.add_node(ident)
            network.settle(1.0)
        network.settle_until_converged()
        assert network.is_converged()

    @settings(max_examples=10, deadline=None)
    @given(join_sequences(), st.data())
    def test_converges_after_one_departure(self, args, data):
        space, idents = args
        if len(idents) < 3:
            return
        network = build_network(space)
        for ident in idents:
            network.add_node(ident)
            network.settle(1.0)
        network.settle_until_converged()
        victim = data.draw(st.sampled_from(idents))
        network.remove_node(victim, graceful=True)
        network.settle_until_converged()
        assert victim not in network.nodes
        assert network.is_converged()

    @settings(max_examples=10, deadline=None)
    @given(join_sequences())
    def test_fingers_reach_ideal(self, args):
        space, idents = args
        network = build_network(space)
        for ident in idents:
            network.add_node(ident)
            network.settle(1.0)
        network.settle_until_converged()
        for node in network.nodes.values():
            node.fix_all_fingers()
        network.settle(10.0)
        assert network.is_converged(check_fingers=True)


# --------------------------------------------------------------------- #
# Slab path == per-node service oracle (the bulk-simulation contract)
# --------------------------------------------------------------------- #


#: Every built-in column aggregate. Readings fall in [-100, 100): the
#: histogram's clamp its low bin, the quantile's both boundary bins. A
#: one-bin state is still a tuple, as its ``lift`` makes it.
COLUMN_AGGREGATES = (
    "sum", "count", "min", "max", "avg",
    HistogramAggregate(low=0, high=100, n_bins=10),
    QuantileAggregate(q=0.7, low=-50, high=50, n_bins=16),
    HistogramAggregate(low=0, high=100, n_bins=1),
    QuantileAggregate(q=0.3, low=-50, high=50, n_bins=1),
)


def _aggregate_id(aggregate):
    if isinstance(aggregate, str):
        return aggregate
    return aggregate.name if aggregate.n_bins > 1 else f"{aggregate.name}_one_bin"


@st.composite
def slab_scenarios(draw):
    bits = draw(st.sampled_from([12, 16, 32]))
    space = IdSpace(bits)
    n = draw(st.integers(min_value=2, max_value=64))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    strategy = draw(st.sampled_from(["random", "probing"]))
    ring = make_assigner(strategy).build_ring(space, n, rng=seed)
    key = draw(st.integers(min_value=0, max_value=space.max_id))
    scheme = draw(st.sampled_from(["basic", "balanced"]))
    aggregate = draw(st.sampled_from(COLUMN_AGGREGATES))
    values = np.random.default_rng(seed).uniform(-100.0, 100.0, size=n)
    return ring, key, scheme, aggregate, values


class _SteppedLatency(LatencyModel):
    """Four delays by sender id: a round arrives as four delivery groups,
    the slowest after the *next* round's fastest (so states also land out
    of order), none on a tick boundary."""

    DELAYS = (0.13, 0.41, 0.77, 1.19)

    def sample(self, source, destination):
        return self.DELAYS[source % 4]


class _FadingTransport(SimTransport):
    """Loses no push before t=14, half of them until t=18 and every one
    from then on: entries expire one by one while nothing is delivered, so
    the freshness mask is the one merge input that moves."""

    @property
    def loss_rate(self):
        now = self.now()
        return 0.0 if now < 14.0 else 0.5 if now < 18.0 else 1.0

    @loss_rate.setter
    def loss_rate(self, rate):
        """The constructor's rate; the clock sets this transport's."""


def _run_both(
    ring, key, scheme, aggregate, values, rounds=6, loss=0.0,
    latency=None, stale_after=4.0, transport_type=SimTransport,
):
    """Run slab and oracle with identical seeds and message-id streams."""
    results = []
    for runner in (run_protocol_slab, run_protocol_oracle):
        reset_msg_ids()
        results.append(runner(
            ring, key, rounds, aggregate=aggregate, scheme=scheme,
            values=values, stale_after=stale_after,
            transport=transport_type(
                loss_rate=loss, rng=1234,
                latency=latency() if latency else None,
            ),
        ))
    return results


def _assert_identical(slab, oracle):
    """Every protocol-observable quantity, bit for bit."""
    assert slab.root == oracle.root
    assert slab.estimate == oracle.estimate  # exact: same IEEE fold order
    np.testing.assert_array_equal(slab.ids, oracle.ids)
    np.testing.assert_array_equal(slab.pushes_sent, oracle.pushes_sent)
    np.testing.assert_array_equal(slab.sent, oracle.sent)
    np.testing.assert_array_equal(slab.received, oracle.received)
    np.testing.assert_array_equal(slab.bytes_sent, oracle.bytes_sent)
    np.testing.assert_array_equal(slab.bytes_received, oracle.bytes_received)


class TestSlabOracleEquivalence:
    """run_protocol_slab reproduces run_protocol_oracle exactly.

    Every column aggregate, both schemes, random non-integer values (float
    merge order matters and must match), loss-free and under loss: the
    object path folds its children in ascending id whichever pushes
    survived, which is the order of the slab's scatter.
    """

    @settings(max_examples=20, deadline=None)
    @given(slab_scenarios())
    def test_loss_free_bit_identical(self, scenario):
        ring, key, scheme, aggregate, values = scenario
        slab, oracle = _run_both(ring, key, scheme, aggregate, values)
        _assert_identical(slab, oracle)

    @settings(max_examples=20, deadline=None)
    @given(slab_scenarios(), st.floats(min_value=0.05, max_value=0.4))
    def test_lossy_bit_identical(self, scenario, loss):
        ring, key, scheme, aggregate, values = scenario
        slab, oracle = _run_both(
            ring, key, scheme, aggregate, values, loss=loss
        )
        _assert_identical(slab, oracle)

    @settings(max_examples=20, deadline=None)
    @given(
        slab_scenarios(),
        st.floats(min_value=0.0, max_value=0.4),
        st.sampled_from([0.5, 1.0, 1.5, 4.0, float("inf")]),
    )
    def test_split_delivery_loss_and_expiry_bit_identical(
        self, scenario, loss, stale_after
    ):
        # The partial paths of the push-row layout: a round delivered in
        # groups (row-indexed cache writes), lost pushes and a horizon
        # short enough that entries expire between deliveries (masked
        # merge), or none at all (an entry never delivered is still not
        # folded in), against the object path's per-message dict updates.
        ring, key, scheme, aggregate, values = scenario
        slab, oracle = _run_both(
            ring, key, scheme, aggregate, values, rounds=8, loss=loss,
            latency=_SteppedLatency, stale_after=stale_after,
        )
        _assert_identical(slab, oracle)
        # Every push is accounted at its sender, delivered or not.
        np.testing.assert_array_equal(slab.pushes_sent, slab.sent)

    @pytest.mark.parametrize(
        "aggregate", COLUMN_AGGREGATES, ids=_aggregate_id
    )
    @pytest.mark.parametrize("n_nodes", [64, 300])
    def test_every_column_aggregate_bit_identical(self, aggregate, n_nodes):
        # The drawn scenarios sample the aggregates; this runs each one,
        # loss-free and under loss with split delivery and expiry.
        ring = make_assigner("probing").build_ring(IdSpace(32), n_nodes, rng=n_nodes)
        values = np.random.default_rng(n_nodes).uniform(-100.0, 100.0, size=n_nodes)
        for scheme in ("basic", "balanced"):
            _assert_identical(*_run_both(ring, 0x5A5A5, scheme, aggregate, values))
            _assert_identical(*_run_both(
                ring, 0x5A5A5, scheme, aggregate, values, rounds=10, loss=0.2,
                latency=_SteppedLatency, stale_after=1.5,
            ))

    def test_unbounded_horizon_folds_only_delivered_entries(self):
        # With no expiry, a child whose first push has not arrived yet is
        # still absent: its empty cache entry must not enter a min.
        ring = make_assigner("probing").build_ring(IdSpace(16), 40, rng=3)
        values = np.random.default_rng(1).uniform(1.0, 100.0, size=40)
        slab, oracle = _run_both(
            ring, 77, "balanced", "min", values, rounds=8,
            latency=_SteppedLatency, stale_after=float("inf"),
        )
        _assert_identical(slab, oracle)

    @pytest.mark.parametrize("aggregate", ["min", "max"])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_nan_reading_reaches_both_roots(self, aggregate):
        # A NaN reading wins every min / max merge on both paths, whatever
        # order the children fold in: the object path's scalar merge is the
        # slab's ufunc on two numbers.
        ring = make_assigner("probing").build_ring(IdSpace(16), 40, rng=3)
        values = np.random.default_rng(1).uniform(1.0, 100.0, size=40)
        values[7] = np.nan
        for scheme in ("basic", "balanced"):
            slab, oracle = _run_both(ring, 77, scheme, aggregate, values, rounds=12)
            assert np.isnan(slab.estimate) and np.isnan(oracle.estimate)
            _assert_identical(
                dataclasses.replace(slab, estimate=0.0),
                dataclasses.replace(oracle, estimate=0.0),
            )

    @pytest.mark.parametrize(
        ("loss", "latency"),
        [(0.0, None), (0.1, None), (0.0, _SteppedLatency)],
        ids=["loss_free", "loss", "stepped"],
    )
    def test_converged_sum_at_1024_both_schemes(self, loss, latency):
        # Fixed mid-size anchor: full convergence and exact equality. Both
        # trees are 10 hops deep, so most of the 32 rounds come after the
        # states have converged, where a round whose merge inputs did not
        # move re-sends the last round's states without merging.
        ring = make_assigner("probing").build_ring(IdSpace(32), 1024, rng=2007)
        for scheme in ("basic", "balanced"):
            slab, oracle = _run_both(
                ring, 0xA5A5A5, scheme, "sum",
                np.ones(1024, dtype=np.float64), rounds=32,
                loss=loss, latency=latency,
            )
            _assert_identical(slab, oracle)
            if not loss:
                assert slab.estimate == 1024.0

    def test_entries_expiring_after_convergence_bit_identical(self):
        # Converged by t=14 (the trees are 8 hops deep), then pushes fade
        # out: each round from t=18 on, another set of entries leaves the
        # horizon with no delivery to move the cache, and every one of
        # those rounds must merge again, down to the root's own reading.
        ring = make_assigner("probing").build_ring(IdSpace(32), 256, rng=41)
        values = np.random.default_rng(41).uniform(0.0, 10.0, size=256)
        for scheme in ("basic", "balanced"):
            slab, oracle = _run_both(
                ring, 0x5A5A5A5A, scheme, "sum", values, rounds=24,
                transport_type=_FadingTransport,
            )
            _assert_identical(slab, oracle)
            assert slab.estimate == values[np.searchsorted(slab.ids, slab.root)]

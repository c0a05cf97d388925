"""The six perf-ledger workloads.

Every workload is closed-loop and single-process, builds its inputs from a
seeded generator, and drives the system only through public classes and the
injection points they already expose (``Transport`` is injectable;
``DatNodeService`` takes ``finger_provider`` / ``value_provider`` /
``children_resolver``). The harness (:mod:`harness`) owns timing; a workload
only knows how to set itself up, run one *chunk* of ops, say how many ops of
the last chunk produced a wrong answer, and report the exact (simulated or
counted) statistics of the measured region.

Local values are seeded integers in [1, 100] stored as floats, so SUM is
exact under any fold order and "correct" means *equal*, not *close*.
"""

from __future__ import annotations

import bisect
import hashlib
import threading
from typing import Any

import numpy as np

from repro.chord.block import ChordNodeBlock
from repro.chord.hashing import sha1_id
from repro.chord.idgen import make_assigner
from repro.chord.idspace import IdSpace
from repro.chord.incremental import DatUpdateEngine
from repro.chord.node import ChordConfig
from repro.chord.ring import StaticRing
from repro.core.builder import DatTreeBuilder, build_dat
from repro.core.overlay import DatOverlay
from repro.core.service import DatNodeService, StandaloneDatHost
from repro.core.slab import SlabContinuousRun
from repro.sim.latency import ConstantLatency
from repro.sim.simnet import SimTransport
from repro.sim.transport import Transport
from repro.sim.udprpc import UdpRpcTransport
from repro.workloads.churn import ChurnKind, ChurnWorkload, plan_churn

SPACE = IdSpace(32)


def seeded_ring(rng: np.random.Generator, n: int) -> StaticRing:
    return make_assigner("probing").build_ring(SPACE, n, rng=rng)


def seeded_values(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.integers(1, 101, size=n).astype(np.float64)


def static_services(
    ring: StaticRing,
    transport: Transport,
    values: np.ndarray,
    children: dict[int, dict[int, list[int]]] | None = None,
) -> tuple[list[StandaloneDatHost], list[DatNodeService]]:
    """One ``StandaloneDatHost`` + balanced ``DatNodeService`` per ring node.

    Tables are the converged ring's, ``d0 = size / n`` (the overlay's
    convention). ``children`` (key -> node -> child list) enables on-demand
    collects; continuous push needs none.
    """
    ids = ring.nodes
    d0 = SPACE.size / len(ids)
    hosts: list[StandaloneDatHost] = []
    services: list[DatNodeService] = []
    for i, ident in enumerate(ids):
        host = StandaloneDatHost(ident, SPACE, transport)
        table = ring.finger_table(ident)
        resolver = None
        if children is not None:
            def resolver(key: int, _root: int, ident: int = ident) -> list[int]:
                return children[key].get(ident, [])
        services.append(
            DatNodeService(
                host,
                finger_provider=lambda table=table: table,
                value_provider=lambda v=float(values[i]): v,
                scheme="balanced",
                d0_provider=lambda: d0,
                children_resolver=resolver,
            )
        )
        hosts.append(host)
    return hosts, services


def traffic_stats(transport: Transport, population: list[int]) -> dict[str, float]:
    """Messages, accounted wire bytes and Fig. 8(b) imbalance since ``reset()``."""
    stats = transport.stats
    return {
        "msgs": stats.total_messages(),
        "bytes": sum(stats.load(node).bytes_sent for node in sorted(stats.nodes())),
        "load_imbalance": stats.imbalance(population),
    }


def engine_stats(transport: SimTransport, events_before: int) -> dict[str, int]:
    engine = transport.engine
    return {
        "engine_events": engine.events_fired - events_before,
        "heap_peak": engine.heap_peak,
        "lazy_deleted": engine.lazy_deleted,
    }


class Workload:
    """What the harness needs from a workload (see module docstring)."""

    name = ""
    #: ops executed by one :meth:`chunk` call (the timed sample); a fraction
    #: when one op is stepped through in several equal slices.
    ops_per_chunk: float = 1
    #: Where chunks come in shapes of different cost (rendezvous keys,
    #: schemes, a slice's place in its round), which shape the last chunk
    #: was, so that the harness compares like with like.
    stratum = 0
    #: False when thread interleaving makes call counts differ between
    #: same-seed runs (message and byte counts still repeat).
    replayable = True

    def __init__(self, size: dict[str, int], rng: np.random.Generator) -> None:
        self.size = size
        self.rng = rng

    def setup(self, spans: Any) -> None:
        raise NotImplementedError

    def warmup(self) -> None:
        """Untimed ops that bring the system to steady state."""

    def begin(self) -> None:
        """Zero the counters the exact statistics are read from."""

    def chunk(self) -> None:
        raise NotImplementedError

    def check(self) -> int:
        """Failed ops in the chunk that just ran (called outside the timer)."""
        return 0

    def exhausted(self) -> bool:
        """True when the generated inputs have run out."""
        return False

    def end(self) -> dict[str, Any]:
        """Exact statistics of the measured region (keys are per-op ready)."""
        return {}

    def finish(self) -> bool:
        """Untimed tail + whole-run verification; False fails every op."""
        return True

    def close(self) -> None:
        """Release every timer, thread and socket."""


# --------------------------------------------------------------------- #
# Continuous push over the simulator (slab and scalar substrates)
# --------------------------------------------------------------------- #


class _PushRounds(Workload):
    """One op = one push interval stepped through ``SimTransport.run``,
    in ``steps_per_round`` equal slices of simulated time."""

    interval = 1.0
    steps_per_round = 1
    transport: SimTransport
    truth: float
    population: list[int]

    def _estimate(self) -> Any:
        raise NotImplementedError

    def _step(self) -> None:
        self.stratum = self.step % self.steps_per_round
        self.step += 1
        self.transport.run(until=self.step * self.interval / self.steps_per_round)

    def warmup(self) -> None:
        self.step = round(self.transport.now() / self.interval * self.steps_per_round)
        self.converge_sim_s = 0.0
        rounds = self.size["warmup"]
        # Warm-up runs until the root has seen every node once (height + 1
        # intervals); the cap only bounds a protocol that never converges.
        for done in range(1, 3 * rounds + 1):
            for _ in range(self.steps_per_round):
                self._step()
            if not self.converge_sim_s and self._estimate() == self.truth:
                self.converge_sim_s = self.transport.now()
            if self.converge_sim_s and done >= rounds:
                break

    def begin(self) -> None:
        self.transport.stats.reset()
        self._events0 = self.transport.engine.events_fired

    def chunk(self) -> None:
        self._step()

    def check(self) -> int:
        if self.step % self.steps_per_round:
            return 0  # mid-round: the op is judged when its last slice ends
        return int(self._estimate() != self.truth)

    def end(self) -> dict[str, Any]:
        out = traffic_stats(self.transport, self.population)
        out.update(engine_stats(self.transport, self._events0))
        out["converge_sim_s"] = self.converge_sim_s
        return out


class SlabPush(_PushRounds):
    name = "slab_push_64k"

    def setup(self, spans: Any) -> None:
        n = self.size["n"]
        with spans.span("setup.ring"):
            ring = seeded_ring(self.rng, n)
        with spans.span("setup.tables"):
            block = ChordNodeBlock.from_ring(ring)
        with spans.span("setup.services"):
            values = seeded_values(self.rng, n)
            key = int(self.rng.integers(0, SPACE.size))
            self.transport = SimTransport()
            self.run = SlabContinuousRun(
                block, self.transport, key, "sum", values,
                scheme="balanced", interval=self.interval,
            )
            self.run.start()
        self.truth = float(values.sum())
        self.population = block.ids.tolist()

    def _estimate(self) -> Any:
        return self.run.estimate

    def close(self) -> None:
        self.run.stop()


class ScalarPush(_PushRounds):
    """Nodes tick in 16 phase groups (consecutive ring segments, 1/16 of an
    interval apart) instead of in lockstep, so a round is 16 slices of equal
    work, each a timed sample of about 8 ms: short samples are what lets a
    fastest-of statistic see past a busy host (README, "Noise")."""

    name = "scalar_push_2k"
    steps_per_round = 16
    ops_per_chunk = 1 / steps_per_round

    def setup(self, spans: Any) -> None:
        n = self.size["n"]
        with spans.span("setup.ring"):
            ring = seeded_ring(self.rng, n)
        with spans.span("setup.services"):
            values = seeded_values(self.rng, n)
            self.key = int(self.rng.integers(0, SPACE.size))
            self.transport = SimTransport()
            self.hosts, self.services = static_services(ring, self.transport, values)
            root = ring.successor(self.key)
            phases = self.steps_per_round
            for phase in range(phases):
                self.transport.run(until=phase * self.interval / phases)
                for service in self.services[phase * n // phases:(phase + 1) * n // phases]:
                    service.start_continuous(self.key, root, "sum", self.interval)
            self.transport.run(until=self.interval)  # to a round boundary
        self.population = ring.nodes
        self.root_service = self.services[self.population.index(root)]
        self.truth = float(values.sum())

    def _estimate(self) -> Any:
        return self.root_service.root_estimate(self.key)

    def close(self) -> None:
        for service in self.services:
            service.close()
        for host in self.hosts:
            host.shutdown()


# --------------------------------------------------------------------- #
# On-demand collect over real UDP sockets
# --------------------------------------------------------------------- #


class UdpCollect(Workload):
    """One op = one ``DatNodeService.collect`` at the root, one outstanding.

    Collects go round the rendezvous keys in turn; a key is a stratum, since
    its tree shape sets what its collect costs.
    """

    name = "udp_collect_64"
    replayable = False
    timeout_s = 5.0

    def setup(self, spans: Any) -> None:
        n = self.size["n"]
        self.strata = self.size["keys"]
        with spans.span("setup.ring"):
            ring = seeded_ring(self.rng, n)
        with spans.span("setup.tables"):
            values = seeded_values(self.rng, n)
            self.keys = [int(k) for k in self.rng.integers(0, SPACE.size, size=self.strata)]
            trees = {key: build_dat(ring, key, "balanced") for key in self.keys}
            children = {key: tree.children_map() for key, tree in trees.items()}
        with spans.span("setup.services"):
            self.transport = UdpRpcTransport("127.0.0.1")
            self.hosts, services = static_services(
                ring, self.transport, values, children
            )
        self.services = services
        by_ident = dict(zip(ring.nodes, services))
        self.roots = [by_ident[trees[key].root] for key in self.keys]
        self.population = ring.nodes
        self.truth = float(values.sum())
        self._next = 0
        self._failed = 0

    def warmup(self) -> None:
        for _ in range(self.size["warmup"]):
            self.chunk()

    def begin(self) -> None:
        self.transport.stats.reset()

    def chunk(self) -> None:
        self.stratum = stratum = self._next
        self._next = (stratum + 1) % self.strata
        done = threading.Event()
        box: list[Any] = []

        def on_result(result: Any) -> None:
            box.append(result)
            done.set()

        root = self.roots[stratum]
        root.collect(self.keys[stratum], root.ident, "sum", on_result)
        self._failed = int(not (done.wait(self.timeout_s) and box[0] == self.truth))

    def check(self) -> int:
        return self._failed

    def end(self) -> dict[str, Any]:
        return traffic_stats(self.transport, self.population)

    def close(self) -> None:
        for service in self.services:
            service.close()
        for host in self.hosts:
            host.shutdown()
        self.transport.close()


# --------------------------------------------------------------------- #
# Continuous COUNT on a live, churning Chord overlay
# --------------------------------------------------------------------- #


def steer_plan(
    plan: list[Any], members: list[int], guard: float, join_window: float, band: int
) -> list[Any]:
    """Keep the membership near its initial size, and drop the event patterns
    that wedge the live Chord protocol for good.

    A round costs in proportion to the live membership, which under equal
    join and leave rates is a random walk: left alone it makes the cost of
    an op depend on the seed (48-61 ms over ten seeds). Events that would
    take the membership more than ``band`` away from its initial size are
    dropped.

    A node that has just joined knows one peer, its successor, until the
    first ``get_neighbors`` reply fills its successor list. Three schedules
    turn that into a permanent fault (found by sweeping seeds; each leaves
    COUNT one off forever, so the churn-free tail can never verify):

    * the joiner's successor departs before that reply: nothing to fail
      over to, the joiner collapses to a one-node ring. The reply can be
      ``join_window`` late (a join lookup routed through a node that just
      left is lost, and retried one lookup timeout plus back-off later), so
      the successor is protected for ``join_window + guard`` sim-s;
    * the joiner's would-be successor crashed within ``guard`` before the
      join: the join lookup returns the stale pointer, same collapse;
    * the joiner itself departs within ``join_window``: a join retry that
      fires after the departure calls ``start_maintenance()`` on the
      departed node, which then stabilizes and notifies as an unregistered
      zombie.

    These are robustness gaps for the ROADMAP's fault-plan item, not
    something a timing benchmark should trip over, so such events are
    dropped; everything else is exactly what ``plan_churn`` resolved.
    """
    live = sorted(members)
    low, high = len(live) - band, len(live) + band
    joined_at: dict[int, float] = {}
    departed: list[tuple[float, int]] = []
    kept: list[Any] = []
    for event in plan:
        i = bisect.bisect_left(live, event.ident)
        if event.kind is ChurnKind.JOIN:
            if len(live) >= high:
                continue
            successor = live[i % len(live)]
            span = SPACE.cw(event.ident, successor)
            if any(
                event.time - when < guard and SPACE.cw(event.ident, gone) < span
                for when, gone in departed[-8:]
            ):
                continue
            live.insert(i, event.ident)
            joined_at[event.ident] = event.time
        else:
            if i == len(live) or live[i] != event.ident:
                continue  # its join was dropped above
            if len(live) <= low:
                continue
            if event.time - joined_at.get(event.ident, -np.inf) < join_window:
                continue
            if event.time - joined_at.get(live[i - 1], -np.inf) < join_window + guard:
                continue
            del live[i]
            departed.append((event.time, event.ident))
        kept.append(event)
    return kept


class ChurnOverlay(Workload):
    """One op = one 0.5 sim-s round of the overlay, stepped in ten slices of
    one ``fix_fingers`` interval each; the churn that fell due is applied
    after each slice. The timers repeat with the round, so the slice's place
    in the round is its stratum."""

    name = "churn_overlay_64"
    interval = 0.5
    strata = 10
    ops_per_chunk = 1 / strata
    stale_after = 2.0
    #: sim-s between the staged joins of set-up (one stabilize interval).
    join_spacing = 0.25
    #: churn horizon in sim-s; far beyond what any run length reaches.
    horizon = 900.0

    def setup(self, spans: Any) -> None:
        n = self.size["n"]
        with spans.span("setup.ring"):
            ring = seeded_ring(self.rng, n)
        with spans.span("setup.services"):
            self.transport = SimTransport(latency=ConstantLatency(0.005), rng=self.rng)
            config = ChordConfig(
                stabilize_interval=0.25, fix_fingers_interval=0.05, rpc_timeout=0.5
            )
            self.overlay = overlay = DatOverlay(SPACE, self.transport, config)
            for ident in ring.nodes:
                overlay.add_node(ident)
                overlay.run(self.join_spacing)
            overlay.network.settle_until_converged()
            for node in overlay.network.nodes.values():
                node.fix_all_fingers()
            overlay.run(5.0)
        with spans.span("setup.tables"):
            members = ring.nodes
            # The key is a member's own id and that member never departs:
            # no join can land between key and root, so the root (and its
            # estimate) exists in every round.
            self.key = members[int(self.rng.integers(0, n))]
            others = [m for m in members if m != self.key]
            events = ChurnWorkload(
                self.horizon, join_rate=0.5, leave_rate=0.5,
                crash_fraction=0.5, seed=self.rng,
            ).generate()
            plan = plan_churn(
                events, SPACE, others, seed=self.rng, min_nodes=n // 2 - 1
            )
            self.plan = steer_plan(
                plan, members, guard=4 * self.interval,
                join_window=config.rpc_timeout * config.max_lookup_hops / 8 + 2.0,
                band=max(n // 16, 1),
            )
        overlay.start_continuous_everywhere(
            self.key, "count", self.interval, stale_after=self.stale_after
        )
        self._next_event = 0
        self._slices = 0
        self.rel_errors: list[float] = []

    def warmup(self) -> None:
        # Timers sit on a 0.05 sim-s grid and replies at multiples of the
        # 0.005 latency after it; slices that start between two such
        # instants never have an event on their boundary, so every round
        # puts the same timers in the same slice.
        self.overlay.run(self.size["warmup"] * self.interval + 0.0225)

    def begin(self) -> None:
        self.transport.stats.reset()
        self._events0 = self.transport.engine.events_fired
        self._t0 = self.transport.now()

    def chunk(self) -> None:
        overlay, key = self.overlay, self.key
        self.stratum = self._slices % self.strata
        self._slices += 1
        overlay.run(self.interval / self.strata)
        elapsed = self.transport.now() - self._t0
        plan = self.plan
        while self._next_event < len(plan) and plan[self._next_event].time <= elapsed:
            event = plan[self._next_event]
            self._next_event += 1
            if event.kind is ChurnKind.JOIN:
                # Bootstrap through the one member that never departs: a
                # gateway that dies mid-join strands the joiner for good.
                overlay.add_node(event.ident, bootstrap=key)
                overlay.enroll(
                    event.ident, key, "count", self.interval,
                    stale_after=self.stale_after,
                )
            else:
                overlay.remove_node(
                    event.ident, graceful=event.kind is ChurnKind.LEAVE
                )

    def check(self) -> int:
        if self._slices % self.strata:
            return 0  # mid-round: the op is judged when its last slice ends
        estimate = self.overlay.root_estimate(self.key)
        if estimate is None:
            return 1
        truth = len(self.overlay)
        self.rel_errors.append(abs(estimate - truth) / truth)
        return 0

    def exhausted(self) -> bool:
        return self._next_event >= len(self.plan)

    def end(self) -> dict[str, Any]:
        out = traffic_stats(self.transport, sorted(self.transport.stats.nodes()))
        out.update(engine_stats(self.transport, self._events0))
        out["churn_events"] = self._next_event
        out["est_rel_err_mean"] = float(np.mean(self.rel_errors)) if self.rel_errors else 0.0
        return out

    def finish(self) -> bool:
        """Churn-free tail: the estimate must settle on the live membership."""
        settled = 0
        for _ in range(int(20.0 / self.interval)):
            self.overlay.run(self.interval)
            if self.overlay.root_estimate(self.key) == len(self.overlay):
                settled += 1
                if settled == 4:
                    return True
            else:
                settled = 0
        return False

    def close(self) -> None:
        self.overlay.close()


# --------------------------------------------------------------------- #
# Analytical forest statistics (no messages, no engine)
# --------------------------------------------------------------------- #


class ForestStats(Workload):
    """One op = one tree built and measured. Keys are taken in turn, each in
    both schemes; a scheme is a stratum (basic and balanced differ in cost)."""

    name = "forest_stats_64k"
    schemes = ("basic", "balanced")
    strata = len(schemes)

    def setup(self, spans: Any) -> None:
        with spans.span("setup.ring"):
            self.ring = seeded_ring(self.rng, self.size["n"])
        with spans.span("setup.tables"):
            self.builders = [DatTreeBuilder(self.ring, s) for s in self.schemes]
            for builder in self.builders:
                builder.finger_matrix  # noqa: B018  (build the cached matrix now)
        self._attr = int(self.rng.integers(0, 1 << 30))
        self._chunks = 0
        self.max_branching: list[int] = []
        self.heights: list[int] = []

    def warmup(self) -> None:
        for _ in range(self.size["warmup"]):
            self.chunk()
            self._chunks += 1

    def chunk(self) -> None:
        self.stratum = self._chunks % self.strata
        self._key = sha1_id(f"attr-{self._attr + self._chunks // self.strata}", SPACE)
        self._stats = self.builders[self.stratum].tree_stats(self._key)

    def check(self) -> int:
        stats = self._stats
        self.max_branching.append(stats.max_branching)
        self.heights.append(stats.height)
        self._chunks += 1
        if self._chunks % 15 == 1:
            # The root needs the arrays, i.e. a second build: sampled (an
            # odd period, so that both schemes get their turn).
            arrays = self.builders[self.stratum].tree_arrays(self._key)
            if arrays is None or arrays.root != self.ring.successor(self._key):
                return 1
        return int(stats.n_nodes != len(self.ring))

    def end(self) -> dict[str, Any]:
        # The forest's max-branching / height vectors, as one comparable value.
        shapes = repr((self.max_branching, self.heights)).encode()
        return {"tree_shapes": hashlib.sha256(shapes).hexdigest()[:16]}


# --------------------------------------------------------------------- #
# Incremental tree maintenance under membership events
# --------------------------------------------------------------------- #


def membership_events(
    rng: np.random.Generator, members: list[int], count: int, min_nodes: int
) -> list[tuple[str, int]]:
    """``count`` seeded join/leave/crash events with concrete identities.

    Same mix as ``ChurnWorkload(join = leave, crash_fraction = 0.5)`` +
    ``plan_churn``, resolved in O(1) per event (``plan_churn`` re-sorts the
    membership per departure: 0.46 ms/event at n=4096, more than the 0.27 ms
    op being measured).
    """
    live = list(members)
    known = set(live)
    kinds = rng.integers(0, 4, size=count)
    picks = rng.random(size=count)
    fresh = rng.integers(0, SPACE.size, size=count).tolist()
    events: list[tuple[str, int]] = []
    for kind, pick, ident in zip(kinds.tolist(), picks.tolist(), fresh):
        if kind < 2:
            if ident in known:
                continue
            known.add(ident)
            live.append(ident)
            events.append(("join", ident))
        elif len(live) > min_nodes:
            i = int(pick * len(live))
            live[i], live[-1] = live[-1], live[i]
            victim = live.pop()
            known.discard(victim)
            events.append(("leave" if kind == 2 else "crash", victim))
    return events


class TreeMaint(Workload):
    """One op = one membership event through ``DatUpdateEngine.apply``."""

    name = "tree_maint_4k"
    ops_per_chunk = 100

    def setup(self, spans: Any) -> None:
        n = self.size["n"]
        with spans.span("setup.ring"):
            ring = seeded_ring(self.rng, n)
        with spans.span("setup.tables"):
            self.engine = DatUpdateEngine(ring, "balanced")
            self.keys = [
                sha1_id(f"attr-{i}", SPACE) for i in range(self.size["trees"])
            ]
            for key in self.keys:
                self.engine.track(key)
        with spans.span("setup.services"):
            self.events = membership_events(
                self.rng, ring.nodes, self.size["events"], min_nodes=n // 2
            )
        self._cursor = 0
        self.finger_updates = 0
        self.parent_updates = 0

    def chunk(self) -> None:
        apply = self.engine.apply
        start = self._cursor
        self._cursor = stop = start + self.ops_per_chunk
        self._reports = [apply(kind, ident) for kind, ident in self.events[start:stop]]

    def check(self) -> int:
        self.finger_updates += sum(r.finger_updates for r in self._reports)
        self.parent_updates += sum(r.parent_updates for r in self._reports)
        return 0

    def exhausted(self) -> bool:
        return self._cursor + self.ops_per_chunk > len(self.events)

    def end(self) -> dict[str, Any]:
        return {
            "finger_updates": self.finger_updates,
            "parent_updates": self.parent_updates,
        }

    def finish(self) -> bool:
        """Every tracked tree must equal a fresh build on the final ring."""
        fresh = DatTreeBuilder(StaticRing(SPACE, self.engine.ring.nodes), "balanced")
        for key in self.keys:
            tracked, rebuilt = self.engine.tree(key), fresh.build(key)
            if tracked.root != rebuilt.root or tracked.parent != rebuilt.parent:
                return False
        return True


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls
    for cls in (SlabPush, ScalarPush, UdpCollect, ChurnOverlay, ForestStats, TreeMaint)
}

#: Per-workload sizes. ``chunks`` is the fixed number of timed chunks when no
#: ``--seconds`` is given (so exact statistics repeat): about 12 s of work.
FULL_SIZES: dict[str, dict[str, int]] = {
    "slab_push_64k": {"n": 65536, "warmup": 20, "chunks": 240},
    "scalar_push_2k": {"n": 2048, "warmup": 14, "chunks": 1280},
    "udp_collect_64": {"n": 64, "keys": 16, "warmup": 200, "chunks": 2560},
    "churn_overlay_64": {"n": 64, "warmup": 12, "chunks": 1600},
    "forest_stats_64k": {"n": 65536, "warmup": 4, "chunks": 560},
    "tree_maint_4k": {"n": 4096, "trees": 4, "events": 64000, "warmup": 0, "chunks": 440},
}

QUICK_SIZES: dict[str, dict[str, int]] = {
    "slab_push_64k": {"n": 4096, "warmup": 14, "chunks": 6},
    "scalar_push_2k": {"n": 256, "warmup": 10, "chunks": 128},
    "udp_collect_64": {"n": 16, "keys": 4, "warmup": 8, "chunks": 40},
    "churn_overlay_64": {"n": 16, "warmup": 8, "chunks": 160},
    "forest_stats_64k": {"n": 4096, "warmup": 2, "chunks": 12},
    "tree_maint_4k": {"n": 512, "trees": 4, "events": 600, "warmup": 0, "chunks": 5},
}

"""Integration: a small real fleet of OS processes on localhost.

One fleet per test class keeps the process count (and wall time) small;
every assertion goes through the supervisor's public control surface, the
same path the CLI uses.
"""

import asyncio
import json

import pytest

from repro.chord.hashing import sha1_id
from repro.errors import FleetError
from repro.fleet import FleetConfig, FleetSupervisor, RestartPolicy
from repro.fleet.compare import compare_fig9, run_fig9_sim_twin
from repro.fleet.plan import plan_fleet_fig9
from repro.fleet.replay import replay_fig9_live

N = 4


def fleet_config(tmp_path, **overrides) -> FleetConfig:
    defaults = dict(
        n_nodes=N,
        bits=16,
        join_batch=2,
        state_dir=str(tmp_path / "fleet"),
        hello_timeout=60.0,
        call_timeout=30.0,
        converge_timeout=60.0,
    )
    defaults.update(overrides)
    return FleetConfig(**defaults)


async def booted(config: FleetConfig) -> FleetSupervisor:
    supervisor = FleetSupervisor(config)
    await supervisor.start()
    assert await supervisor.wait_converged(), "fleet did not converge after boot"
    return supervisor


class TestFleetLifecycle:
    def test_boot_status_route_churn_teardown(self, tmp_path):
        async def scenario() -> None:
            supervisor = await booted(fleet_config(tmp_path))
            try:
                members = supervisor.live_idents()
                assert len(members) == N

                # Status snapshots carry the full control surface.
                statuses = await supervisor.statuses()
                assert sorted(statuses) == members
                for ident, status in statuses.items():
                    assert status["ident"] == ident
                    assert status["pid"] > 0
                    assert status["successor"] in members

                # Route display: the path walks live members and lands on
                # the key's successor.
                key = sha1_id("cpu-usage", supervisor.space)
                route = await supervisor.route(key)
                expected = min(
                    (m for m in members if m >= key), default=min(members)
                )
                assert route["result"] == expected
                assert route["hops"] == len(route["path"])
                assert all(hop in members for hop in route["path"])

                # Graceful leave shrinks the ring and reconverges.
                departing = members[-1]
                await supervisor.leave(departing)
                assert departing not in supervisor.live_idents()
                assert await supervisor.wait_converged()

                # SIGKILL (no restart policy): the fleet reconverges around
                # the hole once failure detection kicks in.
                victim = supervisor.live_idents()[-1]
                await supervisor.kill(victim)
                assert victim not in supervisor.live_idents()
                assert await supervisor.wait_converged()

                # Ad-hoc join via a fresh identifier.
                ident = next(i for i in range(supervisor.space.size) if i not in supervisor.agents)
                await supervisor.join_agent(ident)
                assert ident in supervisor.live_idents()
                assert await supervisor.wait_converged()

                # Telemetry streamed to one JSONL file per agent. The first
                # sample is immediate, but it still crosses the control
                # plane — poll briefly rather than racing it.
                want = {
                    supervisor.state_dir / f"telemetry-{m}.jsonl"
                    for m in supervisor.live_idents()
                }
                deadline = asyncio.get_running_loop().time() + 15.0
                while asyncio.get_running_loop().time() < deadline:
                    if all(path.exists() for path in want):
                        break
                    await asyncio.sleep(0.25)
                assert all(path.exists() for path in want)
                telemetry = sorted(supervisor.state_dir.glob("telemetry-*.jsonl"))
                record = json.loads(telemetry[0].read_text().splitlines()[0])
                assert record["event"] == "telemetry"
                assert "sent" in record["data"]
            finally:
                await supervisor.down()
            # Teardown reaps every process.
            assert all(not h.alive for h in supervisor.agents.values())

        asyncio.run(scenario())

    def test_kill_with_restart_policy_rejoins(self, tmp_path):
        async def scenario() -> None:
            config = fleet_config(
                tmp_path, restart=RestartPolicy(enabled=True, max_restarts=1)
            )
            supervisor = await booted(config)
            try:
                victim = supervisor.live_idents()[-1]
                pid_before = supervisor.agents[victim].pid
                await supervisor.kill(victim)
                # The watcher restarts and rejoins the same identifier.
                deadline = asyncio.get_running_loop().time() + 60.0
                while asyncio.get_running_loop().time() < deadline:
                    handle = supervisor.agents.get(victim)
                    if (
                        handle is not None
                        and handle.alive
                        and handle.state == "joined"
                    ):
                        break
                    await asyncio.sleep(0.25)
                handle = supervisor.agents[victim]
                assert handle.alive and handle.state == "joined"
                assert handle.pid != pid_before
                assert handle.restarts == 1
                assert await supervisor.wait_converged()
            finally:
                await supervisor.down()

        asyncio.run(scenario())

    def test_leave_unknown_agent_raises(self, tmp_path):
        async def scenario() -> None:
            supervisor = await booted(fleet_config(tmp_path))
            try:
                with pytest.raises(FleetError):
                    await supervisor.leave(999999)
            finally:
                await supervisor.down()

        asyncio.run(scenario())


class TestFleetReplay:
    def test_fig9_live_vs_sim_comparison(self, tmp_path):
        """The acceptance loop in miniature: live replay, sim twin, report."""

        async def scenario() -> str:
            supervisor = await booted(fleet_config(tmp_path))
            try:
                members = supervisor.live_idents()
                plan = plan_fleet_fig9(seed=2007, n_nodes=len(members), n_slots=2)
                live = await replay_fig9_live(supervisor, plan)
                sim = run_fig9_sim_twin(members, plan, supervisor.space)
                report = compare_fig9(live, sim)
                return report.render_text() if not report.passed else ""
            finally:
                await supervisor.down()

        failure = asyncio.run(scenario())
        assert not failure, failure

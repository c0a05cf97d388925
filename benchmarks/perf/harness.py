"""Timing loop, statistics and the traced pass for one workload run.

One *run* is one process and one *trial*: inputs from the seed, set-up,
warm-up, timed chunks, verification, with spare set-ups timed before and
after. Every statistic is a fastest-of over short samples, because that is
what repeats on a host whose speed shifts under it (see README, "Noise").

The traced pass makes one untraced reference trial and one trial under the
profiler with the same inputs, then runs the isolated micro-benchmarks.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Iterator

import numpy as np

from repro.sim.messages import reset_msg_ids

import layers
from workloads import WORKLOADS, Workload

pc = time.perf_counter

#: The untraced pass also sets up instances it then discards, before and
#: after the measured one: at least two set-ups on each side of the run, and
#: more of a cheap one, until this many seconds went into them.
SPARE_SETUP_S = 1.0
MAX_SPARE_SETUPS = 8
#: A trial measures at least this many chunks however short its time budget.
MIN_CHUNKS = 3
#: ``ops_per_s`` is taken over contiguous chunks that last about this long.
STRETCH_S = 0.25


class Spans:
    """Harness-side spans, kept in memory and written out at exit."""

    def __init__(self) -> None:
        self.records: list[dict[str, Any]] = []
        self._stack: list[int] = []

    def add(self, name: str, start: float, end: float, op: int | None = None) -> int:
        sid = len(self.records)
        parent = self._stack[-1] if self._stack else None
        self.records.append(
            {"id": sid, "name": name, "parent": parent, "op": op, "start": start, "end": end}
        )
        return sid

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        sid = self.add(name, pc(), 0.0)
        self._stack.append(sid)
        try:
            yield
        finally:
            self._stack.pop()
            self.records[sid]["end"] = pc()

    def write(self, path: Any) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for record in self.records:
                out.write(json.dumps(record) + "\n")


@dataclass
class Trial:
    setup_s: list[float]
    ops_per_chunk: float = 1
    chunk_s: list[float] = field(default_factory=list)
    #: which of the workload's chunk shapes each chunk was
    stratum: list[int] = field(default_factory=list)
    failed: int = 0
    cpu_s: float = 0.0
    #: the process's high-water mark when a fixed number of chunks was done
    rss_mb: float = 0.0
    exact: dict[str, Any] = field(default_factory=dict)

    @property
    def ops(self) -> float:
        return len(self.chunk_s) * self.ops_per_chunk

    @property
    def attempted(self) -> int:
        """Whole ops measured (a trailing part-op is timed but not judged)."""
        return max(int(self.ops + 1e-9), 1)


def build(name: str, size: dict[str, int], seed: int, spans: Spans) -> tuple[Workload, float]:
    """One timed set-up. Every set-up builds the same instance: the seed's."""
    reset_msg_ids()
    workload = WORKLOADS[name](size, np.random.default_rng(seed))
    start = pc()
    with spans.span("setup"):
        workload.setup(spans)
    return workload, pc() - start


def spare_setups(
    name: str, size: dict[str, int], seed: int, spans: Spans, at_least: int
) -> list[float]:
    """Seconds of set-ups made only to be timed; each instance is discarded."""
    times: list[float] = []
    while len(times) < at_least or (
        sum(times) < SPARE_SETUP_S and len(times) < MAX_SPARE_SETUPS
    ):
        workload, seconds = build(name, size, seed, spans)
        workload.close()
        del workload
        gc.collect()
        times.append(seconds)
    return times


def run_trial(
    name: str,
    size: dict[str, int],
    seed: int,
    spans: Spans,
    seconds: float | None,
    chunks: int,
    profilers: layers.ThreadProfilers | None = None,
    spares: bool = False,
) -> tuple[Trial, layers.Reading | None]:
    """Set up, warm up, measure and verify one instance of a workload.

    ``seconds`` bounds the measured region by time; ``None`` measures exactly
    ``chunks`` chunks, so every simulated statistic repeats. Memory is read
    when half of ``chunks`` are done, which a timed run gets well past, so
    that it does not depend on how fast the host was. ``spares`` adds
    the discarded set-ups, some before the run and some after it, so that
    ``setup_s`` does not hang on what the host was doing in one second.
    """
    result = Trial(setup_s=spare_setups(name, size, seed, spans, 1) if spares else [])
    region = None
    workload, setup_s = build(name, size, seed, spans)
    result.setup_s.append(setup_s)
    try:
        with spans.span("warmup"):
            workload.warmup()
        result.ops_per_chunk = workload.ops_per_chunk
        gc.collect()
        workload.begin()
        deadline = None if seconds is None else pc() + seconds
        floor = MIN_CHUNKS if seconds is not None else chunks
        rss_at = chunks // 2
        cpu_start = time.process_time()
        if profilers is not None:
            profilers.start_region()
        with spans.span("measure"):
            done = 0
            while not workload.exhausted() and (
                done < floor or (deadline is not None and pc() < deadline)
            ):
                begin = pc()
                workload.chunk()
                end = pc()
                result.chunk_s.append(end - begin)
                result.stratum.append(workload.stratum)
                spans.add("op", begin, end, op=done)
                result.failed += workload.check()
                done += 1
                if done == rss_at:
                    result.rss_mb = peak_rss_mb()
        if profilers is not None:
            region = profilers.stop_region()
        result.cpu_s = time.process_time() - cpu_start
        result.rss_mb = result.rss_mb or peak_rss_mb()
        result.exact = workload.end()
        with spans.span("teardown"):
            if not workload.finish():
                result.failed = result.attempted
    finally:
        workload.close()
    del workload
    gc.collect()
    if spares:
        result.setup_s += spare_setups(name, size, seed, spans, 2)
    return result, region


# --------------------------------------------------------------------- #
# Statistics
# --------------------------------------------------------------------- #


def best_rate(trial: Trial) -> float:
    """ops/s over the fastest contiguous ``STRETCH_S`` or so of the chunks."""
    typical = statistics.median(trial.chunk_s)
    span = min(max(round(STRETCH_S / typical), 1), len(trial.chunk_s))
    elapsed = np.concatenate(([0.0], np.cumsum(trial.chunk_s)))
    return span * trial.ops_per_chunk / float((elapsed[span:] - elapsed[:-span]).min())


def best_op_ms(trial: Trial) -> float:
    """Host ms per op when nothing interferes: the fastest chunk of each
    stratum, averaged over the strata (one stratum: the fastest chunk)."""
    fastest: dict[int, float] = {}
    for stratum, seconds in zip(trial.stratum, trial.chunk_s):
        if seconds < fastest.get(stratum, np.inf):
            fastest[stratum] = seconds
    return 1e3 * statistics.fmean(fastest.values()) / trial.ops_per_chunk


def exact_stats(trial: Trial) -> dict[str, Any]:
    """Exact statistics of a trial, per op / per message."""
    raw, ops = trial.exact, trial.ops
    msgs = raw.get("msgs", 0)
    exact: dict[str, Any] = {
        "ops": ops,
        "msgs_per_op": msgs / ops,
        "bytes_per_msg": raw.get("bytes", 0) / msgs if msgs else 0.0,
        "load_imbalance": raw.get("load_imbalance", 0),
        "converge_sim_s": raw.get("converge_sim_s", 0),
        "engine_events_per_op": raw.get("engine_events", 0) / ops,
        "heap_peak": raw.get("heap_peak", 0),
        "lazy_deleted": raw.get("lazy_deleted", 0),
        "est_rel_err_mean": raw.get("est_rel_err_mean", 0),
    }
    for key in ("tree_shapes", "churn_events", "finger_updates", "parent_updates"):
        if key in raw:
            exact[key] = raw[key]
    return exact


def digest(exact: dict[str, Any]) -> str:
    """Hash over the exact statistics: equal digests, identical simulation."""
    canonical = json.dumps(exact, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --------------------------------------------------------------------- #
# The two passes
# --------------------------------------------------------------------- #


def run_untraced(
    name: str, size: dict[str, int], seed: int, seconds: float | None
) -> dict[str, Any]:
    trial, _ = run_trial(name, size, seed, Spans(), seconds, size["chunks"], spares=True)
    exact = exact_stats(trial)
    return {
        "attempted": trial.attempted,
        "failed": trial.failed,
        "metrics": {
            # Fastest set-up / stretch / op, not medians: interference on a
            # shared host only ever adds time (README, "Noise").
            "setup_s": min(trial.setup_s),
            "ops_per_s": best_rate(trial),
            "op_min_ms": best_op_ms(trial),
            "peak_rss_mb": trial.rss_mb,
        },
        "detail": {
            "samples": len(trial.chunk_s),
            "exact": exact,
            "sim_digest": digest(exact),
        },
    }


def run_traced(
    name: str,
    size: dict[str, int],
    seed: int,
    seconds: float | None,
    quick: bool,
    trace_path: Any,
) -> dict[str, Any]:
    import micro  # imported here: the untraced pass never needs it

    spans = Spans()
    half = max(size["chunks"] // 2, MIN_CHUNKS)
    quarter = max(size["chunks"] // 4, MIN_CHUNKS)
    plain, _ = run_trial(
        name, size, seed, spans, None if seconds is None else seconds / 2, half
    )
    profilers = layers.ThreadProfilers()
    profilers.install()
    try:
        traced, region = run_trial(
            name, size, seed, spans,
            None if seconds is None else seconds / 4, quarter, profilers,
        )
    finally:
        profilers.uninstall()
    assert region is not None
    with spans.span("micro"):
        metrics = micro.run_micro(seed, quick)
    try:
        spans.write(trace_path)
    except OSError as exc:  # a read-only checkout loses the trace, not the run
        print(f"# could not write {trace_path}: {exc}")

    by_layer = layers.attribute(region, traced.ops)
    calls: dict[str, float] = {}  # exactly repeating on the simulated substrates
    for layer, shares in by_layer.items():
        metrics[f"{layer}.self_frac"] = shares["self_frac"]
        if layer != layers.HARNESS:
            metrics[f"{layer}.calls_per_op"] = calls[layer] = shares["calls_per_op"]

    exact = exact_stats(plain)
    msgs = plain.exact.get("msgs", 0)
    p50, p90, p99 = (
        1e3 * np.percentile(plain.chunk_s, [50, 90, 99]) / plain.ops_per_chunk
    ).tolist()
    metrics.update({
        "sim.engine.events_per_op": exact["engine_events_per_op"],
        "sim.engine.heap_peak": exact["heap_peak"],
        "sim.engine.lazy_deleted": exact["lazy_deleted"],
        "chord.node.lookups_per_op":
            layers.calls_of(region, "chord.node", "_start_lookup") / traced.ops,
        "chord.node.rpc_timeouts_per_op":
            layers.calls_of(region, "net.client", "expire") / traced.ops,
        "msgs_per_op": exact["msgs_per_op"],
        "bytes_per_msg": exact["bytes_per_msg"],
        "load_imbalance": exact["load_imbalance"],
        "converge_sim_s": exact["converge_sim_s"],
        "driver.failed_frac":
            (plain.failed + traced.failed) / (plain.attempted + traced.attempted),
        "driver.op_p50_ms": p50,
        "driver.op_p90_ms": p90,
        "driver.op_p99_ms": p99,
        "driver.us_per_msg": 1e6 * sum(plain.chunk_s) / msgs if msgs else 0.0,
        "driver.cpu_s_per_op": plain.cpu_s / plain.ops,
        "driver.est_rel_err_mean": exact["est_rel_err_mean"],
        "trace.overhead_frac":
            (statistics.median(traced.chunk_s) / statistics.median(plain.chunk_s)) - 1.0,
    })
    return {
        "attempted": plain.attempted + traced.attempted,
        "failed": plain.failed + traced.failed,
        "metrics": metrics,
        "detail": {
            "samples": len(plain.chunk_s),
            "traced_ops": traced.ops,
            "exact": {"calls_per_op": calls},
            "sim_digest": digest(calls) if WORKLOADS[name].replayable else "not-replayable",
        },
    }

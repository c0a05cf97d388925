"""Per-layer attribution of a traced region from stdlib ``cProfile`` data.

Self time is grouped by ``repro.<pkg>.<module>``. Time spent in code that is
not under ``repro`` (stdlib, builtins, NumPy, dataclass-generated methods) is
charged to the module that called it, following the profiler's caller edges
upward until a ``repro`` frame is reached, so ``json`` lands in
``sim.messages`` and ``fractions`` in ``core.limiting``. What reaches the
top without meeting a ``repro`` frame is the harness's own cost. Blocking
builtins (socket ``select``, lock waits, ``sleep``) are waiting, not work:
they are left out of both numerator and denominator.

``cProfile`` profiles one thread. The UDP workload does most of its work on
the transport's receive thread, so :class:`ThreadProfilers` gives every thread
started while it is installed a profiler of its own, and reads them from
the main thread with ``getstats()`` (which does not need the profiler to be
stopped); a region is the difference of two such readings.
"""

from __future__ import annotations

import cProfile
import sys
import threading
from collections import defaultdict
from typing import Any

#: The modules that get a ``self_frac`` / ``calls_per_op`` of their own;
#: anything else under ``repro`` folds into ``other``.
LAYER_MODULES = (
    "sim.engine", "sim.simnet", "sim.transport", "sim.messages", "sim.udprpc",
    "net.client", "net.fanout", "net.envelope",
    "chord.node", "chord.fingers", "chord.ring", "chord.idgen",
    "chord.ringarray", "chord.fastbuild", "chord.block", "chord.incremental",
    "core.service", "core.limiting", "core.aggregates", "core.slab",
    "core.builder", "telemetry.hotspot", "telemetry.runtime",
)
OTHER = "other"
HARNESS = "harness"

_WAITING = (
    "<method 'poll' of 'select.",
    "<built-in method select.",
    "<method 'acquire' of '_thread.",
    "<built-in method time.sleep",
)

Key = tuple[str, int, str]  # (filename, first line, name); builtins: ("~", 0, repr)


def _key(code: Any) -> Key:
    if isinstance(code, str):
        return ("~", 0, code)
    return (code.co_filename, code.co_firstlineno, code.co_name)


def layer_of(key: Key) -> str | None:
    """The layer a function belongs to, or ``None`` outside ``repro``."""
    filename = key[0].replace("\\", "/")
    marker = "/repro/"
    at = filename.rfind(marker)
    if at < 0 or not filename.endswith(".py"):
        return None
    module = filename[at + len(marker):-3].replace("/", ".")
    return module if module in LAYER_MODULES else OTHER


class Reading:
    """Cumulative per-function and per-edge counters of a set of profilers."""

    def __init__(self) -> None:
        self.calls: dict[Key, int] = defaultdict(int)
        self.self_s: dict[Key, float] = defaultdict(float)
        #: (caller, callee) -> cumulative seconds of callee under caller
        self.edge_s: dict[tuple[Key, Key], float] = defaultdict(float)
        self.edge_calls: dict[tuple[Key, Key], int] = defaultdict(int)

    def add(self, entries: list[Any]) -> None:
        for entry in entries:
            caller = _key(entry.code)
            self.calls[caller] += entry.callcount
            self.self_s[caller] += entry.inlinetime
            for sub in entry.calls or ():
                edge = (caller, _key(sub.code))
                self.edge_s[edge] += sub.totaltime
                self.edge_calls[edge] += sub.callcount

    def minus(self, earlier: "Reading") -> "Reading":
        out = Reading()
        for name in ("calls", "self_s", "edge_s", "edge_calls"):
            mine, theirs, dest = getattr(self, name), getattr(earlier, name), getattr(out, name)
            for key, value in mine.items():
                delta = value - theirs.get(key, 0)
                if delta:
                    dest[key] = delta
        return out


class ThreadProfilers:
    """One ``cProfile.Profile`` per thread, readable from the main thread."""

    def __init__(self) -> None:
        self._main = cProfile.Profile()
        self._threads: list[cProfile.Profile] = []
        self._lock = threading.Lock()
        self._before: Reading | None = None

    def install(self) -> None:
        """Profile every thread started from now on (call before set-up)."""
        threading.setprofile(self._bootstrap)

    def uninstall(self) -> None:
        threading.setprofile(None)

    def _bootstrap(self, *_event: Any) -> None:
        # First profile event in a new thread: swap this Python-level hook
        # for a C profiler that belongs to the thread.
        sys.setprofile(None)
        profiler = cProfile.Profile()
        with self._lock:
            self._threads.append(profiler)
        profiler.enable()

    def _read_threads(self) -> Reading:
        reading = Reading()
        with self._lock:
            for profiler in self._threads:
                reading.add(profiler.getstats())
        return reading

    def start_region(self) -> None:
        self._before = self._read_threads()
        self._main.enable()

    def stop_region(self) -> Reading:
        self._main.disable()
        assert self._before is not None
        region = self._read_threads().minus(self._before)
        region.add(self._main.getstats())
        return region


def attribute(region: Reading, ops: int) -> dict[str, dict[str, float]]:
    """``{layer: {"self_frac", "calls_per_op"}}`` for one traced region."""
    busy: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    rising: dict[Key, float] = defaultdict(float)  # non-repro time looking for a caller
    for key, seconds in region.self_s.items():
        layer = layer_of(key)
        if layer is not None:
            busy[layer] += seconds
            calls[layer] += region.calls.get(key, 0)
        elif not key[2].startswith(_WAITING):
            rising[key] += seconds

    callers: dict[Key, list[tuple[Key, float]]] = defaultdict(list)
    for (caller, callee), seconds in region.edge_s.items():
        if layer_of(callee) is None:
            # Weight by cumulative time under that caller; a callee too
            # fast to register any falls back to call counts.
            weight = seconds if seconds > 0 else 1e-9 * region.edge_calls[(caller, callee)]
            callers[callee].append((caller, weight))

    for _ in range(64):  # bounds recursion among non-repro functions
        if not rising:
            break
        lifted: dict[Key, float] = defaultdict(float)
        for key, seconds in rising.items():
            above = callers.get(key)
            total = sum(w for _c, w in above) if above else 0.0
            if not above or total <= 0:
                busy[HARNESS] += seconds
                continue
            for caller, weight in above:
                share = seconds * weight / total
                layer = layer_of(caller)
                if layer is not None:
                    busy[layer] += share
                else:
                    lifted[caller] += share
        rising = lifted
    busy[HARNESS] += sum(rising.values())

    total_busy = sum(busy.values()) or 1.0
    out = {
        layer: {
            "self_frac": busy.get(layer, 0.0) / total_busy,
            "calls_per_op": calls.get(layer, 0) / ops,
        }
        for layer in (*LAYER_MODULES, OTHER)
    }
    out[HARNESS] = {"self_frac": busy.get(HARNESS, 0.0) / total_busy, "calls_per_op": 0.0}
    return out


def calls_of(region: Reading, module: str, name: str) -> int:
    """Calls of ``repro.<module>``'s function ``name`` (nested defs too)."""
    suffix = "/repro/" + module.replace(".", "/") + ".py"
    return sum(
        count
        for key, count in region.calls.items()
        if key[2] == name and key[0].replace("\\", "/").endswith(suffix)
    )

"""cProfile self time grouped by a module -> layer map.

A repo function's layer is its module path under ``repro`` (for
example ``engine.faults``); ``engine.sim`` is split three ways because
it holds three layers: the event calendar, process/event machinery and
the dispatch loop. Third-party and builtin frames (``bisect``,
``list.sort``, networkx, json, numpy) have no layer of their own: their
self time goes to the repo functions that called them, split by the
caller edges' cumulative time, walking up through other third-party
frames. Time with no repo caller at all is ``unattributed`` (the
benchmark's own frames and the profiler).
"""

from __future__ import annotations

import cProfile
import os
import pstats
from typing import Any, Callable, Dict, Tuple

from bench_common import SRC

_REPRO = os.path.join(SRC, "repro") + os.sep

#: ``engine.sim`` functions that maintain the event calendar.
CALENDAR_FUNCS = frozenset({
    "_push", "_refill", "_schedule_at", "_schedule_call", "schedule_batch",
    "peek",
})
#: ``engine.sim`` functions that are the dispatch loop itself.
LOOP_FUNCS = frozenset({"run"})

UNATTRIBUTED = "unattributed"

Func = Tuple[str, int, str]


def repo_layer(func: Func) -> str:
    """The layer of a repo function, or ``""`` for any other frame."""
    filename, _line, name = func
    if not filename.startswith(_REPRO):
        return ""
    module = filename[len(_REPRO):-len(".py")].replace(os.sep, ".")
    if module.endswith("__init__"):
        module = module[:-len("__init__")].rstrip(".") or "repro"
    if module == "engine.sim":
        if name in CALENDAR_FUNCS:
            return "engine.sim.calendar"
        if name in LOOP_FUNCS:
            return "engine.sim.loop"
        return "engine.sim.process"
    return module


def layer_self_times(stats: Dict[Func, Any]) -> Dict[str, float]:
    """Self seconds per layer from a ``pstats.Stats(...).stats`` table."""
    owners: Dict[Func, Dict[str, float]] = {}

    def owner(func: Func) -> Dict[str, float]:
        if func in owners:
            return owners[func]
        layer = repo_layer(func)
        if layer:
            owners[func] = {layer: 1.0}
            return owners[func]
        owners[func] = {UNATTRIBUTED: 1.0}  # guards recursive cycles
        callers = stats[func][4] if func in stats else {}
        weights = {caller: edge[3] for caller, edge in callers.items()}
        total = sum(weights.values())
        if total <= 0:
            return owners[func]
        shares: Dict[str, float] = {}
        for caller, weight in weights.items():
            for name, part in owner(caller).items():
                shares[name] = shares.get(name, 0.0) + part * weight / total
        owners[func] = shares
        return shares

    totals: Dict[str, float] = {}
    for func, entry in stats.items():
        self_s = entry[2]
        for name, part in owner(func).items():
            totals[name] = totals.get(name, 0.0) + self_s * part
    return totals


def profile_call(call: Callable[[], Any]) -> Tuple[Any, Dict[str, float]]:
    """Run ``call`` under cProfile; return its value and layer self times."""
    profiler = cProfile.Profile()
    value = profiler.runcall(call)
    return value, layer_self_times(pstats.Stats(profiler).stats)

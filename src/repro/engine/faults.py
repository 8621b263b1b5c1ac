"""Dynamic fault injection for live simulations.

Everything failure-related elsewhere in the library is *static*:
:mod:`repro.network.failures` analyzes degraded copies of a fabric and
:mod:`repro.frameworks.faults` uses closed-form straggler math. This
module makes failures first-class runtime events: a
:class:`FaultInjector` attaches to a running
:class:`~repro.engine.sim.Simulator` and schedules deterministic,
RandomStream-driven fault/repair *processes* from declarative
:class:`FaultSpec` descriptions -- link flaps, switch crashes, host
failures and transient stragglers, each with its own MTBF/MTTR
exponential distributions and injection window.

The injector is strictly opt-in. Nothing in the kernel or the models
references it; simulations that never install one are bit-for-bit
identical to runs before this module existed.

Topology faults (link flaps, switch crashes) mutate the live
:class:`~repro.network.topology.Fabric` through its ``fail_link`` /
``fail_node`` interface, which bumps the fabric's link-state version so
the flow solver's capacity cache invalidates and routing recomputes
paths on the surviving links. Host failures and stragglers are tracked
by label so workload models can poll :meth:`FaultInjector.is_down` and
:meth:`FaultInjector.slowdown` (the fabric is only touched when the
label names one of its nodes).

Example
-------
>>> from repro.engine import Simulator
>>> sim = Simulator()
>>> injector = FaultInjector(sim, seed=7)
>>> _ = injector.install(FaultSpec(kind=STRAGGLER, targets=("worker0",),
...                                mtbf_s=2.0, mttr_s=1.0, max_faults=1))
>>> sim.run(until=50.0)
50.0
>>> len(injector.events)
1
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Any, List, Optional, Tuple

from repro.engine.randomness import RandomStream
from repro.engine.sim import ProcessHandle, Simulator
from repro.errors import SimulationError

#: Fault kinds understood by the injector.
LINK_FLAP = "link-flap"
SWITCH_CRASH = "switch-crash"
HOST_FAILURE = "host-failure"
STRAGGLER = "straggler"

#: Every valid :class:`FaultSpec` kind.
FAULT_KINDS = (LINK_FLAP, SWITCH_CRASH, HOST_FAILURE, STRAGGLER)

#: Kinds that require a fabric to mutate.
_FABRIC_KINDS = (LINK_FLAP, SWITCH_CRASH)


@dataclass(frozen=True)
class FaultSpec:
    """A declarative fault schedule for a set of targets.

    Each target gets an independent fault/repair process: time between
    failures is exponential with mean ``mtbf_s``, repair time is
    exponential with mean ``mttr_s``. Faults are only *initiated* inside
    ``[start_s, end_s)`` (a fault in progress at ``end_s`` still runs
    its repair). ``targets`` are node labels, except for ``link-flap``
    where each target is an ``(a, b)`` endpoint pair. ``slowdown`` is
    the service-time multiplier applied while a ``straggler`` fault is
    active. Every number must be finite.
    """

    kind: str
    targets: Tuple[Any, ...]
    mtbf_s: float
    mttr_s: float
    start_s: float = 0.0
    end_s: Optional[float] = None
    max_faults: Optional[int] = None
    slowdown: float = 4.0

    def __post_init__(self) -> None:
        for item in fields(self):
            value = getattr(self, item.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise SimulationError(f"{item.name} must be finite, got {value}")
        if self.kind not in FAULT_KINDS:
            raise SimulationError(
                f"unknown fault kind {self.kind!r}; expected one of "
                f"{FAULT_KINDS}"
            )
        object.__setattr__(self, "targets", tuple(self.targets))
        if not self.targets:
            raise SimulationError("fault spec needs at least one target")
        if self.kind == LINK_FLAP:
            for target in self.targets:
                if not (isinstance(target, tuple) and len(target) == 2):
                    raise SimulationError(
                        f"link-flap targets must be (a, b) pairs, got "
                        f"{target!r}"
                    )
        if self.mtbf_s <= 0 or self.mttr_s <= 0:
            raise SimulationError("mtbf and mttr must be positive")
        if self.start_s < 0:
            raise SimulationError("fault window cannot start before t=0")
        if self.end_s is not None and self.end_s <= self.start_s:
            raise SimulationError("fault window must end after it starts")
        if self.max_faults is not None and self.max_faults < 1:
            raise SimulationError("max_faults must be >= 1 when set")
        if self.slowdown < 1.0:
            raise SimulationError("straggler slowdown must be >= 1")


@dataclass(frozen=True)
class FaultEvent:
    """One completed fault: what failed, when, and for how long."""

    kind: str
    target: str
    down_s: float
    up_s: float

    @property
    def duration_s(self) -> float:
        """Outage length in virtual seconds."""
        return self.up_s - self.down_s


def _label(target: Any) -> str:
    """Stable display label: ``a--b`` for links, ``str`` otherwise."""
    if isinstance(target, tuple):
        return "--".join(str(part) for part in target)
    return str(target)


@dataclass
class FaultInjector:
    """Schedules deterministic fault/repair processes in a live simulator.

    Install :class:`FaultSpec` s with :meth:`install`; each target runs
    its own process driven by a :class:`RandomStream` forked per
    ``(kind, target)``, so schedules are reproducible and independent of
    installation order. Completed faults accumulate in :attr:`events`;
    with observability attached, per-kind counters
    (``faults.injected.*`` / ``faults.repaired.*``) and ``fault.<kind>``
    spans are recorded.
    """

    sim: Simulator
    seed: int = 0
    fabric: Any = None
    events: List[FaultEvent] = field(default_factory=list)
    specs: List[FaultSpec] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._root = RandomStream(self.seed, "faults")
        self._down: set = set()
        self._slow: dict = {}
        self._open: List[Tuple[str, str, float]] = []

    # -- wiring ------------------------------------------------------------

    def install(self, spec: FaultSpec) -> List[ProcessHandle]:
        """Spawn one fault/repair process per target of ``spec``."""
        if spec.kind in _FABRIC_KINDS and self.fabric is None:
            raise SimulationError(
                f"{spec.kind} faults need a fabric to mutate"
            )
        if spec.kind == LINK_FLAP:
            for a, b in spec.targets:
                if not self.fabric.graph.has_edge(a, b):
                    raise SimulationError(f"no link {a}--{b} to flap")
        elif spec.kind == SWITCH_CRASH:
            for target in spec.targets:
                if target not in self.fabric.graph:
                    raise SimulationError(f"no node {target} to crash")
        self.specs.append(spec)
        handles = []
        for target in spec.targets:
            rng = self._root.fork(f"{spec.kind}/{_label(target)}")
            handles.append(
                self.sim.spawn(
                    self._drive(spec, target, rng),
                    name=f"fault.{spec.kind}.{_label(target)}",
                )
            )
        return handles

    # -- queries for workload models ---------------------------------------

    def is_down(self, target: str) -> bool:
        """Whether a host/switch labelled ``target`` is currently failed."""
        return target in self._down

    def slowdown(self, target: str) -> float:
        """Service-time multiplier for ``target`` (1.0 when healthy)."""
        return self._slow.get(target, 1.0)

    def outage_windows(
        self,
        kind: Optional[str] = None,
        include_active: bool = False,
        until: Optional[float] = None,
    ) -> List[FaultEvent]:
        """Outage windows, optionally filtered to one ``kind``.

        By default this returns completed faults only, as before. With
        ``include_active`` outages still in progress are also reported,
        *clamped* to ``until`` (default: the current simulation time)
        instead of open-ended. ``until`` likewise clamps completed
        windows, so querying "as of ``t``" is consistent whether a
        repair landing exactly at ``t`` has already executed (it shows
        as a completed window ending at ``t``) or is still pending (the
        active window is clamped to the same ``[down, t]``); zero-length
        windows starting at the horizon are dropped, never reported
        open-ended.
        """
        windows = [
            event for event in self.events
            if kind is None or event.kind == kind
        ]
        if until is not None:
            windows = [
                event if event.up_s <= until
                else FaultEvent(event.kind, event.target, event.down_s, until)
                for event in windows
                if event.down_s < until
            ]
        if include_active:
            horizon = self.sim.now if until is None else until
            for open_kind, label, down_at in self._open:
                if kind is not None and open_kind != kind:
                    continue
                if down_at < horizon:
                    windows.append(
                        FaultEvent(open_kind, label, down_at, horizon)
                    )
        return windows

    # -- internals ---------------------------------------------------------

    def _drive(self, spec: FaultSpec, target: Any, rng: RandomStream):
        """The per-target fault/repair loop (a simulation process)."""
        sim = self.sim
        label = _label(target)
        count = 0
        if spec.start_s > sim.now:
            yield sim.timeout(spec.start_s - sim.now)
        while spec.max_faults is None or count < spec.max_faults:
            gap = rng.exponential(spec.mtbf_s)
            if spec.end_s is not None and sim.now + gap >= spec.end_s:
                return
            yield sim.timeout(gap)
            down_at = sim.now
            self._apply(spec, target)
            open_entry = (spec.kind, label, down_at)
            self._open.append(open_entry)
            self._count("injected", spec.kind)
            yield sim.timeout(rng.exponential(spec.mttr_s))
            self._open.remove(open_entry)
            self._repair(spec, target)
            self._count("repaired", spec.kind)
            event = FaultEvent(spec.kind, label, down_at, sim.now)
            self.events.append(event)
            observability = sim.observability
            if observability is not None:
                observability.spans.record(
                    f"fault.{spec.kind}",
                    observability.offset + down_at,
                    observability.offset + sim.now,
                    tags={"subsystem": "engine.faults", "target": label},
                )
            count += 1

    def _apply(self, spec: FaultSpec, target: Any) -> None:
        if spec.kind == LINK_FLAP:
            self.fabric.fail_link(*target)
            return
        if spec.kind == STRAGGLER:
            self._slow[target] = spec.slowdown
            return
        self._down.add(target)
        if self.fabric is not None and target in self.fabric.graph:
            self.fabric.fail_node(target)

    def _repair(self, spec: FaultSpec, target: Any) -> None:
        if spec.kind == LINK_FLAP:
            self.fabric.restore_link(*target)
            return
        if spec.kind == STRAGGLER:
            self._slow.pop(target, None)
            return
        self._down.discard(target)
        if self.fabric is not None and target in self.fabric.graph:
            self.fabric.restore_node(target)

    def _count(self, phase: str, kind: str) -> None:
        observability = self.sim.observability
        if observability is not None:
            observability.registry.counter(f"faults.{phase}.{kind}").inc()

"""Software-defined networking control plane (§IV.A.2).

Models the operational claim the paper quotes from Google: SDN is "a
software control plane that abstracts and manages complexity ... and can
make 10,000 switches look like one". Concretely, we compare the time and
error rate of rolling out a network-wide policy change:

- **legacy**: an admin team configures each switch over CLI, serially
  per admin, with a per-box misconfiguration probability that forces
  rework;
- **SDN**: a controller compiles the policy once and pushes flow rules
  to all switches in parallel over its control channel.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.engine.randomness import RandomStream
from repro.errors import ModelError, TopologyError
from repro.network.topology import Fabric


@dataclass
class FlowRule:
    """One match-action entry in a switch's flow table."""

    match: str
    action: str
    priority: int = 0

    def __post_init__(self) -> None:
        if not self.match or not self.action:
            raise ModelError("flow rule needs both match and action")


@dataclass
class FlowTable:
    """A switch's flow table with a capacity limit (TCAM size)."""

    capacity: int = 2000
    rules: List[FlowRule] = field(default_factory=list)

    def install(self, rule: FlowRule) -> None:
        """Add a rule; overflowing the TCAM is an error."""
        if len(self.rules) >= self.capacity:
            raise ModelError("flow table full")
        self.rules.append(rule)

    def lookup(self, packet_key: str) -> Optional[FlowRule]:
        """Highest-priority rule whose match equals the packet key."""
        candidates = [r for r in self.rules if r.match == packet_key]
        if not candidates:
            return None
        return max(candidates, key=lambda r: r.priority)

    def clear(self) -> None:
        """Drop all rules."""
        self.rules.clear()

    def __len__(self) -> int:
        return len(self.rules)


@dataclass
class SdnController:
    """A centralized controller managing every switch in a fabric.

    ``compile_s`` is the one-off policy compilation; ``rule_install_s``
    the per-rule install latency on a switch; ``parallelism`` the number
    of simultaneous control-channel sessions (hyperscale controllers push
    to thousands of switches at once).
    """

    fabric: Fabric
    compile_s: float = 2.0
    rule_install_s: float = 0.002
    parallelism: int = 1000
    tables: Dict[str, FlowTable] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.parallelism < 1:
            raise ModelError("parallelism must be >= 1")
        for switch in self.fabric.switches:
            self.tables[switch] = FlowTable()

    def table(self, switch: str) -> FlowTable:
        """The flow table of ``switch``."""
        if switch not in self.tables:
            raise TopologyError(f"unknown switch: {switch}")
        return self.tables[switch]

    def policy_rollout_s(self, rules_per_switch: int) -> float:
        """Wall-clock time to push a policy to the whole fabric.

        Compile once, then install ``rules_per_switch`` on every switch,
        ``parallelism`` switches at a time.
        """
        if rules_per_switch < 1:
            raise ModelError("need at least one rule per switch")
        n_switches = len(self.fabric.switches)
        per_switch = rules_per_switch * self.rule_install_s
        waves = -(-n_switches // self.parallelism)  # ceil division
        return self.compile_s + waves * per_switch


@dataclass
class LegacyManagement:
    """Per-box CLI management by a human team (the pre-SDN baseline)."""

    n_admins: int = 4
    config_time_per_switch_s: float = 600.0  # ten careful minutes per box
    error_probability: float = 0.03  # chance a box needs rework

    def __post_init__(self) -> None:
        if self.n_admins < 1:
            raise ModelError("need at least one admin")
        if not 0.0 <= self.error_probability < 1.0:
            raise ModelError("error probability must be in [0, 1)")

    def policy_rollout_s(
        self, n_switches: int, rng: Optional[RandomStream] = None
    ) -> float:
        """Time for the team to reconfigure ``n_switches`` boxes.

        Each misconfigured box is redone (possibly repeatedly). With no
        RNG, uses the expected rework count (deterministic mode).
        """
        if n_switches < 1:
            raise ModelError("need at least one switch")
        if rng is None:
            expected_visits = 1.0 / (1.0 - self.error_probability)
            total = n_switches * expected_visits * self.config_time_per_switch_s
            return total / self.n_admins
        visits = 0
        for _ in range(n_switches):
            visits += 1
            while rng.uniform() < self.error_probability:
                visits += 1
        return visits * self.config_time_per_switch_s / self.n_admins

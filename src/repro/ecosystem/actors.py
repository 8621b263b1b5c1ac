"""The European initiative landscape (Figure 1) and Table 1's consortium.

Figure 1 of the paper positions RETHINK big among the ETPs, PPPs and
associations that divide the European digital-roadmap space. Table 1
lists the project consortium and each partner's expertise. Both become
data here so the F1/T1 benches can compute coverage, overlap and gaps.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.errors import ModelError


class ScopeArea(enum.Enum):
    """Topical areas the initiatives divide among themselves (§III)."""

    BIG_DATA_HARDWARE = "big-data-hardware"
    BIG_DATA_NETWORKING = "big-data-networking"
    BIG_DATA_APPLICATIONS = "big-data-applications"
    DATA_VALUE = "data-value"
    HPC = "hpc"
    IOT = "iot"
    TELECOM_5G = "telecom-5g"
    MEDIA = "media"
    SOFTWARE_SERVICES = "software-services"
    SMART_SYSTEMS = "smart-systems"
    PHOTONICS = "photonics"
    GENERAL_COMPUTE = "general-compute"


class ActorKind(enum.Enum):
    """Kinds of roadmap actors."""

    ETP = "etp"  # European Technology Platform
    PPP = "ppp"  # Public-Private Partnership
    PROJECT = "project"
    ASSOCIATION = "association"


@dataclass(frozen=True)
class Initiative:
    """One actor in the roadmap ecosystem."""

    name: str
    kind: ActorKind
    scopes: Tuple[ScopeArea, ...]

    def __post_init__(self) -> None:
        if not self.scopes:
            raise ModelError(f"{self.name}: needs at least one scope")


#: The §III landscape: who handles what (from the paper's text).
INITIATIVE_CATALOG: Dict[str, Initiative] = {
    init.name: init
    for init in (
        Initiative(
            "RETHINK-big",
            ActorKind.PROJECT,
            (ScopeArea.BIG_DATA_HARDWARE, ScopeArea.BIG_DATA_NETWORKING),
        ),
        Initiative("BDVA", ActorKind.ASSOCIATION,
                   (ScopeArea.BIG_DATA_APPLICATIONS, ScopeArea.DATA_VALUE)),
        Initiative("ETP4HPC", ActorKind.ETP, (ScopeArea.HPC,)),
        Initiative("AIOTI", ActorKind.ASSOCIATION, (ScopeArea.IOT,)),
        Initiative("5G-PPP", ActorKind.PPP, (ScopeArea.TELECOM_5G,)),
        Initiative("NEM", ActorKind.ETP, (ScopeArea.MEDIA,)),
        Initiative("NESSI", ActorKind.ETP, (ScopeArea.SOFTWARE_SERVICES,)),
        Initiative("EPoSS", ActorKind.ETP, (ScopeArea.SMART_SYSTEMS,)),
        Initiative("Photonics21", ActorKind.ETP, (ScopeArea.PHOTONICS,)),
    )
}


@dataclass(frozen=True)
class ConsortiumPartner:
    """One Table 1 row."""

    name: str
    short_name: str
    kind: str  # "academic" | "large-industry" | "sme"
    expertise: Tuple[str, ...]

    def __post_init__(self) -> None:
        if self.kind not in ("academic", "large-industry", "sme"):
            raise ModelError(f"{self.short_name}: bad kind {self.kind!r}")
        if not self.expertise:
            raise ModelError(f"{self.short_name}: needs expertise areas")


#: Table 1 verbatim.
CONSORTIUM: List[ConsortiumPartner] = [
    ConsortiumPartner(
        "Barcelona Supercomputing Center", "BSC", "academic",
        ("computer-architecture", "system-architecture"),
    ),
    ConsortiumPartner(
        "Technische Universitat Berlin", "TUB", "academic",
        ("database-systems", "information-management"),
    ),
    ConsortiumPartner(
        "Ecole Polytechnique Federale de Lausanne", "EPFL", "academic",
        ("database-systems", "database-applications"),
    ),
    ConsortiumPartner(
        "Centrum voor Wiskunde en Informatica", "CWI", "academic",
        ("hardware-conscious-databases",),
    ),
    ConsortiumPartner(
        "University of Manchester", "UoM", "academic",
        ("computer-architecture",),
    ),
    ConsortiumPartner(
        "Universidad Politecnica de Madrid", "UPM", "academic",
        ("data-mining", "data-warehousing"),
    ),
    ConsortiumPartner(
        "ARM Ltd.", "ARM", "large-industry", ("silicon-ip",),
    ),
    ConsortiumPartner(
        "Internet Memory Research", "IMR", "sme",
        ("web-scale-sourcing", "business-intelligence"),
    ),
    ConsortiumPartner(
        "Thales SA", "THALES", "large-industry",
        ("situation-analysis", "decision-analysis", "planning-optimization"),
    ),
]

"""Coverage, overlap and gap analysis over the initiative landscape.

Makes Figure 1 computable: a bipartite initiative-scope graph whose
structure answers the questions §III settles in prose -- which areas are
covered, which initiative owns Big Data hardware/networking (RETHINK big,
uniquely), and which initiatives overlap.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import networkx as nx

from repro.ecosystem.actors import (
    CONSORTIUM,
    ConsortiumPartner,
    INITIATIVE_CATALOG,
    Initiative,
    ScopeArea,
)
from repro.errors import ModelError


def landscape_graph(
    initiatives: Optional[Dict[str, Initiative]] = None,
) -> nx.Graph:
    """The bipartite initiative/scope graph of Figure 1."""
    catalog = initiatives or INITIATIVE_CATALOG
    graph = nx.Graph()
    for initiative in catalog.values():
        graph.add_node(initiative.name, bipartite="initiative",
                       kind=initiative.kind.value)
        for scope in initiative.scopes:
            if scope.value not in graph:
                graph.add_node(scope.value, bipartite="scope")
            graph.add_edge(initiative.name, scope.value)
    return graph


def coverage_matrix(
    initiatives: Optional[Dict[str, Initiative]] = None,
) -> Dict[str, List[str]]:
    """scope value -> initiative names covering it (sorted)."""
    catalog = initiatives or INITIATIVE_CATALOG
    matrix: Dict[str, List[str]] = {area.value: [] for area in ScopeArea}
    for initiative in catalog.values():
        for scope in initiative.scopes:
            matrix[scope.value].append(initiative.name)
    return {scope: sorted(names) for scope, names in matrix.items()}


def uncovered_scopes(
    initiatives: Optional[Dict[str, Initiative]] = None,
) -> List[str]:
    """Scope areas no initiative claims (the gaps)."""
    return sorted(
        scope for scope, names in coverage_matrix(initiatives).items()
        if not names
    )


def exclusive_scopes(
    name: str, initiatives: Optional[Dict[str, Initiative]] = None,
) -> List[str]:
    """Scopes only ``name`` covers -- its unique mandate."""
    catalog = initiatives or INITIATIVE_CATALOG
    if name not in catalog:
        raise ModelError(f"unknown initiative: {name!r}")
    matrix = coverage_matrix(initiatives)
    return sorted(
        scope for scope, names in matrix.items() if names == [name]
    )


def overlap_pairs(
    initiatives: Optional[Dict[str, Initiative]] = None,
) -> List[Tuple[str, str, int]]:
    """Initiative pairs sharing scopes, with shared-scope counts."""
    catalog = initiatives or INITIATIVE_CATALOG
    names = sorted(catalog)
    out = []
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            shared = set(catalog[a].scopes) & set(catalog[b].scopes)
            if shared:
                out.append((a, b, len(shared)))
    return out


# -- Table 1: consortium expertise coverage -------------------------------

#: Capability areas an industry-driven hardware roadmap needs.
REQUIRED_CAPABILITIES = (
    "computer-architecture",
    "database-systems",
    "hardware-conscious-databases",
    "data-mining",
    "silicon-ip",
    "business-intelligence",
    "decision-analysis",
)


def consortium_coverage(
    partners: Optional[List[ConsortiumPartner]] = None,
) -> Dict[str, List[str]]:
    """capability -> partner short names providing it."""
    roster = partners if partners is not None else CONSORTIUM
    if not roster:
        raise ModelError("empty consortium")
    coverage: Dict[str, List[str]] = {}
    for capability in REQUIRED_CAPABILITIES:
        coverage[capability] = sorted(
            p.short_name for p in roster if capability in p.expertise
        )
    return coverage


def consortium_balance(
    partners: Optional[List[ConsortiumPartner]] = None,
) -> Dict[str, int]:
    """Counts per partner kind (the 'large industry, SME, academia' mix)."""
    roster = partners if partners is not None else CONSORTIUM
    if not roster:
        raise ModelError("empty consortium")
    balance: Dict[str, int] = {}
    for partner in roster:
        balance[partner.kind] = balance.get(partner.kind, 0) + 1
    return balance

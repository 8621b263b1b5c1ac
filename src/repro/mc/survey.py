"""Batched interview-corpus statistics.

The scalar analysis layer rescans the corpus once per theme (and, for
cross-tabs, re-resolves each interview's company by linear search).
This kernel interns each interview's coded-theme tuple into a small
set of unique membership *patterns*, answers every theme fraction and
per-role cross-tab from one ``bincount`` over ``(role, pattern)`` pairs
plus one tiny integer matmul, and only then expands to per-theme
output. All fractions stay ratios of exact integer counts, so results
equal the scalar per-theme scans bit for bit.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.errors import ModelError

__all__ = ["theme_statistics"]


def _intern_patterns(
    interview_themes: Sequence[Sequence[str]], themes: Sequence[str]
) -> Tuple[np.ndarray, np.ndarray]:
    """Dedup coded-theme tuples into ``(patterns, inverse)``.

    ``patterns`` is a boolean ``(n_patterns, n_themes)`` membership
    matrix of the distinct coded tuples; ``inverse`` maps each
    interview to its pattern row. Replicated corpora (the common case:
    many interviews share the exact same theme coding) collapse to a
    handful of rows, so downstream work is sized by distinct patterns,
    not interviews.
    """
    if not themes:
        raise ModelError("need at least one theme")
    columns = {theme: j for j, theme in enumerate(themes)}
    if len(columns) != len(themes):
        raise ModelError("duplicate themes")
    n = len(interview_themes)
    inverse = np.empty(n, dtype=np.intp)
    pattern_index: Dict[Tuple[str, ...], int] = {}
    rows: List[np.ndarray] = []
    get_index = pattern_index.get
    get_column = columns.get
    for i, coded in enumerate(interview_themes):
        key = tuple(coded)
        k = get_index(key)
        if k is None:
            k = len(rows)
            pattern_index[key] = k
            row = np.zeros(len(themes), dtype=bool)
            for theme in key:
                j = get_column(theme)
                if j is not None:
                    row[j] = True
            rows.append(row)
        inverse[i] = k
    if rows:
        patterns = np.vstack(rows)
    else:
        patterns = np.zeros((0, len(themes)), dtype=bool)
    return patterns, inverse


def theme_statistics(
    interview_themes: Sequence[Sequence[str]],
    roles: Sequence[str],
    themes: Sequence[str],
) -> Dict[str, Dict[str, float]]:
    """Corpus fraction and per-role cross-tab for every theme at once.

    Returns ``{theme: {"fraction": f, "fraction.<role>": f, ...}}`` with
    roles in first-appearance order. All fractions are ratios of exact
    integer counts, so they equal the scalar per-theme scans bit for
    bit.
    """
    n = len(interview_themes)
    if n == 0:
        raise ModelError("empty corpus")
    if len(roles) != n:
        raise ModelError("one role per interview required")
    patterns, inverse = _intern_patterns(interview_themes, themes)

    role_order: List[str] = []
    role_index: Dict[str, int] = {}
    role_codes = np.empty(n, dtype=np.intp)
    get_role = role_index.get
    for i, role in enumerate(roles):
        r = get_role(role)
        if r is None:
            r = len(role_order)
            role_index[role] = r
            role_order.append(role)
        role_codes[i] = r

    n_roles = len(role_order)
    n_patterns = max(len(patterns), 1)
    # One histogram over combined (role, pattern) keys, then a small
    # integer matmul expands pattern counts to per-theme counts. Every
    # count is an exact int64, so the fractions below are the same
    # int/int divisions the scalar scans perform.
    pair_counts = np.bincount(
        role_codes * n_patterns + inverse,
        minlength=n_roles * n_patterns,
    ).reshape(n_roles, n_patterns)
    pattern_int = patterns.astype(np.int64)
    role_theme = pair_counts @ pattern_int  # (n_roles, n_themes)
    hits = role_theme.sum(axis=0)  # (n_themes,) corpus totals
    role_sizes = pair_counts.sum(axis=1)  # (n_roles,) interviews/role

    out: Dict[str, Dict[str, float]] = {}
    role_items = [
        (f"fraction.{role}", r, int(role_sizes[r]))
        for r, role in enumerate(role_order)
    ]
    for j, theme in enumerate(themes):
        stats: Dict[str, float] = {"fraction": int(hits[j]) / n}
        column = role_theme[:, j]
        for key, r, size in role_items:
            stats[key] = int(column[r]) / size
        out[theme] = stats
    return out

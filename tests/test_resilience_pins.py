"""Pinned outputs of the resilience primitives inside X12 and X17.

Two kinds of pins, both recorded before hedged copies and retried
attempts stopped being processes, so a change in how ``hedge``/``retry``
schedule their work cannot move a number unnoticed:

- the ``resilience.*`` and ``faults.*`` counter rows that
  ``repro trace X12`` / ``repro trace X17`` print at seed 0;
- metric digests of the search and memory chaos bodies at configs the
  exhibits never use: a short hedge delay on one-slot replicas, so a
  losing copy is often still queued when the winner finishes, and two
  attempts under a deadline exactly equal to a healthy transfer, so
  every healthy attempt ties its deadline.

Each body runs on X12's constant-rate inputs and on X17's flash-crowd
scenario trace. To print the current tables::

    PYTHONPATH=src python tests/test_resilience_pins.py
"""

import hashlib
import json

import pytest

from repro.engine import RandomStream
from repro.mc.traffic import scenario_trace
from repro.reporting.traces import run_trace
from repro.workloads.chaos import (
    MEMORY_POLICIES,
    N_REPLICAS,
    SEARCH_POLICIES,
    memory_inputs,
    run_memory_chaos,
    run_search_chaos,
    search_inputs,
)
from repro.workloads.scenario import regime_spec

#: A healthy four-path read: ``base_latency_s + read_bytes * 8 / 10 Gb/s``,
#: written as ``run_memory_chaos`` computes it so the float is identical.
HEALTHY_TRANSFER_S = 1.0e-4 + 1.0e6 * 8.0 / (10.0 * 4 / 4 * 1e9)

SEARCH_CONFIG = {"replica_slots": 1, "hedge_delay_s": 1.0e-3}
MEMORY_CONFIG = {"max_attempts": 2, "deadline_s": HEALTHY_TRANSFER_S}

COUNTER_PREFIXES = ("resilience.", "faults.")

EXPECTED_COUNTERS = {
    "X12": {
        "faults.injected.link-flap": 6,
        "faults.injected.straggler": 6,
        "faults.repaired.link-flap": 6,
        "faults.repaired.straggler": 6,
        "resilience.deadline.expired": 144,
        "resilience.hedge.calls": 600,
        "resilience.hedge.extra_copies": 75,
        "resilience.hedge.hedged_wins": 74,
        "resilience.retry.attempts": 544,
        "resilience.retry.failures": 144,
        "resilience.retry.recovered": 144,
    },
    "X17": {
        "faults.injected.link-flap": 24,
        "faults.injected.straggler": 32,
        "faults.repaired.link-flap": 24,
        "faults.repaired.straggler": 32,
        "resilience.deadline.expired": 808,
        "resilience.hedge.calls": 2713,
        "resilience.hedge.extra_copies": 448,
        "resilience.hedge.hedged_wins": 424,
        "resilience.retry.attempts": 2766,
        "resilience.retry.failures": 808,
        "resilience.retry.recovered": 808,
    },
}

EXPECTED_DIGESTS = {
    "X12.search.off": "7224b471c59ed1e7b8088c4a9a9430d2a5ace3f8a83fec2f4e59042827378db3",
    "X12.search.hedged": "6add2a8bed6172513fe5ba7ad7dd4a3c5f9c3b19373e67240d6f4faa9cb4262d",
    "X12.memory.off": "72c80b11d4080e1c0a161ddf5d7d126eaac60bbb88b945427c4a75092b204987",
    "X12.memory.resilient": "b5f09bba1451c047dddb320eee927f57df7a80f088b9329fbf4f5e15334421d8",
    "X17.search.off": "633ded6cd5f6fbdb686e964b889e417633c5a9a790610a235e0ce428a171351f",
    "X17.search.hedged": "d4be8625bea027f835bb3f474e0d2365fa28db20f6c1a32f0e11280e2ef9506f",
    "X17.memory.off": "fc55fbbf474e95f2c27dedce226f930cbde9759f5f5fd9942923791df74f1f7a",
    "X17.memory.resilient": "207742fe40ce59e2b6cf23da61f38a9c82992c418eecd2efab275602cf04f78b",
}


def _inputs(part: str, source: str) -> dict:
    """Keyword inputs for one chaos body: X12's or X17's flash crowd."""
    if source == "X12":
        if part == "search":
            return search_inputs(600, seed=0)
        return memory_inputs(400, seed=0)
    if part == "search":
        trace = scenario_trace(
            regime_spec("flash_crowd", 700.0, 0.8, n_clients=N_REPLICAS,
                        client_skew=0.6),
            RandomStream(0, "load").fork("search").seed,
        )
        return {
            "arrivals_s": trace["times_s"],
            "primaries": trace["client_ids"],
            "base_service_s": trace["session_lengths_s"],
            "fault_end_s": 0.8,
        }
    times = scenario_trace(
        regime_spec("flash_crowd", 400.0, 1.0),
        RandomStream(0, "load").fork("memory").seed,
    )["times_s"]
    return {"arrivals_s": times, "fault_end_s": 1.0,
            "backoff_stream": "load.memory.backoff"}


def _digest(metrics: dict) -> str:
    text = json.dumps(metrics, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def trace_counters(experiment_id: str) -> dict:
    """The pinned counter rows of ``repro trace <id>`` at seed 0."""
    counters = run_trace(experiment_id, seed=0).snapshot()["counters"]
    return {
        name: value for name, value in sorted(counters.items())
        if name.startswith(COUNTER_PREFIXES)
    }


def config_digests() -> dict:
    """``{"<source>.<part>.<policy>": sha256}`` at the non-default configs."""
    table = {}
    for source in ("X12", "X17"):
        search = _inputs("search", source)
        for policy in SEARCH_POLICIES:
            metrics = run_search_chaos(policy, seed=0, **search, **SEARCH_CONFIG)
            table[f"{source}.search.{policy}"] = _digest(metrics)
        memory = _inputs("memory", source)
        for policy in MEMORY_POLICIES:
            metrics = run_memory_chaos(policy, seed=0, **memory, **MEMORY_CONFIG)
            table[f"{source}.memory.{policy}"] = _digest(metrics)
    return table


@pytest.mark.parametrize("experiment_id", ["X12", "X17"])
def test_trace_counters_match_pins(experiment_id):
    assert trace_counters(experiment_id) == EXPECTED_COUNTERS[experiment_id]


def test_non_default_config_digests_match_pins():
    assert config_digests() == EXPECTED_DIGESTS


if __name__ == "__main__":
    print(json.dumps(
        {
            "counters": {eid: trace_counters(eid) for eid in ("X12", "X17")},
            "digests": config_digests(),
        },
        indent=4, sort_keys=True,
    ))

"""X15 (``repro.workloads.servicesim``): pinned outputs and checked docs.

Three guarantees:

1. **Pinned metrics.** SHA-256 digests of the X15 metrics (sorted-key
   JSON, full float precision) for quick seeds 0-7, for three
   non-default configs that drive the shed, per-client-cap and heavy-
   coalescing paths, and for the full-size seed 0. The simulation's
   request paths may be restructured (processes, callbacks, bulk
   arrival injection) only if every digest stays put: each one depends
   on the exact order in which same-time calendar entries run.
2. **Documented numbers are checked data.** The EXPERIMENTS.md X15
   figures for full-size seed 0, at their printed precision.
3. **Named errors.** Service jobs carry config overrides over the wire,
   so every invalid ``run_service_traffic`` input must fail with
   :class:`~repro.errors.ModelError` before the simulation starts.

Recompute a digest only for a deliberate model change:
    PYTHONPATH=src python -c "from tests.test_workloads_servicesim \
        import metrics_digest; from repro.runner import run_experiment; \
        print(metrics_digest(run_experiment('X15', seed=0).metrics))"
"""

import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ModelError
from repro.runner import run_experiment
from repro.workloads.servicesim import (
    ADMISSION_POLICIES,
    run_service_traffic,
    service_exhibit,
)

#: X15's registered quick problem size (QUICK_CONFIGS["X15"]).
_X15_QUICK = {"n_requests": 3_000}

QUICK_DIGESTS = {
    0: "19d87a5858278226b67ae6a4d9f13b73be0b9d04767018f2773d576a5b88d672",
    1: "a6414c60f238387ba67a72a649791d26073e58ab13445099c5c6fa335a8e499c",
    2: "07e8b272a06cca4812e3e49a7d69c3e7b278fd8a6fc643c06c43a98172304427",
    3: "ebba2d928d6c37389cc2a943529a90041da52113277d1f60b4f88cb9fc2c6f6e",
    4: "290811e7281391a0370833eec554aefae44c978d79f401bf77bb00920fade1e1",
    5: "da13beb1e07c144b4d8c88e71ad48947bd0969a9f3d7dd6307f611de73fbfe37",
    6: "0b9e5233b8e6765376a5652d7f486cefd2db0f549c885406202cabbe3d455912",
    7: "e83044b177c1f098db7e09b3e222f585877793d1f017b43599b799b4d706d4e3",
}

# (overrides, digest) at 3,000 requests, seed 0. Shed: a fast arrival
# rate against an 8-deep queue (bounded sheds ~40%). Client cap: five
# clients, one heavy, one in-flight request each (fair's cap sheds
# ~1,500). Heavy coalescing: 0.2 s executions over 2,000 kinds (about
# half of open's requests join a running execution).
CONFIG_DIGESTS = [
    (
        {"arrival_rate_hz": 6_000.0, "queue_cap": 8, "per_client_cap": 1},
        "b3f49a81b3d4a887906941e26f37bfcd87fb5345ac2d9d84f814a068264d44db",
    ),
    (
        {"n_workers": 2, "n_clients": 5, "client_skew": 2.5,
         "per_client_cap": 1},
        "4383902b41bed6ebb29b6c15291c55b566893f193fc9e2774fa87b1212d65b0c",
    ),
    (
        {"service_median_s": 0.2, "n_job_kinds": 2_000},
        "3445e9497dd1a5ae6fcde70901f40e4ace5eda74b481218df12b7255e779ab75",
    ),
]

FULL_SEED0_DIGEST = (
    "e993747b25ef80c15a110d6301d09f4c62b6da28efd0490609cab70a60f18eac"
)


def metrics_digest(metrics):
    """SHA-256 of the metrics as sorted-key JSON (floats at full repr)."""
    payload = json.dumps(metrics, sort_keys=True).encode()
    return hashlib.sha256(payload).hexdigest()


@pytest.fixture(scope="module")
def full_seed0():
    """The registered full-size X15 run (50,000 requests), seed 0."""
    result = run_experiment("X15", seed=0)
    assert result.ok, result.error
    return result.metrics


class TestPinnedMetrics:
    @pytest.mark.parametrize("seed", sorted(QUICK_DIGESTS))
    def test_quick_seed(self, seed):
        result = run_experiment("X15", config=_X15_QUICK, seed=seed)
        assert result.ok, result.error
        assert metrics_digest(result.metrics) == QUICK_DIGESTS[seed]

    @pytest.mark.parametrize(
        "overrides,digest", CONFIG_DIGESTS,
        ids=["shed", "client_cap", "heavy_coalescing"],
    )
    def test_non_default_config(self, overrides, digest):
        metrics = service_exhibit(n_requests=3_000, seed=0,
                                  overrides=overrides)
        assert metrics_digest(metrics) == digest

    def test_full_size_seed0(self, full_seed0):
        assert metrics_digest(full_seed0) == FULL_SEED0_DIGEST


class TestDocumentedNumbers:
    # EXPERIMENTS.md, X15 "Measured, full exhibit" paragraph: each
    # figure at the precision it is printed with.
    def test_experiments_md_figures(self, full_seed0):
        m = full_seed0
        assert f"{m['open.p99_s'] * 1e3:.1f}" == "171.3"
        assert f"{m['bounded.p99_s'] * 1e3:.1f}" == "84.6"
        assert f"{m['p99_improvement']:.1%}" == "50.6%"
        assert f"{m['bounded.shed_rate']:.2%}" == "0.30%"
        assert f"{m['fair.shed_rate']:.2%}" == "0.46%"
        assert m["fair.shed_client_cap"] == 161
        assert f"{m['execution_savings']:.1%}" == "90.8%"
        assert m["open.executed"] == 4_604
        assert m["open.n_requests"] == 50_000
        assert m["open.n_faults"] == 21


#: Every numeric run_service_traffic input the validation covers.
_NUMERIC_INPUTS = (
    "n_requests", "arrival_rate_hz", "n_workers", "queue_cap",
    "per_client_cap", "n_clients", "client_skew", "n_job_kinds",
    "popularity_skew", "service_median_s", "service_sigma",
    "spine_mtbf_s", "spine_mttr_s",
)

#: The drawn edge values that are valid inputs, per parameter.
_LEGAL_EDGE_VALUES = {
    "queue_cap": (0, float("inf")),
    "per_client_cap": (0, float("inf")),
    "client_skew": (0,),
    "popularity_skew": (0,),
    "service_sigma": (0,),
}

#: A run small enough that the valid draws (a zero or infinite cap, a
#: zero skew or sigma) finish in milliseconds.
_SMALL = {"n_requests": 40, "n_job_kinds": 30}


class TestInputValidation:
    # Each of these escaped as a bare or misleading error before the
    # inputs were validated up front (ZeroDivisionError, a ProcessFailure
    # wrapping KeyError, ValueError, "fault window must end after it
    # starts").
    @pytest.mark.parametrize("name,value", [
        ("arrival_rate_hz", 0.0),
        ("arrival_rate_hz", float("nan")),
        ("arrival_rate_hz", -2_000.0),
        ("arrival_rate_hz", float("inf")),
        ("n_clients", 0),
        ("n_requests", 0),
        ("n_workers", 2.5),
        ("queue_cap", float("nan")),
        ("service_median_s", float("inf")),
        ("spine_mttr_s", 0.0),
    ])
    def test_invalid_input_is_named(self, name, value):
        with pytest.raises(ModelError, match=name):
            run_service_traffic("bounded", **{**_SMALL, name: value})

    @settings(max_examples=150, deadline=None)
    @given(
        policy=st.sampled_from(ADMISSION_POLICIES),
        name=st.sampled_from(_NUMERIC_INPUTS),
        value=st.one_of(
            st.sampled_from([float("nan"), float("inf"), float("-inf"),
                             0, 0.0, -0.0]),
            st.integers(max_value=-1),
            st.floats(max_value=-1e-300, allow_nan=False),
        ),
    )
    def test_only_model_error_escapes(self, policy, name, value):
        try:
            metrics = run_service_traffic(policy, **{**_SMALL, name: value})
        except ModelError:
            return
        # Accepted only where the value is legal: a zero or infinite
        # cap, or a zero skew or sigma.
        assert value in _LEGAL_EDGE_VALUES.get(name, ())
        assert metrics["policy"] == policy

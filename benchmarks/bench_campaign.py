"""Benchmarks (S2): campaign sweep throughput in scenarios per second.

The campaign engine's unit of work is the *scenario* (one full
simulation run dispatched, executed and persisted).  Two rates are
tracked, one per dispatch engine: inline (``workers=1``, the
per-scenario overhead floor) and the supervised pool (``workers=2``),
whose ratio is reported as ``speedup`` in ``extra_info`` — so parallel
scaling is *measured*, not assumed.  On a single-core runner the pooled
rate may legitimately sit below 1× (pipe + fork overhead); the
benchmark asserts correctness and a sane floor, and records the rest.
"""

from __future__ import annotations

import itertools

import pytest

from repro.campaign import CampaignSpec, ResultStore, run_campaign

_counter = itertools.count()

# A grid big enough to amortize pool startup, small enough for CI:
# 3 topologies x 2 rates x 2 fault levels x 2 seeds = 24 scenarios.
SPEC = CampaignSpec(
    topologies=("omega", "baseline", "flip"),
    stages=(5,),
    traffic=("uniform",),
    rates=(0.6, 0.9),
    faults=(0, 2),
    seeds=(0, 1),
    cycles=100,
)

MIN_SCENARIOS_PER_SEC = 5.0  # sanity floor, far below any healthy run


def _sweep(tmp_path, workers: int) -> dict:
    store = tmp_path / f"sweep-{next(_counter)}.jsonl"
    summary = run_campaign(SPEC, store, workers=workers)
    assert summary["ran"] == SPEC.n_scenarios
    assert len(ResultStore(store)) == SPEC.n_scenarios
    return summary


@pytest.fixture(scope="module")
def rates() -> dict:
    """Scenario rates shared by the benches for the speedup ratio."""
    return {}


def bench_campaign_inline(benchmark, tmp_path, rates):
    benchmark(_sweep, tmp_path, 1)
    rate = SPEC.n_scenarios / benchmark.stats.stats.mean
    rates["inline"] = rate
    benchmark.extra_info["backend"] = "numpy"
    benchmark.extra_info["scenarios_per_sec"] = round(rate, 1)
    assert rate >= MIN_SCENARIOS_PER_SEC


def bench_campaign_pool2(benchmark, tmp_path, rates):
    benchmark(_sweep, tmp_path, 2)
    rate = SPEC.n_scenarios / benchmark.stats.stats.mean
    benchmark.extra_info["backend"] = "numpy"
    benchmark.extra_info["scenarios_per_sec"] = round(rate, 1)
    if "inline" in rates:
        benchmark.extra_info["speedup"] = round(rate / rates["inline"], 2)
    assert rate >= MIN_SCENARIOS_PER_SEC

"""Kernel-pair invariance of the whole design-space exploration.

Each kernel family has a production backend and a ``reference`` oracle that
must agree bit for bit.  Every neighbourhood is scored trial by trial
through the memoized scalar entry points, so for every (SFP, scheduler) pair
of backends the exploration must return the same designs *and* issue the
same memo lookups as the ``reference`` pair: the search effort, the computed
design points and the hit/miss totals are all backend-independent.  The
API-level checks pin the same property on the checked-in golden payload and
on the counter keys a report and its progress events expose.
"""

from __future__ import annotations

import json
from itertools import product
from pathlib import Path

import pytest

from repro import api
from repro.core.design_strategy import DesignStrategy
from repro.core.fault_model import SER_MEDIUM
from repro.core.mapping import MappingAlgorithm
from repro.engine import EvaluationEngine
from repro.experiments.synthetic import STRATEGIES
from repro.generator.benchmark import (
    BenchmarkConfig,
    build_platform,
    generate_benchmark_suite,
)

from tests.conftest import SCHED_BACKENDS, SFP_BACKENDS, production_kernels

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "golden"

KERNEL_PAIRS = list(product(SFP_BACKENDS, SCHED_BACKENDS))
PAIR_IDS = [f"{sfp}+{sched}" for sfp, sched in KERNEL_PAIRS]

#: The cache counters a report exposes: hit/miss accounting of the memo
#: tables, search effort, computed points and the persistent store's share.
CACHE_KEYS = {
    "hits",
    "misses",
    "search_evaluations",
    "points_computed",
    "hit_rate",
    "disk_hits",
    "disk_entries_loaded",
}


@pytest.fixture(scope="module")
def platform():
    benchmark = generate_benchmark_suite(
        count=1,
        base_seed=17,
        config=BenchmarkConfig(n_node_types=3),
        process_counts=(12,),
    )[0]
    node_types, profile = build_platform(
        benchmark, ser_per_cycle=SER_MEDIUM, hardening_performance_degradation=25.0
    )
    return benchmark.application, node_types, profile


def _explore(platform, strategy_name, sfp, sched):
    application, node_types, profile = platform
    algorithm = MappingAlgorithm(
        strategy_name, max_iterations=3, stop_after_no_improvement=2, max_candidates=2
    )
    with production_kernels(sfp=SFP_BACKENDS[sfp], sched=SCHED_BACKENDS[sched]):
        engine = EvaluationEngine(application, profile)
        result = DesignStrategy(node_types, algorithm).explore(
            application, profile, engine=engine
        )
    return result, engine


def _observable(result, engine):
    return {
        "feasible": result.feasible,
        "node_types": result.node_types,
        "hardening": result.hardening,
        "reexecutions": result.reexecutions,
        "mapping": result.mapping.as_dict() if result.mapping is not None else None,
        "schedule_length": result.schedule_length,
        "cost": result.cost,
        "meets_reliability": result.meets_reliability,
        "failure_reason": result.failure_reason,
        "evaluations": result.evaluations,
        "engine_evaluations": engine.evaluations,
        "engine_caches": engine.stats_by_cache(),
    }


@pytest.fixture(scope="module")
def reference_runs(platform):
    return {
        name: _observable(*_explore(platform, name, "reference", "reference"))
        for name in STRATEGIES
    }


@pytest.mark.parametrize("strategy_name", sorted(STRATEGIES))
@pytest.mark.parametrize("sfp, sched", KERNEL_PAIRS, ids=PAIR_IDS)
def test_exploration_is_identical_on_every_kernel_pair(
    platform, reference_runs, strategy_name, sfp, sched
):
    result, engine = _explore(platform, strategy_name, sfp, sched)
    assert engine.kernel.name == sfp
    assert _observable(result, engine) == reference_runs[strategy_name]
    assert engine.stats.misses > 0


def _counting(kernel, methods, calls):
    """A fresh backend of ``kernel``'s class that counts its contract calls."""
    fresh = type(kernel)()
    for method in methods:
        bound = getattr(fresh, method)

        def counted(*args, _bound=bound, _method=method):
            calls[_method] = calls.get(_method, 0) + 1
            return _bound(*args)

        setattr(fresh, method, counted)
    return fresh


@pytest.mark.parametrize("sfp, sched", KERNEL_PAIRS, ids=PAIR_IDS)
def test_the_whole_stack_runs_on_the_swapped_pair(platform, sfp, sched):
    """The swap reaches every layer: the engine's SFP misses, every scored
    design point and every schedule the search reads run on the pair's own
    instances."""
    sfp_calls, sched_calls = {}, {}
    sfp_kernel = _counting(
        SFP_BACKENDS[sfp], ("probability_exceeds", "system_failure"), sfp_calls
    )
    sched_kernel = _counting(
        SCHED_BACKENDS[sched], ("worst_case_length", "build_schedule"), sched_calls
    )
    application, node_types, profile = platform
    algorithm = MappingAlgorithm(max_iterations=1, stop_after_no_improvement=1, max_candidates=1)
    with production_kernels(sfp=sfp_kernel, sched=sched_kernel):
        engine = EvaluationEngine(application, profile)
        DesignStrategy(node_types, algorithm).explore(application, profile, engine=engine)
    assert engine.kernel is sfp_kernel
    assert sfp_calls["probability_exceeds"] > 0 and sfp_calls["system_failure"] > 0
    assert engine.evaluations > 0
    assert sched_calls["worst_case_length"] == engine.evaluations
    assert sched_calls["build_schedule"] > 0


@pytest.mark.parametrize("sfp, sched", KERNEL_PAIRS, ids=PAIR_IDS)
def test_synthetic_random_smoke_matches_the_golden_on_every_pair(sfp, sched):
    with production_kernels(sfp=SFP_BACKENDS[sfp], sched=SCHED_BACKENDS[sched]):
        report = api.run(
            "synthetic-random",
            api.RunConfig(preset="smoke", scenario_params={"n_processes": 10, "seed": 3}),
        )
    golden = json.loads(
        (GOLDEN_DIR / "synthetic_random_smoke.json").read_text(encoding="utf-8")
    )
    assert report.results == golden
    assert set(report.cache) == CACHE_KEYS


def test_progress_events_carry_exactly_the_scalar_counters():
    events = []
    with api.Session(api.RunConfig(preset="smoke"), progress=events.append) as session:
        report = session.run("fig6a")
    progress = [event for event in events if event["event"] == "setting_progress"]
    assert progress
    for event in progress:
        assert set(event) == CACHE_KEYS | {"event", "ser", "hpd", "completed", "total"}
    assert set(report.cache) == CACHE_KEYS
    assert report.cache["points_computed"] > 0

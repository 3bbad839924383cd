"""Literal pins of the engine counters a :class:`RunReport` carries.

``RunReport.cache`` is the run's account of the evaluation engine's work:
memo hits and misses, design points computed, design points the tabu
searches examined, and the persistent store's share.  These tests pin the
exact values of a fast-preset Fig. 6a→6d session and of a cold→warm
``synthetic-random`` smoke run through one store, so a refactor of where
the counters are collected cannot change what they say.  A session's
counters are cumulative: Fig. 6b reuses every Fig. 6a setting, so it reads
the same numbers.
"""

from __future__ import annotations

from typing import Dict

import pytest

from repro import api


def _cache(hits: int, misses: int, search: int, computed: int, disk_hits: int = 0,
           loaded: int = 0) -> Dict[str, float]:
    return {
        "hits": hits,
        "misses": misses,
        "search_evaluations": search,
        "points_computed": computed,
        "disk_hits": disk_hits,
        "disk_entries_loaded": loaded,
        "hit_rate": hits / (hits + misses),
    }


FIG6_SESSION_CACHE = {
    "fig6a": _cache(51_282, 34_513, 1_896, 4_326),
    "fig6b": _cache(51_282, 34_513, 1_896, 4_326),
    "fig6c": _cache(99_748, 64_516, 3_136, 7_575),
    "fig6d": _cache(139_778, 85_427, 3_576, 9_529),
}

SMOKE_PARAMS = {"n_processes": 10, "seed": 3}


@pytest.fixture(scope="module")
def fig6_session_cache() -> Dict[str, Dict[str, float]]:
    with api.Session(api.RunConfig(preset="fast")) as session:
        return {scenario: session.run(scenario).cache for scenario in FIG6_SESSION_CACHE}


@pytest.mark.parametrize("scenario", sorted(FIG6_SESSION_CACHE))
def test_fig6_session_counters_are_pinned(fig6_session_cache, scenario):
    assert fig6_session_cache[scenario] == FIG6_SESSION_CACHE[scenario]


def test_synthetic_random_cold_and_warm_counters_are_pinned(tmp_path):
    reports = [
        api.run(
            "synthetic-random",
            api.RunConfig(preset="smoke", cache_dir=tmp_path, scenario_params=SMOKE_PARAMS),
        )
        for _ in ("cold", "warm")
    ]
    cold, warm = (report.cache for report in reports)
    assert cold == _cache(8_086, 4_244, 178, 686)
    # The warm run reads every design point from disk: no miss, nothing
    # computed, and the search examines exactly the points it did cold.
    assert warm == _cache(189, 0, 178, 0, disk_hits=189, loaded=4_244)
    assert warm["disk_hits"] == warm["hits"]
    assert warm["search_evaluations"] == cold["search_evaluations"]

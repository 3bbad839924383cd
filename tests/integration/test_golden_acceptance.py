"""Golden regression fixtures for the Fig. 6a–6d fast-preset scenarios.

The checked-in JSON files under ``tests/golden/`` pin the exact payload of
each fast-preset Fig. 6 scenario — its fixed setting and its acceptance
percentages — run on the session-shared ``fast_session`` fixture.  Kernel
backends, engine caching, the persistent store and parallelism are all
required to be bit-identical transformations — so *any* drift in these
fixtures is a correctness bug, not noise, and the equality diff names the
exact setting that moved.  Regenerate deliberately (only when the
experiment definition itself changes) by rerunning the scenario and
rewriting the JSON.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "golden"

FIG6_GOLDENS = {
    "fig6a": "fig6a_fast.json",
    "fig6b": "fig6b_fast.json",
    "fig6c": "fig6c_fast.json",
    "fig6d": "fig6d_fast.json",
}


def _load(name: str) -> dict:
    with (GOLDEN_DIR / name).open(encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.parametrize("scenario", sorted(FIG6_GOLDENS))
def test_fig6_payload_matches_golden(fast_session, scenario):
    assert fast_session.run(scenario).results == _load(FIG6_GOLDENS[scenario])


def test_goldens_cover_all_strategies():
    """The fixtures themselves must stay structurally complete."""
    fig6a = _load("fig6a_fast.json")
    assert set(fig6a["acceptance"]) == {"5", "25", "50", "100"}
    for values in fig6a["acceptance"].values():
        assert set(values) == {"MIN", "MAX", "OPT"}
    fig6b = _load("fig6b_fast.json")
    for per_arc in fig6b["acceptance"].values():
        assert set(per_arc) == {"15", "20", "25"}
    for name in ("fig6c_fast.json", "fig6d_fast.json"):
        assert set(_load(name)["acceptance"]) == {"1e-10", "1e-11", "1e-12"}

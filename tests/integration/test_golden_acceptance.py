"""Golden regression fixtures for the Fig. 6a–6d fast-preset sweeps.

The checked-in JSON files under ``tests/golden/`` pin the exact acceptance
percentages of the fast preset, computed on the session-shared
``fast_experiment`` fixture.  Kernel backends, engine caching, the
persistent store and parallelism are all required to be bit-identical
transformations — so *any* drift in these fixtures is a correctness bug, not
noise, and the diff in the failure message names the exact setting that
moved.  Regenerate deliberately (only when the experiment definition itself
changes) by rerunning the sweep and rewriting the JSON.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.fault_model import SER_MEDIUM
from repro.experiments.synthetic import (
    figure_6a_hpd_sweep,
    figure_6b_cost_table,
    figure_6c_ser_sweep,
    figure_6d_ser_sweep,
)

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "golden"


def _load(name: str) -> dict:
    with (GOLDEN_DIR / name).open(encoding="utf-8") as handle:
        return json.load(handle)


def test_fig6a_acceptance_matches_golden(fast_experiment):
    golden = _load("fig6a_fast.json")
    assert golden["ser"] == SER_MEDIUM
    sweep = figure_6a_hpd_sweep(fast_experiment)
    produced = {f"{hpd:g}": values for hpd, values in sweep.items()}
    assert produced == golden["acceptance"]


def test_fig6b_acceptance_matches_golden(fast_experiment):
    golden = _load("fig6b_fast.json")
    table = figure_6b_cost_table(fast_experiment)
    produced = {
        f"{hpd:g}": {f"{arc:g}": values for arc, values in per_arc.items()}
        for hpd, per_arc in table.items()
    }
    assert produced == golden["acceptance"]


@pytest.mark.parametrize(
    "name, hpd, ser_sweep",
    [
        ("fig6c_fast.json", 5.0, figure_6c_ser_sweep),
        ("fig6d_fast.json", 100.0, figure_6d_ser_sweep),
    ],
)
def test_ser_sweep_acceptance_matches_golden(fast_experiment, name, hpd, ser_sweep):
    golden = _load(name)
    assert golden["hpd"] == hpd
    assert set(golden["acceptance"]) == {"1e-10", "1e-11", "1e-12"}
    sweep = ser_sweep(fast_experiment)
    produced = {f"{ser:g}": values for ser, values in sweep.items()}
    assert produced == golden["acceptance"]


def test_goldens_cover_all_strategies():
    """The fixtures themselves must stay structurally complete."""
    fig6a = _load("fig6a_fast.json")
    assert set(fig6a["acceptance"]) == {"5", "25", "50", "100"}
    for values in fig6a["acceptance"].values():
        assert set(values) == {"MIN", "MAX", "OPT"}
    fig6b = _load("fig6b_fast.json")
    for per_arc in fig6b["acceptance"].values():
        assert set(per_arc) == {"15", "20", "25"}

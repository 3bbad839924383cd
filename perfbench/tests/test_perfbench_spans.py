"""Self-time arithmetic and patch restoration of the benchmark's span tracer."""

from __future__ import annotations

import json

import pytest

from perfbench import spans
from perfbench.checks import GOLDEN_DIR


def test_self_time_subtracts_children_and_inclusive_time_counts_outer_spans_once():
    tree = [
        ["a", "outer", 0.0, 10.0, -1],
        ["b", "child", 1.0, 4.0, 0],
        ["a", "re-entered", 5.0, 9.0, 0],
        ["c", "grandchild", 6.0, 7.0, 2],
    ]
    table = spans.layer_table(tree)
    assert table["a"] == {"s": 10.0, "self_s": (10.0 - 3.0 - 4.0) + (4.0 - 1.0), "calls": 2}
    assert table["b"] == {"s": 3.0, "self_s": 3.0, "calls": 1}
    assert table["c"] == {"s": 1.0, "self_s": 1.0, "calls": 1}


def test_overlapping_children_are_covered_once():
    tree = [
        ["a", "parent", 0.0, 10.0, -1],
        ["b", "first", 1.0, 5.0, 0],
        ["b", "second", 3.0, 8.0, 0],
        ["b", "past the end", 9.5, 12.0, 0],
    ]
    assert spans.layer_table(tree)["a"]["self_s"] == pytest.approx(10.0 - 7.0 - 0.5)


def test_traced_run_restores_every_patched_attribute_by_identity():
    from repro.api import RunConfig, run

    tracer = spans.Tracer()
    patches = spans.install(tracer)
    saved = list(patches.saved)
    try:
        report = run(
            "synthetic-random",
            RunConfig(preset="smoke", scenario_params={"n_processes": 10, "seed": 3}),
        )
    finally:
        patches.restore()

    assert patches.saved == []
    for owner, name, original in saved:
        assert vars(owner).get(name, spans._MISSING) is original, (owner, name)
    # Names bound with ``from ... import`` are wrapped where they are looked up.
    import repro.api.scenarios_synthetic as scenarios_synthetic
    import repro.experiments.synthetic as synthetic

    bindings = {(owner, name) for owner, name, _ in saved}
    assert (scenarios_synthetic, "generate_benchmark") in bindings
    assert (synthetic, "build_platform") in bindings
    layers = {span[0] for span in tracer.spans}
    assert {"generator", "scheduling", "core.redundancy", "kernels.sfp"} <= layers
    assert tracer.engines
    # Tracing observes; it never changes an answer.
    golden = json.loads((GOLDEN_DIR / "synthetic_random_smoke.json").read_text(encoding="utf-8"))
    assert report.results == golden


def test_a_failed_install_leaves_nothing_patched(monkeypatch):
    tracer = spans.Tracer()
    monkeypatch.setitem(spans.KERNEL_ENTRY_POINTS, "broken", ("no-such-family", ("x",)))
    import repro.core.mapping as mapping

    before = vars(mapping.MappingAlgorithm)["optimize"]
    with pytest.raises(KeyError):
        spans.install(tracer)
    assert vars(mapping.MappingAlgorithm)["optimize"] is before

"""The runtime determinism sanitizer on real runs.

Three contracts:

* a clean fast-preset run under the sanitizer is *silent* (no violations)
  and produces the same report as an unsanitized run — the sanitizer
  observes, it never changes behaviour;
* the CLI surface (``run --sanitize``) prints the empty sanitizer summary
  to stderr and keeps exit code 0 on a clean run;
* a seeded defect (an unpicklable pool task) is caught by *both* layers —
  the static R006 rule and the runtime sanitizer — with matching rule ids.
"""

from __future__ import annotations

import pickle
import sys
import textwrap
import types
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.api import RunConfig, run as api_run
from repro.cli import main as cli_main
from repro.lint import RULES
from repro.lint.project import Project
from repro.lint.sanitizer import SANITIZE_ENV, DeterminismSanitizer


def test_fast_preset_run_is_sanitizer_silent():
    config = RunConfig(preset="fast")
    with DeterminismSanitizer() as sanitizer:
        sanitized = api_run("synthetic-random", config)
    assert sanitizer.violations == [], [
        violation.format_text() for violation in sanitizer.violations
    ]
    plain = api_run("synthetic-random", config)
    assert sanitized.results == plain.results
    assert sanitized.params == plain.params


def test_cli_sanitize_flag_clean_run(capsys, monkeypatch):
    monkeypatch.delenv(SANITIZE_ENV, raising=False)
    exit_code = cli_main(["run", "synthetic-random", "--preset", "fast", "--sanitize"])
    captured = capsys.readouterr()
    assert exit_code == 0, captured.err
    assert "sanitizer: 0 violation(s)" in captured.err
    # The flag exports the env opt-in so pool workers inherit it.
    import os

    assert os.environ.get(SANITIZE_ENV) == "1"


def test_injected_unpicklable_task_caught_by_both_layers():
    # --- static layer: the same defect as fixture source --------------
    project = Project.from_sources(
        {
            "repro.experiments.injected": textwrap.dedent(
                """
                from concurrent.futures import ProcessPoolExecutor

                def sweep(values):
                    with ProcessPoolExecutor() as pool:
                        return list(pool.map(lambda v: v + 1, values))
                """
            )
        }
    )
    (rule,) = [rule for rule in RULES if rule.rule_id == "R006"]
    static_rules = {v.rule for v in rule.check(project)}
    assert static_rules == {"R006"}

    # --- dynamic layer: the same defect actually executed -------------
    fixture = types.ModuleType("repro.experiments.injected_runtime")
    sys.modules["repro.experiments.injected_runtime"] = fixture
    exec(
        compile(
            "def sweep(pool, values):\n"
            "    return pool.submit(len, [lambda v: v + 1 for v in values])\n",
            "<repro-injected-task>",
            "exec",
        ),
        fixture.__dict__,
    )
    try:
        with DeterminismSanitizer() as sanitizer:
            with ProcessPoolExecutor(max_workers=1) as pool:
                future = fixture.sweep(pool, [1, 2])
                with pytest.raises((pickle.PicklingError, AttributeError)):
                    future.result()
        dynamic_rules = {v.rule for v in sanitizer.violations}
        assert dynamic_rules == {"R006"}
        # Both layers name the same invariant.
        assert dynamic_rules == static_rules
    finally:
        del sys.modules["repro.experiments.injected_runtime"]

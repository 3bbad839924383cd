"""API ↔ CLI ↔ golden-fixture equivalence.

``repro-ftes run fig6a --preset fast --output ...`` must write the results
payload the API produces, the checked-in golden fixture (the Fig. 6 payloads
themselves are compared in ``test_golden_acceptance.py``).  The fixed
studies and the ``synthetic-random`` smoke point are pinned here too.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro import api
from repro.cli import main

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "golden"
DIFF_SCRIPT = Path(__file__).resolve().parents[2] / "scripts" / "diff_report_golden.py"


def _load(name: str) -> dict:
    with (GOLDEN_DIR / name).open(encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def fig6a_report(fast_session) -> api.RunReport:
    return fast_session.run("fig6a")


def test_synthetic_random_smoke_matches_the_golden_fixture():
    # Kernel-independent determinism gate for the parameterized family: the
    # full MIN/MAX/OPT exploration of one small generated application must
    # reproduce the checked-in payload bit for bit.
    report = api.run(
        "synthetic-random",
        api.RunConfig(preset="smoke", scenario_params={"n_processes": 10, "seed": 3}),
    )
    assert report.results == _load("synthetic_random_smoke.json")


@pytest.mark.parametrize(
    "scenario, golden",
    [("motivational", "motivational.json"), ("cruise-control", "cruise_control.json")],
)
def test_fixed_study_payload_equals_the_golden_fixture(scenario, golden):
    # The motivational examples and the cruise-control study evaluate their
    # design points one call at a time, each on the engine it creates.
    assert api.run(scenario).results == _load(golden)


def test_generic_run_driver_writes_a_golden_matching_report(tmp_path, capsys):
    output = tmp_path / "report.json"
    exit_code = main(
        ["run", "fig6a", "--preset", "fast", "--output", str(output)]
    )
    capsys.readouterr()
    assert exit_code == 0
    report = api.RunReport.from_json(output.read_text(encoding="utf-8"))
    assert report.results == _load("fig6a_fast.json")


def _diff_against_golden(tmp_path, report):
    path = tmp_path / "report.json"
    path.write_text(report.to_json(), encoding="utf-8")
    return subprocess.run(
        [sys.executable, str(DIFF_SCRIPT), str(path), str(GOLDEN_DIR / "fig6a_fast.json")],
        capture_output=True,
        text=True,
    )


def test_diff_script_accepts_a_report_matching_the_golden(tmp_path, fig6a_report):
    completed = _diff_against_golden(tmp_path, fig6a_report)
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.startswith("OK: ")
    assert "('fig6a')" in completed.stdout


def test_diff_script_names_every_diverging_key(tmp_path, fig6a_report):
    results = json.loads(json.dumps(fig6a_report.results))
    results["acceptance"]["5"]["OPT"] = -1.0
    diverged = api.RunReport(fig6a_report.scenario, fig6a_report.config, results)
    completed = _diff_against_golden(tmp_path, diverged)
    assert completed.returncode == 1
    assert "DIFF acceptance.5.OPT: report=-1.0 golden=100.0" in completed.stderr

"""Every script under ``examples/`` runs to completion and prints its result.

Each example runs in a fresh interpreter from an empty working directory,
as a reader would start it, so an example that needs the repository root
as its working directory, or leaves files behind, fails here.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]

#: Example script -> a line it prints only when its computation finished.
EXAMPLES = {
    "api_quickstart": "design points computed in",
    "quickstart": "worst-case schedule length: 345.0",
    "design_space_exploration": "OPT   100.0 % accepted",
    "fault_injection_campaign": "h=5: k=2, worst-case schedule 73.0 ms (meets deadline)",
    "validate_design": "validation PASSED",
}


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_example_runs(tmp_path, name):
    completed = subprocess.run(
        [sys.executable, str(ROOT / "examples" / f"{name}.py")],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    assert EXAMPLES[name] in completed.stdout
    assert list(tmp_path.iterdir()) == []


def test_every_example_is_run():
    assert {path.stem for path in (ROOT / "examples").glob("*.py")} == set(EXAMPLES)

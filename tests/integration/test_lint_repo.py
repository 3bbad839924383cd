"""The real tree passes its own invariant checker, which is one gate.

This is the same gate CI runs: ``repro-ftes lint`` must exit 0 on the tree.
Any violation fails it (exit 1), whatever comment sits on the line, and any
flag besides ``--root``, ``--format`` and ``--list-rules`` is a usage error
(exit 2).
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.lint.cli import main as lint_main

REPO = Path(__file__).resolve().parents[2]
SRC = REPO / "src"

ALL_RULES = ["R001", "R002", "R003", "R004", "R005", "R006", "R007", "R008"]


def run_lint_cli(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", "lint", *args],
        capture_output=True,
        text=True,
        cwd=REPO,
        env={"PYTHONPATH": str(SRC), "PATH": ""},
    )


def known_bad_tree(root: Path, bad_line: str = "    return random.random()") -> Path:
    package = root / "repro"
    (package / "generator").mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "generator" / "__init__.py").write_text("")
    (package / "generator" / "bad.py").write_text(
        f"import random\n\n\ndef jitter():\n{bad_line}\n"
    )
    return package


def test_repo_is_clean():
    result = run_lint_cli()
    assert result.returncode == 0, result.stdout + result.stderr
    assert f"({', '.join(ALL_RULES)}): 0 violation(s)" in result.stdout


def test_json_report_has_no_violations():
    result = run_lint_cli("--format", "json")
    assert result.returncode == 0, result.stdout + result.stderr
    payload = json.loads(result.stdout)
    assert payload["violations"] == []
    assert payload["rules"] == ALL_RULES
    # The whole package is being checked, not a subtree.
    assert payload["checked_modules"] >= 80


def test_rule_listing_names_all_invariants():
    result = run_lint_cli("--list-rules")
    assert result.returncode == 0
    for rule_id in ALL_RULES:
        assert rule_id in result.stdout


def test_seeded_known_bad_tree_fails(tmp_path):
    result = run_lint_cli("--root", str(known_bad_tree(tmp_path)))
    assert result.returncode == 1
    assert "R004" in result.stdout
    assert "1 violation(s)" in result.stdout


def test_json_report_of_known_bad_tree_lists_the_violation(tmp_path):
    result = run_lint_cli("--root", str(known_bad_tree(tmp_path)), "--format", "json")
    assert result.returncode == 1
    (violation,) = json.loads(result.stdout)["violations"]
    assert violation["rule"] == "R004"
    assert violation["path"] == str(Path("repro", "generator", "bad.py"))
    assert violation["line"] == 5
    assert len(violation["fingerprint"]) == 16


def test_disable_comment_does_not_hide_a_violation(tmp_path):
    package = known_bad_tree(
        tmp_path, "    return random.random()  # repro-lint: disable=R004"
    )
    result = run_lint_cli("--root", str(package))
    assert result.returncode == 1
    assert "R004" in result.stdout


@pytest.mark.parametrize(
    "flags",
    [
        ["--jobs", "2"],
        ["--strict-baseline"],
        ["--no-baseline"],
        ["--write-baseline"],
        ["--baseline", "x"],
        ["--rules", "R001"],
    ],
    ids=lambda flags: flags[0],
)
def test_removed_flag_is_a_usage_error(flags, capsys):
    with pytest.raises(SystemExit) as exit_info:
        lint_main(flags)
    assert exit_info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err

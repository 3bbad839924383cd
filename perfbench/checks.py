"""Output checks: golden fixtures for Fig. 6a/6b, recorded digests for the rest.

``fig6a`` and ``fig6b`` payloads must equal ``tests/golden/*.json`` (read,
never written).  Every other checked payload — ``fig6c``, ``fig6d``, the
``dse-large`` report and each ``serve-mixed`` job — is compared with the
sha256 of its canonical JSON as recorded in ``perfbench/expected.json``.

Re-record the digests (only after a change that is meant to alter results)
with::

    PYTHONPATH=src python3 perfbench/checks.py --record
"""

from __future__ import annotations

import argparse
import json
from hashlib import sha256
from pathlib import Path
from typing import Any, Dict, Optional

ROOT = Path(__file__).resolve().parents[1]
GOLDEN_DIR = ROOT / "tests" / "golden"
EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

#: Scenario → golden fixture its payload must equal.
GOLDENS = {"fig6a": "fig6a_fast.json", "fig6b": "fig6b_fast.json"}

#: The ``dse-large`` input: one 800-process ``synthetic-random`` run.
DSE_LARGE_PARAMS = {"n_processes": 800, "seed": 7}

#: Every ``serve-mixed`` mix submits each of these ``synthetic-random``
#: inputs ``(n_processes, generator seed)`` once and repeats as many; each
#: has a recorded digest.  Small jobs outnumber large ones, and the mix is
#: small, so that a run holds many drains.
SERVE_DISTINCT_SEEDS = {20: 3, 50: 3, 100: 2, 200: 1}
SERVE_POOL = tuple(
    (size, seed) for size, count in SERVE_DISTINCT_SEEDS.items() for seed in range(1, count + 1)
)


def digest(payload: Any) -> str:
    """sha256 of the canonical JSON encoding of ``payload``."""
    encoded = json.dumps(payload, sort_keys=True, separators=(",", ":"), allow_nan=False)
    return sha256(encoded.encode("utf-8")).hexdigest()


def serve_key(n_processes: int, seed: int) -> str:
    return f"synthetic-random/n={n_processes}/seed={seed}"


class OutputChecker:
    """Compares payloads with the goldens and the recorded digests."""

    def __init__(self, expected: Optional[Dict[str, str]] = None) -> None:
        self.goldens = {
            scenario: json.loads((GOLDEN_DIR / name).read_text(encoding="utf-8"))
            for scenario, name in GOLDENS.items()
        }
        if expected is None:
            expected = json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))
        self.expected = expected

    def mismatch(self, key: str, payload: Any) -> Optional[str]:
        """``None`` when ``payload`` is the expected output for ``key``."""
        golden = self.goldens.get(key)
        if golden is not None:
            return None if payload == golden else f"{key}: payload differs from its golden"
        want = self.expected.get(key)
        if want is None:
            return f"{key}: no recorded digest"
        got = digest(payload)
        return None if got == want else f"{key}: digest {got[:12]} != recorded {want[:12]}"


def record() -> Dict[str, str]:
    """Recompute every digest of ``expected.json`` from the current tree."""
    from repro.api import RunConfig, Session, run

    expected: Dict[str, str] = {}
    with Session(RunConfig(preset="fast")) as session:
        for scenario in ("fig6a", "fig6b", "fig6c", "fig6d"):
            results = session.run(scenario).results
            if scenario not in GOLDENS:
                expected[scenario] = digest(results)
    report = run("synthetic-random", RunConfig(preset="fast", scenario_params=DSE_LARGE_PARAMS))
    expected["dse-large"] = digest(report.results)
    for n_processes, seed in SERVE_POOL:
        params = {"n_processes": n_processes, "seed": seed}
        report = run("synthetic-random", RunConfig(preset="fast", scenario_params=params))
        expected[serve_key(n_processes, seed)] = digest(report.results)
    return expected


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--record", action="store_true", help="rewrite expected.json")
    arguments = parser.parse_args()
    if not arguments.record:
        parser.error("nothing to do without --record")
    expected = record()
    text = json.dumps(expected, indent=2, sort_keys=True) + "\n"
    EXPECTED_PATH.write_text(text, encoding="utf-8")
    print(f"wrote {len(expected)} digests to {EXPECTED_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

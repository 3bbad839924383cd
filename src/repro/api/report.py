"""Structured run reports with a stable JSON round-trip.

Every scenario run through the :mod:`repro.api` session layer produces one
:class:`RunReport`: the scenario id, the resolved :class:`RunConfig`, the
scenario's JSON-native results payload, the evaluation-engine cache
counters and wall-clock timings.  The
report is the one artifact consumers (CLI, benchmark scripts, CI) read —
``to_json()`` / ``from_json()`` round-trip losslessly, which the test-suite
asserts for every registered scenario.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, Mapping, Tuple

from repro.api.config import RunConfig
from repro.core.exceptions import ModelError

#: Bump when the serialized report layout changes incompatibly (2: the
#: kernel-selection fields left the config and the report).
REPORT_SCHEMA_VERSION = 2


def iter_non_json_native(value: Any, path: str = "$") -> Iterator[Tuple[str, Any]]:
    """Yield ``(path, leaf)`` for every value ``json.dumps`` would reject.

    The walk mirrors what :meth:`RunReport.to_json` will attempt: dicts need
    string keys, containers recurse, and every leaf must be one of the
    JSON-native scalars (``str``/``int``/``float``/``bool``/``None``).  The
    runtime determinism sanitizer (R008) and tests use this to locate the
    exact offending value instead of parsing a ``TypeError`` message.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return
    if isinstance(value, dict):
        for key, child in value.items():
            if not isinstance(key, str):
                yield f"{path}.<key {key!r}>", key
            yield from iter_non_json_native(child, f"{path}.{key}")
        return
    if isinstance(value, list):
        for index, child in enumerate(value):
            yield from iter_non_json_native(child, f"{path}[{index}]")
        return
    yield path, value


@dataclass(frozen=True)
class RunReport:
    """Structured outcome of one scenario run.

    ``results`` is the scenario's payload and must be JSON-native (string
    keys, no tuples) so the round-trip is lossless; scenario runners are
    responsible for normalizing their payloads (e.g. ``f"{hpd:g}"`` keys for
    numeric sweep settings, matching the golden fixtures).
    """

    scenario: str
    config: RunConfig
    results: Dict[str, Any]
    #: Fully resolved scenario parameters (overrides + declared defaults);
    #: empty for scenarios without a parameter schema.
    params: Dict[str, Any] = field(default_factory=dict)
    cache: Dict[str, float] = field(default_factory=dict)
    timings: Dict[str, float] = field(default_factory=dict)
    #: Human-readable rendering (the tables the CLI prints).
    text: str = ""

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": REPORT_SCHEMA_VERSION,
            "scenario": self.scenario,
            "config": self.config.to_dict(),
            "results": self.results,
            "params": dict(self.params),
            "cache": dict(self.cache),
            "timings": dict(self.timings),
            "text": self.text,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunReport":
        schema = data.get("schema")
        if schema != REPORT_SCHEMA_VERSION:
            raise ModelError(
                f"Unsupported RunReport schema {schema!r}; "
                f"this build reads schema {REPORT_SCHEMA_VERSION}"
            )
        return cls(
            scenario=data["scenario"],
            config=RunConfig.from_dict(data["config"]),
            results=data["results"],
            params=dict(data.get("params", {})),
            cache=dict(data.get("cache", {})),
            timings=dict(data.get("timings", {})),
            text=data.get("text", ""),
        )

    @classmethod
    def from_json(cls, payload: str) -> "RunReport":
        return cls.from_dict(json.loads(payload))

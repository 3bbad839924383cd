"""Declarative scenario registry: one contract for every experiment.

A *scenario* is a named, self-describing unit of work — a paper figure, a
case study or a parameterized synthetic workload family — registered with
:func:`register_scenario` and executed through ``repro.api.run`` or the
generic CLI driver (``repro-ftes run <scenario>``).  Every scenario obeys
the same :class:`ScenarioSpec` contract: its runner receives the active
:class:`~repro.api.session.Session` (configuration, shared
experiment/engine construction) plus the resolved parameter mapping, and
returns a :class:`ScenarioOutcome` holding a JSON-native results payload
plus its human-readable rendering.

**Parameterized scenario families.**  A spec may declare a typed parameter
schema (:class:`ScenarioParam`: name, type, default, bounds).  Parameter
values resolve in one documented order:

1. an explicit override — ``RunConfig.scenario_params`` (the CLI's
   ``--param key=value`` flags land there);
2. the parameter's declared default.

Unknown parameter names and out-of-bounds values are rejected with the
family's full schema in the error message.  Scenarios that declare no
parameters reject any override.  The resolved mapping is passed to the
runner and recorded in the :class:`~repro.api.report.RunReport`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.exceptions import ModelError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.api.session import Session


def canonicalize_payload(value: Any) -> Any:
    """Recursively coerce a payload to JSON-native Python types.

    Generator-backed scenarios naturally produce numpy scalars (``np.int64``
    sizes, ``np.float64`` draws) which ``json.dumps`` rejects with a
    ``TypeError``; tuples would round-trip as lists and numeric dict keys as
    strings.  Canonicalizing once at the :class:`ScenarioOutcome` boundary
    keeps every :class:`~repro.api.report.RunReport` losslessly
    JSON-round-trippable without per-scenario ceremony.
    """
    if isinstance(value, np.generic):
        return canonicalize_payload(value.item())
    if isinstance(value, np.ndarray):
        return [canonicalize_payload(item) for item in value.tolist()]
    if isinstance(value, dict):
        return {str(key): canonicalize_payload(child) for key, child in value.items()}
    if isinstance(value, (list, tuple)):
        return [canonicalize_payload(item) for item in value]
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, int):
        return int(value)
    if isinstance(value, float):
        return float(value)
    return value


@dataclass(frozen=True)
class ScenarioOutcome:
    """What a scenario runner returns: results payload + rendered text.

    ``payload`` is canonicalized to JSON-native types on construction
    (numpy scalars to Python scalars, tuples to lists, keys to strings) so
    the surrounding :class:`~repro.api.report.RunReport` round-trips
    losslessly.
    """

    payload: Dict[str, Any]
    text: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "payload", canonicalize_payload(self.payload))
        # Runtime determinism sanitizer hook (R008): when active, verify the
        # canonicalized payload is fully JSON-native — values the
        # canonicalizer passes through verbatim (Decimal, Path, set, bytes)
        # are exactly the defects it records.  Lazy import: repro.lint is
        # never loaded on the hot path unless the sanitizer is enabled.
        from repro.lint.sanitizer import active_sanitizer

        sanitizer = active_sanitizer()
        if sanitizer is not None:
            sanitizer.check_payload(self.payload, "ScenarioOutcome.payload")


#: Accepted ``ScenarioParam.type`` names and their coercions.
_PARAM_TYPES: Dict[str, type] = {"int": int, "float": float}


@dataclass(frozen=True)
class ScenarioParam:
    """One typed, bounded parameter of a scenario family.

    ``default`` may be ``None`` for nullable parameters (the runner sees
    ``None`` and applies its own fallback, e.g. the generator's automatic
    layer count).  ``minimum``/``maximum`` are inclusive bounds.
    """

    name: str
    type: str
    default: Any = None
    minimum: Optional[float] = None
    maximum: Optional[float] = None
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ModelError("ScenarioParam name must be a non-empty string")
        if self.type not in _PARAM_TYPES:
            raise ModelError(
                f"Unknown ScenarioParam type {self.type!r} for {self.name!r}; "
                f"expected one of {sorted(_PARAM_TYPES)}"
            )
        if self.default is not None:
            object.__setattr__(self, "default", self.coerce(self.default))

    # ------------------------------------------------------------------
    def coerce(self, raw: Any) -> Any:
        """Coerce one raw override (CLI string or API value) to the declared type."""
        if raw is None:
            return None
        try:
            if isinstance(raw, bool):
                # ``int(True)`` is 1: a JSON ``true`` is not a number.
                raise ValueError(raw)
            if self.type == "int":
                if isinstance(raw, float) and not raw.is_integer():
                    raise ValueError(raw)
                value = int(raw)
            else:
                value = float(raw)
                if not math.isfinite(value):
                    # NaN passes both bound checks (every comparison is false).
                    raise ValueError(raw)
        except (TypeError, ValueError):
            raise ModelError(
                f"Parameter {self.name!r} expects {self.type}, got {raw!r}"
            ) from None
        if self.minimum is not None and value < self.minimum:
            raise ModelError(
                f"Parameter {self.name!r} must be >= {self.minimum:g}, got {value!r}"
            )
        if self.maximum is not None and value > self.maximum:
            raise ModelError(
                f"Parameter {self.name!r} must be <= {self.maximum:g}, got {value!r}"
            )
        return value

    def describe(self) -> str:
        """Compact one-line schema rendering used by ``run --list`` and errors."""
        bounds = ""
        if self.minimum is not None or self.maximum is not None:
            low = f"{self.minimum:g}" if self.minimum is not None else ""
            high = f"{self.maximum:g}" if self.maximum is not None else ""
            bounds = f" [{low}..{high}]"
        default = "" if self.default is None else f"={self.default}"
        return f"{self.name}:{self.type}{default}{bounds}"


@dataclass(frozen=True)
class ScenarioSpec:
    """Registry entry describing one runnable scenario."""

    scenario_id: str
    title: str
    description: str = ""
    #: Paper figure/section the scenario reproduces, when applicable.
    figure: Optional[str] = None
    #: Typed parameter schema; empty for fixed (non-family) scenarios.
    params: Tuple[ScenarioParam, ...] = ()
    runner: Callable[["Session", Dict[str, Any]], ScenarioOutcome] = field(
        repr=False, default=None  # type: ignore[assignment]
    )

    def schema(self) -> str:
        """The family's full parameter schema on one line (empty if none)."""
        return ", ".join(param.describe() for param in self.params)

    def resolve_params(self, overrides: Optional[Mapping[str, Any]] = None) -> Dict[str, Any]:
        """Resolve overrides against the schema: explicit value > default.

        Raises :class:`~repro.core.exceptions.ModelError` for unknown names,
        type mismatches and bounds violations — always naming the schema so
        the caller can recover.
        """
        overrides = dict(overrides) if overrides else {}
        known = {param.name for param in self.params}
        unknown = set(overrides) - known
        if unknown:
            if not self.params:
                raise ModelError(
                    f"Scenario {self.scenario_id!r} accepts no parameters, got "
                    f"{sorted(unknown)}"
                )
            raise ModelError(
                f"Unknown parameter(s) {sorted(unknown)} for scenario "
                f"{self.scenario_id!r}; schema: {self.schema()}"
            )
        resolved: Dict[str, Any] = {}
        for param in self.params:
            if param.name in overrides:
                resolved[param.name] = param.coerce(overrides[param.name])
            else:
                resolved[param.name] = param.default
        return resolved


_SCENARIOS: Dict[str, ScenarioSpec] = {}

_Runner = Callable[["Session", Dict[str, Any]], ScenarioOutcome]


def register_scenario(
    scenario_id: str,
    *,
    title: str,
    description: str = "",
    figure: Optional[str] = None,
    params: Sequence[ScenarioParam] = (),
) -> Callable[[_Runner], _Runner]:
    """Decorator registering a scenario runner under ``scenario_id``.

    The runner keeps working as a plain ``(session, params)`` function;
    registration only makes it reachable through
    ``api.run(scenario_id, config)`` and the CLI driver.
    """
    names = [param.name for param in params]
    if len(set(names)) != len(names):
        raise ModelError(
            f"Scenario {scenario_id!r} declares duplicate parameter names: {names}"
        )

    def decorator(runner: _Runner) -> _Runner:
        existing = _SCENARIOS.get(scenario_id)
        if existing is not None and existing.runner is not runner:
            raise ModelError(f"Scenario id {scenario_id!r} is already registered")
        _SCENARIOS[scenario_id] = ScenarioSpec(
            scenario_id=scenario_id,
            title=title,
            description=description,
            figure=figure,
            params=tuple(params),
            runner=runner,
        )
        return runner

    return decorator


def get_scenario(scenario_id: str) -> ScenarioSpec:
    """Look a scenario up by id; unknown ids fail with the known list."""
    spec = _SCENARIOS.get(scenario_id)
    if spec is None:
        known = ", ".join(sorted(_SCENARIOS)) or "<none>"
        raise ModelError(f"Unknown scenario {scenario_id!r}; registered: {known}")
    return spec


def list_scenarios() -> List[ScenarioSpec]:
    """All registered scenarios, sorted by id."""
    return [_SCENARIOS[scenario_id] for scenario_id in sorted(_SCENARIOS)]

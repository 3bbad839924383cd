"""Declarative run configuration of the ``repro.api`` session layer.

A :class:`RunConfig` is the single typed object through which every knob of
a scenario run is expressed — kernel backends, persistent cache, worker
processes, seed, experiment preset and report output.

**Resolution order** (documented here once, applied everywhere): for each
knob that also has an environment variable, the effective value is

1. the explicit :class:`RunConfig` field, when not ``None``;
2. the environment variable (``REPRO_SFP_KERNEL`` / ``REPRO_SCHED_KERNEL``);
3. ``auto`` — the highest-priority backend whose ``is_available()`` is true.

Kernel backends are bit-identical by contract, so this order is a speed
knob only and never changes results.

**Scenario parameters** resolve analogously but per scenario family
(:meth:`repro.api.registry.ScenarioSpec.resolve_params`): an explicit entry
in :attr:`RunConfig.scenario_params` (the CLI's ``--param key=value``)
beats the parameter's declared default.  Unlike kernels these *are* answer
knobs — two runs differing in ``scenario_params`` are different workloads —
which is why the mapping is part of the frozen config and its lossless
``to_dict``/``from_dict`` round-trip.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Any, Dict, Mapping, Optional

from repro.core.exceptions import ModelError
from repro.engine.store import DEFAULT_MAX_BYTES
from repro.experiments.synthetic import ExperimentPreset
from repro.kernels.registry import SCHED_KERNELS, SFP_KERNELS

#: Preset names accepted by :attr:`RunConfig.preset`.
PRESETS = {
    "smoke": ExperimentPreset.smoke,
    "fast": ExperimentPreset.fast,
    "paper": ExperimentPreset.paper,
}

#: Default size cap of the persistent cache, in MiB.
DEFAULT_CACHE_SIZE_MB = DEFAULT_MAX_BYTES // (1024 * 1024)


@dataclass(frozen=True)
class RunConfig:
    """Frozen, declarative configuration of one scenario run.

    Parameters
    ----------
    sfp_kernel / sched_kernel:
        Explicit kernel backend names (or ``"auto"``).  ``None`` defers to
        the family's environment variable, then ``auto`` (see the module
        docstring for the full resolution order).
    cache_dir:
        Directory of the persistent design-point store; ``None`` disables
        persistence.
    cache_size_mb:
        LRU size cap of the store directory, in MiB.
    jobs:
        Worker processes for per-application loops (``1`` = serial,
        ``0`` = one per CPU).
    seed:
        Overrides the preset's ``base_seed`` for synthetic benchmark
        generation; ``None`` keeps the preset's published seed.
    preset:
        Experiment size/effort preset: ``smoke``, ``fast`` or ``paper``.
    output:
        Optional path where :meth:`Session.run` writes the structured
        :class:`~repro.api.report.RunReport` as JSON.
    scenario_params:
        Per-run overrides for parameterized scenario families (the CLI's
        ``--param key=value``).  Values may be CLI strings or native
        scalars; they are validated against the scenario's declared schema
        at run time (explicit override > declared default).
    """

    sfp_kernel: Optional[str] = None
    sched_kernel: Optional[str] = None
    cache_dir: Optional[Path] = None
    cache_size_mb: int = DEFAULT_CACHE_SIZE_MB
    jobs: int = 1
    seed: Optional[int] = None
    preset: str = "fast"
    output: Optional[Path] = None
    scenario_params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for field_name in ("cache_dir", "output"):
            value = getattr(self, field_name)
            if value is not None:
                object.__setattr__(self, field_name, Path(value).expanduser())
        if self.preset not in PRESETS:
            raise ModelError(
                f"Unknown preset {self.preset!r}; expected one of {sorted(PRESETS)}"
            )
        if self.jobs < 0:
            raise ModelError(f"jobs must be >= 0 (1 = serial, 0 = one per CPU), got {self.jobs}")
        if self.cache_size_mb < 1:
            raise ModelError(f"cache_size_mb must be >= 1, got {self.cache_size_mb}")
        params = dict(self.scenario_params) if self.scenario_params else {}
        for key, value in params.items():
            if not isinstance(key, str) or not key:
                raise ModelError(f"scenario_params keys must be non-empty strings, got {key!r}")
            if value is not None and not isinstance(value, (str, int, float, bool)):
                raise ModelError(
                    f"scenario_params[{key!r}] must be a JSON-native scalar, got {value!r}"
                )
        object.__setattr__(self, "scenario_params", params)

    # ------------------------------------------------------------------
    # resolution
    # ------------------------------------------------------------------
    def resolved_sfp_kernel(self) -> str:
        """Concrete SFP backend name under the documented resolution order."""
        if self.sfp_kernel is not None:
            return SFP_KERNELS.get(self.sfp_kernel).name
        return SFP_KERNELS.active().name

    def resolved_sched_kernel(self) -> str:
        """Concrete scheduler backend name under the resolution order."""
        if self.sched_kernel is not None:
            return SCHED_KERNELS.get(self.sched_kernel).name
        return SCHED_KERNELS.active().name

    def resolved_preset(self) -> ExperimentPreset:
        """The :class:`ExperimentPreset` instance, reseeded when ``seed`` is set."""
        preset = PRESETS[self.preset]()
        if self.seed is not None:
            preset = replace(preset, base_seed=self.seed)
        return preset

    @property
    def cache_max_bytes(self) -> int:
        return self.cache_size_mb * 1024 * 1024

    # ------------------------------------------------------------------
    # serialization (lossless; used by RunReport round-trips)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "sfp_kernel": self.sfp_kernel,
            "sched_kernel": self.sched_kernel,
            "cache_dir": str(self.cache_dir) if self.cache_dir is not None else None,
            "cache_size_mb": self.cache_size_mb,
            "jobs": self.jobs,
            "seed": self.seed,
            "preset": self.preset,
            "output": str(self.output) if self.output is not None else None,
            "scenario_params": dict(self.scenario_params),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunConfig":
        known = {field.name for field in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ModelError(f"Unknown RunConfig fields: {sorted(unknown)}")
        return cls(**dict(data))

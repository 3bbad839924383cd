"""Kernel backend registries and selection.

Two kernel families live here, each behind the same selection machinery:

* **SFP kernels** (:class:`~repro.kernels.base.SFPKernel`) — the Appendix A
  numeric primitives; selected with ``--sfp-kernel`` / ``REPRO_SFP_KERNEL``.
* **Scheduler kernels** (:class:`~repro.kernels.sched_base.SchedulerKernel`)
  — the root-schedule construction of Section 6.4; selected with
  ``--sched-kernel`` / ``REPRO_SCHED_KERNEL``.

Selection precedence within a family, highest first:

1. an explicit ``kernel=`` argument on the entry points (``SFPAnalysis``,
   ``EvaluationEngine``, ``ReExecutionOpt`` for SFP; ``ListScheduler`` for
   scheduling) — accepts a kernel instance or a registered name;
2. a *scoped* selection entered with :func:`use_kernel` (what the
   ``repro.api`` session layer and the CLI's ``--sfp-kernel`` /
   ``--sched-kernel`` flags use); it restores the previous selection on
   exit, also when the body raises;
3. the family's environment variable;
4. ``auto``: the highest-priority backend whose ``is_available()`` is true.

Because every registered backend of a family is bit-identical (see the
family base modules), switching kernels never changes results — only
speed — so cached design points (in-memory memo tables and the persistent
store) remain valid across kernel switches and the selection deliberately is
**not** part of any cache key.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Dict, Generic, Iterator, List, Optional, Tuple, Type, TypeVar, Union

from repro.core.exceptions import ModelError
from repro.kernels.base import SFPKernel
from repro.kernels.sched_base import SchedulerKernel

#: Environment variable consulted when no explicit SFP selection was made.
KERNEL_ENV_VAR = "REPRO_SFP_KERNEL"

#: Environment variable consulted when no explicit scheduler selection was made.
SCHED_KERNEL_ENV_VAR = "REPRO_SCHED_KERNEL"

#: Pseudo-name selecting the fastest available backend.
AUTO = "auto"

KernelT = TypeVar("KernelT")


class KernelRegistry(Generic[KernelT]):
    """Registry + selection state of one kernel family."""

    def __init__(self, family: str, base_class: type, env_var: str) -> None:
        self.family = family
        self.base_class = base_class
        self.env_var = env_var
        self._classes: Dict[str, Type[KernelT]] = {}
        self._instances: Dict[str, KernelT] = {}
        self._default_name: Optional[str] = None

    # ------------------------------------------------------------------
    def register(self, kernel_class: Type[KernelT]) -> Type[KernelT]:
        """Register a backend class under its ``name`` (usable as a decorator)."""
        name = kernel_class.name
        if not name or name == AUTO:
            raise ModelError(
                f"Kernel class {kernel_class.__name__} needs a valid name"
            )
        existing = self._classes.get(name)
        if existing is not None and existing is not kernel_class:
            raise ModelError(f"Kernel name {name!r} is already registered")
        self._classes[name] = kernel_class
        return kernel_class

    def names(self, available_only: bool = False) -> List[str]:
        """Registered backend names, ``auto``-priority order (highest first)."""
        names = sorted(
            self._classes,
            key=lambda name: (-self._classes[name].priority, name),
        )
        if available_only:
            names = [name for name in names if self._classes[name].is_available()]
        return names

    def get(self, name: str) -> KernelT:
        """The singleton instance of one backend (``auto`` resolves availability)."""
        if name == AUTO:
            for candidate in self.names(available_only=True):
                return self.get(candidate)
            raise ModelError(f"No {self.family} kernel backend is available")
        kernel_class = self._classes.get(name)
        if kernel_class is None:
            raise ModelError(
                f"Unknown {self.family} kernel {name!r}; registered: {self.names()}"
            )
        if not kernel_class.is_available():
            raise ModelError(
                f"{self.family} kernel {name!r} is not available in this environment"
            )
        instance = self._instances.get(name)
        if instance is None:
            instance = self._instances[name] = kernel_class()
        return instance

    def set_default(self, name: Optional[str]) -> None:
        """Set (or clear, with ``None``) the process-wide default backend."""
        if name is not None:
            self.get(name)  # validate before committing
        self._default_name = name

    def active(self) -> KernelT:
        """The backend implied by the selection precedence (module docstring)."""
        if self._default_name is not None:
            return self.get(self._default_name)
        return self.get(os.environ.get(self.env_var, AUTO))

    def resolve(self, kernel: Union[KernelT, str, None]) -> KernelT:
        """Normalize an explicit selection (instance, name or ``None``)."""
        if kernel is None:
            return self.active()
        if isinstance(kernel, self.base_class):
            return kernel
        return self.get(kernel)


#: The two built-in families.
SFP_KERNELS: KernelRegistry[SFPKernel] = KernelRegistry(
    "SFP", SFPKernel, KERNEL_ENV_VAR
)
SCHED_KERNELS: KernelRegistry[SchedulerKernel] = KernelRegistry(
    "scheduler", SchedulerKernel, SCHED_KERNEL_ENV_VAR
)


# ----------------------------------------------------------------------
# Scoped selection — the way to change the active backends.
# ----------------------------------------------------------------------
@contextmanager
def use_kernel(
    sfp: Union[SFPKernel, str, None] = None,
    sched: Union[SchedulerKernel, str, None] = None,
) -> Iterator[Tuple[SFPKernel, SchedulerKernel]]:
    """Scoped kernel selection over both families.

    Snapshots both families' selection state, applies the requested
    backends (``None`` leaves that family's ambient selection — environment
    variable or ``auto`` — untouched) and restores the snapshot on exit,
    *including* when the body raises.  Yields the pair of active instances
    ``(sfp_kernel, scheduler_kernel)`` inside the scope.

    With no arguments this is a pure snapshot/restore guard, which is what
    the test-suite's autouse fixture uses to eliminate cross-test leakage.

    Selections are names under the hood; a kernel *instance* is accepted
    only when it is the registry singleton of its name (e.g. the result of
    ``get_kernel(...)``) — activating a foreign instance by name would
    silently hand out a different object, so that is an error instead.
    """
    snapshot = (SFP_KERNELS._default_name, SCHED_KERNELS._default_name)
    try:
        if sfp is not None:
            SFP_KERNELS.set_default(_selection_name(SFP_KERNELS, sfp))
        if sched is not None:
            SCHED_KERNELS.set_default(_selection_name(SCHED_KERNELS, sched))
        yield SFP_KERNELS.active(), SCHED_KERNELS.active()
    finally:
        # Snapshot/restore of worker-local state: serve pool workers run
        # whole Sessions, so each process scopes its own registry
        # selection; the parent never depends on the write.
        # repro-lint: disable=R007
        SFP_KERNELS._default_name, SCHED_KERNELS._default_name = snapshot


def _selection_name(
    registry: KernelRegistry, kernel: Union[SFPKernel, SchedulerKernel, str]
) -> str:
    """Normalize a ``use_kernel`` selection to a registered backend name."""
    if isinstance(kernel, str):
        return kernel
    name = kernel.name
    if registry.get(name) is not kernel:
        raise ModelError(
            f"use_kernel only accepts registry-singleton {registry.family} "
            f"kernel instances (got a foreign {type(kernel).__name__!r} "
            f"object); pass the registered name {name!r} or use "
            f"get_kernel()/resolve on the explicit kernel= entry points"
        )
    return name


# ----------------------------------------------------------------------
# SFP family — module-level API kept stable since PR 3.
# ----------------------------------------------------------------------
def register_kernel(kernel_class: Type[SFPKernel]) -> Type[SFPKernel]:
    return SFP_KERNELS.register(kernel_class)


def kernel_names(available_only: bool = False) -> List[str]:
    return SFP_KERNELS.names(available_only)


def get_kernel(name: str) -> SFPKernel:
    return SFP_KERNELS.get(name)


def active_kernel() -> SFPKernel:
    return SFP_KERNELS.active()


def resolve_kernel(kernel: Union[SFPKernel, str, None]) -> SFPKernel:
    return SFP_KERNELS.resolve(kernel)


# ----------------------------------------------------------------------
# Scheduler family — same shape, ``sched`` infix.
# ----------------------------------------------------------------------
def register_sched_kernel(
    kernel_class: Type[SchedulerKernel],
) -> Type[SchedulerKernel]:
    return SCHED_KERNELS.register(kernel_class)


def sched_kernel_names(available_only: bool = False) -> List[str]:
    return SCHED_KERNELS.names(available_only)


def get_sched_kernel(name: str) -> SchedulerKernel:
    return SCHED_KERNELS.get(name)


def active_sched_kernel() -> SchedulerKernel:
    return SCHED_KERNELS.active()


def resolve_sched_kernel(
    kernel: Union[SchedulerKernel, str, None],
) -> SchedulerKernel:
    return SCHED_KERNELS.resolve(kernel)


# ----------------------------------------------------------------------
# Built-in backend registration.  The imports live at the bottom so that a
# backend module importing back into this one mid-registration (e.g. the
# scheduler backends pull in repro.scheduling, whose list scheduler resolves
# its kernel through this registry) finds every function already defined.
# ----------------------------------------------------------------------
from repro.kernels.array_backend import ArrayKernel  # noqa: E402
from repro.kernels.reference import ReferenceKernel  # noqa: E402

register_kernel(ReferenceKernel)
register_kernel(ArrayKernel)

from repro.kernels.sched_flat import FlatSchedulerKernel  # noqa: E402
from repro.kernels.sched_reference import ReferenceSchedulerKernel  # noqa: E402

register_sched_kernel(ReferenceSchedulerKernel)
register_sched_kernel(FlatSchedulerKernel)

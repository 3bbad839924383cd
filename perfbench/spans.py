"""Span recording from outside the program: wrap layer entry points, time them.

The traced benchmark run installs a :class:`Tracer` through
:func:`install`, which replaces each public entry point of the ``repro``
layers with a timing wrapper *where it is looked up*: class attributes for
methods, every ``repro.*`` module binding for module-level functions (so a
name taken with ``from ... import`` is wrapped too), and the instance
attributes of the active kernel singletons.  :meth:`Patches.restore` puts
every original object back by identity.

Spans stay in memory as ``[layer, name, start, end, parent]`` rows;
:func:`layer_table` turns them into per-layer inclusive time, self time and
call counts.  Entry points that do not exist in the tree being measured are
skipped, so the plan survives code that deletes a layer's optional paths.
"""

from __future__ import annotations

import functools
import sys
import time
from typing import Any, Callable, Dict, List, Tuple

#: Layer → ``(module, attribute path)`` entry points timed for it.
LAYER_ENTRY_POINTS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "generator": (
        ("repro.generator.benchmark", "generate_benchmark"),
        ("repro.generator.benchmark", "generate_benchmark_suite"),
        ("repro.generator.benchmark", "build_platform"),
    ),
    "scheduling": (
        ("repro.scheduling.list_scheduler", "ListScheduler.schedule"),
        ("repro.scheduling.list_scheduler", "ListScheduler.schedule_batch"),
    ),
    "core.design_strategy": (("repro.core.design_strategy", "DesignStrategy.explore"),),
    "core.mapping": (("repro.core.mapping", "MappingAlgorithm.optimize"),),
    "core.redundancy": (
        ("repro.core.redundancy", "RedundancyOpt.optimize"),
        ("repro.core.redundancy", "FixedHardeningRedundancyOpt.optimize"),
        ("repro.core.redundancy", "RedundancyOpt.optimize_batch"),
        ("repro.core.redundancy", "RedundancyOpt.evaluate_hardening"),
        ("repro.core.redundancy", "RedundancyOpt.evaluate_hardening_batch"),
    ),
    "core.reexecution": (
        ("repro.core.reexecution", "ReExecutionOpt.optimize"),
        ("repro.core.reexecution", "ReExecutionOpt.optimize_many"),
    ),
    "engine.store.warm": (("repro.engine.store", "DesignPointStore.warm"),),
    "engine.store.persist": (("repro.engine.store", "DesignPointStore.persist"),),
}

#: Layer → (kernel family, methods) timed on the family's active singleton.
KERNEL_ENTRY_POINTS: Dict[str, Tuple[str, Tuple[str, ...]]] = {
    "kernels.sched": ("sched", ("build_schedule", "batch_schedule")),
    "kernels.sfp": (
        "sfp",
        (
            "probability_exceeds",
            "batch_probability_exceeds",
            "probability_no_fault",
            "system_failure",
        ),
    ),
}

_MISSING = object()

Span = List[Any]  # [layer, name, start, end, parent index or -1]


class Tracer:
    """In-memory span recorder plus the engines created while it is active."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.engines: List[Any] = []
        self._stack: List[int] = []

    def wrap(self, layer: str, name: str, function: Callable[..., Any]) -> Callable[..., Any]:
        clock = time.perf_counter

        @functools.wraps(function)
        def traced(*args: Any, **kwargs: Any) -> Any:
            spans, stack = self.spans, self._stack
            index = len(spans)
            spans.append([layer, name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                return function(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][3] = clock()

        return traced


def layer_table(spans: List[Span]) -> Dict[str, Dict[str, float]]:
    """Per-layer ``s`` (inclusive), ``self_s`` and ``calls``.

    ``s`` sums the spans with no ancestor of the same layer, so a layer that
    re-enters itself is not counted twice.  A span's self time is its
    duration minus the part of it that its child spans cover.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for layer, _, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    table: Dict[str, Dict[str, float]] = {}
    for index, (layer, _, start, end, parent) in enumerate(spans):
        row = table.setdefault(layer, {"s": 0.0, "self_s": 0.0, "calls": 0})
        row["calls"] += 1
        row["self_s"] += (end - start) - _covered(start, end, children.get(index, []))
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != layer:
            ancestor = spans[ancestor][4]
        if ancestor < 0:
            row["s"] += end - start
    return table


def _covered(start: float, end: float, intervals: List[Tuple[float, float]]) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    total = 0.0
    reach = start
    for low, high in sorted(intervals):
        low, high = max(low, reach), min(high, end)
        if high > low:
            total += high - low
            reach = high
    return total


class Patches:
    """Attribute replacements that :meth:`restore` undoes by identity."""

    def __init__(self) -> None:
        self.saved: List[Tuple[Any, str, Any]] = []

    def set(self, owner: Any, name: str, value: Any) -> None:
        self.saved.append((owner, name, vars(owner).get(name, _MISSING)))
        setattr(owner, name, value)

    def restore(self) -> None:
        while self.saved:
            owner, name, original = self.saved.pop()
            if original is _MISSING:
                delattr(owner, name)
            else:
                setattr(owner, name, original)


def install(tracer: Tracer) -> Patches:
    """Wrap every entry point of :data:`LAYER_ENTRY_POINTS` and the kernels."""
    import importlib

    from repro.engine.engine import EvaluationEngine
    from repro.kernels.registry import SCHED_KERNELS, SFP_KERNELS

    patches = Patches()
    try:
        for layer, entry_points in LAYER_ENTRY_POINTS.items():
            for module_name, path in entry_points:
                module = importlib.import_module(module_name)
                if "." in path:
                    class_name, method = path.split(".")
                    _patch_method(patches, tracer, layer, getattr(module, class_name, None), method)
                else:
                    _patch_function(patches, tracer, layer, getattr(module, path, None))
        kernels = {"sfp": SFP_KERNELS.active(), "sched": SCHED_KERNELS.active()}
        for layer, (family, methods) in KERNEL_ENTRY_POINTS.items():
            kernel = kernels[family]
            for method in methods:
                bound = getattr(kernel, method, None)
                if bound is not None:
                    name = f"{type(kernel).__name__}.{method}"
                    patches.set(kernel, method, tracer.wrap(layer, name, bound))
        original_init = vars(EvaluationEngine)["__init__"]

        @functools.wraps(original_init)
        def recording_init(engine: Any, *args: Any, **kwargs: Any) -> None:
            original_init(engine, *args, **kwargs)
            tracer.engines.append(engine)

        patches.set(EvaluationEngine, "__init__", recording_init)
    except BaseException:
        patches.restore()
        raise
    return patches


def _patch_method(patches: Patches, tracer: Tracer, layer: str, cls: Any, method: str) -> None:
    if cls is None or not hasattr(cls, method):
        return
    # The wrapper goes on the class that defines the method, so subclasses
    # sharing it are timed once, not once per listed subclass.
    owner = next(klass for klass in cls.__mro__ if method in vars(klass))
    if any(saved_owner is owner and name == method for saved_owner, name, _ in patches.saved):
        return
    name = f"{owner.__name__}.{method}"
    patches.set(owner, method, tracer.wrap(layer, name, vars(owner)[method]))


def _patch_function(patches: Patches, tracer: Tracer, layer: str, function: Any) -> None:
    if function is None:
        return
    wrapper = tracer.wrap(layer, function.__name__, function)
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "repro" or module_name.startswith("repro.")):
            continue
        for attribute, value in list(vars(module).items()):
            if value is function:
                patches.set(module, attribute, wrapper)

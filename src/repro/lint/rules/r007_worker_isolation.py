"""R007 — worker shared-state isolation: task code mutates nothing shared.

A worker process is a fork-time copy: mutating a module global, a
``Session``, a ``MemoCache`` or a ``DesignPointStore`` from code reachable
from a pool task entrypoint either mutates the *copy* (the parent silently
never sees the write — the classic "my cache warmed but stayed cold" bug) or
corrupts shared on-disk state without the owning class's invariants.  The
sanctioned write paths mirror R003's token-bumping idiom: each guarded
class's own state-keeping methods (``MemoCache.put``,
``DesignPointStore.persist`` …) may mutate its attributes, and pool
*initializers* (``_init_worker``) may populate worker-local module state —
they run once per worker by design and are not task code.

The rule discovers task entrypoints from the pool boundaries R006 detects
(the first argument of ``submit``/``map``), computes their call-graph
closure with the dataflow pass following instance-method calls, and flags
inside that closure: ``global`` rebinding, item/attribute stores and
mutating method calls on module-level names, and unsanctioned mutation of
the guarded classes' attributes.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set, Tuple

from repro.lint.model import LintRule, Violation
from repro.lint.project import FunctionDataflow, FunctionInfo, LintModule, Project
from repro.lint.rules.r003_structure_token import _MUTATING_METHODS, GuardSpec
from repro.lint.rules.r006_fork_pickle import submitted_callables

#: Shared-handle classes guarded inside the worker closure, with the methods
#: allowed to mutate their attributes (the classes' own write paths).
WORKER_GUARDS: Tuple[GuardSpec, ...] = (
    GuardSpec(
        class_name="Session",
        attrs=frozenset({"_experiment", "_scenario_counters"}),
        mutators=frozenset(
            {"__init__", "__enter__", "__exit__", "experiment",
             "add_cache_counters"}
        ),
    ),
    GuardSpec(
        class_name="MemoCache",
        attrs=frozenset({"_store", "_preloaded"}),
        mutators=frozenset(
            {"__init__", "get", "put", "memoize", "load"}
        ),
    ),
    GuardSpec(
        class_name="DesignPointStore",
        attrs=frozenset({"stats"}),
        mutators=frozenset(
            {"__init__", "warm", "persist", "_read", "_write_atomic",
             "_discard", "_sweep_stale_temp_files", "_enforce_cap"}
        ),
    ),
)

_ALL_GUARDED_ATTRS = frozenset().union(*(guard.attrs for guard in WORKER_GUARDS))

_GUARD_CLASS_NAMES = frozenset(guard.class_name for guard in WORKER_GUARDS)


class WorkerIsolationRule(LintRule):
    """Worker-reachable code never mutates shared parent-process state."""

    rule_id = "R007"
    title = "worker isolation: task-reachable code mutates no shared state"
    rationale = (
        "workers are fork-time copies — writes to module globals or shared "
        "Session/MemoCache/DesignPointStore state from task code mutate the "
        "copy and are silently lost to the parent"
    )

    def check(self, project: Project) -> Iterator[Violation]:
        roots = self._task_roots(project)
        if not roots:
            return
        closure = project.reachable_functions(roots, follow_instances=True)
        for qualname in sorted(closure):
            info = project.functions[qualname]
            module = project.modules[info.module]
            yield from self._check_function(project, module, info)

    # ------------------------------------------------------------------
    def _task_roots(self, project: Project) -> List[str]:
        """Task entrypoints: first arguments of pool submit/map boundaries."""
        roots: List[str] = []
        for module in project.modules.values():
            for info in module.functions.values():
                for _boundary, callable_expr in submitted_callables(
                    project, module, info
                ):
                    if not isinstance(callable_expr, ast.Name):
                        continue
                    local = f"{module.name}.{callable_expr.id}"
                    if local in project.functions:
                        roots.append(local)
                        continue
                    bound = module.bindings.get(callable_expr.id)
                    if bound is not None and bound in project.functions:
                        roots.append(bound)
        return roots

    def _check_function(
        self, project: Project, module: LintModule, info: FunctionInfo
    ) -> Iterator[Violation]:
        module_globals = _module_level_names(module)
        local_names = _locally_bound_names(info)
        flow = project.dataflow(info)
        for node in ast.walk(info.node):
            if isinstance(node, ast.Global):
                yield self._violation(
                    module, info, node,
                    f"'global {', '.join(node.names)}' in worker-reachable "
                    f"code: rebinding module globals from a task mutates the "
                    f"fork-time copy; return the value instead",
                )
                continue
            for name, mutation, anchor in _global_mutations(
                node, module_globals, local_names
            ):
                yield self._violation(
                    module, info, anchor,
                    f"{mutation} of module global {name!r} in "
                    f"worker-reachable code: the parent never sees the "
                    f"write; only pool initializers may populate "
                    f"worker-local module state",
                )
            for class_name, attr, mutation, anchor in _guarded_mutations(
                project, module, flow, node
            ):
                if self._is_sanctioned(info, class_name, attr):
                    continue
                owner = class_name or "guarded class"
                yield self._violation(
                    module, info, anchor,
                    f"{mutation} of {owner} state ({attr!r}) in "
                    f"worker-reachable code outside the owning class's "
                    f"write path; workers must stay read-only on shared "
                    f"handles and return results instead",
                )

    def _is_sanctioned(
        self, info: FunctionInfo, class_name: Optional[str], attr: str
    ) -> bool:
        if info.class_name is None:
            return False
        for guard in WORKER_GUARDS:
            if class_name is not None and guard.class_name != class_name:
                continue
            if class_name is None and attr not in guard.attrs:
                continue
            if info.class_name == guard.class_name and info.name in guard.mutators:
                return True
        return False

    def _violation(
        self, module: LintModule, info: FunctionInfo, node: ast.AST, message: str
    ) -> Violation:
        return Violation(
            rule=self.rule_id,
            module=module.name,
            path=module.path,
            line=getattr(node, "lineno", info.node.lineno),
            column=getattr(node, "col_offset", 0),
            symbol=info.qualname,
            message=message,
        )


# ----------------------------------------------------------------------
# mutation detection
# ----------------------------------------------------------------------
def _module_level_names(module: LintModule) -> Set[str]:
    """Names assigned at module top level (the fork-copied module state)."""
    names: Set[str] = set()
    for statement in module.tree.body:
        if isinstance(statement, ast.Assign):
            for target in statement.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
        elif isinstance(statement, (ast.AnnAssign, ast.AugAssign)):
            if isinstance(statement.target, ast.Name):
                names.add(statement.target.id)
    return names


def _locally_bound_names(info: FunctionInfo) -> Set[str]:
    """Names bound inside the function (parameters and assignment targets)."""
    arguments = info.node.args
    names: Set[str] = {
        parameter.arg
        for parameter in (
            *arguments.posonlyargs,
            *arguments.args,
            *arguments.kwonlyargs,
        )
    }
    if arguments.vararg is not None:
        names.add(arguments.vararg.arg)
    if arguments.kwarg is not None:
        names.add(arguments.kwarg.arg)

    def bind(target: ast.expr) -> None:
        if isinstance(target, ast.Name):
            names.add(target.id)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                bind(element)

    for node in ast.walk(info.node):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                bind(target)
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign, ast.For, ast.AsyncFor)):
            bind(node.target)
        elif isinstance(node, ast.withitem) and node.optional_vars is not None:
            bind(node.optional_vars)
        elif isinstance(node, ast.comprehension):
            bind(node.target)
    return names


def _global_mutations(
    node: ast.AST, module_globals: Set[str], local_names: Set[str]
) -> List[Tuple[str, str, ast.AST]]:
    """``(name, mutation kind, anchor)`` for stores through module globals."""
    found: List[Tuple[str, str, ast.AST]] = []

    def global_name(expression: ast.expr) -> Optional[str]:
        if not isinstance(expression, ast.Name):
            return None
        if expression.id in local_names or expression.id not in module_globals:
            return None
        return expression.id

    def check_target(target: ast.expr, kind: str) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                check_target(element, kind)
            return
        if isinstance(target, (ast.Subscript, ast.Attribute)):
            name = global_name(target.value)
            if name is not None:
                found.append((name, kind, target))

    if isinstance(node, ast.Assign):
        for target in node.targets:
            check_target(target, "item/attribute store")
    elif isinstance(node, ast.AugAssign):
        check_target(node.target, "item/attribute store")
    elif isinstance(node, ast.Delete):
        for target in node.targets:
            check_target(target, "deletion")
    elif isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in _MUTATING_METHODS:
            name = global_name(func.value)
            if name is not None:
                found.append((name, f"mutating call .{func.attr}()", node))
    return found


def _guarded_mutations(
    project: Project,
    module: LintModule,
    flow: FunctionDataflow,
    node: ast.AST,
) -> List[Tuple[Optional[str], str, str, ast.AST]]:
    """``(class name, attr, mutation kind, anchor)`` on guarded state.

    Two nets: (a) any store / guarded-attr mutation on a local whose tracked
    origin is a guard-class constructor or annotated parameter; (b) stores
    through the guarded *attribute names* themselves (``self._store[k] = v``)
    — receiver-agnostic, like R003, with the owning class resolved from the
    enclosing method for the sanction check.
    """
    found: List[Tuple[Optional[str], str, str, ast.AST]] = []

    def tracked_guard_class(expression: ast.expr) -> Optional[str]:
        if not isinstance(expression, ast.Name):
            return None
        origin = flow.env.get(expression.id)
        if origin is None or origin.kind != "call":
            return None
        class_name = origin.detail.rsplit(".", 1)[-1]
        return class_name if class_name in _GUARD_CLASS_NAMES else None

    def check_target(target: ast.expr, kind: str) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                check_target(element, kind)
            return
        if isinstance(target, ast.Attribute):
            class_name = tracked_guard_class(target.value)
            if class_name is not None:
                found.append((class_name, target.attr, f"attribute {kind}", target))
            elif target.attr in _ALL_GUARDED_ATTRS:
                found.append((None, target.attr, f"attribute {kind}", target))
        elif isinstance(target, ast.Subscript):
            value = target.value
            if isinstance(value, ast.Attribute) and value.attr in _ALL_GUARDED_ATTRS:
                # Name the owning class when the receiver base is tracked
                # (``cache._store[k] = v`` with ``cache = MemoCache(...)``).
                found.append(
                    (tracked_guard_class(value.value), value.attr, f"item {kind}", target)
                )
            else:
                class_name = tracked_guard_class(value)
                if class_name is not None:
                    found.append((class_name, "<item>", f"item {kind}", target))

    if isinstance(node, ast.Assign):
        for target in node.targets:
            check_target(target, "store")
    elif isinstance(node, ast.AugAssign):
        check_target(node.target, "store")
    elif isinstance(node, ast.Delete):
        for target in node.targets:
            check_target(target, "deletion")
    elif isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in _MUTATING_METHODS:
            receiver = func.value
            if isinstance(receiver, ast.Attribute):
                if receiver.attr in _ALL_GUARDED_ATTRS:
                    found.append(
                        (None, receiver.attr, f"mutating call .{func.attr}()", node)
                    )
            else:
                class_name = tracked_guard_class(receiver)
                if class_name is not None:
                    found.append(
                        (class_name, func.attr, f"mutating call .{func.attr}()", node)
                    )
    return found


__all__ = ["WorkerIsolationRule", "WORKER_GUARDS"]

"""R006 — fork/pickle safety: everything crossing a pool boundary pickles.

The process-parallel sweep (``experiments/synthetic.py``) and the ROADMAP's
distributed sweep shards ship work to ``ProcessPoolExecutor`` workers.  The
boundary is a pickle boundary: a lambda, a function defined inside another
function (its closure cells cannot be rebuilt), an open file handle, a
``decimal`` context, or a live ``Session``/engine/store handle submitted in
a task tuple either fails to pickle at submit time or — worse — pickles a
*copy* whose mutations the parent never sees.  The sanctioned idiom is the
one ``_init_worker`` uses: module-level task functions, scalar task tuples,
and per-worker reconstruction of engines and stores from those scalars.

The rule finds pool boundaries with the dataflow pass (pool constructor
origins tracked through locals and ``with`` captures, plus the
``self._pool()``/``executor`` naming idiom) and type-checks what crosses
them: the submitted callable must be a module-level function, and task
arguments / ``initargs`` must not carry the unpicklable origins above.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Tuple

from repro.lint.model import LintRule, Violation
from repro.lint.project import (
    FunctionDataflow,
    FunctionInfo,
    LintModule,
    Project,
    ValueOrigin,
    dotted_name,
)

#: Class names (suffix of the resolved constructor target) that open a
#: process-pool boundary.
POOL_CLASS_NAMES = frozenset({"ProcessPoolExecutor", "Pool"})

#: Receiver names accepted as pool handles when no origin is tracked — the
#: repository idiom (``self._pool().map``, ``with ... as pool:``).
_POOL_RECEIVER_NAMES = frozenset({"pool", "executor", "_pool", "_executor"})

#: Pool methods that ship a callable plus arguments to workers.
_SUBMIT_METHODS = frozenset(
    {"submit", "map", "apply_async", "map_async", "starmap", "imap", "imap_unordered"}
)

#: Project handles that must never cross the boundary: workers rebuild their
#: own from scalars instead (the ``_init_worker`` idiom).
SHARED_HANDLE_CLASSES = frozenset(
    {"Session", "EvaluationEngine", "MemoCache", "DesignPointStore"}
)

#: Callables returning ``decimal`` context objects (process-local state).
_DECIMAL_CONTEXTS = frozenset(
    {"decimal.getcontext", "decimal.localcontext", "decimal.Context"}
)


def is_pool_constructor(target: Optional[str]) -> bool:
    """Does a resolved call target construct a process pool?"""
    return target is not None and target.rsplit(".", 1)[-1] in POOL_CLASS_NAMES


def is_pool_boundary(
    project: Project,
    module: LintModule,
    info: FunctionInfo,
    flow: FunctionDataflow,
    call: ast.Call,
) -> bool:
    """Is ``call`` a submit/map across a process-pool boundary?"""
    func = call.func
    if not isinstance(func, ast.Attribute) or func.attr not in _SUBMIT_METHODS:
        return False
    receiver = func.value
    if isinstance(receiver, ast.Name):
        origin = flow.env.get(receiver.id)
        if origin is not None:
            return origin.kind == "call" and is_pool_constructor(origin.detail)
        return receiver.id in _POOL_RECEIVER_NAMES
    if isinstance(receiver, ast.Call):
        # ``ProcessPoolExecutor(...).map`` or the ``self._pool().map`` idiom.
        target = project.call_target(module, receiver, info)
        if is_pool_constructor(target):
            return True
        inner = receiver.func
        if isinstance(inner, ast.Attribute):
            return inner.attr in _POOL_RECEIVER_NAMES
        return False
    if isinstance(receiver, ast.Attribute):
        return receiver.attr in _POOL_RECEIVER_NAMES
    return False


def submitted_callables(
    project: Project, module: LintModule, info: FunctionInfo
) -> Iterator[Tuple[ast.Call, ast.expr]]:
    """``(boundary call, callable expression)`` pairs in one function."""
    flow = project.dataflow(info)
    for node in ast.walk(info.node):
        if not isinstance(node, ast.Call):
            continue
        if is_pool_boundary(project, module, info, flow, node) and node.args:
            yield node, node.args[0]


class ForkPickleRule(LintRule):
    """Pool-crossing callables and task payloads are picklable by type."""

    rule_id = "R006"
    title = "fork/pickle safety: pool tasks are transitively picklable"
    rationale = (
        "lambdas, closures, open handles, decimal contexts and live "
        "engine/store handles either fail to pickle at the pool boundary or "
        "silently ship copies whose mutations the parent never observes"
    )

    def check(self, project: Project) -> Iterator[Violation]:
        for module in project.modules.values():
            for info in module.functions.values():
                yield from self._check_function(project, module, info)

    # ------------------------------------------------------------------
    def _check_function(
        self, project: Project, module: LintModule, info: FunctionInfo
    ) -> Iterator[Violation]:
        flow = project.dataflow(info)
        for node in ast.walk(info.node):
            if not isinstance(node, ast.Call):
                continue
            target = project.call_target(module, node, info)
            if is_pool_constructor(target):
                yield from self._check_construction(project, module, info, flow, node)
            elif is_pool_boundary(project, module, info, flow, node):
                yield from self._check_submission(project, module, info, flow, node)

    def _check_construction(
        self,
        project: Project,
        module: LintModule,
        info: FunctionInfo,
        flow: FunctionDataflow,
        call: ast.Call,
    ) -> Iterator[Violation]:
        for keyword in call.keywords:
            if keyword.arg == "initializer":
                yield from self._check_callable(
                    project, module, info, flow, keyword.value, role="pool initializer"
                )
            elif keyword.arg == "initargs":
                yield from self._check_payload(
                    module, info, flow, keyword.value, role="initargs"
                )

    def _check_submission(
        self,
        project: Project,
        module: LintModule,
        info: FunctionInfo,
        flow: FunctionDataflow,
        call: ast.Call,
    ) -> Iterator[Violation]:
        if not call.args:
            return
        yield from self._check_callable(
            project, module, info, flow, call.args[0], role="submitted callable"
        )
        for argument in call.args[1:]:
            # ``pool.map(fn, [(i, x) for ...])`` — check the element shape.
            if isinstance(argument, (ast.ListComp, ast.GeneratorExp, ast.SetComp)):
                argument = argument.elt
            yield from self._check_payload(
                module, info, flow, argument, role="task payload"
            )

    # ------------------------------------------------------------------
    def _check_callable(
        self,
        project: Project,
        module: LintModule,
        info: FunctionInfo,
        flow: FunctionDataflow,
        expression: ast.expr,
        role: str,
    ) -> Iterator[Violation]:
        origin = flow.classify(expression)
        if origin is not None and origin.kind == "lambda":
            yield self._violation(
                module, info, origin.node or expression,
                f"lambda as {role}: lambdas are not picklable; "
                f"use a module-level function",
            )
            return
        if origin is not None and origin.kind == "local_function":
            yield self._violation(
                module, info, origin.node or expression,
                f"nested function {origin.detail!r} as {role}: closures are "
                f"not picklable; move it to module level",
            )
            return
        dotted = dotted_name(expression)
        if dotted is None or "." not in dotted:
            return
        first = dotted.partition(".")[0]
        if first in ("self", "cls") or (
            first in flow.env and flow.env[first].kind == "call"
        ):
            yield self._violation(
                module, info, expression,
                f"bound method {dotted!r} as {role}: pickling it ships the "
                f"whole instance to every worker; use a module-level "
                f"function over scalar arguments",
            )

    def _check_payload(
        self,
        module: LintModule,
        info: FunctionInfo,
        flow: FunctionDataflow,
        expression: ast.expr,
        role: str,
    ) -> Iterator[Violation]:
        origin = flow.classify(expression)
        if origin is None:
            return
        for defect_origin, message in _payload_defects(origin, role):
            yield self._violation(
                module, info, defect_origin.node or expression, message
            )

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
# payload classification
# ----------------------------------------------------------------------
def _payload_defects(
    origin: ValueOrigin, role: str
) -> List[Tuple[ValueOrigin, str]]:
    """``(origin, message)`` for every unpicklable origin under ``origin``."""
    found: List[Tuple[ValueOrigin, str]] = []
    if origin.kind == "container":
        for element in origin.elements:
            found.extend(_payload_defects(element, role))
        return found
    if origin.kind == "lambda":
        found.append(
            (origin, f"lambda in {role}: lambdas are not picklable; pass "
                     f"scalars and rebuild behaviour in the worker")
        )
    elif origin.kind == "local_function":
        found.append(
            (origin, f"nested function {origin.detail!r} in {role}: closures "
                     f"are not picklable; move it to module level")
        )
    elif origin.kind == "call":
        detail = origin.detail
        if detail == "builtins.open":
            found.append(
                (origin, f"open file handle in {role}: handles cannot cross "
                         f"the fork/pickle boundary; pass the path and "
                         f"reopen in the worker")
            )
        elif detail in _DECIMAL_CONTEXTS:
            found.append(
                (origin, f"decimal context in {role}: contexts are "
                         f"process-local state; pass the precision/quantum "
                         f"scalars instead")
            )
        else:
            class_name = detail.rsplit(".", 1)[-1]
            if class_name in SHARED_HANDLE_CLASSES:
                found.append(
                    (origin, f"{class_name} handle in {role}: workers must "
                             f"rebuild engines/stores from scalars (the "
                             f"_init_worker idiom), not receive pickled "
                             f"copies whose mutations the parent never sees")
                )
    return found


__all__ = [
    "ForkPickleRule",
    "POOL_CLASS_NAMES",
    "SHARED_HANDLE_CLASSES",
    "is_pool_boundary",
    "is_pool_constructor",
    "submitted_callables",
]

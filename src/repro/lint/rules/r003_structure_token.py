"""R003 — freeze safety: guarded containers mutate only via the API.

The compiled scheduler kernel and the evaluation engine memoize what they
derive from an application by object identity, which is
sound only because an application is frozen once an evaluation binds it:
its construction API (``add_process``, ``add_message`` …) checks the freeze
and keeps the derived-structure caches consistent.  A write that bypasses
that API escapes both.  The contract: the containers backing
``TaskGraph``/``Application`` structure (and the immutable-after-
construction ``Schedule`` tables) are mutated **only** inside the methods
that check the freeze and keep the caches consistent.

The rule flags, anywhere in the tree, item assignment / deletion, mutating
method calls (``append``, ``update``, ``add_edge`` …) and attribute
rebinding on the guarded attributes, and the same edits one or more
subscripts deep (``graph._succ[a][b] = None``, ``graph._pred[b].pop(a)``) —
unless the mutation happens inside the owning class's sanctioned mutator
methods.  Local-alias mutations (``succ = graph._succ[a]; succ[b] = None``)
are not modeled; the guarded names are private, so any such alias is already
a reach into internals that review should catch.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import FrozenSet, Iterator, List, Optional, Tuple

from repro.lint.model import LintRule, Violation
from repro.lint.project import LintModule, Project, dotted_name


@dataclass(frozen=True)
class GuardSpec:
    """One guarded class: its containers and sanctioned mutator methods."""

    class_name: str
    attrs: FrozenSet[str]
    mutators: FrozenSet[str]


#: The guarded containers.  Mutator lists name exactly the methods that check
#: the freeze and keep the derived caches consistent (or construct the object).
GUARDS: Tuple[GuardSpec, ...] = (
    GuardSpec(
        class_name="TaskGraph",
        attrs=frozenset({"_processes", "_succ", "_pred", "_messages"}),
        mutators=frozenset(
            {
                "__init__",
                "add_process",
                "add_message",
                "remove_message",
                "_invalidate_structure_caches",
            }
        ),
    ),
    GuardSpec(
        class_name="Application",
        attrs=frozenset({"_graphs", "_recovery_overheads"}),
        mutators=frozenset(
            {"__init__", "add_graph", "new_graph", "set_recovery_overhead"}
        ),
    ),
    GuardSpec(
        class_name="Schedule",
        attrs=frozenset({"_processes", "_messages", "node_recovery_slack"}),
        mutators=frozenset({"__init__"}),
    ),
)

_MUTATING_METHODS = frozenset(
    {
        "add",
        "append",
        "extend",
        "insert",
        "update",
        "setdefault",
        "pop",
        "popitem",
        "clear",
        "remove",
        "discard",
        # graph-library style mutators, should a guarded container ever be
        # a graph object again
        "add_node",
        "add_edge",
        "add_nodes_from",
        "add_edges_from",
        "remove_node",
        "remove_edge",
    }
)

_ALL_GUARDED_ATTRS: FrozenSet[str] = frozenset().union(*(g.attrs for g in GUARDS))


class StructureTokenRule(LintRule):
    """Guarded structure containers mutate only inside sanctioned mutators."""

    rule_id = "R003"
    title = "freeze safety: no out-of-API container mutation"
    rationale = (
        "in-place edits of Application/TaskGraph/Schedule containers that "
        "bypass the construction API escape the freeze check, so what the "
        "scheduler kernel and the engine memoized for the model goes stale"
    )

    def check(self, project: Project) -> Iterator[Violation]:
        for module in project.modules.values():
            yield from self._check_module(project, module)

    # ------------------------------------------------------------------
    def _check_module(
        self, project: Project, module: LintModule
    ) -> Iterator[Violation]:
        for node in module.walk():
            for attr, mutation, anchor in _mutations(node):
                if self._is_sanctioned(project, module, anchor, attr):
                    continue
                yield Violation(
                    rule=self.rule_id,
                    module=module.name,
                    path=module.path,
                    line=getattr(anchor, "lineno", 1),
                    column=getattr(anchor, "col_offset", 0),
                    symbol=project.enclosing_function(module, anchor) or "",
                    message=(
                        f"{mutation} of guarded container .{attr} outside "
                        f"the owning class's freeze-checking mutators; use "
                        f"the construction API (add_*/remove_*), which "
                        f"raises once an evaluation has frozen the model"
                    ),
                )

    def _is_sanctioned(
        self, project: Project, module: LintModule, node: ast.AST, attr: str
    ) -> bool:
        qualname = project.enclosing_function(module, node)
        if qualname is None:
            return False
        info = project.functions.get(qualname)
        if info is None or info.class_name is None:
            return False
        for guard in GUARDS:
            if attr not in guard.attrs:
                continue
            if info.class_name == guard.class_name and info.name in guard.mutators:
                return True
        return False


# ----------------------------------------------------------------------
# mutation detection
# ----------------------------------------------------------------------
def _guarded_attribute(expression: ast.expr) -> Optional[str]:
    """The guarded attribute name if ``expression`` is ``<obj>.<guarded>``,
    possibly subscripted (``<obj>.<guarded>[key]...``)."""
    while isinstance(expression, ast.Subscript):
        expression = expression.value
    if isinstance(expression, ast.Attribute) and expression.attr in _ALL_GUARDED_ATTRS:
        return expression.attr
    return None


def _mutations(node: ast.AST) -> List[Tuple[str, str, ast.AST]]:
    """``(attr, mutation kind, anchor node)`` triples detected on ``node``."""
    found: List[Tuple[str, str, ast.AST]] = []

    def check_target(target: ast.expr, kind_prefix: str) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                check_target(element, kind_prefix)
            return
        if isinstance(target, ast.Subscript):
            attr = _guarded_attribute(target.value)
            if attr is not None:
                found.append((attr, f"item {kind_prefix}", target))
        elif isinstance(target, ast.Attribute):
            attr = _guarded_attribute(target)
            if attr is not None:
                found.append((attr, f"attribute {kind_prefix}", target))

    if isinstance(node, ast.Assign):
        for target in node.targets:
            check_target(target, "assignment")
    elif isinstance(node, ast.AugAssign):
        check_target(node.target, "assignment")
    elif isinstance(node, ast.Delete):
        for target in node.targets:
            check_target(target, "deletion")
    elif isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in _MUTATING_METHODS:
            attr = _guarded_attribute(func.value)
            if attr is not None:
                found.append((attr, f"mutating call .{func.attr}()", node))
    return found


#: Re-exported for the fixture tests.
__all__ = ["StructureTokenRule", "GUARDS", "GuardSpec", "dotted_name"]

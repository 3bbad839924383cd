"""R005 — no ``Decimal``/``float`` mixing in the SFP rounding chains.

The Appendix A pessimistic-rounding chains are specified as an exact
``Decimal`` operation sequence (see ``kernels/base.py``: the rounding
direction is part of the paper's safety argument, and every backend must be
bit-identical to it).  Two ``Decimal`` mistakes survive casual testing:

* ``Decimal(0.1)`` — constructing from a float captures the full binary
  expansion (``0.1000000000000000055511151231257827…``), silently shifting
  every downstream rounding; floats must enter via ``Decimal(repr(x))``;
* arithmetic or comparison mixing a ``Decimal`` with a float — a crash for
  ``+``/``*`` but silently *allowed* for comparisons, which then go through
  exact conversion of the binary float, not the decimal string the chain is
  specified over.

The rule applies to every module that imports ``decimal.Decimal``; it tracks
names assigned from Decimal expressions within each function and flags
float-tainted constructions, mixed arithmetic and mixed comparisons.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Sequence, Set, Tuple

from repro.lint.model import LintRule, Violation
from repro.lint.project import LintModule, Project

_ARITHMETIC_OPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.FloorDiv, ast.Mod, ast.Pow)


class DecimalFloatRule(LintRule):
    """Decimal chains stay decimal: floats enter via ``Decimal(repr(x))``."""

    rule_id = "R005"
    title = "Decimal/float mixing in SFP rounding chains"
    rationale = (
        "Decimal(float) captures the binary expansion and Decimal-vs-float "
        "comparisons bypass the decimal grid, silently shifting the paper's "
        "pessimistic rounding"
    )

    def check(self, project: Project) -> Iterator[Violation]:
        for module in project.modules.values():
            if not _imports_decimal(module):
                continue
            for scope_name, body in _scopes(module):
                yield from self._check_scope(project, module, scope_name, body)

    # ------------------------------------------------------------------
    def _check_scope(
        self,
        project: Project,
        module: LintModule,
        scope_name: str,
        body: Sequence[ast.stmt],
    ) -> Iterator[Violation]:
        prune_defs = scope_name == module.name
        nodes = list(_scope_nodes(body, prune_defs))
        tracker = _TypeTracker(project, module)
        tracker.scan(nodes)
        for node in nodes:
            yield from self._check_node(module, scope_name, tracker, node)

    def _check_node(
        self,
        module: LintModule,
        scope_name: str,
        tracker: "_TypeTracker",
        node: ast.AST,
    ) -> Iterator[Violation]:
        if isinstance(node, ast.Call) and tracker.is_decimal_constructor(node):
            if node.args and tracker.is_float(node.args[0]):
                yield self._violation(
                    module,
                    scope_name,
                    node,
                    "Decimal() constructed from a float captures the binary "
                    "expansion; construct from repr(x) (or an int/str)",
                )
        elif isinstance(node, ast.BinOp) and isinstance(node.op, _ARITHMETIC_OPS):
            operands = (node.left, node.right)
            if self._mixes(tracker, operands):
                yield self._violation(
                    module,
                    scope_name,
                    node,
                    "arithmetic mixes Decimal and float; keep the chain "
                    "Decimal (floats enter via Decimal(repr(x)))",
                )
        elif isinstance(node, ast.Compare):
            operands = (node.left, *node.comparators)
            if self._mixes(tracker, operands):
                yield self._violation(
                    module,
                    scope_name,
                    node,
                    "comparison mixes Decimal and float; floats compare "
                    "through exact binary conversion, bypassing the decimal "
                    "grid — convert explicitly first",
                )

    def _mixes(self, tracker: "_TypeTracker", operands: Sequence[ast.expr]) -> bool:
        has_decimal = any(tracker.is_decimal(operand) for operand in operands)
        has_float = any(tracker.is_float(operand) for operand in operands)
        return has_decimal and has_float

    def _violation(
        self, module: LintModule, scope_name: str, node: ast.AST, message: str
    ) -> Violation:
        return Violation(
            rule=self.rule_id,
            module=module.name,
            path=module.path,
            line=getattr(node, "lineno", 1),
            column=getattr(node, "col_offset", 0),
            symbol=scope_name,
            message=message,
        )


# ----------------------------------------------------------------------
# lightweight local type tracking
# ----------------------------------------------------------------------
class _TypeTracker:
    """Tracks which local names are Decimal- or float-valued in one scope.

    Single forward pass over the scope's assignments; conservative in both
    directions (an unknown name is neither Decimal nor float, so it can
    never contribute to a mixing report).
    """

    def __init__(self, project: Project, module: LintModule) -> None:
        self._project = project
        self._module = module
        self.decimal_names: Set[str] = set()
        self.float_names: Set[str] = set()

    def scan(self, nodes: Sequence[ast.AST]) -> None:
        for node in nodes:
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, ast.Name):
                    self._record(target.id, node.value)
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                if isinstance(node.target, ast.Name):
                    self._record(node.target.id, node.value)

    def _record(self, name: str, value: ast.expr) -> None:
        if self.is_decimal(value):
            self.decimal_names.add(name)
            self.float_names.discard(name)
        elif self.is_float(value):
            self.float_names.add(name)
            self.decimal_names.discard(name)
        else:
            self.decimal_names.discard(name)
            self.float_names.discard(name)

    # ------------------------------------------------------------------
    def is_decimal_constructor(self, call: ast.Call) -> bool:
        target = self._project.resolve_call(self._module, call)
        return target == "decimal.Decimal"

    def is_decimal(self, expression: ast.expr) -> bool:
        if isinstance(expression, ast.Call):
            if self.is_decimal_constructor(expression):
                return True
            # Method chains on a Decimal stay Decimal (quantize, scaleb, …).
            func = expression.func
            if isinstance(func, ast.Attribute) and self.is_decimal(func.value):
                return True
            return False
        if isinstance(expression, ast.Name):
            return expression.id in self.decimal_names
        if isinstance(expression, ast.BinOp):
            return self.is_decimal(expression.left) or self.is_decimal(expression.right)
        if isinstance(expression, ast.UnaryOp):
            return self.is_decimal(expression.operand)
        return False

    def is_float(self, expression: ast.expr) -> bool:
        if isinstance(expression, ast.Constant):
            return isinstance(expression.value, float)
        if isinstance(expression, ast.Name):
            return expression.id in self.float_names
        if isinstance(expression, ast.Call):
            target = self._project.resolve_call(self._module, expression)
            return target == "builtins.float"
        if isinstance(expression, ast.UnaryOp):
            return self.is_float(expression.operand)
        return False


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def _imports_decimal(module: LintModule) -> bool:
    return any(
        target == "decimal.Decimal" or target == "decimal"
        for target in module.bindings.values()
    )


def _scopes(module: LintModule) -> List[Tuple[str, List[ast.stmt]]]:
    """``(scope name, statement list)`` pairs: module body + every function.

    The module scope prunes function and class definitions (methods and
    top-level functions are their own scopes), so no node is checked twice.
    """
    scopes: List[Tuple[str, List[ast.stmt]]] = [(module.name, module.tree.body)]
    for info in module.functions.values():
        scopes.append((info.qualname, info.node.body))
    return scopes


def _scope_nodes(body: Sequence[ast.stmt], prune_defs: bool) -> Iterator[ast.AST]:
    """All AST nodes of one scope, optionally pruning nested definitions."""
    pending: List[ast.AST] = list(body)
    while pending:
        node = pending.pop()
        if prune_defs and isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            continue
        yield node
        pending.extend(ast.iter_child_nodes(node))

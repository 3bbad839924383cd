"""R001 — fingerprint purity: cache keys must be canonical and run-stable.

The persistent design-point store (and ROADMAP's federated warm store) is
only sound if every value flowing into a cache key is a pure function of the
design point's *content*.  Three classes of impurity can leak into a key
computation without failing any test on a single machine:

* ``hash()`` — salted per interpreter run (``PYTHONHASHSEED``);
* ``id()`` — an address, different every run;
* ``repr()`` — representation-sensitive (container ordering, future float
  formatting changes); key paths must encode through an explicit canonical
  encoder instead;
* iterating a ``set`` (hash order) or a dict view without a ``sorted(...)``
  normalization — order-dependent when the consumer folds the sequence.

The rule computes the call-graph closure of the key-computation roots — all
top-level functions of ``repro.engine.fingerprint`` plus the store's
file-key methods — and flags the patterns above anywhere in that closure.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Set, Tuple

from repro.lint.model import LintRule, Violation
from repro.lint.project import FunctionInfo, LintModule, Project, dotted_name

#: Modules whose every top-level function is a key-computation root.
KEY_ROOT_MODULES: Tuple[str, ...] = ("repro.engine.fingerprint",)

#: Individual functions/methods that are key-computation roots.
KEY_ROOT_FUNCTIONS: Tuple[str, ...] = (
    "repro.engine.store.DesignPointStore.context_key",
    "repro.engine.store.DesignPointStore.path_for",
)

#: Builtins whose *output* is not a pure function of input content.
_IMPURE_BUILTINS = {
    "builtins.hash": (
        "builtin hash() is salted per interpreter run (PYTHONHASHSEED); "
        "use a sha256 digest of the canonical encoding"
    ),
    "builtins.id": (
        "id() is an object address — different every run; "
        "key material must be content-derived"
    ),
    "builtins.repr": (
        "repr() is representation-sensitive; encode key material through "
        "an explicit canonical encoder"
    ),
}

#: Wrapper calls that make an iteration order-insensitive.
_ORDER_NORMALIZERS = {"builtins.sorted", "builtins.min", "builtins.max"}

_DICT_VIEW_METHODS = {"keys", "values", "items"}


class FingerprintPurityRule(LintRule):
    """No impure builtins or unordered iteration on cache-key paths."""

    rule_id = "R001"
    title = "fingerprint purity: cache-key paths must be content-pure"
    rationale = (
        "cache keys must be canonical and PYTHONHASHSEED-independent or the "
        "persistent warm store returns wrong hits across runs and machines"
    )

    def check(self, project: Project) -> Iterator[Violation]:
        roots = self._roots(project)
        for qualname in sorted(project.reachable_functions(roots)):
            info = project.functions[qualname]
            module = project.modules[info.module]
            yield from self._check_function(project, module, info)

    # ------------------------------------------------------------------
    def _roots(self, project: Project) -> List[str]:
        roots: List[str] = []
        for module_name in KEY_ROOT_MODULES:
            module = project.modules.get(module_name)
            if module is None:
                continue
            roots.extend(
                info.qualname
                for info in module.functions.values()
                if info.class_name is None
            )
        roots.extend(name for name in KEY_ROOT_FUNCTIONS if name in project.functions)
        return roots

    def _check_function(
        self, project: Project, module: LintModule, info: FunctionInfo
    ) -> Iterator[Violation]:
        parents = module.parent_map()
        for node in ast.walk(info.node):
            if isinstance(node, ast.Call):
                target = project.resolve_call(module, node, info)
                if target in _IMPURE_BUILTINS:
                    yield self._violation(
                        module, info, node, _IMPURE_BUILTINS[target]
                    )
            for iterable, site in _iteration_sites(node):
                yield from self._check_iteration(
                    project, module, info, parents, iterable, site
                )

    def _check_iteration(
        self,
        project: Project,
        module: LintModule,
        info: FunctionInfo,
        parents: Dict[ast.AST, ast.AST],
        iterable: ast.expr,
        site: ast.AST,
    ) -> Iterator[Violation]:
        if _is_set_expression(project, module, info, iterable):
            yield self._violation(
                module,
                info,
                iterable,
                "iteration over a set has hash-dependent order on a "
                "cache-key path; iterate sorted(...) instead",
            )
            return
        if _is_dict_view(iterable) and not self._is_normalized(
            project, module, info, parents, site
        ):
            yield self._violation(
                module,
                info,
                iterable,
                "unsorted dict-view iteration on a cache-key path; wrap the "
                "iteration in sorted(...) (or reduce with min/max)",
            )

    def _is_normalized(
        self,
        project: Project,
        module: LintModule,
        info: FunctionInfo,
        parents: Dict[ast.AST, ast.AST],
        site: ast.AST,
    ) -> bool:
        """Does the iteration's result feed directly into an order normalizer?

        Covers ``sorted(x for ... in d.items())`` and
        ``for k in sorted(d.items())`` — the two shapes the codebase uses.
        A bare ``for`` statement over a dict view is never normalized.
        """
        if isinstance(site, ast.For):
            return False
        # ``site`` is a comprehension's generator owner (GeneratorExp & co.);
        # check whether it is a direct argument of a normalizing call.
        parent = parents.get(site)
        if not isinstance(parent, ast.Call):
            return False
        if site not in parent.args:
            return False
        target = project.resolve_call(module, parent, info)
        return target in _ORDER_NORMALIZERS

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
# helpers
# ----------------------------------------------------------------------
def _iteration_sites(node: ast.AST) -> List[Tuple[ast.expr, ast.AST]]:
    """``(iterable expression, owning For/comprehension node)`` pairs."""
    sites: List[Tuple[ast.expr, ast.AST]] = []
    if isinstance(node, ast.For):
        sites.append((node.iter, node))
    elif isinstance(node, (ast.GeneratorExp, ast.ListComp, ast.SetComp, ast.DictComp)):
        for generator in node.generators:
            sites.append((generator.iter, node))
    return sites


def _is_set_expression(
    project: Project,
    module: LintModule,
    info: FunctionInfo,
    expression: ast.expr,
) -> bool:
    if isinstance(expression, (ast.Set, ast.SetComp)):
        return True
    if isinstance(expression, ast.Call):
        target = project.resolve_call(module, expression, info)
        return target in ("builtins.set", "builtins.frozenset")
    return False


def _is_dict_view(expression: ast.expr) -> bool:
    return (
        isinstance(expression, ast.Call)
        and isinstance(expression.func, ast.Attribute)
        and expression.func.attr in _DICT_VIEW_METHODS
        and not expression.args
        and not expression.keywords
    )


#: The dotted-name helper is re-exported for the fixture tests.
__all__ = ["FingerprintPurityRule", "KEY_ROOT_MODULES", "KEY_ROOT_FUNCTIONS", "dotted_name"]

"""Parsed-project model for ``repro.lint``: modules, imports and call graph.

A :class:`Project` is the unit every lint rule operates on: the ``ast`` trees
of all modules under one package, plus three cheap cross-module indexes —

* *name bindings* per module (``from repro.kernels.base import SFPKernel``
  binds ``SFPKernel`` to the dotted target ``repro.kernels.base.SFPKernel``),
* the *runtime import graph* (imports under ``if TYPE_CHECKING:`` are
  excluded — they never execute, so they cannot leak behaviour), and
* a best-effort *call graph* resolving ``Name``, ``module.attr`` and
  ``self.method`` call sites to project functions or to builtins.

The call resolution is deliberately conservative static analysis: anything it
cannot resolve (dynamic dispatch, higher-order callables) is simply not an
edge.  Rules that rely on reachability therefore under-approximate, which is
the right failure mode for a checker gating CI — no false alarms from
imaginary edges — while the known-bad fixture tests keep the resolution
honest on the patterns the rules exist to catch.

Projects load from a package directory (the real tree) or from an in-memory
``{module name: source}`` mapping (the fixture tests).
"""

from __future__ import annotations

import ast
import builtins as _builtins
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Set, Tuple, Union

FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]

#: Builtin callables that rules reason about; resolved as ``builtins.<name>``.
BUILTIN_NAMES = frozenset(
    {
        "hash",
        "id",
        "repr",
        "sorted",
        "set",
        "frozenset",
        "dict",
        "list",
        "tuple",
        "str",
        "float",
        "int",
        "min",
        "max",
    }
)


@dataclass(frozen=True)
class FunctionInfo:
    """One function or method definition."""

    qualname: str
    module: str
    name: str
    class_name: Optional[str]
    node: FunctionNode


@dataclass
class ClassInfo:
    """One top-level class definition."""

    qualname: str
    module: str
    name: str
    node: ast.ClassDef
    bases: List[str] = field(default_factory=list)
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)


@dataclass
class LintModule:
    """One parsed module plus its per-module indexes.

    The tree is parsed exactly once; :meth:`walk` and :meth:`parent_map`
    memoize the flat node list and the child-to-parent map so the growing
    rule set shares one traversal per module instead of re-walking the AST
    rule by rule.
    """

    name: str
    path: str
    tree: ast.Module
    bindings: Dict[str, str] = field(default_factory=dict)
    runtime_imports: Set[str] = field(default_factory=set)
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    classes: Dict[str, ClassInfo] = field(default_factory=dict)
    _walked: Optional[List[ast.AST]] = field(default=None, repr=False, compare=False)
    _parents: Optional[Dict[ast.AST, ast.AST]] = field(
        default=None, repr=False, compare=False
    )

    def walk(self) -> List[ast.AST]:
        """Every node of the module tree, memoized across rules."""
        if self._walked is None:
            self._walked = list(ast.walk(self.tree))
        return self._walked

    def parent_map(self) -> Dict[ast.AST, ast.AST]:
        """Child-to-parent node map over the whole module, memoized."""
        if self._parents is None:
            parents: Dict[ast.AST, ast.AST] = {}
            for parent in self.walk():
                for child in ast.iter_child_nodes(parent):
                    parents[child] = parent
            self._parents = parents
        return self._parents


@dataclass(frozen=True)
class ValueOrigin:
    """Where a local name's value came from, as far as one pass can tell.

    ``kind`` is one of ``"call"`` (resolved constructor/function call,
    ``detail`` holds the dotted target), ``"lambda"``, ``"local_function"``
    (``detail`` holds the nested function's name), ``"set"``, ``"bytes"`` or
    ``"container"`` (tuple/list literal; ``elements`` holds the origins of
    the elements that themselves have one).
    """

    kind: str
    detail: str = ""
    node: Optional[ast.AST] = None
    elements: Tuple["ValueOrigin", ...] = ()


class FunctionDataflow:
    """Light intra-procedural value tracking for one function.

    A single forward pass over the function records, per local name, the
    origin of the value last assigned to it (direct assignment, annotated
    assignment, or ``with ... as name`` capture).  Annotated parameters whose
    annotation resolves to a project class count as instances of that class.
    The pass is deliberately flow-insensitive across branches — the right
    under-approximation for CI-gating rules: an origin is only recorded when
    the defining expression is unambiguous.
    """

    def __init__(self, project: "Project", module: LintModule, info: FunctionInfo) -> None:
        self._project = project
        self._module = module
        self._info = info
        self._nested: Set[str] = {
            node.name
            for node in ast.walk(info.node)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node is not info.node
        }
        self.env: Dict[str, ValueOrigin] = {}
        self._seed_parameters()
        self._scan()

    # ------------------------------------------------------------------
    def classify(self, expression: ast.expr) -> Optional[ValueOrigin]:
        """Origin of an arbitrary expression under the final environment."""
        if isinstance(expression, ast.Lambda):
            return ValueOrigin("lambda", node=expression)
        if isinstance(expression, (ast.Set, ast.SetComp)):
            return ValueOrigin("set", node=expression)
        if isinstance(expression, ast.Constant) and isinstance(expression.value, bytes):
            return ValueOrigin("bytes", node=expression)
        if isinstance(expression, ast.Name):
            known = self.env.get(expression.id)
            if known is not None:
                return known
            if expression.id in self._nested:
                return ValueOrigin("local_function", detail=expression.id, node=expression)
            return None
        if isinstance(expression, (ast.Tuple, ast.List)):
            elements = tuple(
                origin
                for origin in (self.classify(element) for element in expression.elts)
                if origin is not None
            )
            if elements:
                return ValueOrigin("container", node=expression, elements=elements)
            return None
        if isinstance(expression, ast.Call):
            target = self._project.call_target(self._module, expression, self._info)
            if target is not None:
                return ValueOrigin("call", detail=target, node=expression)
            return None
        return None

    # ------------------------------------------------------------------
    def _seed_parameters(self) -> None:
        arguments = self._info.node.args
        parameters = [
            *arguments.posonlyargs,
            *arguments.args,
            *arguments.kwonlyargs,
        ]
        for parameter in parameters:
            if parameter.annotation is None:
                continue
            dotted = dotted_name(parameter.annotation)
            if dotted is None:
                continue
            resolved = self._project.resolve_dotted(self._module, dotted)
            found = self._project.find_class(self._module, resolved)
            if found is not None:
                self.env[parameter.arg] = ValueOrigin(
                    "call", detail=found.qualname, node=parameter
                )

    def _scan(self) -> None:
        for node in ast.walk(self._info.node):
            if isinstance(node, ast.Assign):
                if len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
                    self._record(node.targets[0].id, node.value)
            elif isinstance(node, ast.AnnAssign):
                if isinstance(node.target, ast.Name) and node.value is not None:
                    self._record(node.target.id, node.value)
            elif isinstance(node, ast.withitem):
                if isinstance(node.optional_vars, ast.Name):
                    self._record(node.optional_vars.id, node.context_expr)

    def _record(self, name: str, value: ast.expr) -> None:
        origin = self.classify(value)
        if origin is not None:
            self.env[name] = origin
        else:
            self.env.pop(name, None)


def dotted_name(node: ast.expr) -> Optional[str]:
    """Unparse a pure ``Name``/``Attribute`` chain; ``None`` for anything else."""
    parts: List[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if not isinstance(current, ast.Name):
        return None
    parts.append(current.id)
    return ".".join(reversed(parts))


def _is_type_checking_test(test: ast.expr) -> bool:
    target = dotted_name(test)
    return target in ("TYPE_CHECKING", "typing.TYPE_CHECKING")


class Project:
    """All modules of one package, indexed for rule consumption."""

    def __init__(self, modules: Dict[str, LintModule]) -> None:
        self.modules = modules
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        self.package_names: Set[str] = {
            name
            for name in modules
            if any(other.startswith(name + ".") for other in modules)
        }
        for module in modules.values():
            self._index_module(module)
        # Unique class-name index: resolves re-exported names (``from
        # repro.engine import DesignPointStore``) back to the defining class.
        # Ambiguous names map to None and never resolve.
        self._classes_by_name: Dict[str, Optional[ClassInfo]] = {}
        for class_info in self.classes.values():
            if class_info.name in self._classes_by_name:
                self._classes_by_name[class_info.name] = None
            else:
                self._classes_by_name[class_info.name] = class_info
        self._dataflow_cache: Dict[str, FunctionDataflow] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_directory(cls, package_dir: Path) -> "Project":
        """Parse every ``*.py`` file under one package directory.

        ``package_dir`` is the directory of the package itself (the one
        containing the top-level ``__init__.py``); its name is the package
        name.
        """
        package_dir = Path(package_dir).resolve()
        modules: Dict[str, LintModule] = {}
        for path in sorted(package_dir.rglob("*.py")):
            relative = path.relative_to(package_dir)
            parts = [package_dir.name, *relative.parts[:-1]]
            if relative.name != "__init__.py":
                parts.append(relative.stem)
            name = ".".join(parts)
            display = str(Path(package_dir.name, *relative.parts))
            modules[name] = _parse_module(
                name, display, path.read_text(encoding="utf-8")
            )
        return cls(modules)

    @classmethod
    def from_sources(cls, sources: Mapping[str, str]) -> "Project":
        """Build a project from ``{dotted module name: source}`` (tests)."""
        modules = {
            name: _parse_module(name, f"<memory>/{name}.py", source)
            for name, source in sources.items()
        }
        return cls(modules)

    # ------------------------------------------------------------------
    # indexes
    # ------------------------------------------------------------------
    def _index_module(self, module: LintModule) -> None:
        _collect_imports(module)
        for statement in module.tree.body:
            if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info = FunctionInfo(
                    qualname=f"{module.name}.{statement.name}",
                    module=module.name,
                    name=statement.name,
                    class_name=None,
                    node=statement,
                )
                module.functions[info.qualname] = info
            elif isinstance(statement, ast.ClassDef):
                class_info = ClassInfo(
                    qualname=f"{module.name}.{statement.name}",
                    module=module.name,
                    name=statement.name,
                    node=statement,
                )
                for base in statement.bases:
                    base_name = dotted_name(base)
                    if base_name is not None:
                        class_info.bases.append(base_name)
                for member in statement.body:
                    if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        info = FunctionInfo(
                            qualname=f"{class_info.qualname}.{member.name}",
                            module=module.name,
                            name=member.name,
                            class_name=statement.name,
                            node=member,
                        )
                        class_info.methods[member.name] = info
                        module.functions[info.qualname] = info
                module.classes[class_info.qualname] = class_info
        self.functions.update(module.functions)
        self.classes.update(module.classes)

    # ------------------------------------------------------------------
    # name resolution
    # ------------------------------------------------------------------
    def resolve_dotted(self, module: LintModule, dotted: str) -> str:
        """Rewrite a dotted chain through the module's import bindings."""
        first, _, rest = dotted.partition(".")
        target = module.bindings.get(first)
        if target is None:
            return dotted
        return f"{target}.{rest}" if rest else target

    def resolve_base_class(self, module: LintModule, base: str) -> Optional[ClassInfo]:
        """Resolve a base-class expression to a project class, if any.

        Checks the module's import bindings first, then the module's own
        namespace (a base defined in the same file is written unqualified).
        """
        resolved = self.resolve_dotted(module, base)
        found = self.classes.get(resolved)
        if found is None:
            found = self.classes.get(f"{module.name}.{resolved}")
        return found

    def resolve_call(
        self,
        module: LintModule,
        call: ast.Call,
        enclosing: Optional[FunctionInfo] = None,
    ) -> Optional[str]:
        """Qualified target of a call site, or ``None`` when unresolvable.

        Returns a project function qualname, a project *class* qualname (for
        constructor calls), or ``builtins.<name>`` for recognized builtins.
        """
        func = call.func
        if isinstance(func, ast.Name):
            local = f"{module.name}.{func.id}"
            if local in self.functions:
                return local
            if local in self.classes:
                return local
            target = module.bindings.get(func.id)
            if target is not None:
                return target
            if func.id in BUILTIN_NAMES:
                return f"builtins.{func.id}"
            return None
        dotted = dotted_name(func)
        if dotted is None:
            return None
        first, _, rest = dotted.partition(".")
        if first in ("self", "cls") and rest:
            if enclosing is not None and enclosing.class_name is not None:
                candidate = f"{module.name}.{enclosing.class_name}.{rest}"
                if candidate in self.functions:
                    return candidate
            return None
        resolved = self.resolve_dotted(module, dotted)
        if resolved in self.functions or resolved in self.classes:
            return resolved
        return None

    def call_target(
        self,
        module: LintModule,
        call: ast.Call,
        enclosing: Optional[FunctionInfo] = None,
    ) -> Optional[str]:
        """Best-effort dotted target of a call, including external callables.

        Like :meth:`resolve_call` but also names targets *outside* the
        project: any Python builtin resolves to ``builtins.<name>``, and a
        dotted chain rooted in an import binding resolves to its external
        dotted path (``multiprocessing.Pool``,
        ``decimal.getcontext``).  Attribute chains rooted in a local variable
        stay unresolvable — the dataflow pass handles those separately.
        """
        resolved = self.resolve_call(module, call, enclosing)
        if resolved is not None:
            return resolved
        func = call.func
        if isinstance(func, ast.Name):
            if hasattr(_builtins, func.id):
                return f"builtins.{func.id}"
            return None
        dotted = dotted_name(func)
        if dotted is None:
            return None
        first, _, _rest = dotted.partition(".")
        if first in ("self", "cls"):
            return None
        if first in module.bindings:
            return self.resolve_dotted(module, dotted)
        return None

    def find_class(self, module: LintModule, dotted: str) -> Optional[ClassInfo]:
        """Project class named by ``dotted``, tolerating re-exported paths.

        Tries the exact qualname, the module-local name, then — best effort —
        a project-unique class-name suffix (resolves ``from repro.engine
        import DesignPointStore`` back to the defining class).
        """
        found = self.classes.get(dotted)
        if found is None:
            found = self.classes.get(f"{module.name}.{dotted}")
        if found is None:
            found = self._classes_by_name.get(dotted.rsplit(".", 1)[-1])
        return found

    def dataflow(self, info: FunctionInfo) -> FunctionDataflow:
        """Memoized :class:`FunctionDataflow` for one project function."""
        cached = self._dataflow_cache.get(info.qualname)
        if cached is None:
            cached = FunctionDataflow(self, self.modules[info.module], info)
            self._dataflow_cache[info.qualname] = cached
        return cached

    # ------------------------------------------------------------------
    # graphs
    # ------------------------------------------------------------------
    def reachable_functions(
        self, roots: Iterable[str], follow_instances: bool = False
    ) -> Set[str]:
        """Project functions reachable from ``roots`` through resolved calls.

        Constructor calls continue into the class's ``__init__``.  The walk
        stays within the project; builtins terminate an edge.  With
        ``follow_instances`` the dataflow pass extends the edge set: a method
        call on a local whose tracked origin is a project-class constructor
        (``store = DesignPointStore(...); store.warm(...)``) resolves into
        that class's method.
        """
        queue: List[str] = [root for root in roots if root in self.functions]
        reachable: Set[str] = set(queue)
        while queue:
            qualname = queue.pop()
            info = self.functions[qualname]
            module = self.modules[info.module]
            flow = self.dataflow(info) if follow_instances else None
            for node in ast.walk(info.node):
                if not isinstance(node, ast.Call):
                    continue
                target = self.resolve_call(module, node, info)
                if target is None and flow is not None:
                    target = self._instance_method_target(module, node, flow)
                if target is None or target.startswith("builtins."):
                    continue
                if target in self.classes:
                    target = f"{target}.__init__"
                if target in self.functions and target not in reachable:
                    reachable.add(target)
                    queue.append(target)
        return reachable

    def _instance_method_target(
        self, module: LintModule, call: ast.Call, flow: FunctionDataflow
    ) -> Optional[str]:
        """Resolve ``local.method(...)`` through the local's tracked origin."""
        func = call.func
        if not isinstance(func, ast.Attribute) or not isinstance(func.value, ast.Name):
            return None
        origin = flow.env.get(func.value.id)
        if origin is None or origin.kind != "call":
            return None
        class_info = self.find_class(module, origin.detail)
        if class_info is None:
            return None
        method = class_info.methods.get(func.attr)
        return method.qualname if method is not None else None

    def runtime_import_closure(self, root: str) -> Set[str]:
        """Project modules transitively imported from ``root`` at runtime.

        Follows the modules a file imports *by name* (including submodules
        pulled in through ``from package import submodule``).  Package
        ``__init__`` modules join the closure as members but their own
        imports are not expanded: they are aggregation surfaces, and
        following them would model interpreter import side effects
        ("importing ``repro`` executes ``repro.core``") rather than what the
        rules ask — "does this module's code use X".
        """
        if root not in self.modules:
            return set()
        closure: Set[str] = set()
        queue = [root]
        while queue:
            name = queue.pop()
            if name in closure or name not in self.modules:
                continue
            closure.add(name)
            if name != root and name in self.package_names:
                continue
            module = self.modules[name]
            queue.extend(
                target for target in module.runtime_imports if target in self.modules
            )
        return closure

    def enclosing_function(self, module: LintModule, node: ast.AST) -> Optional[str]:
        """Qualname of the innermost indexed function containing ``node``."""
        best: Optional[Tuple[int, str]] = None
        node_line = getattr(node, "lineno", None)
        if node_line is None:
            return None
        for info in module.functions.values():
            start = info.node.lineno
            end = getattr(info.node, "end_lineno", start)
            if start <= node_line <= (end or start):
                if best is None or start > best[0]:
                    best = (start, info.qualname)
        return best[1] if best is not None else None


# ----------------------------------------------------------------------
# module parsing helpers
# ----------------------------------------------------------------------
def _parse_module(name: str, path: str, source: str) -> LintModule:
    return LintModule(name=name, path=path, tree=ast.parse(source, filename=path))


def _resolve_relative(module_name: str, level: int, target: Optional[str]) -> str:
    """Absolute module named by a ``from``-import with ``level`` leading dots."""
    if level == 0:
        return target or ""
    # Relative to the containing package: one level strips the module's own
    # name, each further level one more package.  Module vs package __init__
    # cannot be distinguished from the name alone; the repository uses
    # absolute imports throughout, so this path is best-effort.
    base = module_name.split(".")[:-level]
    if target:
        base.append(target)
    return ".".join(base)


def _collect_imports(module: LintModule) -> None:
    """Populate ``bindings`` and ``runtime_imports`` for one module."""

    def visit(statements: Iterable[ast.stmt], type_checking: bool) -> None:
        for statement in statements:
            if isinstance(statement, ast.Import):
                for alias in statement.names:
                    bound = alias.asname or alias.name.partition(".")[0]
                    target = alias.name if alias.asname else alias.name.partition(".")[0]
                    module.bindings[bound] = target
                    if not type_checking:
                        module.runtime_imports.add(alias.name)
            elif isinstance(statement, ast.ImportFrom):
                source = _resolve_relative(
                    module.name, statement.level, statement.module
                )
                for alias in statement.names:
                    if alias.name == "*":
                        continue
                    bound = alias.asname or alias.name
                    module.bindings[bound] = f"{source}.{alias.name}" if source else alias.name
                    if not type_checking:
                        module.runtime_imports.add(source)
                        # ``from package import submodule`` imports the
                        # submodule at runtime as well.
                        module.runtime_imports.add(
                            f"{source}.{alias.name}" if source else alias.name
                        )
            elif isinstance(statement, ast.If):
                guarded = type_checking or _is_type_checking_test(statement.test)
                visit(statement.body, guarded)
                visit(statement.orelse, type_checking)
            elif isinstance(
                statement,
                (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.With, ast.Try),
            ):
                bodies: List[Iterable[ast.stmt]] = [statement.body]
                if isinstance(statement, ast.Try):
                    bodies.extend(handler.body for handler in statement.handlers)
                    bodies.append(statement.orelse)
                    bodies.append(statement.finalbody)
                for body in bodies:
                    visit(body, type_checking)

    visit(module.tree.body, False)

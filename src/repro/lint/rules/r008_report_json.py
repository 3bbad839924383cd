"""R008 — report JSON-serializability: payloads reach JSON-native types.

PR 8 fixed, reactively, a numpy scalar leaking into a scenario payload and
breaking ``RunReport.to_json``; the fix was canonicalization at the
``ScenarioOutcome`` boundary (``canonicalize_payload``).  This rule turns
that hotfix into a checked invariant with three nets:

* values flowing into a scenario runner's ``ScenarioOutcome`` payload must
  not have statically-known non-JSON origins that the canonicalizer's
  pass-through fallback would forward verbatim into ``json.dumps`` — set
  literals, ``bytes``, ``Decimal``/``Path`` objects, open handles, lambdas,
  or project-class instances;
* ``RunReport`` is constructed only inside the API layer
  (``Session.run`` / ``RunReport.from_dict``) where canonicalized payloads
  and schema stamping are guaranteed — ad-hoc construction elsewhere
  bypasses the boundary;
* the ``ScenarioOutcome.__post_init__`` canonicalization call itself is
  pinned: removing it reverts the PR 8 fix, so its absence is a violation;
* the serve layer's HTTP response roots (``json_response`` /
  ``event_line``) extend the same contract to every body leaving the
  evaluation service: their payload argument (first positional, by the
  call-site contract of :mod:`repro.serve.protocol`) is dataflow-checked
  at every call site in ``repro.serve.*``, and the roots' own
  ``canonicalize_payload`` calls are pinned like the outcome boundary.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Tuple

from repro.lint.model import LintRule, Violation
from repro.lint.project import (
    FunctionDataflow,
    FunctionInfo,
    LintModule,
    Project,
    ValueOrigin,
)

#: Modules allowed to construct ``RunReport`` directly (the API boundary).
REPORT_BOUNDARY_MODULES = frozenset({"repro.api.session", "repro.api.report"})

#: Serve-layer response roots: every HTTP body and NDJSON event line leaves
#: through one of these, and both take the payload as their *first
#: positional argument* by contract so call sites are statically checkable.
SERVE_RESPONSE_ROOTS = frozenset({"json_response", "event_line"})

#: The module defining (and canonicalizing inside) the serve response roots.
SERVE_PROTOCOL_MODULE = "repro.serve.protocol"

#: Resolved call targets whose results json.dumps rejects and the
#: canonicalizer forwards verbatim.
_NON_JSON_FACTORIES: Dict[str, str] = {
    "decimal.Decimal": "a Decimal survives canonicalization as-is and "
                       "json.dumps rejects it; convert with float()/str()",
    "pathlib.Path": "a Path survives canonicalization as-is and json.dumps "
                    "rejects it; convert with str()",
    "builtins.open": "an open file handle can never serialize; record the "
                     "path string instead",
    "builtins.bytes": "bytes are not JSON-native; decode or hex-encode",
    "builtins.bytearray": "bytearray is not JSON-native; decode or "
                          "hex-encode",
    "decimal.getcontext": "a decimal context is process state, not data",
    "decimal.localcontext": "a decimal context is process state, not data",
    "decimal.Context": "a decimal context is process state, not data",
}


class ReportJsonRule(LintRule):
    """Every report payload value reaches a JSON-native type."""

    rule_id = "R008"
    title = "report JSON-serializability: payloads are JSON-native"
    rationale = (
        "values the canonicalizer passes through verbatim (sets, bytes, "
        "Decimal, Path, object handles) make RunReport.to_json raise after "
        "the run completed — the PR 8 bug class, now machine-checked"
    )

    def check(self, project: Project) -> Iterator[Violation]:
        for module in project.modules.values():
            yield from self._check_outcome_contract(project, module)
            yield from self._check_serve_protocol_contract(module)
            for info in module.functions.values():
                yield from self._check_report_construction(project, module, info)
                if _is_scenario_runner(project, module, info):
                    yield from self._check_runner(project, module, info)
                if module.name.startswith("repro.serve"):
                    yield from self._check_serve_responses(project, module, info)

    # ------------------------------------------------------------------
    # net 1: payload values in scenario runners
    # ------------------------------------------------------------------
    def _check_runner(
        self, project: Project, module: LintModule, info: FunctionInfo
    ) -> Iterator[Violation]:
        flow = project.dataflow(info)
        dict_literals = _dict_literal_bindings(info)
        for node in ast.walk(info.node):
            if not isinstance(node, ast.Call):
                continue
            target = project.call_target(module, node, info)
            if target is None or target.rsplit(".", 1)[-1] != "ScenarioOutcome":
                continue
            payload = _payload_argument(node)
            if payload is None:
                continue
            if isinstance(payload, ast.Name):
                payload = dict_literals.get(payload.id, payload)
            for anchor, message in self._payload_findings(project, flow, payload):
                yield self._violation(module, info, anchor, message)

    def _payload_findings(
        self, project: Project, flow: FunctionDataflow, expression: ast.expr
    ) -> List[Tuple[ast.AST, str]]:
        found: List[Tuple[ast.AST, str]] = []
        if isinstance(expression, ast.Dict):
            for value in expression.values:
                found.extend(self._payload_findings(project, flow, value))
            return found
        if isinstance(expression, (ast.List, ast.Tuple)):
            for element in expression.elts:
                found.extend(self._payload_findings(project, flow, element))
            return found
        origin = flow.classify(expression)
        if origin is None:
            return found
        found.extend(
            (defect.node or expression, message)
            for defect, message in _origin_defects(project, origin)
        )
        return found

    # ------------------------------------------------------------------
    # net 2: RunReport construction outside the API boundary
    # ------------------------------------------------------------------
    def _check_report_construction(
        self, project: Project, module: LintModule, info: FunctionInfo
    ) -> Iterator[Violation]:
        if module.name in REPORT_BOUNDARY_MODULES:
            return
        for node in ast.walk(info.node):
            if not isinstance(node, ast.Call):
                continue
            target = project.call_target(module, node, info)
            if target is None or target.rsplit(".", 1)[-1] != "RunReport":
                continue
            yield self._violation(
                module, info, node,
                "RunReport constructed outside the API boundary "
                "(Session.run / RunReport.from_dict): ad-hoc construction "
                "bypasses payload canonicalization and schema stamping",
            )

    # ------------------------------------------------------------------
    # net 3: the ScenarioOutcome canonicalization call is pinned
    # ------------------------------------------------------------------
    def _check_outcome_contract(
        self, project: Project, module: LintModule
    ) -> Iterator[Violation]:
        for class_info in module.classes.values():
            if class_info.name != "ScenarioOutcome":
                continue
            post_init = class_info.methods.get("__post_init__")
            if post_init is not None and _calls_canonicalizer(post_init):
                continue
            anchor: ast.AST = post_init.node if post_init else class_info.node
            yield Violation(
                rule=self.rule_id,
                module=module.name,
                path=module.path,
                line=getattr(anchor, "lineno", 1),
                column=getattr(anchor, "col_offset", 0),
                symbol=class_info.qualname,
                message=(
                    "ScenarioOutcome.__post_init__ must canonicalize the "
                    "payload (canonicalize_payload) — removing the call "
                    "reverts the PR 8 numpy-payload fix"
                ),
            )

    # ------------------------------------------------------------------
    # net 4: payloads flowing into serve response roots
    # ------------------------------------------------------------------
    def _check_serve_responses(
        self, project: Project, module: LintModule, info: FunctionInfo
    ) -> Iterator[Violation]:
        """Dataflow-check the payload at every serve response call site.

        Response bodies leave the service without crossing the
        ``ScenarioOutcome`` boundary, so the same non-JSON origins net 1
        catches in runner payloads applies to every ``json_response`` /
        ``event_line`` call in ``repro.serve.*``.  The protocol module
        itself is exempt here: its roots canonicalize internally, which
        net 5 pins.
        """
        if module.name == SERVE_PROTOCOL_MODULE:
            return
        flow = project.dataflow(info)
        dict_literals = _dict_literal_bindings(info)
        for node in ast.walk(info.node):
            if not isinstance(node, ast.Call):
                continue
            target = project.call_target(module, node, info)
            if target is None or target.rsplit(".", 1)[-1] not in SERVE_RESPONSE_ROOTS:
                continue
            payload = _payload_argument(node)
            if payload is None:
                continue
            if isinstance(payload, ast.Name):
                payload = dict_literals.get(payload.id, payload)
            for anchor, message in self._payload_findings(project, flow, payload):
                yield self._violation(module, info, anchor, message)

    # ------------------------------------------------------------------
    # net 5: the serve roots' canonicalization calls are pinned
    # ------------------------------------------------------------------
    def _check_serve_protocol_contract(
        self, module: LintModule
    ) -> Iterator[Violation]:
        if module.name != SERVE_PROTOCOL_MODULE:
            return
        for name in sorted(SERVE_RESPONSE_ROOTS):
            info = module.functions.get(f"{module.name}.{name}")
            if info is not None and _calls_canonicalizer(info):
                continue
            anchor: ast.AST = info.node if info is not None else module.tree
            yield Violation(
                rule=self.rule_id,
                module=module.name,
                path=module.path,
                line=getattr(anchor, "lineno", 1),
                column=getattr(anchor, "col_offset", 0),
                symbol=f"{module.name}.{name}",
                message=(
                    f"{name} must canonicalize its payload "
                    "(canonicalize_payload) before json.dumps — serve "
                    "response bodies never cross the ScenarioOutcome "
                    "boundary, this call is their only canonicalization"
                ),
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
# helpers
# ----------------------------------------------------------------------
def _is_scenario_runner(
    project: Project, module: LintModule, info: FunctionInfo
) -> bool:
    for decorator in info.node.decorator_list:
        if not isinstance(decorator, ast.Call):
            continue
        target = project.call_target(module, decorator, info)
        if target is not None and target.rsplit(".", 1)[-1] == "register_scenario":
            return True
    return False


def _payload_argument(call: ast.Call) -> Optional[ast.expr]:
    if call.args:
        return call.args[0]
    for keyword in call.keywords:
        if keyword.arg == "payload":
            return keyword.value
    return None


def _dict_literal_bindings(info: FunctionInfo) -> Dict[str, ast.Dict]:
    """Names assigned a dict literal inside the function (last wins)."""
    bindings: Dict[str, ast.Dict] = {}
    for node in ast.walk(info.node):
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and isinstance(node.value, ast.Dict)
        ):
            bindings[node.targets[0].id] = node.value
    return bindings


def _origin_defects(
    project: Project, origin: ValueOrigin
) -> List[Tuple[ValueOrigin, str]]:
    found: List[Tuple[ValueOrigin, str]] = []
    if origin.kind == "container":
        for element in origin.elements:
            found.extend(_origin_defects(project, element))
        return found
    if origin.kind == "set":
        found.append(
            (origin, "set in a report payload: the canonicalizer passes "
                     "sets through verbatim and json.dumps rejects them; "
                     "use sorted(...) for a deterministic list")
        )
    elif origin.kind == "bytes":
        found.append(
            (origin, "bytes in a report payload are not JSON-native; "
                     "decode or hex-encode")
        )
    elif origin.kind in ("lambda", "local_function"):
        found.append(
            (origin, "callable in a report payload can never serialize; "
                     "record its result or name instead")
        )
    elif origin.kind == "call":
        reason = _NON_JSON_FACTORIES.get(origin.detail)
        if reason is not None:
            found.append((origin, f"non-JSON value in a report payload: {reason}"))
        elif origin.detail in project.classes:
            class_name = origin.detail.rsplit(".", 1)[-1]
            found.append(
                (origin, f"{class_name} instance in a report payload: the "
                         f"canonicalizer passes unknown objects through "
                         f"verbatim and json.dumps rejects them; export "
                         f"scalar fields instead")
            )
    return found


def _calls_canonicalizer(post_init: FunctionInfo) -> bool:
    for node in ast.walk(post_init.node):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
            if name == "canonicalize_payload":
                return True
    return False


__all__ = [
    "ReportJsonRule",
    "REPORT_BOUNDARY_MODULES",
    "SERVE_PROTOCOL_MODULE",
    "SERVE_RESPONSE_ROOTS",
]

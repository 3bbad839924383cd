"""R004 — seeded-RNG-only: no interpreter-global random state, anywhere.

Every stochastic quantity in the reproduction (synthetic benchmark graphs,
platform generation, Monte-Carlo fault injection) must flow from an explicit
seeded generator (``numpy.random.default_rng(seed)`` or a ``random.Random``
instance threaded through call signatures).  Module-level RNG calls —
``random.random()``, ``np.random.seed()``, ``np.random.rand()`` — share
hidden global state: results then depend on *call order across the whole
process*, which breaks the n_jobs determinism contract (each worker must
produce bit-identical results regardless of scheduling) and makes golden
fixtures irreproducible.

The rule flags every call through the ``random`` module's functions (the
seedable-instance constructor ``random.Random`` is allowed) and every call
into ``numpy.random``'s global-state API (``default_rng``, ``Generator`` and
``SeedSequence`` are allowed).  The allowed constructors must themselves be
*seeded*: ``default_rng()`` / ``SeedSequence()`` without an entropy argument
draw their seed from the OS — a fresh stream every process, exactly the
irreproducibility the rule exists to prevent — and ``Generator(PCG64())``
around a zero-argument bit generator is the same defect one layer down.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Tuple

from repro.lint.model import LintRule, Violation
from repro.lint.project import LintModule, Project, dotted_name

#: Attributes of the stdlib ``random`` module that are allowed (explicit,
#: seedable instances; everything else is global-state).
_ALLOWED_RANDOM = frozenset({"Random"})

#: ``numpy.random`` bit-generator constructors (seedable, explicit streams).
_BIT_GENERATORS = frozenset({"PCG64", "PCG64DXSM", "MT19937", "Philox", "SFC64"})

#: Attributes of ``numpy.random`` that construct explicit seeded generators.
_ALLOWED_NUMPY_RANDOM = frozenset(
    {"default_rng", "Generator", "SeedSequence", "BitGenerator"}
) | _BIT_GENERATORS

#: Allowed constructors that must receive an explicit entropy argument.
_SEED_REQUIRED = frozenset({"default_rng", "SeedSequence"}) | _BIT_GENERATORS


class SeededRngRule(LintRule):
    """All randomness flows from explicit seeded generators."""

    rule_id = "R004"
    title = "seeded-RNG-only: no global random state"
    rationale = (
        "global RNG state makes results depend on process-wide call order, "
        "breaking parallel-sweep determinism and golden fixtures"
    )

    def check(self, project: Project) -> Iterator[Violation]:
        for module in project.modules.values():
            for node in module.walk():
                if not isinstance(node, ast.Call):
                    continue
                message = self._message(project, module, node)
                if message is None:
                    continue
                yield Violation(
                    rule=self.rule_id,
                    module=module.name,
                    path=module.path,
                    line=node.lineno,
                    column=node.col_offset,
                    symbol=project.enclosing_function(module, node) or "",
                    message=message,
                )

    def _message(
        self, project: Project, module: LintModule, call: ast.Call
    ) -> Optional[str]:
        verdict = self._classify(project, module, call)
        if verdict is not None:
            family, function_name = verdict
            return (
                f"global-state RNG call {family}.{function_name}(); "
                f"thread an explicit seeded generator "
                f"(numpy.random.default_rng(seed) / random.Random(seed)) "
                f"through the call signature instead"
            )
        return self._seedless_message(project, module, call)

    # ------------------------------------------------------------------
    def _classify(
        self, project: Project, module: LintModule, call: ast.Call
    ) -> Optional[Tuple[str, str]]:
        """``(family, function)`` when the call hits a global-state RNG."""
        dotted = dotted_name(call.func)
        if dotted is None:
            return None
        resolved = project.resolve_dotted(module, dotted)
        if resolved.startswith("random."):
            function_name = resolved.split(".", 1)[1]
            if function_name not in _ALLOWED_RANDOM:
                return ("random", function_name)
            return None
        if resolved.startswith("numpy.random."):
            function_name = resolved.split(".", 2)[2]
            head = function_name.split(".", 1)[0]
            if head not in _ALLOWED_NUMPY_RANDOM:
                return ("numpy.random", function_name)
            return None
        return None

    def _seedless_message(
        self, project: Project, module: LintModule, call: ast.Call
    ) -> Optional[str]:
        """Message when an *allowed* constructor is called without entropy."""
        dotted = dotted_name(call.func)
        if dotted is None:
            return None
        resolved = project.resolve_dotted(module, dotted)
        if not resolved.startswith("numpy.random."):
            return None
        name = resolved.split(".", 2)[2]
        if name in _SEED_REQUIRED:
            entropy = _entropy_argument(call)
            if entropy is None or _is_none_constant(entropy):
                return (
                    f"seedless numpy.random.{name}() draws its seed from the "
                    f"OS — a different stream every process; pass an explicit "
                    f"seed (or a spawned SeedSequence child) instead"
                )
            return None
        if name == "Generator" and _entropy_argument(call) is None:
            return (
                "bare numpy.random.Generator construction without a bit "
                "generator; use numpy.random.default_rng(seed) (a seedless "
                "bit generator is flagged at its own construction site)"
            )
        return None


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def _entropy_argument(call: ast.Call) -> Optional[ast.expr]:
    """The seed/entropy/bit-generator argument of an RNG constructor call."""
    if call.args:
        return call.args[0]
    for keyword in call.keywords:
        if keyword.arg in ("seed", "entropy", "bit_generator"):
            return keyword.value
    return None


def _is_none_constant(expression: ast.expr) -> bool:
    return isinstance(expression, ast.Constant) and expression.value is None

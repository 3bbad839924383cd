"""Opt-in runtime determinism sanitizer: the dynamic half of ``repro.lint``.

The static rules (R001–R008) reason about the tree; this module observes a
*real run* through patched choke points and reports what actually happened,
in the same :class:`~repro.lint.model.Violation` format and rule-id
vocabulary, so a static and a dynamic finding of one defect name the same
invariant:

========  ============================================================
R001      an unordered container (set/frozenset/dict) reached the
          canonical fingerprint encoder
R004      unseeded RNG construction (``default_rng()`` without entropy)
          or a global-state RNG call (``random.random`` & co.) from
          repro code
R006      a pool submission that does not pickle, or a shared
          Session/engine/store handle shipped in a task payload
R007      a mutating method ran on a guarded object in a different
          process than the one that constructed it (the write mutates a
          fork-time copy the parent never sees)
R008      a non-JSON-native value in a scenario payload or run report
========  ============================================================

Enable it per run with ``repro-ftes run --sanitize`` or process-wide with
``REPRO_SANITIZE=1``; library code can use the context manager directly::

    with DeterminismSanitizer() as sanitizer:
        report = session.run("fig6a")
    assert not sanitizer.violations

The sanitizer never changes behaviour — wrappers record and then delegate
to the originals — so a sanitized run produces byte-identical results.  It
is off by default because the patches are process-global state (stdlib and
numpy entry points) and the per-call checks, while cheap, sit on paths a
tight DSE loop may hit millions of times.
"""

from __future__ import annotations

import io
import os
import pickle
import sys
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.lint.model import Violation, sort_violations

#: Environment variable enabling the sanitizer process-wide.
SANITIZE_ENV = "REPRO_SANITIZE"

#: Global-state functions of the stdlib ``random`` module (R004 when called
#: from repro code; the module-level instance is shared hidden state).
_RANDOM_GLOBALS = (
    "seed", "random", "randint", "randrange", "uniform", "shuffle",
    "choice", "sample", "gauss", "normalvariate", "betavariate",
)

#: Global-state functions of ``numpy.random`` (legacy shared RandomState).
_NUMPY_GLOBALS = (
    "seed", "rand", "randn", "random", "randint", "shuffle",
    "permutation", "choice", "uniform", "normal",
)

#: Class names whose live instances must not cross a pool boundary.
_SHARED_HANDLE_CLASSES = (
    "Session", "EvaluationEngine", "MemoCache", "DesignPointStore",
)

_ACTIVE: Optional["DeterminismSanitizer"] = None

_AUDIT_HOOK_INSTALLED = False


def active_sanitizer() -> Optional["DeterminismSanitizer"]:
    """The currently installed sanitizer, if any."""
    return _ACTIVE


def env_requests_sanitizer() -> bool:
    """Is ``REPRO_SANITIZE`` set to a truthy value?"""
    return os.environ.get(SANITIZE_ENV, "").strip().lower() in ("1", "true", "yes", "on")


def install_from_env() -> Optional["DeterminismSanitizer"]:
    """Worker-pool initializer half: install a sanitizer under ``REPRO_SANITIZE``.

    The parent's sanitizer state does not survive the pool boundary, so
    workers install their own: cross-process mutation of guarded objects
    (R007) is detected where it happens and surfaced on the shared stderr.
    The environment variable — not a task argument — is the opt-in channel
    because ``fork``-started workers inherit it for free and task tuples stay
    scalar.  A fork-started worker also inherits the parent's installed
    sanitizer (patches and all), so a fresh one is installed only when none
    is active.  Returns the sanitizer this call installed, or ``None``.
    """
    if env_requests_sanitizer() and _ACTIVE is None:
        return DeterminismSanitizer().install()
    return None


@dataclass
class SanitizerReport:
    """Violations plus contextual counters from one sanitized span."""

    violations: List[Violation] = field(default_factory=list)
    counters: Dict[str, int] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        return {
            "violations": [violation.as_dict() for violation in self.violations],
            "counters": dict(sorted(self.counters.items())),
        }

    def format_text(self) -> str:
        lines = [violation.format_text() for violation in self.violations]
        counters = ", ".join(f"{key}={value}" for key, value in sorted(self.counters.items()))
        lines.append(
            f"sanitizer: {len(self.violations)} violation(s)"
            + (f" [{counters}]" if counters else "")
        )
        return "\n".join(lines)


class DeterminismSanitizer:
    """Records determinism hazards during a real run; never changes behaviour."""

    def __init__(self) -> None:
        self.violations: List[Violation] = []
        self.counters: Dict[str, int] = {}
        self._patches: List[Tuple[Any, str, Any]] = []
        self._installed = False
        self._seen_fingerprints: set = set()
        # Birth PIDs of slotted guarded objects (no __dict__ to stamp);
        # keyed by id().  Inherited by fork-started workers along with the
        # rest of the sanitizer, which is exactly what the R007 check needs.
        self._birth_pids: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def install(self) -> "DeterminismSanitizer":
        global _ACTIVE
        if self._installed:
            return self
        if _ACTIVE is not None:
            raise RuntimeError("a DeterminismSanitizer is already installed")
        self._patch_stdlib_random()
        self._patch_numpy_random()
        self._patch_pool_boundary()
        self._patch_fingerprint_encoder()
        self._patch_shared_handles()
        self._install_audit_hook()
        self._installed = True
        _ACTIVE = self
        return self

    def uninstall(self) -> None:
        global _ACTIVE
        if not self._installed:
            return
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()
        self._installed = False
        if _ACTIVE is self:
            _ACTIVE = None

    def __enter__(self) -> "DeterminismSanitizer":
        return self.install()

    def __exit__(self, *exc_info: object) -> None:
        self.uninstall()

    def report(self) -> SanitizerReport:
        return SanitizerReport(
            violations=sort_violations(self.violations),
            counters=dict(self.counters),
        )

    # ------------------------------------------------------------------
    # birth-PID bookkeeping (R007)
    # ------------------------------------------------------------------
    def _stamp_birth_pid(self, obj: Any) -> None:
        try:
            obj._sanitizer_pid = os.getpid()
        except (AttributeError, TypeError):
            # Slotted class (e.g. MemoCache): fall back to an id-keyed map.
            self._birth_pids[id(obj)] = os.getpid()

    def _birth_pid(self, obj: Any) -> Optional[int]:
        stamped = getattr(obj, "_sanitizer_pid", None)
        if stamped is not None:
            return int(stamped)
        return self._birth_pids.get(id(obj))

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def _count(self, key: str) -> None:
        self.counters[key] = self.counters.get(key, 0) + 1

    def _record(self, rule: str, message: str) -> None:
        site = _caller_site()
        if site is None:
            # No repro frame on the stack: third-party/interpreter internals
            # (e.g. pytest machinery) — not this run's code, don't record.
            return
        module, path, line, symbol = site
        violation = Violation(
            rule=rule,
            module=module,
            path=path,
            line=line,
            column=0,
            symbol=symbol,
            message=message,
        )
        key = (violation.fingerprint(), line)
        if key in self._seen_fingerprints:
            return
        self._seen_fingerprints.add(key)
        self.violations.append(violation)

    # ------------------------------------------------------------------
    # patches
    # ------------------------------------------------------------------
    def _patch(self, owner: Any, name: str, wrapper_factory: Callable[[Any], Any]) -> None:
        original = getattr(owner, name)
        setattr(owner, name, wrapper_factory(original))
        self._patches.append((owner, name, original))

    def _patch_stdlib_random(self) -> None:
        import random as random_module

        for name in _RANDOM_GLOBALS:
            if not hasattr(random_module, name):
                continue

            def factory(original: Any, fn_name: str = name) -> Any:
                def wrapper(*args: Any, **kwargs: Any) -> Any:
                    self._count("random_global_calls")
                    self._record(
                        "R004",
                        f"global-state RNG call random.{fn_name}() observed "
                        f"at runtime; thread an explicit random.Random(seed) "
                        f"through the call signature",
                    )
                    return original(*args, **kwargs)

                return wrapper

            self._patch(random_module, name, factory)

    def _patch_numpy_random(self) -> None:
        import numpy.random as np_random

        for name in _NUMPY_GLOBALS:
            if not hasattr(np_random, name):
                continue

            def factory(original: Any, fn_name: str = name) -> Any:
                def wrapper(*args: Any, **kwargs: Any) -> Any:
                    self._count("numpy_global_calls")
                    self._record(
                        "R004",
                        f"global-state RNG call numpy.random.{fn_name}() "
                        f"observed at runtime; use "
                        f"numpy.random.default_rng(seed) instead",
                    )
                    return original(*args, **kwargs)

                return wrapper

            self._patch(np_random, name, factory)

        def default_rng_factory(original: Any) -> Any:
            def wrapper(seed: Any = None, *args: Any, **kwargs: Any) -> Any:
                if seed is None:
                    self._count("seedless_rng_constructions")
                    self._record(
                        "R004",
                        "seedless numpy.random.default_rng() constructed at "
                        "runtime: the stream differs every process; pass an "
                        "explicit seed",
                    )
                return original(seed, *args, **kwargs)

            return wrapper

        self._patch(np_random, "default_rng", default_rng_factory)

        def seed_sequence_factory(original: Any) -> Any:
            def wrapper(entropy: Any = None, *args: Any, **kwargs: Any) -> Any:
                if entropy is None:
                    self._count("seedless_rng_constructions")
                    self._record(
                        "R004",
                        "seedless numpy.random.SeedSequence() constructed at "
                        "runtime: OS entropy differs every process; pass "
                        "explicit entropy",
                    )
                return original(entropy, *args, **kwargs)

            return wrapper

        self._patch(np_random, "SeedSequence", seed_sequence_factory)

    def _patch_pool_boundary(self) -> None:
        from concurrent.futures import ProcessPoolExecutor

        sanitizer = self

        def init_factory(original: Any) -> Any:
            def wrapper(pool_self: Any, *args: Any, **kwargs: Any) -> Any:
                # Positional layout after self: (max_workers, mp_context,
                # initializer, initargs).
                initargs = kwargs.get("initargs", ())
                if len(args) >= 4:
                    initargs = args[3]
                sanitizer._check_pool_payload(initargs, role="initargs")
                return original(pool_self, *args, **kwargs)

            return wrapper

        def submit_factory(original: Any) -> Any:
            def wrapper(pool_self: Any, fn: Any, /, *args: Any, **kwargs: Any) -> Any:
                sanitizer._count("pool_submissions")
                sanitizer._check_pool_payload(
                    (fn, *args, *kwargs.values()), role="pool submission"
                )
                return original(pool_self, fn, *args, **kwargs)

            return wrapper

        self._patch(ProcessPoolExecutor, "__init__", init_factory)
        self._patch(ProcessPoolExecutor, "submit", submit_factory)

    def _check_pool_payload(self, payload: Tuple[Any, ...], role: str) -> None:
        try:
            pickle.dumps(payload)
        except Exception as exc:  # noqa: BLE001 - any pickling failure counts
            self._count("unpicklable_pool_payloads")
            self._record(
                "R006",
                f"{role} does not pickle ({type(exc).__name__}: {exc}); "
                f"everything crossing the pool boundary must be picklable "
                f"by type",
            )
        for handle_name in _shared_handles(payload):
            self._count("shared_handles_shipped")
            self._record(
                "R006",
                f"live {handle_name} handle in {role}: workers must rebuild "
                f"engines/stores from scalars (the _init_worker idiom)",
            )

    def _patch_fingerprint_encoder(self) -> None:
        from repro.engine import fingerprint as fingerprint_module

        def encode_factory(original: Any) -> Any:
            def wrapper(value: Any) -> Any:
                if isinstance(value, (set, frozenset, dict)):
                    self._count("unordered_key_material")
                    self._record(
                        "R001",
                        f"unordered {type(value).__name__} reached the "
                        f"canonical fingerprint encoder: iteration order is "
                        f"hash-dependent; sort before encoding",
                    )
                return original(value)

            return wrapper

        self._patch(fingerprint_module, "_canonical_encode", encode_factory)

    def _patch_shared_handles(self) -> None:
        """Stamp guarded objects with their construction PID and flag
        mutating methods running in a different process (R007)."""
        sanitizer = self
        for owner, mutators in _guarded_runtime_classes():
            def init_factory(original: Any) -> Any:
                def wrapper(obj_self: Any, *args: Any, **kwargs: Any) -> Any:
                    result = original(obj_self, *args, **kwargs)
                    sanitizer._stamp_birth_pid(obj_self)
                    return result

                return wrapper

            self._patch(owner, "__init__", init_factory)
            for method_name in mutators:

                def method_factory(
                    original: Any,
                    class_name: str = owner.__name__,
                    name: str = method_name,
                ) -> Any:
                    def wrapper(obj_self: Any, *args: Any, **kwargs: Any) -> Any:
                        born = sanitizer._birth_pid(obj_self)
                        if born is not None and born != os.getpid():
                            sanitizer._count("cross_process_mutations")
                            message = (
                                f"{class_name}.{name}() mutating an object "
                                f"constructed in process {born} from process "
                                f"{os.getpid()}: the write hits a fork-time "
                                f"copy the parent never sees"
                            )
                            sanitizer._record("R007", message)
                            # A forked child's sanitizer state is invisible
                            # to the parent — surface on stderr as well.
                            print(f"repro-sanitizer: R007 {message}", file=sys.stderr)
                        return original(obj_self, *args, **kwargs)

                    return wrapper

                self._patch(owner, method_name, method_factory)

    def _install_audit_hook(self) -> None:
        # Audit hooks cannot be removed; install one process-wide hook that
        # consults the active sanitizer and otherwise does nothing.
        global _AUDIT_HOOK_INSTALLED
        if _AUDIT_HOOK_INSTALLED:
            return

        def hook(event: str, _args: Tuple[Any, ...]) -> None:
            active = _ACTIVE
            if active is None:
                return
            if event == "os.fork":
                active._count("forks")

        sys.addaudithook(hook)
        _AUDIT_HOOK_INSTALLED = True

    # ------------------------------------------------------------------
    # payload / report checks (called from the API layer when active)
    # ------------------------------------------------------------------
    def check_payload(self, value: Any, context: str = "payload") -> None:
        """Record R008 for every non-JSON-native leaf in ``value``."""
        for path, leaf in _non_json_native(value, context):
            self._count("non_json_payload_values")
            self._record(
                "R008",
                f"non-JSON-native {type(leaf).__name__} at {path}: the "
                f"canonicalizer passed it through verbatim and "
                f"RunReport.to_json would raise",
            )

    def check_report(self, report_dict: Dict[str, Any], scenario: str = "") -> None:
        """Validate the JSON-facing fields of an assembled run report."""
        prefix = f"report[{scenario}]" if scenario else "report"
        for fragment in ("results", "params", "cache", "timings"):
            if fragment in report_dict:
                self.check_payload(report_dict[fragment], f"{prefix}.{fragment}")


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def _caller_site() -> Optional[Tuple[str, str, int, str]]:
    """``(module, path, line, symbol)`` of the nearest repro caller frame."""
    frame = sys._getframe(1)
    while frame is not None:
        module = frame.f_globals.get("__name__", "")
        if module.startswith("repro.") and not module.startswith("repro.lint"):
            code = frame.f_code
            symbol = getattr(code, "co_qualname", code.co_name)
            return (
                module,
                code.co_filename,
                frame.f_lineno,
                f"{module}.{symbol}",
            )
        frame = frame.f_back
    return None


def _guarded_runtime_classes() -> Iterator[Tuple[type, Tuple[str, ...]]]:
    """Guarded classes with the mutating methods worth PID-checking."""
    from repro.api.session import Session
    from repro.engine.cache import MemoCache
    from repro.engine.store import DesignPointStore

    yield MemoCache, ("put", "load")
    yield DesignPointStore, ("warm", "persist")
    yield Session, ("add_cache_counters",)


def _shared_handles(value: Any, depth: int = 3) -> List[str]:
    """Names of shared-handle instances found in a (shallow) payload walk."""
    found: List[str] = []

    def walk(node: Any, remaining: int) -> None:
        type_name = type(node).__name__
        if type_name in _SHARED_HANDLE_CLASSES and not isinstance(
            node, (str, bytes, int, float, bool, type(None))
        ):
            found.append(type_name)
            return
        if remaining <= 0:
            return
        if isinstance(node, dict):
            for child in node.values():
                walk(child, remaining - 1)
        elif isinstance(node, (list, tuple, set, frozenset)):
            for child in node:
                walk(child, remaining - 1)

    walk(value, depth)
    return found


def _non_json_native(value: Any, path: str) -> List[Tuple[str, Any]]:
    """``(path, leaf)`` for every value ``json.dumps`` would reject."""
    from repro.api.report import iter_non_json_native

    return list(iter_non_json_native(value, path))


def print_report(sanitizer: DeterminismSanitizer, stream: Optional[io.TextIOBase] = None) -> None:
    """Render a sanitizer report to ``stream`` (default stderr)."""
    target = stream if stream is not None else sys.stderr
    print(sanitizer.report().format_text(), file=target)


__all__ = [
    "SANITIZE_ENV",
    "DeterminismSanitizer",
    "SanitizerReport",
    "active_sanitizer",
    "env_requests_sanitizer",
    "print_report",
]

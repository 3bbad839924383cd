"""Fixture tests for the ``repro.lint`` rules and the report they feed.

Each rule gets at least one known-bad fixture (the rule must fire, on the
right line/symbol) and one known-good fixture (the rule must stay quiet).
The fixtures are in-memory modules loaded through
:meth:`repro.lint.project.Project.from_sources`, so the tests pin the *rule
semantics*, independent of the state of the real tree.
"""

from __future__ import annotations

import textwrap

from repro.lint import RULES, Violation
from repro.lint.project import Project


def project_from(**sources: str) -> Project:
    return Project.from_sources(
        {name: textwrap.dedent(source) for name, source in sources.items()}
    )


def findings(project: Project, rule_id: str):
    (rule,) = [rule for rule in RULES if rule.rule_id == rule_id]
    return list(rule.check(project))


# ----------------------------------------------------------------------
# R001 — fingerprint purity
# ----------------------------------------------------------------------
class TestFingerprintPurity:
    def test_builtin_hash_on_key_path_fires(self):
        project = project_from(
            **{
                "repro.engine.fingerprint": """
                def application_fingerprint(app):
                    return hash((app.name, app.deadline))
                """
            }
        )
        (violation,) = findings(project, "R001")
        assert violation.symbol == "repro.engine.fingerprint.application_fingerprint"
        assert "hash()" in violation.message
        assert violation.line == 3

    def test_impurity_reached_through_helper_module_fires(self):
        # The closure must follow calls across modules: the root delegates to
        # a helper whose body uses id().
        project = project_from(
            **{
                "repro.engine.fingerprint": """
                from repro.engine.helper import canonical

                def context_fingerprint(app):
                    return canonical(app)
                """,
                "repro.engine.helper": """
                def canonical(app):
                    return id(app)
                """,
            }
        )
        (violation,) = findings(project, "R001")
        assert violation.module == "repro.engine.helper"
        assert "id()" in violation.message

    def test_set_iteration_on_key_path_fires(self):
        project = project_from(
            **{
                "repro.engine.fingerprint": """
                def profile_fingerprint(entries):
                    return tuple(e for e in set(entries))
                """
            }
        )
        (violation,) = findings(project, "R001")
        assert "set has hash-dependent order" in violation.message

    def test_unsorted_dict_view_fires_and_sorted_is_quiet(self):
        bad = project_from(
            **{
                "repro.engine.fingerprint": """
                def profile_fingerprint(table):
                    return tuple(k for k in table.items())
                """
            }
        )
        good = project_from(
            **{
                "repro.engine.fingerprint": """
                def profile_fingerprint(table):
                    return tuple(sorted(k for k in table.items()))
                """
            }
        )
        assert len(findings(bad, "R001")) == 1
        assert findings(good, "R001") == []

    def test_impurity_off_the_key_path_is_quiet(self):
        # hash() in an unrelated module that the key roots never call.
        project = project_from(
            **{
                "repro.engine.fingerprint": """
                def application_fingerprint(app):
                    return (app.name, app.deadline)
                """,
                "repro.scheduling.schedule": """
                class Schedule:
                    def __hash__(self):
                        return hash(self.name)
                """,
            }
        )
        assert findings(project, "R001") == []

    def test_store_key_methods_are_roots(self):
        project = project_from(
            **{
                "repro.engine.store": """
                class DesignPointStore:
                    def context_key(self, engine):
                        return repr(engine.context)
                """
            }
        )
        (violation,) = findings(project, "R001")
        assert violation.symbol == "repro.engine.store.DesignPointStore.context_key"
        assert "repr()" in violation.message


# ----------------------------------------------------------------------
# R002 — kernel-contract conformance
# ----------------------------------------------------------------------
_BASE = """
class SFPKernel:
    name = ""

    def probability_exceeds(self, probabilities, reexecutions, threshold):
        raise NotImplementedError
"""

class TestKernelContract:
    def test_conforming_backend_is_quiet(self):
        project = project_from(
            **{
                "repro.kernels.base": _BASE,
                "repro.kernels.custom": """
                from repro.kernels.base import SFPKernel

                class GoodKernel(SFPKernel):
                    name = "good"

                    def probability_exceeds(self, probabilities, reexecutions, threshold):
                        return 0.0
                """,
            }
        )
        assert findings(project, "R002") == []

    def test_missing_method_fires(self):
        project = project_from(
            **{
                "repro.kernels.base": _BASE,
                "repro.kernels.custom": """
                from repro.kernels.base import SFPKernel

                class LazyKernel(SFPKernel):
                    name = "lazy"
                """,
            }
        )
        (violation,) = findings(project, "R002")
        assert "does not implement abstract method probability_exceeds()" in violation.message

    def test_signature_drift_fires(self):
        project = project_from(
            **{
                "repro.kernels.base": _BASE,
                "repro.kernels.custom": """
                from repro.kernels.base import SFPKernel

                class DriftedKernel(SFPKernel):
                    name = "drifted"

                    def probability_exceeds(self, probs, reexecutions, threshold):
                        return 0.0
                """,
            }
        )
        (violation,) = findings(project, "R002")
        assert "signature drifts" in violation.message

    def test_mutable_class_state_fires(self):
        project = project_from(
            **{
                "repro.kernels.base": _BASE,
                "repro.kernels.custom": """
                from repro.kernels.base import SFPKernel

                class SharedStateKernel(SFPKernel):
                    name = "shared"
                    _scratch = []

                    def probability_exceeds(self, probabilities, reexecutions, threshold):
                        return 0.0
                """,
            }
        )
        (violation,) = findings(project, "R002")
        assert "mutable class state" in violation.message

    def test_missing_name_attr_fires(self):
        project = project_from(
            **{
                "repro.kernels.base": _BASE,
                "repro.kernels.custom": """
                from repro.kernels.base import SFPKernel

                class AnonymousKernel(SFPKernel):
                    def probability_exceeds(self, probabilities, reexecutions, threshold):
                        return 0.0
                """,
            }
        )
        (violation,) = findings(project, "R002")
        assert "class attribute 'name'" in violation.message

    def test_stacked_backend_inheriting_implementation_is_quiet(self):
        """A backend stacked on another backend inherits the contract
        implementation; only its name must be its own."""
        project = project_from(
            **{
                "repro.kernels.base": _BASE,
                "repro.kernels.custom": """
                from repro.kernels.base import SFPKernel

                class GoodKernel(SFPKernel):
                    name = "good"

                    def probability_exceeds(self, probabilities, reexecutions, threshold):
                        return 0.0

                class StackedKernel(GoodKernel):
                    name = "stacked"
                """,
            }
        )
        assert findings(project, "R002") == []

    def test_transitive_backend_missing_chain_implementation_fires(self):
        """A grandchild whose whole chain lacks the method is caught — the
        direct-bases-only scan used to exempt exactly this shape."""
        project = project_from(
            **{
                "repro.kernels.base": _BASE,
                "repro.kernels.custom": """
                from repro.kernels.base import SFPKernel

                class MiddleKernel(SFPKernel):
                    name = "middle"

                class LeafKernel(MiddleKernel):
                    name = "leaf"
                """,
            }
        )
        violations = findings(project, "R002")
        assert len(violations) == 2
        assert all(
            "does not implement abstract method probability_exceeds()"
            in violation.message
            for violation in violations
        )

    def test_inherited_defect_is_reported_once_on_its_owner(self):
        """A drifted override is one violation, on the class that wrote it —
        descendants inheriting it are not re-flagged."""
        project = project_from(
            **{
                "repro.kernels.base": _BASE,
                "repro.kernels.custom": """
                from repro.kernels.base import SFPKernel

                class DriftedKernel(SFPKernel):
                    name = "drifted"

                    def probability_exceeds(self, probs, reexecutions, threshold):
                        return 0.0

                class HeirKernel(DriftedKernel):
                    name = "heir"
                """,
            }
        )
        (violation,) = findings(project, "R002")
        assert violation.symbol == "repro.kernels.custom.DriftedKernel"
        assert "signature drifts" in violation.message

    def test_override_still_raising_not_implemented_fires(self):
        project = project_from(
            **{
                "repro.kernels.base": _BASE,
                "repro.kernels.custom": """
                from repro.kernels.base import SFPKernel

                class StubKernel(SFPKernel):
                    name = "stub"

                    def probability_exceeds(self, probabilities, reexecutions, threshold):
                        \"\"\"Not yet.\"\"\"
                        raise NotImplementedError("todo")
                """,
            }
        )
        (violation,) = findings(project, "R002")
        assert "still raises NotImplementedError" in violation.message
        assert violation.symbol == "repro.kernels.custom.StubKernel"

    def test_empty_name_fires(self):
        project = project_from(
            **{
                "repro.kernels.base": _BASE,
                "repro.kernels.custom": """
                from repro.kernels.base import SFPKernel

                class NamelessKernel(SFPKernel):
                    name = ""

                    def probability_exceeds(self, probabilities, reexecutions, threshold):
                        return 0.0
                """,
            }
        )
        (violation,) = findings(project, "R002")
        assert "declares an empty name" in violation.message

    def test_mutable_call_class_state_fires_and_tuple_is_quiet(self):
        project = project_from(
            **{
                "repro.kernels.base": _BASE,
                "repro.kernels.custom": """
                from repro.kernels.base import SFPKernel

                class MemoKernel(SFPKernel):
                    name = "memo"
                    _memo = dict()
                    _levels = (1, 2, 3)

                    def probability_exceeds(self, probabilities, reexecutions, threshold):
                        return 0.0
                """,
            }
        )
        (violation,) = findings(project, "R002")
        assert "MemoKernel._memo is mutable class state" in violation.message

    def test_scheduler_family_backends_are_checked(self):
        project = project_from(
            **{
                "repro.kernels.sched_base": """
                class SchedulerKernel:
                    name = ""

                    def build_schedule(self, problem):
                        raise NotImplementedError
                """,
                "repro.kernels.sched_custom": """
                from repro.kernels.sched_base import SchedulerKernel

                class GoodScheduler(SchedulerKernel):
                    name = "good"

                    def build_schedule(self, problem):
                        return None

                class DriftedScheduler(SchedulerKernel):
                    name = "drifted"

                    def build_schedule(self, scheduling_problem):
                        return None
                """,
            }
        )
        (violation,) = findings(project, "R002")
        assert violation.symbol == "repro.kernels.sched_custom.DriftedScheduler"
        assert "build_schedule() signature drifts from SchedulerKernel" in violation.message

    def test_cache_key_module_importing_kernels_fires(self):
        project = project_from(
            **{
                "repro.engine.fingerprint": """
                from repro.kernels.registry import SFP_KERNELS

                def application_fingerprint(app):
                    return (app.name, SFP_KERNELS)
                """,
                "repro.kernels.registry": """
                SFP_KERNELS = None
                """,
            }
        )
        violations = findings(project, "R002")
        assert any("kernel backends must not leak" in v.message for v in violations)

    def test_type_checking_only_import_is_quiet(self):
        project = project_from(
            **{
                "repro.engine.fingerprint": """
                from typing import TYPE_CHECKING

                if TYPE_CHECKING:
                    from repro.kernels.registry import SFP_KERNELS

                def application_fingerprint(app):
                    return (app.name,)
                """,
                "repro.kernels.registry": """
                SFP_KERNELS = None
                """,
            }
        )
        assert findings(project, "R002") == []


# ----------------------------------------------------------------------
# R003 — freeze safety
# ----------------------------------------------------------------------
_TASKGRAPH = """
class TaskGraph:
    def __init__(self):
        self._processes = {}
        self._succ = {}
        self._pred = {}
        self._messages = {}

    def add_message(self, message):
        self._messages[message.name] = message
        self._bump()
"""


class TestStructureToken:
    def test_mutation_inside_sanctioned_mutator_is_quiet(self):
        project = project_from(**{"repro.core.application": _TASKGRAPH})
        assert findings(project, "R003") == []

    def test_foreign_mutation_fires(self):
        project = project_from(
            **{
                "repro.core.application": _TASKGRAPH,
                "repro.experiments.hacks": """
                def rewire(graph, message):
                    graph._messages[message.name] = message
                """,
            }
        )
        (violation,) = findings(project, "R003")
        assert violation.module == "repro.experiments.hacks"
        assert violation.message == (
            "item assignment of guarded container ._messages outside the owning "
            "class's freeze-checking mutators; use the construction API "
            "(add_*/remove_*), which raises once an evaluation has frozen the model"
        )

    def test_unsanctioned_method_of_owner_fires(self):
        project = project_from(
            **{
                "repro.core.application": _TASKGRAPH
                + """
    def sneaky_edit(self, message):
        self._messages.pop(message.name)
"""
            }
        )
        (violation,) = findings(project, "R003")
        assert "mutating call .pop()" in violation.message

    def test_adjacency_container_edits_fire(self):
        project = project_from(
            **{
                "repro.scheduling.rewire": """
                def rewire(graph, a, b, name, p):
                    graph._succ[a][b] = None
                    graph._pred[b].pop(a)
                    graph._processes[name] = p
                """
            }
        )
        violations = findings(project, "R003")
        assert sorted((v.line, v.message.split(" of ")[0]) for v in violations) == [
            (3, "item assignment"),
            (4, "mutating call .pop()"),
            (5, "item assignment"),
        ]
        assert all(v.symbol.endswith("rewire") for v in violations)

    def test_adjacency_container_edits_inside_add_message_are_quiet(self):
        project = project_from(
            **{
                "repro.core.application": """
                class TaskGraph:
                    def add_message(self, a, b, name, p):
                        self._succ[a][b] = None
                        self._pred[b].pop(a)
                        self._processes[name] = p
                """
            }
        )
        assert findings(project, "R003") == []

    def test_read_access_is_quiet(self):
        project = project_from(
            **{
                "repro.scheduling.reader": """
                def processes(schedule):
                    return list(schedule._processes)
                """
            }
        )
        assert findings(project, "R003") == []


# ----------------------------------------------------------------------
# R004 — seeded RNG only
# ----------------------------------------------------------------------
class TestSeededRng:
    def test_module_level_random_fires(self):
        project = project_from(
            **{
                "repro.generator.bad": """
                import random

                def jitter():
                    return random.random()
                """
            }
        )
        (violation,) = findings(project, "R004")
        assert "random.random()" in violation.message

    def test_numpy_global_state_fires(self):
        project = project_from(
            **{
                "repro.generator.bad": """
                import numpy as np

                def draw(n):
                    np.random.seed(0)
                    return np.random.rand(n)
                """
            }
        )
        messages = sorted(v.message for v in findings(project, "R004"))
        assert len(messages) == 2
        assert "numpy.random.rand()" in messages[0]
        assert "numpy.random.seed()" in messages[1]

    def test_seeded_generators_are_quiet(self):
        project = project_from(
            **{
                "repro.generator.good": """
                import random
                import numpy as np

                def draw(n, seed):
                    rng = np.random.default_rng(seed)
                    local = random.Random(seed)
                    return rng.random(n), local.random()
                """
            }
        )
        assert findings(project, "R004") == []

    def test_seedless_default_rng_fires(self):
        project = project_from(
            **{
                "repro.generator.bad": """
                import numpy as np

                def draw(n):
                    return np.random.default_rng().random(n)
                """
            }
        )
        (violation,) = findings(project, "R004")
        assert "seedless numpy.random.default_rng()" in violation.message

    def test_seedless_seed_sequence_and_bit_generator_fire(self):
        project = project_from(
            **{
                "repro.generator.bad": """
                from numpy.random import PCG64, Generator, SeedSequence

                def streams():
                    root = SeedSequence()
                    return Generator(PCG64())
                """
            }
        )
        messages = sorted(v.message for v in findings(project, "R004"))
        assert len(messages) == 2
        assert any("SeedSequence()" in message for message in messages)
        assert any("PCG64()" in message for message in messages)

    def test_seeded_bit_generator_chain_is_quiet(self):
        project = project_from(
            **{
                "repro.generator.good": """
                from numpy.random import PCG64, Generator, SeedSequence

                def streams(seed):
                    root = SeedSequence(seed)
                    children = root.spawn(2)
                    return [Generator(PCG64(child)) for child in children]
                """
            }
        )
        assert findings(project, "R004") == []

    def test_bare_generator_without_bit_generator_fires(self):
        project = project_from(
            **{
                "repro.generator.bad": """
                from numpy.random import Generator

                def draw():
                    return Generator()
                """
            }
        )
        (violation,) = findings(project, "R004")
        assert "bare numpy.random.Generator construction" in violation.message


# ----------------------------------------------------------------------
# R005 — Decimal/float mixing
# ----------------------------------------------------------------------
class TestDecimalFloat:
    def test_decimal_from_float_fires(self):
        project = project_from(
            **{
                "repro.utils.chain": """
                from decimal import Decimal

                def grid(x):
                    return Decimal(0.1) + Decimal(repr(x))
                """
            }
        )
        (violation,) = findings(project, "R005")
        assert "constructed from a float" in violation.message

    def test_mixed_arithmetic_fires(self):
        project = project_from(
            **{
                "repro.utils.chain": """
                from decimal import Decimal

                def shift(x):
                    d = Decimal(repr(x))
                    scale = 0.5
                    return d * scale
                """
            }
        )
        (violation,) = findings(project, "R005")
        assert "arithmetic mixes Decimal and float" in violation.message

    def test_mixed_comparison_fires(self):
        project = project_from(
            **{
                "repro.utils.chain": """
                from decimal import Decimal

                def exceeds(x, threshold):
                    d = Decimal(repr(x))
                    return d > 0.5
                """
            }
        )
        (violation,) = findings(project, "R005")
        assert "comparison mixes Decimal and float" in violation.message

    def test_pure_decimal_chain_is_quiet(self):
        project = project_from(
            **{
                "repro.utils.chain": """
                from decimal import Decimal

                def chain(x, quantum):
                    d = Decimal(repr(x))
                    q = Decimal(1).scaleb(-quantum)
                    return (d * q).quantize(q) >= Decimal(0)
                """
            }
        )
        assert findings(project, "R005") == []

    def test_module_without_decimal_is_skipped(self):
        project = project_from(
            **{
                "repro.utils.plain": """
                def blend(a, b):
                    return a * 0.5 + b * 0.5
                """
            }
        )
        assert findings(project, "R005") == []


# ----------------------------------------------------------------------
# the rule set and the violation identity
# ----------------------------------------------------------------------
def _violation(message: str, line: int = 1) -> Violation:
    return Violation(
        rule="R004",
        module="repro.generator.bad",
        path="repro/generator/bad.py",
        line=line,
        column=0,
        symbol="repro.generator.bad.jitter",
        message=message,
    )


class TestRuleSet:
    def test_fingerprint_is_line_insensitive(self):
        assert _violation("x", line=3).fingerprint() == _violation("x", line=99).fingerprint()

    def test_all_eight_rules_registered_in_order(self):
        assert [rule.rule_id for rule in RULES] == [
            "R001", "R002", "R003", "R004", "R005", "R006", "R007", "R008",
        ]


# ----------------------------------------------------------------------
# R006 — fork/pickle safety
# ----------------------------------------------------------------------
class TestForkPickle:
    def test_lambda_submitted_to_pool_fires(self):
        project = project_from(
            **{
                "repro.experiments.bad": """
                from concurrent.futures import ProcessPoolExecutor

                def sweep(values):
                    with ProcessPoolExecutor() as pool:
                        return list(pool.map(lambda v: v + 1, values))
                """
            }
        )
        (violation,) = findings(project, "R006")
        assert "lambda as submitted callable" in violation.message
        assert violation.symbol == "repro.experiments.bad.sweep"

    def test_nested_function_submitted_fires(self):
        project = project_from(
            **{
                "repro.experiments.bad": """
                from concurrent.futures import ProcessPoolExecutor

                def sweep(values):
                    def task(v):
                        return v + 1
                    with ProcessPoolExecutor() as pool:
                        return pool.submit(task, values)
                """
            }
        )
        (violation,) = findings(project, "R006")
        assert "nested function 'task'" in violation.message

    def test_open_handle_in_task_payload_fires(self):
        project = project_from(
            **{
                "repro.experiments.bad": """
                def ship(path, pool):
                    handle = open(path)
                    return pool.submit(len, handle)
                """
            }
        )
        (violation,) = findings(project, "R006")
        assert "open file handle in task payload" in violation.message

    def test_shared_engine_handle_in_payload_fires(self):
        project = project_from(
            **{
                "repro.experiments.bad": """
                from repro.engine.engine import EvaluationEngine

                def ship(app, profile, pool):
                    engine = EvaluationEngine(app, profile)
                    return pool.submit(len, (0, engine))
                """,
                "repro.engine.engine": """
                class EvaluationEngine:
                    def __init__(self, app, profile):
                        self.app = app
                """,
            }
        )
        (violation,) = findings(project, "R006")
        assert "EvaluationEngine handle in task payload" in violation.message

    def test_initargs_with_decimal_context_fires(self):
        project = project_from(
            **{
                "repro.experiments.bad": """
                import decimal
                from concurrent.futures import ProcessPoolExecutor

                def sweep(worker):
                    context = decimal.getcontext()
                    pool = ProcessPoolExecutor(
                        initializer=worker, initargs=(context,)
                    )
                    return pool
                """
            }
        )
        (violation,) = findings(project, "R006")
        assert "decimal context in initargs" in violation.message

    def test_module_level_function_and_scalar_tasks_are_quiet(self):
        project = project_from(
            **{
                "repro.experiments.good": """
                from concurrent.futures import ProcessPoolExecutor

                def _init_worker(count, seed):
                    pass

                def _task(triple):
                    index, ser, hpd = triple
                    return index

                def sweep(settings):
                    with ProcessPoolExecutor(
                        initializer=_init_worker, initargs=(4, 42)
                    ) as pool:
                        tasks = [(i, s, h) for i, (s, h) in enumerate(settings)]
                        return list(pool.map(_task, tasks))
                """
            }
        )
        assert findings(project, "R006") == []


# ----------------------------------------------------------------------
# R007 — worker shared-state isolation
# ----------------------------------------------------------------------
class TestWorkerIsolation:
    def test_task_mutating_module_global_fires(self):
        project = project_from(
            **{
                "repro.experiments.bad": """
                _CACHE = {}

                def task(value):
                    _CACHE[value] = value
                    return value

                def sweep(pool, values):
                    return list(pool.map(task, values))
                """
            }
        )
        (violation,) = findings(project, "R007")
        assert "module global '_CACHE'" in violation.message
        assert violation.symbol == "repro.experiments.bad.task"

    def test_global_statement_in_task_fires(self):
        project = project_from(
            **{
                "repro.experiments.bad": """
                _TOTAL = 0

                def task(value):
                    global _TOTAL
                    _TOTAL += value
                    return value

                def sweep(pool, values):
                    return pool.submit(task, values)
                """
            }
        )
        messages = [v.message for v in findings(project, "R007")]
        assert any("'global _TOTAL'" in message for message in messages)

    def test_task_reaching_into_memo_cache_fires(self):
        # The mutation sits one call below the entrypoint: the closure must
        # follow the helper call and the tracked MemoCache instance.
        project = project_from(
            **{
                "repro.engine.cache": """
                class MemoCache:
                    def __init__(self, name):
                        self._store = {}

                    def put(self, key, value):
                        self._store[key] = value
                """,
                "repro.experiments.bad": """
                from repro.engine.cache import MemoCache

                def _helper(value):
                    cache = MemoCache("decisions")
                    cache._store["warm"] = value
                    return cache

                def task(value):
                    return _helper(value)

                def sweep(pool, values):
                    return pool.submit(task, values)
                """,
            }
        )
        messages = [v.message for v in findings(project, "R007")]
        assert any("MemoCache state ('_store')" in message for message in messages)

    def test_guarded_class_own_write_path_is_quiet(self):
        # MemoCache.put mutates _store from worker-reachable code, but it is
        # the class's sanctioned mutator — the write path the parent owns.
        project = project_from(
            **{
                "repro.engine.cache": """
                class MemoCache:
                    def __init__(self, name):
                        self._store = {}

                    def put(self, key, value):
                        self._store[key] = value
                """,
                "repro.experiments.good": """
                from repro.engine.cache import MemoCache

                def task(value):
                    local = MemoCache("decisions")
                    local.put("key", value)
                    return value

                def sweep(pool, values):
                    return pool.submit(task, values)
                """,
            }
        )
        assert findings(project, "R007") == []

    def test_read_only_worker_state_is_quiet(self):
        # Initializer-populated module state read (not written) by the task;
        # the initializer itself is not task-reachable and may write.
        project = project_from(
            **{
                "repro.experiments.good": """
                from concurrent.futures import ProcessPoolExecutor

                _STATE = {}

                def _init_worker(count):
                    _STATE["count"] = count

                def task(value):
                    return _STATE["count"] + value

                def sweep(values):
                    with ProcessPoolExecutor(
                        initializer=_init_worker, initargs=(4,)
                    ) as pool:
                        return list(pool.map(task, values))
                """
            }
        )
        assert findings(project, "R007") == []


# ----------------------------------------------------------------------
# R008 — report JSON-serializability
# ----------------------------------------------------------------------
class TestReportJson:
    def test_set_in_runner_payload_fires(self):
        project = project_from(
            **{
                "repro.api.scenarios_bad": """
                from repro.api.registry import ScenarioOutcome, register_scenario

                @register_scenario("bad")
                def run_bad(session, params):
                    return ScenarioOutcome(payload={"levels": {1, 2, 3}})
                """
            }
        )
        messages = [v.message for v in findings(project, "R008")]
        assert any("set in a report payload" in message for message in messages)

    def test_decimal_in_runner_payload_fires(self):
        project = project_from(
            **{
                "repro.api.scenarios_bad": """
                from decimal import Decimal

                from repro.api.registry import ScenarioOutcome, register_scenario

                @register_scenario("bad")
                def run_bad(session, params):
                    payload = {"cost": Decimal("12.5")}
                    return ScenarioOutcome(payload=payload)
                """
            }
        )
        messages = [v.message for v in findings(project, "R008")]
        assert any("Decimal" in message for message in messages)

    def test_run_report_outside_api_boundary_fires(self):
        project = project_from(
            **{
                "repro.experiments.bad": """
                from repro.api.report import RunReport

                def export(results):
                    return RunReport(scenario="adhoc", config=None, results=results)
                """
            }
        )
        (violation,) = findings(project, "R008")
        assert "RunReport constructed outside the API boundary" in violation.message

    def test_outcome_without_canonicalization_fires(self):
        project = project_from(
            **{
                "repro.api.registry": """
                class ScenarioOutcome:
                    def __init__(self, payload, text=""):
                        self.payload = payload
                        self.text = text
                """
            }
        )
        (violation,) = findings(project, "R008")
        assert "must canonicalize the payload" in violation.message

    def test_canonicalized_outcome_and_native_payload_are_quiet(self):
        project = project_from(
            **{
                "repro.api.registry": """
                def canonicalize_payload(value):
                    return value

                class ScenarioOutcome:
                    def __init__(self, payload, text=""):
                        self.payload = payload

                    def __post_init__(self):
                        self.payload = canonicalize_payload(self.payload)

                def register_scenario(scenario_id):
                    def wrap(fn):
                        return fn
                    return wrap
                """,
                "repro.api.scenarios_good": """
                from repro.api.registry import ScenarioOutcome, register_scenario

                @register_scenario("good")
                def run_good(session, params):
                    acceptance = {"20": 85.0, "40": 90.0}
                    return ScenarioOutcome(payload={"acceptance": acceptance})
                """,
            }
        )
        assert findings(project, "R008") == []

    # ------------------------------------------------------------------
    # nets 4 and 5: the serve response roots
    # ------------------------------------------------------------------
    #: A conforming protocol module: both roots canonicalize, so net 5 stays
    #: quiet and fixtures can focus on the call-site checks of net 4.
    GOOD_PROTOCOL = """
    def canonicalize_payload(value):
        return value

    def json_response(payload, status=200, extra_headers=None):
        return canonicalize_payload(payload)

    def event_line(payload):
        return canonicalize_payload(payload)
    """

    def test_set_in_serve_response_payload_fires(self):
        project = project_from(
            **{
                "repro.serve.protocol": self.GOOD_PROTOCOL,
                "repro.serve.server": """
                from repro.serve.protocol import json_response

                def healthz(depths):
                    return json_response({"status": "ok", "states": {1, 2}})
                """,
            }
        )
        (violation,) = findings(project, "R008")
        assert violation.module == "repro.serve.server"
        assert "set in a report payload" in violation.message

    def test_bytes_via_named_dict_in_event_line_fires(self):
        # The payload is bound to a name first; the dict-literal binding
        # must be followed, same as for ScenarioOutcome call sites.
        project = project_from(
            **{
                "repro.serve.protocol": self.GOOD_PROTOCOL,
                "repro.serve.server": """
                from repro.serve.protocol import event_line

                def emit(writer, raw):
                    event = {"event": "job_done", "blob": bytes(raw)}
                    return event_line(event)
                """,
            }
        )
        (violation,) = findings(project, "R008")
        assert violation.symbol == "repro.serve.server.emit"
        assert "bytes" in violation.message

    def test_native_serve_payloads_are_quiet(self):
        project = project_from(
            **{
                "repro.serve.protocol": self.GOOD_PROTOCOL,
                "repro.serve.server": """
                from repro.serve.protocol import event_line, json_response

                def healthz(counts):
                    return json_response({"status": "ok", "jobs": counts})

                def emit(job_id):
                    return event_line({"event": "job_done", "id": job_id})
                """,
            }
        )
        assert findings(project, "R008") == []

    def test_serve_root_without_canonicalization_fires(self):
        # Stripping canonicalize_payload from a root reverts the serve
        # layer's only canonicalization point — net 5 pins both roots.
        project = project_from(
            **{
                "repro.serve.protocol": """
                def canonicalize_payload(value):
                    return value

                def json_response(payload, status=200, extra_headers=None):
                    return payload

                def event_line(payload):
                    return canonicalize_payload(payload)
                """
            }
        )
        (violation,) = findings(project, "R008")
        assert violation.symbol == "repro.serve.protocol.json_response"
        assert "must canonicalize its payload" in violation.message

    def test_missing_serve_root_anchors_on_the_module(self):
        # A protocol module that lost a root entirely still reports it.
        project = project_from(
            **{
                "repro.serve.protocol": """
                def canonicalize_payload(value):
                    return value

                def json_response(payload, status=200, extra_headers=None):
                    return canonicalize_payload(payload)
                """
            }
        )
        (violation,) = findings(project, "R008")
        assert violation.symbol == "repro.serve.protocol.event_line"

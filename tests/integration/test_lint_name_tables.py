"""The names the lint rules hard-code still name code in the real tree.

Each rule scopes itself through a table of class, method, function and
module names.  A rename or deletion in the library leaves such an entry
pointing at nothing, and the rule then silently checks less: a guard on a
deleted attribute can never fire.  These tests resolve every table entry
against ``Project.from_directory(src/repro)``.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from repro.lint.project import ClassInfo, Project
from repro.lint.rules.r001_fingerprint_purity import KEY_ROOT_FUNCTIONS, KEY_ROOT_MODULES
from repro.lint.rules.r002_kernel_contract import CACHE_KEY_MODULES, FAMILY_BASES
from repro.lint.rules.r003_structure_token import GUARDS, GuardSpec
from repro.lint.rules.r006_fork_pickle import SHARED_HANDLE_CLASSES
from repro.lint.rules.r007_worker_isolation import WORKER_GUARDS
from repro.lint.rules.r008_report_json import (
    REPORT_BOUNDARY_MODULES,
    SERVE_PROTOCOL_MODULE,
    SERVE_RESPONSE_ROOTS,
)
from repro.lint.sanitizer import _SHARED_HANDLE_CLASSES, _guarded_runtime_classes

PACKAGE_DIR = Path(__file__).resolve().parents[2] / "src" / "repro"


@pytest.fixture(scope="module")
def project() -> Project:
    return Project.from_directory(PACKAGE_DIR)


def the_class(project: Project, name: str) -> ClassInfo:
    matches = [info for info in project.classes.values() if info.name == name]
    assert len(matches) == 1, f"{name} names {len(matches)} project classes"
    return matches[0]


def assigned_attributes(class_info: ClassInfo) -> set:
    """Instance attributes bound in the class's methods, plus class-body fields."""
    names = {
        statement.target.id
        for statement in class_info.node.body
        if isinstance(statement, ast.AnnAssign) and isinstance(statement.target, ast.Name)
    }
    for method in class_info.methods.values():
        for node in ast.walk(method.node):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                targets = [node.target]
            else:
                continue
            names.update(
                target.attr
                for target in targets
                if isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            )
    return names


@pytest.mark.parametrize(
    "rule_id, guard",
    [("R003", guard) for guard in GUARDS] + [("R007", guard) for guard in WORKER_GUARDS],
    ids=lambda value: value.class_name if isinstance(value, GuardSpec) else value,
)
def test_guard_spec_names_a_class_its_attributes_and_its_mutators(project, rule_id, guard):
    class_info = the_class(project, guard.class_name)
    missing_attrs = sorted(guard.attrs - assigned_attributes(class_info))
    assert not missing_attrs, f"{rule_id} {guard.class_name} guards unassigned {missing_attrs}"
    missing_mutators = sorted(guard.mutators - set(class_info.methods))
    assert not missing_mutators, f"{rule_id} {guard.class_name} lists unknown {missing_mutators}"


@pytest.mark.parametrize("qualname", KEY_ROOT_FUNCTIONS)
def test_key_root_function_exists(project, qualname):
    assert qualname in project.functions


@pytest.mark.parametrize(
    "module_name",
    sorted(
        {
            *KEY_ROOT_MODULES,
            *CACHE_KEY_MODULES,
            *REPORT_BOUNDARY_MODULES,
            SERVE_PROTOCOL_MODULE,
        }
    ),
)
def test_named_module_exists(project, module_name):
    assert module_name in project.modules


@pytest.mark.parametrize("qualname", FAMILY_BASES)
def test_kernel_family_base_exists(project, qualname):
    assert qualname in project.classes


@pytest.mark.parametrize("name", sorted(SERVE_RESPONSE_ROOTS))
def test_serve_response_root_is_defined_in_the_protocol_module(project, name):
    assert f"{SERVE_PROTOCOL_MODULE}.{name}" in project.functions


@pytest.mark.parametrize("name", sorted({*SHARED_HANDLE_CLASSES, *_SHARED_HANDLE_CLASSES}))
def test_shared_handle_class_exists(project, name):
    the_class(project, name)


def test_sanitizer_guarded_methods_exist(project):
    for owner, methods in _guarded_runtime_classes():
        assert owner.__name__ in _SHARED_HANDLE_CLASSES
        class_info = the_class(project, owner.__name__)
        assert class_info.qualname == f"{owner.__module__}.{owner.__qualname__}"
        for method in methods:
            assert method in class_info.methods, f"{owner.__name__}.{method}"

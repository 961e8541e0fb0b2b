"""The reference oracle and fault injection stay outside production.

:mod:`repro._oracle` holds the original per-cell loops the packed
engine is proven against, and ``tests/chaos/harness.py`` the fault
injection the recovery suites use.  Production code must never reach
either: no module under ``src/repro`` but the oracle itself may import
the oracle, the tests or a chaos module, and neither the
process-global kernel switch nor the production fault hooks may come
back.  The oracle's :func:`~repro._oracle.reference` must also leave
the engine exactly as it found it, even when the block it guards
raises.
"""

import ast
import pathlib

import pytest

from repro import _oracle

ROOT = pathlib.Path(__file__).resolve().parents[2]
SRC = ROOT / "src" / "repro"
ORACLE = SRC / "_oracle.py"

#: Names of the deleted global kernel switch.
SWITCH_NAMES = {"_REFERENCE", "reference_kernels_enabled",
                "use_reference_kernels", "reference_kernels"}

#: Names of the fault injection that left production.
FAULT_NAMES = {"ChaosSpec", "wrap_spec", "corrupt_inferred_ecc",
               "ecc_fault"}

#: Module-path components production must never import.
TEST_ONLY = {"_oracle", "tests", "chaos"}


def _python_files(*dirs):
    for d in dirs:
        yield from sorted((ROOT / d).rglob("*.py"))


def _imported_modules(tree):
    """Every module (and ``from`` target) a module imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            yield module
            yield from (f"{module}.{alias.name}" for alias in node.names)


def _identifiers(tree):
    """Every name a module defines, binds, imports or looks up."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1]
            if node.asname:
                yield node.asname
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.arg):
            yield node.arg


def _offenders(names, *dirs):
    """``path: names`` for every module in ``dirs`` using ``names``."""
    offenders = []
    for path in _python_files(*dirs):
        tree = ast.parse(path.read_text(), filename=str(path))
        found = names & set(_identifiers(tree))
        if found:
            offenders.append(f"{path.relative_to(ROOT)}: {sorted(found)}")
    return offenders


def test_no_production_module_imports_the_oracle():
    offenders = []
    for path in _python_files("src"):
        if path == ORACLE:
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        if any(TEST_ONLY & set(name.split("."))
               for name in _imported_modules(tree)):
            offenders.append(str(path.relative_to(ROOT)))
    assert not offenders, (f"production modules import one of "
                           f"{sorted(TEST_ONLY)}: {offenders}")


def test_global_kernel_switch_is_gone():
    assert not (SRC / "runtime" / "compat.py").exists()
    offenders = _offenders(SWITCH_NAMES, "src", "tests", "benchmarks",
                           "perfbench", "scripts", "examples")
    assert not offenders, f"kernel-switch names remain: {offenders}"


def test_fault_injection_is_out_of_production():
    assert not (SRC / "runtime" / "chaos.py").exists()
    offenders = _offenders(FAULT_NAMES, "src")
    assert not offenders, f"fault-injection names remain: {offenders}"


def test_reference_restores_every_site_when_the_body_raises():
    originals = [(owner, attr, getattr(owner, attr))
                 for owner, attr, _fn in _oracle._SITES]
    with pytest.raises(KeyError):
        with _oracle.reference():
            assert all(getattr(owner, attr) is not original
                       for owner, attr, original in originals)
            raise KeyError("body failed")
    for owner, attr, original in originals:
        assert getattr(owner, attr) is original, (owner, attr)
    assert not _oracle._installed


def test_reference_refuses_nesting():
    originals = [getattr(owner, attr) for owner, attr, _ in _oracle._SITES]
    with _oracle.reference():
        with pytest.raises(RuntimeError, match="already installed"):
            with _oracle.reference():
                pass
    assert [getattr(owner, attr)
            for owner, attr, _ in _oracle._SITES] == originals

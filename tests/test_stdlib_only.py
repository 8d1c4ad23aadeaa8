"""The runtime imports nothing outside the standard library."""

import ast
import pathlib
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "afdi"

# the built-in SHA-256 module under its two CPython names, _sha256 up to
# 3.11 and _sha2 from 3.12; each interpreter lists only its own one in
# sys.stdlib_module_names, and states imports whichever is built
SHA256_MODULES = {"_sha256", "_sha2"}


def _absolute_imports(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_runtime_imports_only_the_standard_library():
    files = sorted(SRC.glob("*.py"))
    assert files
    foreign = []
    for path in files:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for module in _absolute_imports(tree):
            if module.partition(".")[0] not in sys.stdlib_module_names | SHA256_MODULES:
                foreign.append(f"{path.name}: {module}")
    assert foreign == []


def _importers(module: str) -> list[str]:
    return [
        path.name for path in sorted(SRC.glob("*.py"))
        if module in _absolute_imports(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
    ]


def test_only_the_states_module_imports_csv():
    # one reader and one writer for every CSV table, in states
    assert _importers("csv") == ["states.py"]


def test_only_the_states_module_imports_hashlib():
    # one SHA-256 for every digest, in states, which imports hashlib
    # only where the built-in module is missing
    assert _importers("hashlib") == ["states.py"]

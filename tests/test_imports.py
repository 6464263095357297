"""Every module of the package uses each name it imports, takes its
abstract base classes from ``collections.abc``, and the modules that count,
score and describe circuits import no numpy.

No linter is a dependency, so this reads each module's syntax tree with the
standard library's ``ast``.  A name counts as used if the module refers to
it anywhere or lists it in ``__all__``, which is how ``__init__`` re-exports.
"""

import ast
import collections.abc
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "qguard"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("module", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_module_uses_every_name_it_imports(module):
    assert unused_imports(module.read_text()) == []


@pytest.mark.parametrize(
    "source, unused",
    [
        ("from typing import Any, Iterable\nx: Any = 1\n", ["line 1: Iterable"]),
        ("import numpy as np\nimport os.path\nos.path.join('a')\n", ["line 1: np"]),
        ("from .a import b\n__all__ = ['b']\n", []),
        ("from __future__ import annotations\n", []),
    ],
    ids=["from_import", "aliased_import", "exported", "future"],
)
def test_unused_imports_finds_exactly_the_unused_names(source, unused):
    assert unused_imports(source) == unused


def absolute_imports(source: str) -> list[str]:
    modules = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules.append(node.module)
    return modules


@pytest.mark.parametrize("name", ["chsh.py", "circuits.py"])
def test_module_imports_no_numpy(name):
    # Counts, scores and circuits stay plain Python, so a run that simulates
    # nothing can avoid importing numpy.
    modules = absolute_imports((PACKAGE / name).read_text())
    assert [module for module in modules if module.split(".")[0] == "numpy"] == []


def abcs_from_typing(source: str) -> list[str]:
    return [
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module == "typing"
        for alias in node.names
        if alias.name in collections.abc.__all__
    ]


@pytest.mark.parametrize("module", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_module_takes_abstract_base_classes_from_collections_abc(module):
    # typing's aliases of these classes are deprecated, and isinstance against
    # one costs about three times as much as against the class itself.
    assert abcs_from_typing(module.read_text()) == []


def test_abcs_from_typing_finds_exactly_the_abstract_base_classes():
    source = "from typing import Any, Callable, Mapping, NamedTuple\nfrom collections.abc import Hashable\n"
    assert abcs_from_typing(source) == ["Callable", "Mapping"]

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


def imported_modules(source: str) -> set[str]:
    """The top-level package of each absolute import in the source, and each
    relative import with its leading dots."""
    modules = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            modules.add("." * node.level + module if node.level else module.split(".")[0])
    return modules


# numpy, and the package modules that import it, directly or through one another.
NUMPY_MODULES = {"numpy", ".simulator", ".density_oracle", ".backends"}


@pytest.mark.parametrize(
    "name", ["calibration.py", "chsh.py", "circuits.py", "errors.py", "fields.py", "timestamps.py"]
)
def test_module_imports_no_numpy(name):
    # The device model, counts, scores, circuits and documents stay plain
    # Python, so a run that simulates nothing can avoid importing numpy.
    assert imported_modules((PACKAGE / name).read_text()) & NUMPY_MODULES == set()


def test_imported_modules_names_relative_imports_with_their_dots():
    source = "import numpy.linalg\nfrom . import x\nfrom .simulator import y\nfrom os.path import z\n"
    assert imported_modules(source) == {"numpy", ".", ".simulator", "os"}


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

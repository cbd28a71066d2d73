"""The package's own source: no module imports a name it never uses, so that
a deletion cannot leave a dead import behind.  ``__init__.py`` is left out,
because its imports are the package's public names."""

import ast
from pathlib import Path

import pytest

import lexchain

MODULES = sorted(path.name for path in Path(lexchain.__file__).parent.glob("*.py")
                 if path.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names that the imports of ``source`` bind and no other code of it reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


def test_the_check_finds_an_unused_import():
    source = "import os.path\nimport sys as system\nfrom json import dumps, loads\nloads(system.argv)\n"
    assert unused_imports(source) == ["dumps", "os"]


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_only_names_it_uses(module):
    path = Path(lexchain.__file__).parent / module
    assert MODULES and unused_imports(path.read_text(encoding="utf-8")) == []

"""The package's own source: no module imports a name it never uses, so that
a deletion cannot leave a dead import behind.  ``__init__.py`` is left out,
because its imports are the package's public names.

Also: ``import lexchain`` loads no HTTP stack and no ``multiprocessing``,
and every package name the benchmark scripts under ``bench/`` use exists and
takes the arguments they pass, so a change to the package cannot silently
break the benchmark."""

import ast
import importlib
import inspect
import subprocess
import sys
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


def test_import_loads_no_third_party_http_stack():
    """Neither a third-party HTTP stack nor the standard library's: the
    completion client imports its HTTP modules on its first request.  Nor
    ``multiprocessing`` and the socket modules it pulls in: only the train
    step's worker imports it, when it starts."""
    src = str(Path(lexchain.__file__).parent.parent)
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); import lexchain; "
             "print(sorted(m for m in ('requests', 'urllib.request', 'http.client', 'ssl', "
             "'email', 'multiprocessing', 'socket', 'selectors') if m in sys.modules))")
    result = subprocess.run([sys.executable, "-c", probe, src], capture_output=True, text=True,
                            check=True)
    assert result.stdout.strip() == "[]"


BENCH = Path(__file__).resolve().parent.parent / "bench"


def package_name_problems(source: str) -> tuple[int, list[str]]:
    """Checks made on, and problems found in, the names that ``source``
    imports from ``lexchain``: each attribute read on such a name exists,
    each ``(name, "attribute", ...)`` entry of a ``WRAPPED`` tuple names one
    that exists, and each call of such a name or attribute binds to the
    callee's signature."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("lexchain"):
            module = importlib.import_module(node.module)
            for alias in node.names:
                bound[alias.asname or alias.name] = getattr(module, alias.name)
    checks, problems = 0, []

    def attribute(owner: ast.expr, name: str, line: int) -> None:
        """One check that ``owner.name`` exists, when ``owner`` is an imported name."""
        nonlocal checks
        if isinstance(owner, ast.Name) and owner.id in bound:
            checks += 1
            if getattr(bound[owner.id], name, None) is None:
                problems.append(f"line {line}: {owner.id}.{name} does not exist")

    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            attribute(node.value, node.attr, node.lineno)
        elif isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "WRAPPED"
                                                  for t in node.targets):
            for entry in node.value.elts:
                attribute(entry.elts[0], entry.elts[1].value, entry.lineno)
        elif isinstance(node, ast.Call):
            func, fn = node.func, None
            if isinstance(func, ast.Name):
                fn = bound.get(func.id)
            elif (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
                  and func.value.id in bound):
                fn = getattr(bound[func.value.id], func.attr, None)
            if (fn is None or any(isinstance(a, ast.Starred) for a in node.args)
                    or any(k.arg is None for k in node.keywords)):
                continue  # not a package name, already reported, or arguments unknown
            checks += 1
            try:
                inspect.signature(fn).bind(*node.args, **{k.arg: None for k in node.keywords})
            except TypeError as exc:
                problems.append(f"line {node.lineno}: {ast.unparse(node.func)}(...): {exc}")
    return checks, problems


def test_the_check_finds_a_broken_benchmark_use():
    source = ("from lexchain import model, tensor as T\n"
              "WRAPPED = ((model, 'decode_case', 'x', None), (T, 'no_such', 'y', None))\n"
              "model.encode_chain_set(1, 2, 3, 4, auto_register=False)\n"
              "model.encode_chain_set(1, 2, colour=3)\n"
              "T.not_there\n")
    checks, problems = package_name_problems(source)
    assert checks == 7  # five names, two calls
    assert [p.partition(":")[0] for p in problems] == ["line 2", "line 4", "line 5"]


@pytest.mark.parametrize("script", sorted(path.name for path in BENCH.glob("*.py")))
def test_benchmark_uses_only_names_the_package_has(script):
    _, problems = package_name_problems((BENCH / script).read_text(encoding="utf-8"))
    assert problems == []


def test_benchmark_name_checks_cover_its_package_uses():
    assert sum(package_name_problems(path.read_text(encoding="utf-8"))[0]
               for path in BENCH.glob("*.py")) > 50

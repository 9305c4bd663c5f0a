"""Checks on the package's names.

Read with ``ast`` alone: every name a module lists in ``__all__`` must exist
in it, and no module may import a name it never uses, unless the import's
line says ``# noqa: F401``. A package ``__init__.py`` is exempt from the
second check: its imports are the names it publishes.

Imported: ``pbspm`` publishes its library modules and the names each one
gives ``import *`` (its ``__all__``, or, in ``errors``, which has none, every
class it defines), and nothing else, so there is one list of names.
"""

import ast
import importlib
from pathlib import Path

import pbspm

MODULES = sorted((Path(__file__).resolve().parents[1] / "src" / "pbspm").glob("*.py"))
# Every module but the CLI, which ``import pbspm`` does not load; importing
# ``pbspm.cli`` elsewhere binds ``cli`` on the package, so it is not counted.
REPUBLISHED = ("baselines", "errors", "evaluation", "graph", "spectral", "split")


def _bound_at_top(tree: ast.Module) -> set[str]:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                names.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
    return names


def _exported(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return list(ast.literal_eval(node.value))
    return []


def test_exports_exist_and_every_import_is_used():
    problems = []
    for path in MODULES:
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        tree = ast.parse(source)
        exported = _exported(tree)
        bound = _bound_at_top(tree)
        problems += [f"{path.name}: __all__ names missing {name!r}"
                     for name in exported if name not in bound]
        if path.name == "__init__.py":
            continue
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | set(exported)
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in used and "# noqa: F401" not in lines[alias.lineno - 1]:
                    problems.append(f"{path.name}:{alias.lineno}: {name!r} imported, never used")
    assert not problems, "\n".join(problems)


def _star(module) -> list[str]:
    """The names ``from module import *`` binds."""
    return getattr(module, "__all__", [name for name in vars(module) if not name.startswith("_")])


def test_package_publishes_exactly_its_modules_all():
    modules = [importlib.import_module(f"pbspm.{name}") for name in REPUBLISHED]
    public = {name for name in dir(pbspm) if not name.startswith("_")} - {"cli"}
    assert public == set(REPUBLISHED).union(*map(_star, modules))
    for module in modules:
        for name in _star(module):
            assert getattr(pbspm, name) is getattr(module, name), (module.__name__, name)

"""Static checks on the package's names, read with ``ast`` alone.

Every name a module lists in ``__all__`` must exist in it, and no module may
import a name it never uses, unless the import's line says ``# noqa: F401``.
A package ``__init__.py`` is exempt from the second check: its imports are
the names it publishes.
"""

import ast
from pathlib import Path

MODULES = sorted((Path(__file__).resolve().parents[1] / "src" / "pbspm").glob("*.py"))


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

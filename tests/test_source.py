"""Standing checks on the source text: no import that nothing reads, and no
private module-level name in the package that nothing references."""

import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qlow"


def sources(*folders):
    return {path: ast.parse(path.read_text(encoding="utf-8")) for folder in folders
            for path in sorted((ROOT / folder).rglob("*.py"))}


def test_every_top_level_import_is_read():
    # a package __init__ imports its API to re-export it, so it reads none of it
    unread = []
    for path, tree in sources("src/qlow", "tests", "scripts").items():
        if path.name == "__init__.py":
            continue
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.partition(".")[0]
                    if name not in read:
                        unread.append(f"{path.relative_to(ROOT)}:{node.lineno} {name}")
    assert unread == []


def test_every_private_package_name_is_referenced():
    # a reference is a name, an attribute, an imported name or a string (getattr,
    # monkeypatch) anywhere in the package, tests, scripts or benchmark harness,
    # outside the lines that define it; names are matched alone, not by module
    trees = sources("src/qlow", "tests", "scripts", "perfbench")
    references = defaultdict(list)  # name -> [(path, line)]
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                references[node.id].append((path, node.lineno))
            elif isinstance(node, ast.Attribute):
                references[node.attr].append((path, node.lineno))
            elif isinstance(node, ast.alias):
                references[node.name].append((path, node.lineno))
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                references[node.value].append((path, node.lineno))
    unreferenced = []
    for path, tree in trees.items():
        if not path.is_relative_to(PACKAGE):
            continue
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                continue
            own = range(node.lineno, node.end_lineno + 1)
            for name in names:
                if name.startswith("_") and not name.startswith("__") and all(
                    p == path and line in own for p, line in references[name]
                ):
                    unreferenced.append(f"{path.relative_to(ROOT)}:{node.lineno} {name}")
    assert unreferenced == []

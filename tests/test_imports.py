"""No module in src/, scripts/ or tests/ imports a name it never uses.

A name counts as used when it is read anywhere in the module (annotations
written as strings included) or listed in the module's ``__all__``.  An
import kept for its side effects carries ``# noqa: F401`` on its line.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(p for d in ("src", "scripts", "tests") for p in (ROOT / d).rglob("*.py"))


def _bound_names(node):
    for alias in node.names:
        if alias.name == "*":
            continue
        yield alias.asname or alias.name.split(".")[0]


def _annotation_names(tree):
    """Names read inside annotations written as strings."""
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            annotations += [a.annotation for a in
                            args.posonlyargs + args.args + args.kwonlyargs
                            + [args.vararg, args.kwarg] if a is not None]
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for ann in annotations:
        for sub in ast.walk(ann) if ann is not None else ():
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                for name in ast.walk(ast.parse(sub.value, mode="eval")):
                    if isinstance(name, ast.Name):
                        yield name.id


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            yield from ast.literal_eval(node.value)


def unused_imports(path: Path) -> list[tuple[int, str]]:
    """(line, name) of every imported name the module never uses."""
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source)
    used = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    used |= set(_annotation_names(tree)) | set(_exported(tree))
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in lines[k - 1]
               for k in range(node.lineno, node.end_lineno + 1)):
            continue
        unused += [(node.lineno, name) for name in _bound_names(node) if name not in used]
    return unused


@pytest.mark.parametrize("path", FILES, ids=[str(p.relative_to(ROOT)) for p in FILES])
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def test_the_scan_sees_an_unused_import(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text("import os\nimport sys  # noqa: F401\n"
                    "from json import dumps, loads\nimport os.path as osp\n"
                    "__all__ = ['dumps']\nx: 'Path' = 1\n")
    assert unused_imports(path) == [(1, "os"), (3, "loads"), (4, "osp")]

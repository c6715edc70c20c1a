"""Every defaulted parameter of a function in src/ncqm is passed by some
call: a default that no call overrides is a constant, not an option.

A function that the program calls (src/, scripts/ and the benchmark in
perfbench/, which is only read) must have each option passed by one of
those calls, so an option that only tests set fails too.  A function that
only tests call must have each option passed by some test.

Calls are matched to functions by name, so a name that several functions
share counts for each of them, and ``Class(...)`` matches
``Class.__init__``.  A call that spreads ``*args`` or ``**kwargs`` counts
as passing every parameter.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ncqm"
PROGRAM = ("src", "scripts", "perfbench")


def _options(path: Path):
    """(names the function is called by, label, position or None, parameter)
    for every defaulted parameter of every function in the module; the
    position counts the arguments a call writes, after ``self``/``cls``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    owners = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        owner = owners.get(fn)
        names, label = {fn.name}, fn.name
        bound = 0
        if isinstance(owner, ast.ClassDef):
            label = f"{owner.name}.{fn.name}"
            static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                         for d in fn.decorator_list)
            bound = 0 if static else 1
            if fn.name == "__init__":
                names.add(owner.name)
        args = fn.args
        positional = args.posonlyargs + args.args
        first = len(positional) - len(args.defaults)
        for p, arg in enumerate(positional[first:], first):
            yield names, f"{path.stem}.{label}", p - bound, arg.arg
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield names, f"{path.stem}.{label}", None, arg.arg


def _calls(*dirs: str):
    """name -> [(positional count, keywords, spreads)] over every call in
    the Python files under ``dirs``."""
    out: dict[str, list] = {}
    for path in sorted(p for d in dirs for p in (ROOT / d).rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name is None:
                continue
            spreads = any(isinstance(a, ast.Starred) for a in node.args) \
                or any(k.arg is None for k in node.keywords)
            out.setdefault(name, []).append(
                (len(node.args), {k.arg for k in node.keywords}, spreads))
    return out


def unset_options() -> list[str]:
    program, tests = _calls(*PROGRAM), _calls("tests")
    unset = []
    for path in sorted(PACKAGE.glob("*.py")):
        for names, label, position, param in _options(path):
            calls = program if any(name in program for name in names) else tests
            if not any(spreads or param in keywords
                       or (position is not None and count > position)
                       for name in names for count, keywords, spreads in calls.get(name, ())):
                unset.append(f"{label}({param})")
    return unset


def test_every_option_is_passed_somewhere():
    assert unset_options() == []

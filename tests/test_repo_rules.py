"""Rules over the repository's own files: no unused name in the program,
no function in it that calls itself, README's flag table matches the
parser, and every name README's library layout gives exists.

All read files by paths relative to the repository root, so each test
runs from there.
"""

from __future__ import annotations

import argparse
import ast
import importlib
import inspect
import pathlib
import re

import pytest

from clickroles.cli import build_parser

ROOT = pathlib.Path(__file__).resolve().parent.parent

# the readers of two output formats, for those who consume them
TESTS_ONLY = {("model.py", "load_model"), ("tableio.py", "read_matrix_csv")}
# methods that the base class's own code calls: argparse's error report
HOOKS = {("cli.py", "_Parser", "error")}


@pytest.fixture(autouse=True)
def at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


def test_no_unused_imports_names_or_parameters():
    """A name bound by an import and never read anywhere in its module, or
    a module-level def, class or assignment in src/, or a method of a src/
    class, that no file in src/ or perfbench/ reads (by name, attribute,
    import, or as a string naming it, the way perfbench/shim.py names what
    it wraps); a name that only tests/ read counts as unread unless
    TESTS_ONLY lists it. Dunder methods, which Python calls, and the HOOKS
    that a library calls are exempt. Also a parameter of a src/ function
    or lambda that its body never reads (a bare super() reads the first);
    names starting with _ are exempt, so a setting left on a signature
    after its last reader moved out of the function fails here."""
    bad = []
    paths = sorted(p for d in ("src", "tests", "perfbench") for p in pathlib.Path(d).rglob("*.py"))
    trees = {path: ast.parse(path.read_text(encoding="utf-8"), str(path)) for path in paths}
    read = set()
    for path, tree in trees.items():
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", "") != "__future__":
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used:
                        bad.append(f"{path}:{node.lineno}: {name} imported but unused")
            if path.parts[0] == "tests":
                continue
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name.split(".")[-1])
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
                read.add(node.value)
    for path, tree in trees.items():
        if path.parts[0] != "src":
            continue
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            bad += [f"{path}:{node.lineno}: {name} defined but never read" for name in names
                    if name not in read and (path.name, name) not in TESTS_ONLY]
            if isinstance(node, ast.ClassDef):
                bad += [f"{path}:{m.lineno}: method {node.name}.{m.name} defined but never read"
                        for m in node.body if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (m.name.startswith("__") and m.name.endswith("__"))
                        and m.name not in read and (path.name, node.name, m.name) not in HOOKS]
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            args = node.args
            params = [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg) if a]
            inner = [n for part in (node.body if isinstance(node.body, list) else [node.body]) for n in ast.walk(part)]
            loaded = {n.id for n in inner if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            if any(isinstance(n, ast.Call) and getattr(n.func, "id", None) == "super" and not n.args for n in inner):
                loaded.update(params[:1])
            bad += [f"{path}:{node.lineno}: parameter {name} of {getattr(node, 'name', 'lambda')} never read"
                    for name in params if name not in loaded and not name.startswith("_")]
    assert not bad, "\n".join(bad)


def test_no_function_calls_itself():
    """No function or method in src/ calls itself, by its name or as
    self.<name>: a recursion over the data's depth ends in RecursionError
    past Python's frame limit, so data-sized walks are loops."""
    bad = []
    for path in sorted(pathlib.Path("src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for call in ast.walk(node):
                if not isinstance(call, ast.Call):
                    continue
                f = call.func
                if (isinstance(f, ast.Name) and f.id == node.name) or (
                    isinstance(f, ast.Attribute) and f.attr == node.name
                    and isinstance(f.value, ast.Name) and f.value.id == "self"
                ):
                    bad.append(f"{path}:{call.lineno}: {node.name} calls itself")
    assert not bad, "\n".join(bad)


def test_readme_flags_and_defaults_match_the_parser():
    """Each subcommand's row in the README's flag table names exactly the
    option strings its parser declares, -h/--help aside; and where a row
    gives a flag as `--flag` (default) and the parser's default is a
    number or a string, the first word in the parentheses is it."""
    parsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices
    readme = pathlib.Path("README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    rows, cells = {}, []
    for line in section.splitlines():
        row = re.match(r"\| `([a-z]+)` \|", line)
        if row:
            rows.setdefault(row.group(1), []).append(set(re.findall(r"`(--[a-z][a-z-]*)`", line)))
            cells.extend((row.group(1), *cell) for cell in re.findall(r"`(--[a-z][a-z-]*)` \(([^)]*)\)", line))
    bad = [f"README row for unknown subcommand {name}" for name in rows if name not in parsers]
    for name, parser in parsers.items():
        declared = {s for a in parser._actions for s in a.option_strings} - {"-h", "--help"}
        if rows.get(name) != [declared]:
            bad.append(f"README rows for {name} name {[sorted(r) for r in rows.get(name, [])]}, "
                       f"the parser declares {sorted(declared)}")
    for name, flag, text in cells:
        action = parsers[name]._option_string_actions.get(flag) if name in parsers else None
        default = getattr(action, "default", None)
        if isinstance(default, bool) or not isinstance(default, (int, float, str)):
            continue
        given = text.split()[0].strip("`,;:")
        if given != str(default):
            bad.append(f"README gives {name} {flag} the default {given}, the parser {default}")
    assert not bad, "\n".join(bad)


def test_readme_library_names_exist():
    """Each backticked identifier or dotted name in a `clickroles.X` row of
    README's library layout resolves: as an attribute path from
    clickroles.X, from another clickroles module (``Y.name`` from
    clickroles.Y), or as a parameter of a function defined in
    clickroles.X."""
    readme = pathlib.Path("README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library layout\n", 1)[1].split("\n## ", 1)[0]
    names = sorted(p.stem for p in pathlib.Path("src/clickroles").glob("*.py") if p.stem != "__init__")
    modules = {name: importlib.import_module(f"clickroles.{name}") for name in names}

    def resolves(root: object, path: str) -> bool:
        for part in path.split("."):
            if not hasattr(root, part):
                return False
            root = getattr(root, part)
        return True

    bad, rows = [], 0
    for line in section.splitlines():
        row = re.match(r"\| `clickroles\.(\w+)` \| (.*) \|$", line)
        if not row:
            continue
        rows += 1
        home = modules.get(row.group(1))
        if home is None:
            bad.append(f"README row for unknown module clickroles.{row.group(1)}")
            continue
        params = {p for f in vars(home).values() if inspect.isfunction(f) and f.__module__ == home.__name__
                  for p in inspect.signature(f).parameters}
        for name in re.findall(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)`", row.group(2)):
            first, _, rest = name.partition(".")
            if not (resolves(home, name) or any(resolves(m, name) for m in modules.values())
                    or (first in modules and resolves(modules[first], rest)) or name in params):
                bad.append(f"README row for clickroles.{row.group(1)} names `{name}`, which does not exist")
    assert rows, "README's library layout has no clickroles.X rows"
    assert not bad, "\n".join(bad)

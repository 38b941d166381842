"""What a process loads: the lazy package namespace and each command's
module set, read from `sys.modules` of a fresh interpreter; and what each
module imports, read from its syntax tree."""

import ast
import contextlib
import importlib
import io
import json
import re
import subprocess
import sys
from pathlib import Path

import htcas
from htcas import cli, functors

ROOT = Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src")
MODELS = ROOT / "models"

# -I ignores PYTHONPATH and the user site, -B writes no bytecode cache
PYTHON = [sys.executable, "-I", "-B", "-c"]

RUN_CLI = f"""
import contextlib, io, json, sys
sys.path.insert(0, {SRC!r})
from htcas import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(json.dumps([code, sorted(sys.modules)]))
"""

BASE = {"htcas", "htcas.cli", "htcas.core", "htcas.functors", "htcas.invariants"}
COALGEBRA = BASE | {"htcas.structures", "htcas.linalg"}
TRANSFER = COALGEBRA | {"htcas.transfer"}
MAPPING = TRANSFER | {"htcas.mapping"}


def loaded_modules(args):
    proc = subprocess.run([*PYTHON, RUN_CLI, *args], capture_output=True, text=True,
                          timeout=120, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    code, modules = json.loads(proc.stdout)
    assert code == 0, proc.stderr
    return set(modules)


def test_each_command_imports_only_what_it_runs(tmp_path):
    x = str(MODELS / "example1_X.cdga")
    y = str(MODELS / "example1_Y.cdga")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["dualize", x]) == 0
    dgc = tmp_path / "x.dgc"
    dgc.write_text(out.getvalue())
    linf = tmp_path / "y.linf"
    linf.write_text(cli.serialize(functors.linf_from_cdga(cli.parse(y).payload)))
    cases = [
        (["check", x], BASE),
        (["dualize", x], COALGEBRA),
        (["quillen", str(dgc)], COALGEBRA),
        (["invariants", str(dgc)], COALGEBRA),
        (["cochain", str(linf)], COALGEBRA),
        (["transfer-ainf", str(dgc)], TRANSFER),
        (["quillen", "--direct", str(dgc)], TRANSFER),
        (["mapmodel", x, y, "--pointed", "--emit", "both"], MAPPING),
        (["hspace", str(MODELS / "example2_X.dgl"), str(MODELS / "example2_Y.cdga")], MAPPING),
    ]
    for args, want in cases:
        modules = loaded_modules(args)
        assert {m for m in modules if m.split(".")[0] == "htcas"} == want, args
        assert not modules & {"dataclasses", "inspect"}, args


def test_package_modules():
    # the engine only: the tree-sum oracles and fixture tables live in tests/
    modules = {path.stem for path in (ROOT / "src" / "htcas").glob("*.py")}
    assert modules == {"__init__", "cli", "core", "functors", "invariants", "linalg",
                       "mapping", "structures", "transfer"}
    assert len(htcas.__all__) == 43


def test_package_names_resolve_lazily():
    for name in htcas.__all__:
        obj = getattr(htcas, name)
        assert getattr(importlib.import_module(obj.__module__), name) is obj, name
    assert set(htcas.__all__) <= set(dir(htcas))
    assert not hasattr(htcas, "no_such_name")


def test_star_import():
    script = (f"import sys; sys.path.insert(0, {SRC!r})\n"
              "from htcas import *\n"
              "import htcas\n"
              "print(sorted(n for n in htcas.__all__ if globals().get(n) is not getattr(htcas, n)))")
    proc = subprocess.run([*PYTHON, script], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def _annotation_names(tree):
    """Names read by the annotations of a module, string annotations included."""
    notes = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            notes.append(node.returns)
        elif isinstance(node, ast.arg):
            notes.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            notes.append(node.annotation)
    names = set()
    for note in filter(None, notes):
        for sub in ast.walk(note):
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                sub = ast.parse(sub.value, mode="eval")
            names |= {n.id for n in ast.walk(sub) if isinstance(n, ast.Name)}
    return names


def test_no_module_imports_an_unused_name():
    # a use anywhere in the module counts: in a TYPE_CHECKING block, a
    # function body or an annotation written as a string
    for path in sorted((ROOT / "src" / "htcas").glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        used |= _annotation_names(tree)
        unused = {name: line for name, line in imported.items() if name not in used}
        assert not unused, (path.name, unused)


def _used_names(node):
    """Identifiers a syntax tree reads: loaded names, attributes and the
    names in its annotations."""
    used = {n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    used |= {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
    return used | _annotation_names(node)


def _string_names(node):
    """Identifiers spelled inside the string constants of a syntax tree,
    such as the "module.function" keys that the benchmark tracer wraps."""
    return {name for n in ast.walk(node) if isinstance(n, ast.Constant) and isinstance(n.value, str)
            for name in re.findall(r"[A-Za-z_]\w*", n.value)}


def _references():
    """The syntax trees of src/ and benchmark/, and per top-level node of
    each the names it reads.  Under benchmark/ the names spelled in strings
    count too, because the tracer names its targets that way; the
    `_EXPORTS` strings of htcas/__init__.py do not count."""
    files = [path for top in ("src", "benchmark") for path in (ROOT / top).rglob("*.py")]
    trees = {path: ast.parse(path.read_text()) for path in files}
    bench = ROOT / "benchmark"
    used = {path: [_used_names(node) | (_string_names(node) if bench in path.parents else set())
                   for node in tree.body]
            for path, tree in trees.items()}
    return trees, used


def _read_elsewhere(used, path, i):
    """The name sets of every top-level node but node i of `path`."""
    return [names for other, parts in used.items()
            for j, names in enumerate(parts) if other != path or j != i]


def test_every_top_level_definition_is_referenced():
    # a def or class of src/htcas must be read somewhere outside its own
    # body, in src/ or benchmark/: a twin left unused, or code that only
    # tests read, fails here
    trees, used = _references()
    hooks = {"__getattr__", "__dir__"}
    unused = []
    for path in sorted((ROOT / "src" / "htcas").glob("*.py")):
        for i, node in enumerate(trees[path].body):
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name in hooks:
                continue
            if not any(node.name in names for names in _read_elsewhere(used, path, i)):
                unused.append(f"{path.name}:{node.lineno} {node.name}")
    assert not unused, unused


def test_every_method_is_referenced():
    # the same for the non-dunder methods and properties of src/htcas
    # classes: each must be read outside its own body, by another member of
    # its class or elsewhere in src/ or benchmark/.  Dunders are called by
    # the language, so the lint cannot see whether they are used.
    trees, used = _references()
    unused = []
    for path in sorted((ROOT / "src" / "htcas").glob("*.py")):
        for i, node in enumerate(trees[path].body):
            if not isinstance(node, ast.ClassDef):
                continue
            elsewhere = _read_elsewhere(used, path, i)
            header = set().union(*map(_used_names, [*node.bases, *node.keywords,
                                                    *node.decorator_list]))
            for member in node.body:
                if (not isinstance(member, ast.FunctionDef)
                        or member.name.startswith("__") and member.name.endswith("__")):
                    continue
                siblings = [_used_names(m) for m in node.body if m is not member]
                if not any(member.name in names for names in [header, *siblings, *elsewhere]):
                    unused.append(f"{path.name}:{member.lineno} {node.name}.{member.name}")
    assert not unused, unused


def test_every_stored_attribute_is_read():
    # an attribute that a src/htcas class stores must be loaded somewhere in
    # src/ or benchmark/: a value kept for nobody fails here.  Only attribute
    # loads count; the tracer names functions in strings, never attributes.
    trees, _ = _references()
    loaded = {n.attr for tree in trees.values() for n in ast.walk(tree)
              if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    unused = set()
    for path in sorted((ROOT / "src" / "htcas").glob("*.py")):
        for node in trees[path].body:
            if isinstance(node, ast.ClassDef):
                unused |= {f"{path.name} {node.name}.{n.attr}" for n in ast.walk(node)
                           if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store)
                           and n.attr not in loaded}
    assert not unused, sorted(unused)

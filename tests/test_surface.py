"""The library's public surface and its imports, read off the AST.

Every public top-level ``def`` or ``class`` in ``src/lexfan`` is reached
from module-level library code, from code that is itself reached, from
``scripts/*.py``, from the benchmark's own code (``lexbench/*.py``) or from
its ``TRACED`` list: a name only the tests reach belongs in ``tests/``.  No
module binds an imported name it never reads, unless its line says
``# noqa: F401``: no linter is installed, so an AST walk stands in for one.
No module imports ``dataclasses``, and importing the CLI loads neither it
nor ``inspect``: together they cost every process about 8 ms to import and
every ``@dataclass`` class about 0.6 ms to build."""

from __future__ import annotations

import ast
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "lexfan"
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
IMPORTS = (ast.Import, ast.ImportFrom)


def _bindings(tree: ast.Module) -> tuple[dict, dict]:
    """What the module-level imports of lexfan bind: local name ->
    (module, name) for a name, local name -> module for a module."""
    names, modules = {}, {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "lexfan":
            modules.update((a.asname or a.name, a.name) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("lexfan."):
            module = node.module.removeprefix("lexfan.")
            names.update((a.asname or a.name, (module, a.name)) for a in node.names)
    return names, modules


def _refs(node: ast.AST, here: str, bindings: tuple[dict, dict]) -> set:
    """The (module, name) pairs that node reads; a bare name is read from
    ``here`` unless an import bound it."""
    names, modules = bindings
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(names.get(n.id, (here, n.id)))
        elif isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name) and n.value.id in modules:
            out.add((modules[n.value.id], n.attr))
        elif isinstance(n, ast.ImportFrom) and (n.module or "").startswith("lexfan."):
            out.update((n.module.removeprefix("lexfan."), a.name) for a in n.names)
    return out


def traced() -> dict:
    """``lexbench/tracing.py:TRACED``, read as a literal, not imported."""
    tree = ast.parse((ROOT / "lexbench" / "tracing.py").read_text())
    node = next(
        n for n in tree.body
        if isinstance(n, ast.Assign) and [getattr(t, "id", None) for t in n.targets] == ["TRACED"]
    )
    return ast.literal_eval(node.value)


def unreached(library: dict, callers: dict, traced: dict) -> list[str]:
    """``module.name`` of each public top-level def or class of the library
    modules (name -> source) that no root reaches.  The roots are the
    library's module-level code other than imports and definitions, all of
    each caller's code and the traced entries; a definition reached reads
    what its body reads."""
    defs, todo = {}, []
    for here, source in library.items():
        tree = ast.parse(source)
        bindings = _bindings(tree)
        for node in tree.body:
            if isinstance(node, DEFS):
                defs[here, node.name] = _refs(node, here, bindings) - {(here, node.name)}
            elif not isinstance(node, IMPORTS):
                todo.extend(_refs(node, here, bindings))
    for here, source in callers.items():
        tree = ast.parse(source)
        todo.extend(_refs(tree, here, _bindings(tree)))
    todo.extend((layer, e.split(".")[0]) for layer, es in traced.items() for e in es)
    live = set()
    while todo:
        key = todo.pop()
        if key in defs and key not in live:
            live.add(key)
            todo.extend(defs[key])
    return sorted(f"{m}.{n}" for m, n in defs if (m, n) not in live and not n.startswith("_"))


def unused_imports(library: dict) -> list[str]:
    """``module:line name`` of each name an import binds and its module
    (name -> source) never reads; ``__future__`` imports, names in
    ``__all__`` and lines marked ``# noqa: F401`` are exempt."""
    out = []
    for here, source in library.items():
        tree, lines = ast.parse(source), source.splitlines()
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}
        for node in tree.body:
            if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["__all__"]:
                read.update(ast.literal_eval(node.value))
        for node in ast.walk(tree):
            if not isinstance(node, IMPORTS) or getattr(node, "module", None) == "__future__":
                continue
            if "# noqa: F401" in lines[node.end_lineno - 1]:
                continue
            out.extend(
                f"{here}:{node.lineno} {bound}"
                for bound in (a.asname or a.name.split(".")[0] for a in node.names)
                if bound not in read
            )
    return out


def imported(source: str) -> set:
    """The top-level packages a module imports, at any depth."""
    out = set()
    for n in ast.walk(ast.parse(source)):
        if isinstance(n, ast.Import):
            out.update(a.name.split(".")[0] for a in n.names)
        elif isinstance(n, ast.ImportFrom) and not n.level:
            out.add(n.module.split(".")[0])
    return out


def _sources(*globs: tuple[Path, str]) -> dict:
    return {p.stem: p.read_text() for d, g in globs for p in sorted(d.glob(g))}


def test_every_public_name_is_reached():
    callers = _sources((ROOT / "scripts", "*.py"), (ROOT / "lexbench", "*.py"))
    assert unreached(_sources((SRC, "*.py")), callers, traced()) == []


def test_no_unused_imports():
    assert unused_imports(_sources((SRC, "*.py"))) == []


def test_no_module_imports_dataclasses():
    assert [m for m, s in _sources((SRC, "*.py")).items() if "dataclasses" in imported(s)] == []


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    """In a fresh interpreter without site packages, at this one's -O level."""
    code = (f"import sys; sys.path.insert(0, {str(SRC.parent)!r}); import lexfan.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    flags = ["-O"] * sys.flags.optimize
    out = subprocess.run([sys.executable, "-S", *flags, "-c", code],
                         capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout == "[]\n"


def test_the_guards_catch_what_they_check():
    """A name read only by an unreached one is unreached too; one read by a
    caller, by a traced name or by module-level code is not; an import
    read nowhere is caught unless its line is marked; an absolute import is
    found at any depth, a relative one is not a package."""
    library = {
        "a": "from lexfan.b import g, h\nimport os  # noqa: F401\nX = [g]\n"
             "def f():\n    return h()\ndef _p():\n    return k()\ndef k():\n    pass\n",
        "b": "import sys\nfrom lexfan import a\ndef g():\n    pass\ndef h():\n    return a.f()\n"
             "def t():\n    pass\ndef c():\n    pass\n",
    }
    callers = {"script": "from lexfan import b as m\nm.c()\n"}
    assert unreached(library, callers, {"b": ["t"]}) == ["a.f", "a.k", "b.h"]
    assert unused_imports(library) == ["b:1 sys"]
    source = "import os.path\nfrom . import a\ndef f():\n    from dataclasses import field\n"
    assert imported(source) == {"os", "dataclasses"}

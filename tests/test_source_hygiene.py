"""Source hygiene of the package, read from the syntax tree (``ast`` only).

* Every name a module of ``src/bgsplit`` imports is read in that module;
  ``__init__.py`` imports to re-export and is exempt.
* Every import of the package sits in its module's top-level import
  block, never inside a function or class body.
* Every top-level def, class or assignment of the package is referenced
  somewhere in ``src/``, ``tests/``, ``demos/`` or ``perfbench/``: as a
  name read in a ``Load`` context, as an attribute, or in a
  ``from ... import``.  ``__all__`` and ``__version__`` are exempt.
* Only ``lmatrix`` lays out packed digits: no function body of another
  module shifts left.  Module-level constants such as ``1 << 16`` are
  exempt.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "bgsplit"
TREES = ("src", "tests", "demos", "perfbench")
EXEMPT = {"__all__", "__version__"}


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _read_names(tree: ast.AST) -> set:
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def _references(tree: ast.AST) -> set:
    out = _read_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


def _top_level_names(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id


def test_every_import_is_used():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = _tree(path)
        read = _read_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound = [alias.asname or alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            unused.extend(f"{path.name}: {name}" for name in bound if name not in read)
    assert unused == []


def test_no_import_inside_a_function_or_class():
    nested = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(_tree(path)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                nested.extend(f"{path.name}:{inner.lineno}" for inner in ast.walk(node)
                              if isinstance(inner, (ast.Import, ast.ImportFrom)))
    assert nested == []


def test_every_top_level_definition_is_referenced():
    referenced = set()
    for tree_name in TREES:
        for path in (ROOT / tree_name).rglob("*.py"):
            if not any(part.startswith(".") for part in path.relative_to(ROOT).parts):
                referenced |= _references(_tree(path))
    unreferenced = [
        f"{path.name}: {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for name in _top_level_names(_tree(path))
        if name not in referenced and name not in EXEMPT
    ]
    assert unreferenced == []


def _functions(tree: ast.Module):
    """The top-level functions and the methods of top-level classes."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            yield from (f for f in node.body
                        if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef)))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def test_only_lmatrix_shifts_packed_digits():
    shifts = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "lmatrix.py":
            continue
        for fn in _functions(_tree(path)):
            shifts.extend(f"{path.name}: {fn.name}" for node in ast.walk(fn)
                          if isinstance(node, (ast.BinOp, ast.AugAssign))
                          and isinstance(node.op, ast.LShift))
    assert shifts == []

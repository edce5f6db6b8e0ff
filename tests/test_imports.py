"""Every module of the library and of the tests uses each name it imports,
and every definition in the library is referenced somewhere."""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(tree: ast.Module) -> list[tuple[str, int]]:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                imported[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                imported[a.asname or a.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [(name, line) for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    modules = [p for d in ("src", "tests") for p in sorted((ROOT / d).rglob("*.py"))
               if p.name != "__init__.py"]
    assert len(modules) > 10
    unused = [
        f"{p.relative_to(ROOT)}:{line} {name}"
        for p in modules
        for name, line in unused_imports(ast.parse(p.read_text(encoding="utf-8")))
    ]
    assert unused == []


def referenced_names(tree: ast.Module) -> set[str]:
    """Names read, attributes taken and names imported."""
    names = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Name):
            names.add(n.id)
        elif isinstance(n, ast.Attribute):
            names.add(n.attr)
        elif isinstance(n, ast.ImportFrom):
            names.update(a.name for a in n.names)
    return names


def test_no_unreferenced_definitions():
    library = sorted((ROOT / "src" / "starcox").rglob("*.py"))
    defined = {
        (node.name, f"{p.relative_to(ROOT)}:{node.lineno}")
        for p in library
        for node in ast.walk(ast.parse(p.read_text(encoding="utf-8")))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
    }
    referenced = set()
    for d in ("src", "tests", "bench"):
        for p in sorted((ROOT / d).rglob("*.py")):
            referenced |= referenced_names(ast.parse(p.read_text(encoding="utf-8")))
    assert len(defined) > 50
    assert sorted(f"{where} {name}" for name, where in defined if name not in referenced) == []


def unread_parameters(tree: ast.Module) -> list[tuple[str, str, int]]:
    """(function, parameter, line) for each parameter other than self that
    its function, nested functions included, never reads."""
    out = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        a = fn.args
        params = [*a.posonlyargs, *a.args, *a.kwonlyargs, *filter(None, (a.vararg, a.kwarg))]
        body = fn.body if isinstance(fn.body, list) else [fn.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        name = getattr(fn, "name", "<lambda>")
        out += [(name, p.arg, fn.lineno) for p in params if p.arg != "self" and p.arg not in read]
    return out


def test_no_unused_parameters():
    library = sorted((ROOT / "src" / "starcox").rglob("*.py"))
    unread = [
        f"{p.relative_to(ROOT)}:{line} {fn}({param})"
        for p in library
        for fn, param, line in unread_parameters(ast.parse(p.read_text(encoding="utf-8")))
    ]
    assert unread == []

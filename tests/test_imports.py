"""Every module of the library and of the tests uses each name it imports,
the package's ``__all__`` lists exactly what it imports, every definition in
the library is referenced somewhere, the library never asks numpy for a
bare ``np.unique``, and a chain level's action on its base point is applied
in one function."""

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


def test_package_all_lists_its_imports():
    # a stale entry would make ``from starcox import *`` raise AttributeError
    import starcox

    tree = ast.parse((ROOT / "src" / "starcox" / "__init__.py").read_text(encoding="utf-8"))
    imported = [a.asname or a.name for n in tree.body if isinstance(n, ast.ImportFrom)
                for a in n.names]
    assert len(starcox.__all__) == len(set(starcox.__all__))
    assert sorted(starcox.__all__) == sorted([*imported, "__version__"])
    for name in starcox.__all__:
        getattr(starcox, name)


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


# with one of these numpy sorts; without, numpy 2.4 hashes an integer array
SORTING_FLAGS = {"return_index", "return_inverse", "return_counts"}


def bare_unique_calls(tree: ast.Module) -> list[int]:
    """Lines of np.unique calls that pass none of SORTING_FLAGS."""
    return [
        n.lineno for n in ast.walk(tree)
        if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
        and n.func.attr == "unique" and isinstance(n.func.value, ast.Name)
        and n.func.value.id in ("np", "numpy")
        and not any(kw.arg in SORTING_FLAGS for kw in n.keywords)
    ]


def test_no_bare_np_unique():
    # a bare np.unique on 5.25M uint64 keys took 4.77 s against 0.125 s for
    # matgroup.sorted_unique, which sorts and compares neighbours
    assert bare_unique_calls(ast.parse("np.unique(k)\nnp.unique(k, return_index=True)")) == [1]
    library = sorted((ROOT / "src" / "starcox").rglob("*.py"))
    bare = [
        f"{p.relative_to(ROOT)}:{line}"
        for p in library
        for line in bare_unique_calls(ast.parse(p.read_text(encoding="utf-8")))
    ]
    assert bare == []


def point_action_sites(tree: ast.Module) -> list[str]:
    """Names of the functions that call mat_vec on a ``.point`` attribute."""
    return sorted({
        fn.name for fn in ast.walk(tree) if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for n in ast.walk(fn)
        if isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == "mat_vec"
        and any(isinstance(a, ast.Attribute) and a.attr == "point"
                for arg in n.args for a in ast.walk(arg))
    })


def test_one_point_action():
    # a chain level's action on its base point is applied in one function,
    # so a new kind of base point changes that function alone
    probe = ast.parse("def f(lvl):\n    return mat_vec(c, m, lvl.point[None])\n"
                      "def g(v):\n    return mat_vec(c, m, v)\n")
    assert point_action_sites(probe) == ["f"]
    tree = ast.parse((ROOT / "src" / "starcox" / "matgroup.py").read_text(encoding="utf-8"))
    assert point_action_sites(tree) == ["image_keys"]


# the odd classes label a prime for the congruence path and the output; the
# arithmetic reads the characteristic and the degree off q
CLASS_LABELS = {"CLASS_I", "CLASS_II", "CLASS_III"}
CLASS_READERS = {"classify_prime", "table3_lookup"}


def class_label_sites(tree: ast.Module) -> list[tuple[str, int]]:
    """(outermost function or class, or "<module>", line) of each attribute access to
    a name in CLASS_LABELS."""
    sites = []
    for top in tree.body:
        where = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else "<module>"
        sites += [(where, n.lineno) for n in ast.walk(top)
                  if isinstance(n, ast.Attribute) and n.attr in CLASS_LABELS]
    return sites


def test_prime_classes_are_read_only_as_labels():
    probe = ast.parse("def f(p):\n    return p.CLASS_I\nX = PrimeClass.CLASS_III\n")
    assert class_label_sites(probe) == [("f", 2), ("<module>", 3)]
    library = sorted((ROOT / "src" / "starcox").rglob("*.py"))
    stray = [
        f"{p.relative_to(ROOT)}:{line} {where}"
        for p in library
        for where, line in class_label_sites(ast.parse(p.read_text(encoding="utf-8")))
        if where not in CLASS_READERS
    ]
    assert stray == []
    field = ast.parse((ROOT / "src" / "starcox" / "field.py").read_text(encoding="utf-8"))
    assert "PrimeClass" not in referenced_names(field)

"""Source hygiene checks on the library modules, using only the stdlib ast."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "deltaforms"


def _imported_names(tree):
    """(name, line) for each name an import statement binds."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out.append((alias.asname or alias.name.split(".")[0], node.lineno))
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out.append((alias.asname or alias.name, node.lineno))
    return out


def _used_names(tree):
    """Every bare name the module reads, including inside quoted annotations."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        for ann in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                used |= _used_names(ast.parse(ann.value, mode="eval"))
    return used


def test_no_unused_imports_in_library_modules():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    names = {p.name for p in modules}
    assert {"polyhedra.py", "currents.py", "io.py", "cli.py"} <= names, (
        "found no library modules under %s" % PACKAGE)
    unused = []
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        used = _used_names(tree)
        unused += ["%s:%d imports %s" % (path.name, line, name)
                   for name, line in _imported_names(tree) if name not in used]
    assert not unused, "unused imports:\n" + "\n".join(unused)


def _exported_names():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    raise AssertionError("__init__.py defines no __all__")


def test_every_library_function_is_used_in_the_library_or_exported():
    """A module-level function that only the tests reach belongs in the tests.

    A function counts as used when some code in src/ other than its own body
    names it, or when the package exports it.
    """
    exported = _exported_names()
    defined = []
    readers = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in tree.body:
            owner = None
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner = (path.name, node.name)
                defined.append(owner)
            for sub in ast.walk(node):
                name = (sub.id if isinstance(sub, ast.Name)
                        else sub.attr if isinstance(sub, ast.Attribute) else None)
                if name is not None:
                    readers.setdefault(name, set()).add(owner)
    assert len(defined) > 50, "found too few library functions under %s" % PACKAGE
    unused = ["%s: %s" % (module, name) for module, name in defined
              if name not in exported
              and not readers.get(name, set()) - {(module, name)}]
    assert not unused, "functions used only outside src/:\n" + "\n".join(unused)

"""Source checks: the package holds no public function, class, module-level
name or method that only the tests use (test-only helpers belong in
tests/oracles.py), one place in fileformat builds an algebra, and only core
and errors define classes."""

import ast
from pathlib import Path

import reslat

SRC = Path(reslat.__file__).parent


def _bound(node):
    """The names a top-level statement binds: a function's or a class's
    name, or the plain names an assignment targets."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return {node.name}
    targets = node.targets if isinstance(node, ast.Assign) else (
        [node.target] if isinstance(node, ast.AnnAssign) else [])
    return {t.id for t in targets if isinstance(t, ast.Name)}


def _names_read(tree, own):
    """The names a subtree refers to, other than those in own."""
    names = set()
    for sub in ast.walk(tree):
        name = (sub.id if isinstance(sub, ast.Name)
                else sub.attr if isinstance(sub, ast.Attribute) else None)
        if name is not None and name not in own:
            names.add(name)
    return names


def _public_definitions_and_references():
    """(module, class or None, name) of each public top-level function,
    class and assigned name and of each public method of a top-level class,
    and the names the package refers to outside the definition of the thing
    they name."""
    public, refs = [], set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            own = _bound(node)
            public += [(path.stem, None, name) for name in own if not name.startswith("_")]
            if not isinstance(node, ast.ClassDef):
                refs |= _names_read(node, own)
                continue
            for head in node.bases + node.keywords + node.decorator_list:
                refs |= _names_read(head, own)
            for member in node.body:
                method = member.name if isinstance(member, ast.FunctionDef) else None
                if method is not None and not method.startswith("_"):
                    public.append((path.stem, node.name, method))
                refs |= _names_read(member, own | {method})
    return public, refs


def test_every_public_function_is_exported_or_used_by_the_package():
    """Also every public class and module-level name."""
    public, refs = _public_definitions_and_references()
    assert any(cls is None for _, cls, _ in public)
    unused = [f"{module}.{name}" for module, cls, name in public
              if cls is None and name not in reslat.__all__ and name not in refs]
    assert unused == []


def test_every_public_method_is_used_by_the_package():
    public, refs = _public_definitions_and_references()
    assert any(cls is not None for _, cls, _ in public)
    unused = [f"{module}.{cls}.{name}" for module, cls, name in public
              if cls is not None and name not in refs]
    assert unused == []


def test_fileformat_calls_validate_at_one_site():
    """The text and JSON readers share one assembly step, which holds every
    rule of the file format and the module's only call of validate."""
    tree = ast.parse((SRC / "fileformat.py").read_text(encoding="utf-8"))
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
             and "validate" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))]
    assert len(calls) == 1


def test_only_core_sets_attributes_past_a_guard():
    """`object.__setattr__` writes past an immutability guard; only the
    algebra in core has one, and `core.memo` is the one cache of derived
    facts, so no other module keeps a per-object cache beside it."""
    callers = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Attribute) and node.attr == "__setattr__"
                    and getattr(node.value, "id", None) == "object"):
                callers.add(path.stem)
    assert callers == {"core"}


def test_only_core_and_errors_define_classes():
    """The algebra in core and the exceptions in errors are the package's
    classes. Every other derived fact is a function memoized by `core.memo`,
    so no record of derived facts stands beside it."""
    definers = {path.stem for path in SRC.glob("*.py")
                for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                if isinstance(node, ast.ClassDef)}
    assert definers == {"core", "errors"}

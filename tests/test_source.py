"""Source checks: the package holds no public function or method that only
the tests use. Test-only helpers belong in tests/oracles.py."""

import ast
from pathlib import Path

import reslat

SRC = Path(reslat.__file__).parent


def _public_definitions_and_references():
    """(module, class or None, name) of each public top-level function and
    each public method of a top-level class, and the names the package
    refers to outside the body of the function or method they name."""
    public, refs = [], set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            in_class = isinstance(node, ast.ClassDef)
            for member in node.body if in_class else [node]:
                owner = None
                if isinstance(member, ast.FunctionDef):
                    owner = member.name
                    if not owner.startswith("_"):
                        public.append((path.stem, node.name if in_class else None, owner))
                for sub in ast.walk(member):
                    name = (sub.id if isinstance(sub, ast.Name)
                            else sub.attr if isinstance(sub, ast.Attribute) else None)
                    if name is not None and name != owner:
                        refs.add(name)
    return public, refs


def test_every_public_function_is_exported_or_used_by_the_package():
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

"""Source checks: the package holds no public function that only the tests
use. Test-only helpers belong in tests/oracles.py."""

import ast
from pathlib import Path

import reslat

SRC = Path(reslat.__file__).parent


def _public_functions_and_references():
    """(module, name) of each public top-level function, and the names each
    top-level definition refers to outside its own body."""
    public, refs = [], set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = None
            if isinstance(node, ast.FunctionDef):
                owner = node.name
                if not node.name.startswith("_"):
                    public.append((path.stem, node.name))
            for sub in ast.walk(node):
                name = (sub.id if isinstance(sub, ast.Name)
                        else sub.attr if isinstance(sub, ast.Attribute) else None)
                if name is not None and name != owner:
                    refs.add(name)
    return public, refs


def test_every_public_function_is_exported_or_used_by_the_package():
    public, refs = _public_functions_and_references()
    assert public
    unused = [f"{module}.{name}" for module, name in public
              if name not in reslat.__all__ and name not in refs]
    assert unused == []

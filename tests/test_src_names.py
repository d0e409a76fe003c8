"""The package holds only code that the package or the benchmark uses: every
function, method and class defined in src/surropt is used somewhere in src/
or bench/. A helper only tests call belongs in tests/, or nowhere.

A use is a name read as a variable or an attribute, an imported name, or a
string constant that is an identifier, since the benchmark's tracer wraps
functions by name. Comments and docstrings name nothing."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _trees(folder):
    return [ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            for path in sorted(folder.rglob("*.py"))]


def _uses(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            yield node.value


def _unused_names(root):
    """Names defined in ``root``/src/surropt (dunders aside) with no use in
    src/ or bench/."""
    used = {name for folder in ("src", "bench") for tree in _trees(root / folder) for name in _uses(tree)}
    names = {node.name for tree in _trees(root / "src" / "surropt")
             for node in ast.walk(tree) if isinstance(node, DEFINITIONS)}
    assert len(names) > 100
    return sorted(name for name in names
                  if not (name.startswith("__") and name.endswith("__")) and name not in used)


def test_every_src_name_is_used_outside_its_definition():
    assert _unused_names(ROOT) == []

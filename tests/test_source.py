"""Source-level guards over the package itself."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "specmult"


def _referenced_names(node: ast.AST) -> set[str]:
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name)
    return names


def test_every_private_module_function_is_used():
    """A module-level _helper that nothing references outside its own body
    is dead code."""
    defined = []
    referenced: set[str] = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in tree.body:
            names = _referenced_names(node)
            if isinstance(node, ast.FunctionDef):
                names.discard(node.name)  # self-recursion is not a use
                if node.name.startswith("_") and not node.name.startswith("__"):
                    defined.append((path.name, node.name))
            referenced |= names
    assert [d for d in defined if d[1] not in referenced] == []

"""Source-level guards over the package itself."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "specmult"


def _referenced_names(node: ast.AST) -> set[str]:
    """Names read anywhere under node; an assignment target is not a read."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name)
    return names


def _defined_names(node: ast.stmt) -> list[str]:
    """Names a module-level statement binds: a def, a class or an
    assignment to a plain name."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def test_every_private_module_function_is_used():
    """A module-level _helper, _Class or _TABLE that nothing references
    outside its own definition is dead code."""
    defined = []
    referenced: set[str] = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in tree.body:
            names = _referenced_names(node)
            for name in _defined_names(node):
                names.discard(name)  # self-recursion is not a use
                if name.startswith("_") and not name.startswith("__"):
                    defined.append((path.name, name))
            referenced |= names
    assert [d for d in defined if d[1] not in referenced] == []


def _unused_public_names(kinds: tuple) -> list[tuple[str, str]]:
    """(module, name) of each public module-level name, bound by a statement
    of one of these node types, that no module of the package uses and the
    package's __init__ does not export: reachable from the tests alone."""
    defined = []
    referenced: set[str] = set()
    exported: set[str] = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        if path.name == "__init__.py":
            exported |= _referenced_names(tree)
            continue
        for node in tree.body:
            names = _referenced_names(node)
            if isinstance(node, kinds):
                for name in _defined_names(node):
                    if not name.startswith("_"):
                        names.discard(name)  # self-reference is not a use
                        defined.append((path.name, name))
            referenced |= names
    return [d for d in defined if d[1] not in referenced | exported]


def test_every_public_module_function_is_used_or_exported():
    """A public module-level function that nothing uses is dead code with a
    public name."""
    assert _unused_public_names((ast.FunctionDef,)) == []


def test_every_public_module_constant_and_class_is_used_or_exported():
    """The same for a public module-level constant or class."""
    assert _unused_public_names((ast.ClassDef, ast.Assign, ast.AnnAssign)) == []


def _imported_names(tree: ast.Module) -> list[str]:
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [a.asname or a.name for a in node.names]
    return names


def test_no_unused_imports():
    """A name imported into a module and used nowhere in it is dead weight;
    the package's __init__ re-exports and is exempt."""
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unused += [(path.name, name) for name in _imported_names(tree) if name not in used]
    assert unused == []


def test_every_relation_probe_field_is_read():
    """A RelationProbe field that no relation check reads is a witness the
    caller supplies for nothing; every field must be read as probe.<field>
    in theorems.py."""
    tree = ast.parse((SRC / "theorems.py").read_text(encoding="utf-8"))
    cls = next(
        node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "RelationProbe"
    )
    fields = [
        node.target.id
        for node in cls.body
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
    ]
    read = {
        sub.attr
        for sub in ast.walk(tree)
        if isinstance(sub, ast.Attribute)
        and isinstance(sub.ctx, ast.Load)
        and isinstance(sub.value, ast.Name)
        and sub.value.id == "probe"
    }
    assert fields and [f for f in fields if f not in read] == []


def test_importing_the_package_leaves_sympy_unloaded():
    """sympy is imported inside the functions that factor or split a
    polynomial, so that a run which never does either pays nothing for it."""
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    code = "import sys, specmult, specmult.cli, specmult.oracle; print('sympy' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_a_passing_sweep_never_loads_sympy():
    """The connected sweep names each eigenvalue by its squarefree part and a
    certified isolating interval, and counts it by gcd rounds: a clean cap-6
    sweep runs to the end without importing sympy."""
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    code = (
        "import sys\n"
        "from specmult.oracle import CampaignConfig, run_campaign\n"
        "summary, found = run_campaign(CampaignConfig('connected', cap=6))\n"
        "print(summary['instances'], summary['checks'], len(found), 'sympy' in sys.modules)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["27475", "71301", "0", "False"]

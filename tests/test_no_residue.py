"""Every public module-level function and class of ``repro`` has a caller.

A caller is a reference (a name, an attribute or an import) in another
module of ``src/repro``, in ``examples/``, ``benchmarks/`` or
``perfbench/``, or in its own module outside its own definition; a name
in the CI workflows' inline scripts counts too.  Package
``__init__`` re-exports and tests do not count: a name that only they
mention is code no entry point reaches.  A deleted name comes back only
with a caller, or with an entry in ``ALLOWED`` that says why it stays.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
CALLER_DIRS = ("examples", "benchmarks", "perfbench")
WORKFLOWS = ROOT / ".github" / "workflows"

#: public names with no caller, and why each stays
ALLOWED = {
    "ConstantDist": "generator test fixture: a calibration with constant draws",
    "derive_seed": "the per-cell seed helper docs/PARALLELISM.md tells sweep "
    "authors to use; tests/test_hashed_draws.py pins its values",
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _references(nodes) -> set[str]:
    names = set()
    for node in nodes:
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
    return names


def _unreached() -> dict[str, str]:
    """Public names no caller references, mapped to their module."""
    modules = {
        path: ast.parse(path.read_text(), filename=str(path))
        for path in PACKAGE.rglob("*.py")
        if path.name != "__init__.py"
    }
    elsewhere = {path: _references(ast.walk(tree)) for path, tree in modules.items()}
    outside = set()
    for name in CALLER_DIRS:
        for path in (ROOT / name).rglob("*.py"):
            outside |= _references(ast.walk(ast.parse(path.read_text())))
    for path in WORKFLOWS.glob("*.yml"):
        outside |= set(re.findall(r"\w+", path.read_text()))
    unreached = {}
    for path, tree in sorted(modules.items()):
        for node in tree.body:
            if not isinstance(node, _DEFS) or node.name.startswith("_"):
                continue
            own = set(ast.walk(node))
            in_module = _references(n for n in ast.walk(tree) if n not in own)
            in_others = any(
                node.name in refs for other, refs in elsewhere.items() if other != path
            )
            if node.name not in outside | in_module and not in_others:
                unreached[node.name] = str(path.relative_to(PACKAGE))
    return unreached


def test_every_public_name_has_a_caller():
    unreached = {
        name: module for name, module in _unreached().items() if name not in ALLOWED
    }
    assert unreached == {}, (
        "public names that only their module, a package __init__ and tests "
        "mention; delete them, or give each a caller or an ALLOWED reason: "
        f"{unreached}"
    )


def test_allow_list_is_current():
    # an allowed name that gained a caller, or was deleted, leaves the list
    assert sorted(_unreached().keys() & ALLOWED.keys()) == sorted(ALLOWED)

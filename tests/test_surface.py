"""Every function and method in ``src/detkit`` has a caller.

An AST scan lists the module-level functions and the class methods
(dunders excluded) and asks that each name be referenced somewhere in
``src/detkit`` outside its own body.  The scan matches by name, so a method
counts as used when any attribute of that name is read.  A definition with
no such reference must be public surface, named below; otherwise it is dead
code and goes.
"""

import ast
import importlib
from collections import Counter
from pathlib import Path

from test_tracing_targets import _load_tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "detkit"
HELPERS = Path(__file__).resolve().parent / "helpers.py"

# implementations the tests compare against: package definitions that only
# the tests call, and ``helpers`` ones that keep a replaced engine path
REFERENCE = {
    "helpers.reference_lead_numerator",
    "groebner.s_polynomial",
    "poly.Polynomial.evaluate",
    "poly.MonomialOrder.compare",
    "combinat.order_ideal_generated",
    "combinat.order_ideal_cogenerated",
}

# public methods of exported classes (``QQ`` is the exported
# ``RationalField``) that nothing in the package calls
PUBLIC_METHODS = {
    "poly.PolyRing.var",
    "poly.VariableTable.position",
    "poly.PrimeField.div",
    "poly.RationalField.div",
}


def _references(tree):
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
    return out


def _scan():
    """``(definitions, references)``: each definition is ``(qualified name,
    bare name, node)``, and references count every name read in the
    package."""
    defs, refs = [], Counter()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        refs += _references(tree)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defs.append((f"{path.stem}.{node.name}", node.name, node))
            elif isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        defs.append((f"{path.stem}.{node.name}.{sub.name}", sub.name, sub))
    return [d for d in defs if not (d[1].startswith("__") and d[1].endswith("__"))], refs


def _exports():
    """The ``module.name`` of each name the package ``__init__`` imports."""
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    return {
        f"{node.module}.{alias.name}"
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def _traced():
    tracing = _load_tracing()
    return {f"{module}.{attr}" for module, attr, _ in tracing.SPANNED + tracing.COUNTED}


def test_every_definition_has_a_caller_or_is_public():
    defs, refs = _scan()
    own = Counter()
    for _, name, node in defs:
        own[name] += _references(node)[name]
    allowed = _exports() | _traced() | REFERENCE | PUBLIC_METHODS
    uncalled = sorted(
        qual for qual, name, _ in defs if refs[name] <= own[name] and qual not in allowed
    )
    assert uncalled == []


def test_allow_lists_name_existing_definitions():
    defined = {qual for qual, _, _ in _scan()[0]}
    helpers = ast.parse(HELPERS.read_text(encoding="utf-8"))
    defined |= {f"helpers.{node.name}" for node in helpers.body if isinstance(node, ast.FunctionDef)}
    assert REFERENCE | PUBLIC_METHODS <= defined


def test_public_methods_belong_to_exported_classes():
    import detkit

    exported = [getattr(detkit, name) for name in detkit.__dict__]
    for qual in PUBLIC_METHODS:
        module, cls, _ = qual.split(".")
        klass = getattr(importlib.import_module(f"detkit.{module}"), cls)
        assert any(obj is klass or isinstance(obj, klass) for obj in exported), qual

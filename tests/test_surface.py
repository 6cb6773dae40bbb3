"""Every function and method in ``src/detkit`` has a caller, every
parameter with a default has a caller that passes it, and every module but
``__init__`` uses each name it imports.

An AST scan lists the module-level functions and the class methods
(dunders excluded) and asks that each name be referenced somewhere in
``src/detkit`` outside its own body.  The scan matches by name, so a method
counts as used when any attribute of that name is read.  A definition with
no such reference must be public surface, named below; otherwise it is dead
code and goes.  The definitions that only the benchmark's tracer names
are listed too, so it is plain what retargeting the tracer frees.  A
second scan does the same for each parameter with a default,
constructors included: some call in ``src/detkit`` of that name must pass
it, by keyword or by position.  A third scan asks that each name a
module's imports bind be read in that module.
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
    "combinat.order_ideal_generated",
    "combinat.order_ideal_cogenerated",
}

# definitions that only the benchmark's tracer names: neither exported nor
# called in the package, they stay while ``perfbench/tracing.py`` patches
# them, and go once it no longer does.  ``MonomialOrder.key`` is the tuple
# key that the package's sorts no longer read, since they key by the
# order's int weights; the tests' helpers still sort with it.  The scan
# counts it as called, because ``_Packing.key`` shares its name, so
# ``test_cli.test_suite_output_reads_no_order_key`` shows it uncalled
TRACER_ONLY = {
    "detideals.pfaffian_row_component",
    "poly.MonomialOrder.key",
    "poly.mono_div",
    "poly.mono_divides",
    "poly.mono_lcm",
}

# public methods of exported classes (``QQ`` is the exported
# ``RationalField``) that nothing in the package calls.  The scan matches
# by name, so a method that shares its name with one the package does read
# passes it unlisted: ``VariableTable.name`` counts as called because the
# package reads other attributes named ``name``, ``PrimeField.name`` among
# them.  Such methods are listed here all the same
PUBLIC_METHODS = {
    "poly.PolyRing.var",
    "poly.VariableTable.name",
    "poly.VariableTable.position",
    "poly.PrimeField.div",
    "poly.RationalField.div",
}


# parameters with a default that only callers outside the package pass:
# the command's argument list, which the console script leaves to
# ``sys.argv``, and the block limits of the exported per-shape builders,
# whose block ideals the package builds through ``detideals._ideal``
PUBLIC_PARAMETERS = {
    "cli.main.argv",
    "detideals.ideal_of_minors.row_limit",
    "detideals.ideal_of_minors.col_limit",
    "detideals.ideal_of_pfaffians.row_limit",
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


def _uncalled():
    """The qualified name of each definition that nothing in the package
    references outside its own body."""
    defs, refs = _scan()
    own = Counter()
    for _, name, node in defs:
        own[name] += _references(node)[name]
    return {qual for qual, name, _ in defs if refs[name] <= own[name]}


def test_every_definition_has_a_caller_or_is_public():
    allowed = _exports() | _traced() | REFERENCE | PUBLIC_METHODS
    assert sorted(_uncalled() - allowed) == []


def test_tracer_only_definitions_are_named():
    found = (_uncalled() & _traced()) - _exports()
    assert found <= TRACER_ONLY
    # a listed definition that the scan counts as called must be traced and
    # share its name with another package definition, which hides it
    defs = _scan()[0]
    for qual in TRACER_ONLY - found:
        bare = qual.rsplit(".", 1)[1]
        assert qual in _traced() and any(q != qual and name == bare for q, name, _ in defs), qual


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


def _defaulted(node, bound: int):
    """``(name, position)`` of each parameter of ``node`` with a default;
    ``position`` counts the arguments a call writes before it, past the
    ``bound`` ones the call supplies itself (``self`` or ``cls``), and is
    ``None`` for a keyword-only parameter."""
    args = node.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    out = [(a.arg, i - bound) for i, a in enumerate(positional) if i >= first]
    out += [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return out


def _unpassed():
    """The ``module.function.parameter`` of each parameter with a default
    that no call in ``src/detkit`` passes; calls match by name, and a
    constructor call by its class's name."""
    calls, params = [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                fn = node.func
                name = fn.id if isinstance(fn, ast.Name) else getattr(fn, "attr", None)
                calls.append((name, node))
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                params.append((f"{path.stem}.{node.name}", node.name, node, 0))
            elif isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if not isinstance(sub, ast.FunctionDef):
                        continue
                    if sub.name == "__init__":
                        called = node.name
                    elif sub.name.startswith("__"):
                        continue
                    else:
                        called = sub.name
                    # a call supplies self or cls itself, but no argument of a
                    # static method
                    wraps = {getattr(d, "id", None) for d in sub.decorator_list}
                    qual = f"{path.stem}.{node.name}.{sub.name}"
                    params.append((qual, called, sub, 0 if "staticmethod" in wraps else 1))

    def passes(call, name, position):
        if any(k.arg in (name, None) for k in call.keywords):
            return True
        if position is None:
            return False
        return len(call.args) > position or any(isinstance(a, ast.Starred) for a in call.args)

    return {
        f"{qual}.{name}"
        for qual, called, node, bound in params
        for name, position in _defaulted(node, bound)
        if not any(c == called and passes(call, name, position) for c, call in calls)
    }


def test_every_defaulted_parameter_is_passed_or_public():
    unpassed = _unpassed()
    assert sorted(unpassed - PUBLIC_PARAMETERS) == []
    # the list names only parameters that exist and that no call passes
    assert PUBLIC_PARAMETERS <= unpassed


def _bound_by_imports(tree):
    """The name that each import of ``tree`` binds, ``__future__`` aside."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from (a.asname or a.name for a in node.names)


def test_every_import_is_used():
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.stem}.{name}" for name in _bound_by_imports(tree) if name not in read]
    assert unused == []

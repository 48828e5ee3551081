"""Source-level rules for the package."""

import ast
import types
from pathlib import Path

import overpart

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "overpart"


def test_no_assert_statements_in_package():
    # python -O strips assert statements, so a check written as one
    # silently stops running; package checks raise typed errors instead
    paths = sorted(PACKAGE.glob("*.py"))
    assert paths
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert offenders == []


def test_all_lists_exactly_the_public_names():
    # a name dropped from the imports or from __all__ alone fails here
    public = {name for name, value in vars(overpart).items()
              if not name.startswith("_")
              and not isinstance(value, types.ModuleType)}
    listed = overpart.__all__
    assert len(set(listed)) == len(listed)
    assert [name for name in listed if not hasattr(overpart, name)] == []
    assert set(listed) - {"__version__"} == public


def _is_binomial(node):
    # <one> +/- QLaurent.monomial(...), either way round
    return (isinstance(node, ast.BinOp)
            and isinstance(node.op, (ast.Add, ast.Sub))
            and any(isinstance(side, ast.Call)
                    and isinstance(side.func, ast.Attribute)
                    and side.func.attr == "monomial"
                    and isinstance(side.func.value, ast.Name)
                    and side.func.value.id == "QLaurent"
                    for side in (node.left, node.right)))


def test_no_binomial_factor_fed_to_the_general_product():
    # a factor 1 + c d^k q^e is applied as x + x.scale_by_monomial(e, k, c)
    # (or divided out of a row one factor at a time), never multiplied out
    # term by term against every term of x
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
                operands = (node.left, node.right)
            elif (isinstance(node, ast.AugAssign)
                  and isinstance(node.op, ast.Mult)):
                operands = (node.value,)
            else:
                continue
            if any(_is_binomial(op) for op in operands):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_every_private_function_is_referenced_in_the_package():
    # a private helper whose last caller went away is dead code
    trees = [ast.parse(path.read_text(), str(path))
             for path in sorted(PACKAGE.glob("*.py"))]
    defined, used = set(), set()
    for tree in trees:
        for node in ast.walk(tree):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and node.name.startswith("_")
                    and not node.name.endswith("__")):
                defined.add(node.name)
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert defined
    assert sorted(defined - used) == []


def test_weight_pairs_are_built_only_for_their_table():
    # every identity reads its weight pairs from the one table per system
    # and cutoff; only the public families hand out fresh ones
    path = PACKAGE / "recurrence_engine.py"
    callers = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                visit(child, scope + [child.name])
                continue
            if (isinstance(child, ast.Call)
                    and isinstance(child.func, ast.Name)
                    and child.func.id == "_weight_pair"):
                callers.append(".".join(scope))
            visit(child, scope)
    visit(ast.parse(path.read_text(), str(path)), [])
    assert sorted(callers) == ["_WeightPairs.__missing__", "coeff_b",
                               "coeff_e"]


def test_only_the_kernel_sites_call_the_packed_kernels():
    # every general product and quotient runs through one multiply loop
    # and one quotient loop; no other function packs its own.  The main
    # recurrence and the transformation chain hold their series packed at
    # one width per run and call the kernels themselves
    callers = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                visit(child, scope + [child.name])
                continue
            if (isinstance(child, ast.Call)
                    and isinstance(child.func, ast.Name)
                    and child.func.id in ("_mul_rows", "_div_row")):
                callers.append((".".join(scope), child.func.id))
            visit(child, scope)
    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(), str(path)), [])
    assert sorted(set(callers)) == [
        ("_chain_series", "_div_row"),
        ("_coeff_residuals", "_mul_rows"), ("_dot", "_mul_rows"),
        ("_iterates", "_div_row"), ("_iterates", "_mul_rows"),
        ("_x_product_transform", "_mul_rows")]


def test_only_series_ring_names_xseries():
    # the x-series type is the tests' reference for the transformation
    # chain, whose own path runs on lists of coefficients; __init__ only
    # re-exports it
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "series_ring.py":
            continue
        reexport = path.name == "__init__.py"
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom):
                named = any(alias.name == "XSeries" for alias in node.names)
                allowed = reexport and node.module == "series_ring"
            elif isinstance(node, ast.Constant) and isinstance(node.value,
                                                               str):
                named = "XSeries" in node.value
                allowed = reexport and node.value == "XSeries"  # __all__
            else:
                named = "XSeries" in (getattr(node, "id", None),
                                      getattr(node, "attr", None))
                allowed = False
            if named and not allowed:
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_enumeration_stays_independent_of_the_identities():
    # the counters are the oracles the identities are checked against:
    # they may hand their counts over in a QLaurent, and share the slot
    # width that pbar bounds, its check and the read-back of packed rows
    # with the infinite product, but must not compute them with the ring
    # or the recurrences
    path = PACKAGE / "enumeration.py"
    imported = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom):
            imported += [f"{node.module or ''}.{alias.name}".split(".")
                         for alias in node.names]
        elif isinstance(node, ast.Import):
            imported += [alias.name.split(".") for alias in node.names]
    assert ["series_ring", "QLaurent"] in imported
    offenders = [".".join(parts) for parts in imported
                 if "recurrence_engine" in parts
                 or ("series_ring" in parts
                     and parts[-2:] not in (["series_ring", "QLaurent"],
                                            ["series_ring", "_count_width"],
                                            ["series_ring", "_decode_counts"],
                                            ["series_ring", "_slot_width"]))]
    assert offenders == []



def test_oracles_share_no_code_with_the_counters():
    # an oracle that runs a counter's own helper agrees with the counter
    # when that helper is wrong: the tests' generate-and-filter imports
    # nothing from the counting modules, and count_G_andrews_k0 names no
    # private function that count_G's completions table names
    conftest = PACKAGE.parent.parent / "tests" / "conftest.py"
    imported = set()
    for node in ast.walk(ast.parse(conftest.read_text(), str(conftest))):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module)
            if node.module == "overpart":
                imported |= {getattr(getattr(overpart, alias.name),
                                     "__module__", None)
                             for alias in node.names}
        elif isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
    assert "overpart" in imported
    assert imported.isdisjoint({"overpart.enumeration",
                                "overpart.recurrence_engine"})
    path = PACKAGE / "enumeration.py"
    names = {node.name: {getattr(n, "id", None) or getattr(n, "attr", "")
                         for n in ast.walk(node)}
             for node in ast.parse(path.read_text(), str(path)).body
             if isinstance(node, (ast.ClassDef, ast.FunctionDef))}
    assert "_smallest_part_ok" in names["_Completions"]
    shared = names["_Completions"] & names["count_G_andrews_k0"]
    assert sorted(name for name in shared if name.startswith("_")) == []

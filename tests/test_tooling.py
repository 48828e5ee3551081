"""Source-level rules for the package."""

import ast
import json
import os
import subprocess
import sys
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
    # a factor 1 + c d^k q^e is applied as x + c x.scale_by_monomial(e, k)
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
    # and cutoff
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
    assert callers == ["_WeightPairs.__missing__"]


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
        ("_coeff_residuals", "_mul_rows"),
        ("_iterates", "_div_row"), ("_iterates", "_mul_rows"),
        ("_residual_row", "_mul_rows"), ("_sum_rows", "_mul_rows"),
        ("_x_product_transform", "_mul_rows")]


def test_only_the_ring_updates_rows_slice_by_slice():
    # a row updated in place from map(...) or from a comprehension over
    # zip(...) is the ring's multiply or binomial step; a caller that
    # writes its own keeps a second multiply loop beside _mul_rows
    def calls(node, name):
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == name)

    def is_row_update(node):
        return (isinstance(node, ast.Assign)
                and any(isinstance(target, ast.Subscript)
                        and isinstance(target.slice, ast.Slice)
                        for target in node.targets)
                and (calls(node.value, "map")
                     or isinstance(node.value,
                                   (ast.ListComp, ast.GeneratorExp))
                     and any(calls(gen.iter, "zip")
                             for gen in node.value.generators)))
    for form in ("out[i:j] = map(add, out[i:j], b)",
                 "out[i:j] = [y + x * z for y, z in zip(out[i:j], b)]"):
        assert is_row_update(ast.parse(form).body[0]), form
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if is_row_update(node)]
    assert found
    assert [site for site in found
            if not site.startswith("series_ring.py:")] == []


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
    assert ["series_ring", "_decode_counts"] in imported
    offenders = [".".join(parts) for parts in imported
                 if "recurrence_engine" in parts
                 or ("series_ring" in parts
                     and parts[-2:] not in (["series_ring", "QLaurent"],
                                            ["series_ring", "_count_width"],
                                            ["series_ring", "_decode_counts"],
                                            ["series_ring", "_slot_width"]))]
    assert offenders == []



def test_cli_reaches_the_identities_by_public_names():
    # the CLI runs each check through its public function, so the benchmark
    # tracer, which wraps public names, charges the work to the module that
    # does it; the only private names it imports are the per-command caches
    # it clears
    path = PACKAGE / "cli.py"
    private = {alias.name
               for node in ast.walk(ast.parse(path.read_text(), str(path)))
               if isinstance(node, ast.ImportFrom)
               and node.module == "recurrence_engine"
               for alias in node.names if alias.name.startswith("_")}
    assert private - {"_ladder", "_weight_pairs"} == set()


def test_oracles_share_no_code_with_the_counters():
    # an oracle that runs a counter's own helper agrees with the counter
    # when that helper is wrong: the tests' oracles import nothing from the
    # counting modules, and the k = 0 oracle names no private function that
    # count_G's completions table names
    conftest = PACKAGE.parent.parent / "tests" / "conftest.py"
    tree = ast.parse(conftest.read_text(), str(conftest))
    imported = set()
    for node in ast.walk(tree):
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

    def names(tree, name):
        node, = [node for node in tree.body if getattr(node, "name", None)
                 == name]
        return {getattr(n, "id", None) or getattr(n, "attr", "")
                for n in ast.walk(node)}
    table = names(ast.parse(path.read_text(), str(path)), "_Completions")
    assert "_smallest_part_ok" in table
    shared = table & names(tree, "count_G_andrews_k0")
    assert sorted(name for name in shared if name.startswith("_")) == []


# Runs every CLI command with a profile hook set before ``overpart.cli`` is
# imported, so calls made at import count too, and prints the functions of
# the package (by the file and first line of their code) never entered
ENTERED_SCAN = r"""
import contextlib, io, json, os, sys, types

entered = set()


def hook(frame, event, arg):
    if event == "call":
        entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))


sys.setprofile(hook)
import overpart.cli as cli

runs, fails = [], []
for system in (["--battery", "--trunc", "30", "--x-trunc", "3"],
               ["--N", "31", "--a", "1,2,4,8,16", "--trunc", "40",
                "--x-trunc", "2"]):
    for check in cli.ALL_CHECKS:
        for output in ("json", "table"):
            runs.append(["verify", *system, "--checks", check,
                         "--output", output])
sys7 = ["--N", "7", "--a", "1,2,4"]
for output in ("json", "csv", "table"):
    for side in ("F", "G", "all"):
        runs.append(["count", *sys7, "--n-max", "12", "--side", side,
                     "--output", output])
for output in ("json", "table"):
    for what in ("product", "limit", "gm"):
        runs.append(["expand", *sys7, "--trunc", "12", "--what", what,
                     "--m", "9", "--output", output])
for bad in (["--N", "7", "--a", "1,2,3"], ["--N", "7", "--a", "2,1"],
            ["--N", "7", "--a", "1,1"], ["--N", "2", "--a", "1,2"],
            ["--N", "0", "--a", "1"], ["--N", "7", "--a", "-1"],
            ["--N", "7", "--a", ""], ["--N", "7", "--a", "x"]):
    fails.append(["verify", *bad])
fails += [["count", *sys7, "--n-max", "-1"],
          ["count", "--N", "7", "--a", "1,2,5"],
          ["expand", *sys7, "--trunc", "-1"],
          ["expand", *sys7, "--what", "gm"],
          ["expand", "--N", "2", "--a", "2", "--what", "limit"],
          ["verify", *sys7, "--checks", ""],
          ["verify", *sys7, "--checks", "nope"],
          ["verify", *sys7, "--x-trunc", "-1"],
          ["verify", *sys7, "--checks", "chain", "--ell-max", "1"],
          ["verify", "--checks", "theorem"]]
fails += [["verify", "--N", "2", "--a", "2", "--checks", check]
          for check in cli.ALL_CHECKS if check != "tmj"]
codes = {}
for expect, argvs in ((0, runs), (2, fails)):
    for argv in argvs:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.main(argv)
            except SystemExit as exc:      # argparse rejects the input
                code = exc.code
        codes.setdefault(expect, set()).add(code)
sys.setprofile(None)


def functions(code, prefix):      # (qualified name, code) of each def
    for const in code.co_consts:
        if not isinstance(const, types.CodeType):
            continue
        name = prefix + const.co_name
        if not const.co_flags & 1:          # a class body
            yield from functions(const, name + ".")
        elif not const.co_name.startswith("<"):    # not a lambda
            yield name, const
            yield from functions(const, name + ".<locals>.")


package = os.path.dirname(cli.__file__)
never = []
for name in sorted(os.listdir(package)):
    if name.endswith(".py"):
        path = os.path.join(package, name)
        with open(path) as source:
            top = compile(source.read(), path, "exec")
        never += [qualname for qualname, code
                  in functions(top, name[:-3] + ".")
                  if (code.co_filename, code.co_firstlineno) not in entered]
print(json.dumps({"codes": {k: sorted(v) for k, v in codes.items()},
                  "never": sorted(never)}))
"""

# each function of the package that no command enters, and why it stays
NEVER_ENTERED = {
    "alpha_system.AlphaSystem.__setattr__": "immutability",
    "alpha_system.AlphaSystem.__delattr__": "immutability",
    "alpha_system.AlphaSystem.__reduce__": "pickling",
    "alpha_system.AlphaSystem.__eq__": "systems built apart compare equal",
    "alpha_system.AlphaSystem.__repr__": "diagnostics",
    "recurrence_engine.ChainBroken.__init__":
        "raised only by a failing chain stage",
    "recurrence_engine.ChainState.__init__":
        "the public constructor from lists",
    "recurrence_engine.ChainState._read_back":
        "reads back a state list when it is first read",
    "recurrence_engine.build_rec_row":
        "public API: the QLaurent view of a recurrence row",
    # verify runs the ladder checks on their packed rows, and reads back
    # none of them; these are the checks' QLaurent views of those rows
    "recurrence_engine.verify_lemma1":
        "public API: lemma1's offending cells, read off lemma2's row",
    "recurrence_engine.verify_lemma2":
        "public API: the QLaurent view of lemma2's row",
    "recurrence_engine.verify_eq_357":
        "public API: the QLaurent view of eq357's sum and contraction rows",
    "recurrence_engine.verify_key_lemma":
        "public API: the QLaurent view of the key lemma's row",
    # the chain compares mu with the reduced iterates as packed rows
    "recurrence_engine.run_recurrence":
        "public API: the iterates read back; bench/tracer.py names it",
    # the chain's coefficient families are {(e, k): c} maps
    "recurrence_engine.coeff_f": "public API: the QLaurent view of f(m, k)",
    # the ring's public API, which the tests build references with
    "series_ring.DPoly.__eq__": "ring API",
    "series_ring.QLaurent.__eq__": "ring API",
    "series_ring.QLaurent.__mul__": "ring API",
    "series_ring.QLaurent.__str__":
        "ring API, format pinned by test_series_ring's test_qlaurent_str",
    "series_ring.QLaurent.coefficient": "ring API",
    "series_ring.QLaurent.is_zero": "ring API",
    "series_ring.QLaurent.min_exp": "ring API",
    "series_ring.QLaurent.monomial": "ring API",
    "series_ring.QLaurent.scale_by_monomial": "ring API",
    "series_ring.QLaurent.with_trunc": "ring API",
    "series_ring.QLaurent.zero": "ring API",
    "series_ring.qbinomial": "public API",
    # the tests' reference for the chain; bench/tracer.py wraps the class
    # by name (TRACED_CLASSES), so it stays in the package until the
    # tracer skips a missing name
    **{f"series_ring.XSeries.{name}": "named by the bench tracer"
       for name in ("__init__", "one", "trunc", "_require_same", "__add__",
                    "__mul__", "shift_x", "divide", "__eq__", "__str__")},
}


def test_every_package_function_is_entered_by_some_command():
    # a function no command enters is dead code unless it is public API
    # with a stated reason (NEVER_ENTERED); the scan runs every command in
    # every output, with every check on the battery and on a five-
    # generator system, and the error paths
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        str(PACKAGE.parent), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", ENTERED_SCAN], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    scan = json.loads(proc.stdout)
    assert scan["codes"] == {"0": [0], "2": [2]}
    assert scan["never"] == sorted(NEVER_ENTERED)

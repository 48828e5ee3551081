"""Command-line front end: counting, series expansion, verification.

Exit codes are CI-grade: 0 when every requested check passes, 1 when a
mathematical mismatch or nonzero residual is found or a computation fails
mid-way (``MATH_FAILURES``), 2 on invalid input, including a system
outside a check's domain (one generator with ``N = a(1)`` for the
peeling and recurrence checks).
JSON output is canonical (sorted keys, exponent-sorted terms, counts and
coefficients as strings) so byte equality is a meaningful comparison.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache

from .alpha_system import InvalidSystem, build_system
from .enumeration import count_F, count_G
from .recurrence_engine import (
    ChainBroken,
    NegativeExponents,
    NotStabilized,
    RoundTripMismatch,
    _ladder,
    _weight_pairs,
    g_series,
    limit_u,
    verify_chain,
    verify_ladder,
    verify_Tmj,
)
from .series_ring import (NonUnitLeadingTerm, _gauss_coeffs, _slot_width,
                          product_F)

#: Built-in verification battery used by ``verify --battery``.
BATTERY = ((3, (1, 2)), (7, (1, 2, 4)), (9, (1, 3, 5)), (15, (1, 2, 4, 8)))

ALL_CHECKS = ("lemma1", "lemma2", "eq357", "key", "rec", "tmj", "chain",
              "theorem")

#: The checks that read the ``g_m`` ladder, run in one sweep over ``j``.
_LADDER_CHECKS = ("lemma1", "lemma2", "eq357", "key", "rec")

#: Mathematical failures raised mid-computation; they exit 1, not 2.
MATH_FAILURES = (NonUnitLeadingTerm, NotStabilized, NegativeExponents,
                 RoundTripMismatch)


def _emit_json(obj):
    print(json.dumps(obj, sort_keys=True, separators=(",", ":")))


def _width(series):
    """Largest ``d``-degree of a count series, whose constant term is 1."""
    return max(p.degree for p in series.coeffs.values())


def _count_rows(series, width):
    """``[c(0, n), ..., c(width, n)]`` for each ``n`` up to the truncation."""
    return [[series.coefficient_int(n, k) for k in range(width + 1)]
            for n in range(series.trunc + 1)]


def _count_json(series, side, sys_):
    rows = _count_rows(series, _width(series))
    return {"system": {"N": sys_.N, "a": list(sys_.a)},
            "n_max": series.trunc, "side": side,
            "rows": [{"n": n, "by_k": [str(c) for c in row]}
                     for n, row in enumerate(rows)]}


def _print_count_table(series, label):
    width = _width(series)
    head = " ".join(f"k={k}" for k in range(width + 1))
    print(f"{label}  n | {head}")
    for n, row in enumerate(_count_rows(series, width)):
        print(f"{label} {n:3d} | {' '.join(str(c) for c in row)}")


def _write_count_csv(tables):
    import csv                          # only this output needs it
    writer = csv.writer(sys.stdout)
    width = max(_width(series) for _, series in tables)
    multi = len(tables) > 1
    head = ["n"] + [f"k{k}" for k in range(width + 1)]
    writer.writerow((["side"] if multi else []) + head)
    for side, series in tables:
        for n, row in enumerate(_count_rows(series, width)):
            writer.writerow(([side] if multi else []) + [n] + row)


def cmd_count(args):
    """Emit the congruence-side and/or gap-side count tables."""
    if args.n_max < 0:
        raise ValueError("--n-max must be non-negative")
    sys_ = build_system(args.a, args.N)
    tables = []
    if args.side in ("F", "all"):
        tables.append(("F", count_F(sys_, args.n_max)))
    if args.side in ("G", "all"):
        tables.append(("G", count_G(sys_, args.n_max)))
    verdict = mismatch = None
    if args.side == "all":
        (_, f), (_, g) = tables
        first = (f - g).first_nonzero()      # in (n, then k) order
        verdict = "pass" if first is None else "fail"
        if first is not None:
            n, k, _ = first
            mismatch = {"k": k, "n": n, "F": str(f.coefficient_int(n, k)),
                        "G": str(g.coefficient_int(n, k))}

    if args.output == "json":
        obj = {side: _count_json(series, side, sys_)
               for side, series in tables}
        if verdict is not None:
            obj["verdict"] = verdict
            obj["first_mismatch"] = mismatch
        _emit_json(obj)
    elif args.output == "csv":
        _write_count_csv(tables)
        if verdict is not None:
            print(f"# verdict: {verdict}", file=sys.stderr)
    else:
        for side, series in tables:
            _print_count_table(series, side)
        if verdict is not None:
            print(f"verdict: {verdict}")
    return 0 if verdict in (None, "pass") else 1


def cmd_expand(args):
    """Emit a series: the infinite product, the recurrence limit, or g_m."""
    if args.trunc < 0:
        raise ValueError("--trunc must be non-negative")
    sys_ = build_system(args.a, args.N)
    if args.what == "product":
        series = product_F(sys_, args.trunc)
    elif args.what == "limit":
        series = limit_u(sys_, args.trunc)
    elif args.what == "gm":
        if args.m is None:
            raise ValueError("--what gm needs --m")
        series = g_series(sys_, args.m, args.trunc)
    else:
        raise ValueError(f"unknown series {args.what!r}")
    if args.output == "json":
        _emit_json(series.to_json_obj())
    else:
        print(f"# {args.what} for N={sys_.N}, a={list(sys_.a)}, "
              f"trunc={args.trunc}")
        for e in sorted(series.coeffs):
            print(f"q^{e}: {series.coeffs[e]}")
    return 0


def _sweep(cases):
    """Run (label, zero_test) pairs; report count, failures, first failure."""
    total = 0
    failures = 0
    first = None
    for label, ok in cases:
        total += 1
        if not ok:
            failures += 1
            if first is None:
                first = label
    return {"cases": total, "failures": failures, "first_failure": first}


def _run_checks(sys_, args, checks):
    results = []
    trunc = args.trunc
    swept = None        # the ladder checks run where the first is listed

    for name in checks:
        if name in _LADDER_CHECKS:
            if swept is None:
                swept = verify_ladder(sys_, trunc, [
                    c for c in checks if c in _LADDER_CHECKS])
            res = _sweep(swept[name])
        elif name == "tmj":
            cases = ((f"m={m},j={j}", verify_Tmj(sys_, m, j))
                     for m in range(1, sys_.r + 1)
                     for j in range(1, sys_.r + 1))
            res = _sweep(cases)
        elif name == "chain":
            ell_max = (args.ell_max if args.ell_max is not None
                       else args.x_trunc)
            try:
                verify_chain(sys_, ell_max, args.x_trunc, trunc)
                res = {"cases": 1, "failures": 0, "first_failure": None}
            except ChainBroken as exc:
                failed = exc.report.first_failure()
                res = {"cases": 1, "failures": 1,
                       "first_failure": f"stage {failed.name}: "
                                        f"{failed.detail}"}
            res["x_trunc"] = args.x_trunc
            res["ell_max"] = ell_max
        elif name == "theorem":
            # every side is packed at one width that holds each of them, so
            # equal ints are equal series and nothing is read back; the
            # limit rejects N = a(1) before anything is counted, and is
            # dropped before the counters run
            limit, width = limit_u(sys_, trunc, floor=_slot_width(trunc))
            prod = product_F(sys_, trunc, width=width)
            limit_ok = limit == prod
            del limit
            f_rows = count_F(sys_, trunc, width=width)
            cases = [
                ("count_F == count_G",
                 f_rows == count_G(sys_, trunc, width=width)),
                ("count_F == product", f_rows == prod),
                ("product == limit", limit_ok),
            ]
            res = _sweep(cases)
        else:
            raise ValueError(f"unknown check {name!r}")
        res["name"] = name
        results.append(res)
    return results


def cmd_verify(args):
    """Run the selected checks on one system or the whole battery."""
    names = tuple(c.strip() for c in args.checks.split(",") if c.strip())
    if not names:
        raise ValueError(f"no check given; choose from {','.join(ALL_CHECKS)}")
    for c in names:
        if c not in ALL_CHECKS:
            raise ValueError(f"unknown check {c!r}; "
                             f"choose from {','.join(ALL_CHECKS)}")
    for flag, value in (("--trunc", args.trunc), ("--x-trunc", args.x_trunc)):
        if value < 0:
            raise ValueError(f"{flag} must be non-negative")
    if ("chain" in names and args.ell_max is not None
            and args.ell_max < args.x_trunc):
        raise ValueError("--ell-max must be at least --x-trunc")
    if not args.battery and not args.a:
        raise ValueError("either --battery or --N/--a is required")
    systems = (BATTERY if args.battery else ((args.N, args.a),))
    overall = []
    for N, a in systems:
        sys_ = build_system(a, N)
        checks = _run_checks(sys_, args, names)
        verdict = ("pass" if all(c["failures"] == 0 for c in checks)
                   else "fail")
        overall.append({
            "system": {"N": sys_.N, "a": list(sys_.a)},
            "trunc": args.trunc,
            "checks": checks,
            "verdict": verdict,
        })
    passed = all(entry["verdict"] == "pass" for entry in overall)
    if args.output == "json":
        _emit_json({"systems": overall,
                    "verdict": "pass" if passed else "fail"})
    else:
        for entry in overall:
            head = (f"N={entry['system']['N']} "
                    f"a={entry['system']['a']} trunc={entry['trunc']}")
            print(head)
            for c in entry["checks"]:
                status = "pass" if c["failures"] == 0 else "FAIL"
                extra = ("" if c["first_failure"] is None
                         else f"  first failure: {c['first_failure']}")
                print(f"  {c['name']:<8} {status}  "
                      f"({c['cases']} cases){extra}")
            print(f"  verdict: {entry['verdict']}")
        print(f"overall: {'pass' if passed else 'fail'}")
    return 0 if passed else 1


def _parse_a(text):
    try:
        return tuple(int(x) for x in text.split(",") if x.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}") from exc


def build_parser():
    parser = argparse.ArgumentParser(
        prog="overpart",
        description="Exact verification of the overpartition identity "
                    "between congruence-restricted and gap-condition "
                    "overpartition counts.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_system(p, required=True):
        p.add_argument("--N", type=int, required=required, default=0,
                       help="modulus")
        p.add_argument("--a", type=_parse_a, required=required, default=(),
                       help="comma-separated generators, e.g. 1,2,4")

    p_count = sub.add_parser("count", help="emit count tables")
    add_system(p_count)
    p_count.add_argument("--n-max", type=int, default=40)
    p_count.add_argument("--side", choices=("F", "G", "all"), default="all")
    p_count.add_argument("--output", choices=("json", "csv", "table"),
                         default="table")

    p_expand = sub.add_parser("expand", help="emit a series expansion")
    add_system(p_expand)
    p_expand.add_argument("--what", choices=("product", "limit", "gm"),
                          default="product")
    p_expand.add_argument("--m", type=int, default=None,
                          help="largest-part bound for --what gm")
    p_expand.add_argument("--trunc", type=int, default=40)
    p_expand.add_argument("--output", choices=("json", "table"),
                          default="table")

    p_verify = sub.add_parser("verify", help="run verification checks")
    add_system(p_verify, required=False)
    p_verify.add_argument("--battery", action="store_true",
                          help="run the built-in system battery")
    p_verify.add_argument("--trunc", type=int, default=40)
    p_verify.add_argument("--x-trunc", type=int, default=6)
    p_verify.add_argument("--ell-max", type=int, default=None)
    p_verify.add_argument("--checks", default="theorem",
                          help="comma-separated subset of: "
                               + ",".join(ALL_CHECKS))
    p_verify.add_argument("--output", choices=("json", "table"),
                          default="table")
    return parser


# parse_args keeps no state in the parser, so one serves every command
_parser = lru_cache(maxsize=1)(build_parser)


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        if args.command == "count":
            return cmd_count(args)
        if args.command == "expand":
            return cmd_expand(args)
        return cmd_verify(args)
    except MATH_FAILURES as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (InvalidSystem, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        _ladder.cache_clear()           # the g_m ladders, the weight
        _weight_pairs.cache_clear()     # pairs and the Gaussian binomials
        _gauss_coeffs.cache_clear()     # live for one command


if __name__ == "__main__":
    sys.exit(main())

"""Acceptance suite: one test per criterion, exact equality throughout.

Each test prints a single PASS line with its wall-clock time (visible
with ``pytest -s``) and asserts the stated runtime ceiling.
"""

import time

import pytest

from overpart import (
    QLaurent,
    build_system,
    count_F,
    count_G,
    g_series,
    limit_u,
    product_F,
    qbinomial,
    run_recurrence,
    verify_chain,
    verify_eq_357,
    verify_key_lemma,
    verify_lemma1,
    verify_lemma2,
    verify_Tmj,
)
from overpart.cli import BATTERY

from conftest import cells, count_G_andrews_k0, d0, divide, factor_product


class Timer:
    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.seconds = time.perf_counter() - self.t0


def report(num, text, seconds, bound):
    print(f"ACCEPTANCE {num} PASS: {text} ({seconds:.2f} s)")
    assert seconds < bound, f"criterion {num} exceeded {bound} s"


def test_criterion_1_worked_example():
    with Timer() as t:
        sys7 = build_system([1, 2, 4], 7)
        expected = {(0, 8): 1, (1, 8): 2, (2, 8): 1}
        f_row = {kn: c for kn, c in cells(count_F(sys7, 8)).items()
                 if kn[1] == 8}
        g_row = {kn: c for kn, c in cells(count_G(sys7, 8)).items()
                 if kn[1] == 8}
        assert f_row == expected
        assert g_row == expected
    report(1, "both sides of the worked example give {1, 2, 1} at n=8",
           t.seconds, 1.0)


def test_criterion_2_overpartition_sanity():
    with Timer() as t:
        # every part size is -1 mod 1
        row = count_F(build_system([1], 1), 4).coefficient(4)
        assert sum(row.coeffs.values()) == 14
    report(2, "14 unrestricted overpartitions of 4", t.seconds, 1.0)


@pytest.mark.parametrize("N,a", BATTERY)
def test_criterion_3_theorem_battery(N, a):
    with Timer() as t:
        sys_ = build_system(a, N)
        counted = count_F(sys_, 40)
        prod = product_F(sys_, 40)
        assert counted == count_G(sys_, 40)
        assert prod == counted
        assert limit_u(sys_, 40) == prod
    report(3, f"N={N} a={list(a)}: counts, product and limit agree "
              f"to n=40", t.seconds, 60.0)


def test_criterion_4_recurrence_fidelity():
    with Timer() as t:
        for N, a in BATTERY:
            sys_ = build_system(a, N)
            ell_hi = (40 + sys_.a[0]) // N
            us = run_recurrence(sys_, ell_hi, 40)
            for ell in range(ell_hi + 1):
                assert us[ell] == g_series(sys_, ell * N - sys_.a[0], 40), \
                    (N, ell)
            j_hi = 30 // N + 1
            for j in range(1, j_hi + 1):
                for m in range(1, len(sys_.alpha) + 1):
                    assert verify_lemma1(sys_, j, m, 30) == [], (N, j, m)
                    assert verify_lemma2(sys_, j, m, 30).is_zero(), (N, j, m)
                for k in range(1, sys_.r + 2):
                    r35, r37 = verify_eq_357(sys_, j, k, 30)
                    assert r35.is_zero(), (N, j, k)
                    assert r37 is None or r37.is_zero(), (N, j, k)
            for ell in range(1, j_hi + 1):
                for k in range(1, sys_.r + 2):
                    assert verify_key_lemma(sys_, k, ell, 30).is_zero(), \
                        (N, k, ell)
    report(4, "recurrence matches enumeration to n=40 and every "
              "peeling/telescoped/elimination residual vanishes at "
              "trunc 30", t.seconds, 60.0)


def test_criterion_5_chain_verification():
    with Timer() as t:
        for N, a in ((7, (1, 2, 4)), (9, (1, 3, 5))):
            sys_ = build_system(a, N)
            rep = verify_chain(sys_, 6, 6, 40)
            assert rep.first_failure() is None
            assert all(st.residual_zero for st in rep.stages)
            names = [st.name for st in rep.stages]
            assert "mu_limit" in names and "rec_reduced" in names
    report(5, "transformation chain passes with all-zero residuals and "
              "the reduced-product limit for N=7 and N=9", t.seconds, 120.0)


def test_criterion_6_single_generator_closed_form():
    with Timer() as t:
        sys2 = build_system([1], 2)
        us = run_recurrence(sys2, 10, 30)
        for ell in range(11):
            num = factor_product(30, range(1, 2 * ell, 2))
            den = factor_product(30, range(1, 2 * ell, 2), 1, -1)
            assert us[ell] == divide(num, den), ell
    report(6, "one-generator recurrence equals its partial-product "
              "closed form up to l=10", t.seconds, 5.0)


def test_criterion_7_identity_suites():
    with Timer() as t:
        bases = {1, -1} | {-N for N, _ in BATTERY}
        for base in sorted(bases):
            span = 12 * 12 * abs(base)
            for m in range(1, 13):
                for r in range(m + 1):
                    full = qbinomial(m, r, base, span)
                    left = qbinomial(m - 1, r, base, span)
                    diag = qbinomial(m - 1, r - 1, base, span)
                    assert full == left.scale_by_monomial(base * r) + diag
                    assert full == left + diag.scale_by_monomial(
                        base * (m - r))

        for n in range(11):
            for e in range(-20, 21):
                for sign in (1, -1):
                    for ddeg in (0, 1):
                        trunc = n * (n - 1) // 2 + n * abs(e) + 1
                        one = QLaurent.one(trunc)
                        prod = one
                        for k in range(n):
                            prod = prod * (one + QLaurent.monomial(
                                trunc, k + e, ddeg, sign))
                        tot = QLaurent.zero(trunc)
                        for k in range(n + 1):
                            tot = tot + qbinomial(n, k, 1, trunc) \
                                .scale_by_monomial(
                                    k * (k - 1) // 2 + k * e,
                                    k * ddeg) * sign ** k
                        assert prod == tot, (n, e, sign, ddeg)

        for base in (-3, -7):
            for m in range(9):
                for j in range(9):
                    for k in range(9):
                        lhs = qbinomial(m - 1, k, base, 0) * qbinomial(
                            j + m - k - 1, m - 1, base, 0)
                        rhs = qbinomial(j, k, base, 0) * qbinomial(
                            j + m - k - 1, m - k - 1, base, 0)
                        assert lhs == rhs, (base, m, j, k)

        for N, a in BATTERY:
            sys_ = build_system(a, N)
            for m in range(1, sys_.r + 1):
                for j in range(1, sys_.r + 1):
                    assert verify_Tmj(sys_, m, j), (N, m, j)
    report(7, "Pascal rules, the finite product expansion, the binomial "
              "swap identity and the coefficient equalities all hold "
              "exactly", t.seconds, 30.0)


def test_criterion_8_specializations():
    with Timer() as t:
        for N, a in BATTERY:
            sys_ = build_system(a, N)
            assert d0(count_G(sys_, 40)) == count_G_andrews_k0(sys_, 40), N
            lim0 = d0(limit_u(sys_, 40))
            distinct = QLaurent.one(40)
            for g in sys_.a:
                distinct = distinct * factor_product(
                    40, range(N - g, 41, N))
            assert lim0 == distinct, N
    report(8, "zero-marker column matches the flag-free oracle and the "
              "d=0 limit is the distinct-part product", t.seconds, 60.0)

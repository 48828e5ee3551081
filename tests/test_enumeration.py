import gc
import inspect
import sys
import tracemalloc
from bisect import bisect_right

import pytest
from hypothesis import given, settings, strategies as st

from overpart import (
    ConventionOutOfRange,
    DPoly,
    beta,
    build_system,
    count_F,
    count_G,
    QLaurent,
    g_series,
    limit_u,
    product_F,
)
from overpart import enumeration, recurrence_engine
from overpart.enumeration import _Completions
from overpart.series_ring import _overpartition_count, _slot_width

from conftest import (
    BATTERY, admissible_systems, brute_table, cells, count_G_andrews_k0, d0,
    gen_overpartitions, in_gap_side, packed)


class TestCountAll:
    """The unrestricted table: ``count_F`` on ``1/{1}``, all sizes."""

    every_part = build_system([1], 1)

    def test_fourteen_overpartitions_of_four(self):
        row = count_F(self.every_part, 4).coefficient(4)
        assert sum(row.coeffs.values()) == 14

    def test_empty(self):
        assert count_F(self.every_part, 0) == QLaurent.one(0)

    def test_eight_overpartitions_of_three(self):
        # 3, 3~, 2+1, 2~+1, 2+1~, 2~+1~, 1+1+1, 1~+1+1
        row = count_F(self.every_part, 3).coefficient(3)
        assert sum(row.coeffs.values()) == 8

    def test_against_generate_and_filter(self):
        want = brute_table(10, lambda parts: True)
        assert count_F(self.every_part, 10) == want

    def test_overpartition_count_is_oeis_a015128(self):
        # the slot width of the packed count vectors is read off these
        assert [_overpartition_count(n) for n in range(12)] \
            == [1, 2, 4, 8, 14, 24, 40, 64, 100, 154, 232, 344]

    def test_overpartition_count_against_generate_and_filter(self):
        brute = brute_table(12, lambda parts: True)
        for n in range(13):
            assert _overpartition_count(n) \
                == sum(brute.coefficient(n).coeffs.values()), n

    def test_overpartition_count_against_the_product(self):
        # the coefficients of prod_s (1 + q^s) / (1 - q^s), multiplied out
        # factor by factor, against Gauss's identity
        n_max = 400
        c = [1] + [0] * n_max
        for s in range(1, n_max + 1):
            for i in range(s, n_max + 1):           # times 1 / (1 - q^s)
                c[i] += c[i - s]
            for i in range(n_max, s - 1, -1):       # times 1 + q^s
                c[i] += c[i - s]
        assert [_overpartition_count(n) for n in range(n_max + 1)] == c

    def test_slot_width_cache_is_bounded(self):
        # a library caller may ask for any number of truncations
        maxsize = _slot_width.cache_info().maxsize
        assert maxsize is not None and maxsize <= 16
        for n in range(50, 50 + 3 * maxsize):
            assert _slot_width(n) == _overpartition_count(n).bit_length() + 1
        assert _slot_width.cache_info().currsize <= maxsize


class TestCountF:
    def test_flagship_n8(self, sys7):
        assert count_F(sys7, 8).coefficient(8) == DPoly({0: 1, 1: 2, 2: 1})

    def test_empty_row(self, sys7):
        assert count_F(sys7, 0) == QLaurent.one(0)

    def test_small_system_n2(self, sys3):
        # parts congruent to 1 or 2 mod 3, so sizes 1 and 2 both enter:
        # 2~ | 2, 1~+1 | 1+1 give the k-split 1, 2, 1
        assert count_F(sys3, 2).coefficient(2) == DPoly({0: 1, 1: 2, 2: 1})

    def test_against_generate_and_filter(self, sys7, sys3):
        for sys_ in (sys7, sys3):
            allowed = set(sys_.a)
            want = brute_table(
                12, lambda parts: all(beta(sys_, -s) in allowed
                                      for s, _ in parts))
            assert count_F(sys_, 12) == want

    def test_matches_product_coefficients(self, battery):
        for sys_ in battery:
            assert count_F(sys_, 25) == product_F(sys_, 25)

    def test_memo_freed_without_a_collection(self, sys3):
        # the rows and each size's pass are plain lists of packed ints,
        # freed on return; what stays after the table is dropped is the
        # interpreter's tuple and dict free lists
        gc.disable()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            table = count_F(sys3, 100)
            assert table.coefficient_int(100, 0) > 0
            del table
            held = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
            gc.enable()
        assert held < 2 ** 19

    @settings(max_examples=40, deadline=None)
    @given(admissible_systems(), st.integers(0, 25))
    def test_against_multiplicities_on_drawn_systems(self, system, n_max):
        N, a = system
        sys_ = build_system(a, N)
        assert count_F(sys_, n_max) == multiplicity_table(sys_, n_max)


class TestPackedRows:
    """The packed rows of ``count_F``, ``count_G`` and ``product_F``,
    which the ``theorem`` check compares at one width."""

    @pytest.mark.parametrize("side", [count_F, count_G, product_F])
    def test_width_is_checked_against_the_bound(self, battery, side):
        need = _slot_width(20)
        for sys_ in battery:
            with pytest.raises(ValueError, match=f"below {need}"):
                side(sys_, 20, width=need - 1)
            for width in (need, need + 9):
                assert QLaurent._from_packed(
                    20, enumerate(side(sys_, 20, width=width)), width) \
                    == side(sys_, 20)

    @settings(max_examples=30, deadline=None)
    @given(admissible_systems(), st.integers(0, 11))
    def test_public_sides_match_the_oracle(self, system, n_max):
        N, a = system
        sys_ = build_system(a, N)
        congruence = brute_table(n_max, lambda parts: all(
            beta(sys_, -s) in a for s, _ in parts))
        assert count_F(sys_, n_max) == congruence
        assert product_F(sys_, n_max) == congruence
        assert count_G(sys_, n_max) == brute_table(
            n_max, lambda parts: in_gap_side(sys_, parts))
        if N == a[-1]:
            # one generator with N = a(1): the recurrence is out of domain
            with pytest.raises(ConventionOutOfRange):
                limit_u(sys_, n_max)
        else:
            assert limit_u(sys_, n_max) == congruence


def multiplicity_table(sys_, n_max):
    """``count_F`` by choosing, for each size ``= -a(i) mod N``, its
    multiplicity and, if positive, whether its first copy is overlined."""
    allowed = set(sys_.a)
    counts = {(0, 0): 1}    # (k, n) -> count
    for s in range(1, n_max + 1):
        if beta(sys_, -s) not in allowed:
            continue
        grown = dict(counts)
        for (k, n), c in counts.items():
            for mu in range(1, (n_max - n) // s + 1):
                for first_overlined in (0, 1):
                    key = (k + mu - first_overlined, n + mu * s)
                    grown[key] = grown.get(key, 0) + c
        counts = grown
    return QLaurent.from_terms(
        n_max, ((n, k, c) for (k, n), c in counts.items()))


class TestCheckGConditions:
    """The tests' gap-side membership test on hand-worked cases."""

    def test_flagship_examples(self, sys7):
        ok = lambda parts: in_gap_side(sys7, parts)
        assert ok(((5, False), (3, False)))
        assert ok(((5, True), (3, False)))
        assert not ok(((5, False), (3, True)))   # gap 2 < 7
        assert ok(((8, True),))
        assert not ok(((7, False), (1, False)))  # 1 < 7*(w(6)-1)

    def test_empty_is_valid(self, sys7):
        assert in_gap_side(sys7, ())

    def test_equal_parts(self, sys7):
        assert in_gap_side(sys7, ((6, False), (6, False)))
        # the pbar(12) overpartitions of 12, each once, weakly decreasing
        # and overlined only on the first copy of a run
        twelves = list(gen_overpartitions(12))
        assert len(set(twelves)) == len(twelves) == 504
        assert ((6, True), (6, False)) in twelves
        assert all(sum(size for size, _ in parts) == 12 and all(
            big > small or (big == small and not over)
            for (big, _), (small, over) in zip(parts, parts[1:]))
            for parts in twelves)

    def test_residue_filter(self, sys9):
        # sizes congruent to 2 or 7 mod 9 match no negated subset sum
        assert not in_gap_side(sys9, ((11, True),))
        assert in_gap_side(sys9, ((8, True),))


class TestCountG:
    def test_flagship_n8(self, sys7):
        assert count_G(sys7, 8).coefficient(8) == DPoly({0: 1, 1: 2, 2: 1})

    def test_trivial_n0(self, sys7):
        assert count_G(sys7, 0) == QLaurent.one(0)
        assert g_series(sys7, 5, 0) == QLaurent.one(0)

    def test_against_generate_and_filter(self, battery):
        for sys_ in battery:
            want = brute_table(12, lambda parts: in_gap_side(sys_, parts))
            assert count_G(sys_, 12) == want

    def test_bounded_against_generate_and_filter(self, sys7):
        for bound in (3, 6, 10):
            want = brute_table(
                12, lambda parts: in_gap_side(sys7, parts)
                and (not parts or parts[0][0] <= bound))
            assert g_series(sys7, bound, 12) == want

    def test_oracles_catch_a_patched_smallest_part_test(self, sys7,
                                                          monkeypatch):
        # neither oracle shares count_G's smallest-part test, so one that
        # accepts every size shows in both; 3/{1,2} would not show it, as
        # there the bound 3 (w - 1) binds only multiples of 3, which meet it
        monkeypatch.setattr(enumeration, "_smallest_part_ok",
                            lambda sys_, size: True)
        assert count_G(sys7, 12) != brute_table(
            12, lambda parts: in_gap_side(sys7, parts))
        assert d0(count_G(sys7, 25)) != count_G_andrews_k0(sys7, 25)

    def test_monotone_in_bound(self, sys7):
        prev = cells(g_series(sys7, 0, 15))
        for bound in range(1, 17):
            cur = cells(g_series(sys7, bound, 15))
            for kn, c in prev.items():
                assert cur.get(kn, 0) >= c
            prev = cur

    def test_sides_agree(self, battery):
        for sys_ in battery:
            assert count_F(sys_, 20) == count_G(sys_, 20)

    @pytest.mark.parametrize("N,a", BATTERY)
    def test_sides_agree_at_trunc_160(self, N, a):
        sys_ = build_system(a, N)
        assert count_F(sys_, 160) == count_G(sys_, 160)

    def test_runs_under_a_low_recursion_limit(self, sys3):
        # every counter fills its tables bottom-up, with no recursion:
        # count_F one size at a time, count_G and the ladder one column of
        # running totals at a time; a memoized recursion over the sizes
        # would be one frame per admissible size deep, 134 on 3/{1,2} at
        # 200
        want_F, want_G = count_F(sys3, 200), count_G(sys3, 120)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack(0)) + 100)
        try:
            got_F = count_F(sys3, 200)
            got_G = count_G(sys3, 120)
            ladder = recurrence_engine._Ladder(sys3, 120)
            top = ladder.rung(120)
        finally:
            sys.setrecursionlimit(limit)
        assert (got_F, got_G) == (want_F, want_G)
        slots = packed(want_G, ladder.width)
        assert top == tuple(slots.get(n, 0) for n in range(121))


def last_read_columns(sys_, n_max):
    """For each ``m``, the last column of the running totals of ``m`` that
    a completion reads: below each size ``s <= n_max - m``, the column of
    the largest non-overlined part allowed next, capped at ``m``."""
    alpha = set(sys_.alpha)
    adm = [s for s in range(1, n_max + 1) if beta(sys_, -s) in alpha]
    last = []
    for m in range(n_max + 1):
        reads = [0]
        for s in adm:
            if s > n_max - m:
                break
            res = beta(sys_, -s)
            u = (s - sys_.N * (sys_.w_table[res] - 1) - sys_.v_table[res]
                 + res)
            reads.append(bisect_right(adm, min(m, u)))
        last.append(max(reads))
    return last


class TestCompletionsMemory:
    @pytest.mark.parametrize("N,a", BATTERY)
    def test_no_column_past_the_last_read(self, N, a, monkeypatch):
        # storing every column of the running totals doubled count_G's
        # tracemalloc peak on 3/{1,2} at 120
        sys_ = build_system(a, N)
        tables = []

        class Recorded(_Completions):
            def __init__(self, *args):
                super().__init__(*args)
                tables.append(self)
        monkeypatch.setattr(enumeration, "_Completions", Recorded)
        count_G(sys_, 120)
        ladder = recurrence_engine._Ladder(sys_, 120)
        tables.append(ladder._table)
        ladder.rung(120)
        last = last_read_columns(sys_, 120)
        for table in tables:
            stored = [len(col) - 1 for col in table.totals]
            assert len(stored) == len(last)
            over = [(m, got, want) for m, (got, want)
                    in enumerate(zip(stored, last)) if got > want]
            assert over == []


class TestAndrewsK0:
    def test_flagship_n8(self, sys7):
        assert count_G_andrews_k0(sys7, 8).coefficient_int(8, 0) == 1

    def test_n0(self, sys7):
        assert count_G_andrews_k0(sys7, 0) == QLaurent.one(0)

    def test_matches_k0_column(self, battery):
        for sys_ in battery:
            assert d0(count_G(sys_, 25)) == count_G_andrews_k0(sys_, 25), \
                sys_.N

    def test_memo_freed_without_a_collection(self, sys3):
        # the memo peaks near 1.6 MiB at n = 150 and is cleared on return;
        # what stays is the interpreter's tuple and dict free lists
        gc.disable()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            table = count_G_andrews_k0(sys3, 150)
            assert table.coefficient_int(150, 0) > 0
            del table
            held = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
            gc.enable()
        assert held < 2 ** 19


def check_ladder(sys_, n_max):
    """Every largest-part bound ``-N..n_max+N`` against generate-and-filter.

    ``g_series`` must give the bounded count (the band constant
    ``(-d)^band`` once ``m <= -N``), and ``count_G`` the unbounded one.
    """
    for m in range(-sys_.N, n_max + sys_.N + 1):
        band = min(-m // sys_.N, sys_.r - 1) if m <= 0 else 0
        want = QLaurent.monomial(n_max, 0, band, (-1) ** band) if band \
            else brute_table(n_max, lambda parts: in_gap_side(sys_, parts)
                             and (not parts or parts[0][0] <= m))
        assert g_series(sys_, m, n_max) == want, (sys_.N, sys_.a, m)
    assert count_G(sys_, n_max) == brute_table(
        n_max, lambda parts: in_gap_side(sys_, parts))


class TestLargestPartLadder:
    def test_walk_visits_admissible_sizes_in_order(self, battery):
        for sys_ in battery:
            alpha = set(sys_.alpha)
            sizes = _Completions(sys_, 20).admissible
            assert sizes == [s for s in range(1, 21)
                             if beta(sys_, -s) in alpha]

    @pytest.mark.parametrize("N,a", BATTERY)
    def test_battery_against_generate_and_filter(self, N, a):
        check_ladder(build_system(a, N), 12)

    @settings(max_examples=25, deadline=None)
    @given(admissible_systems(), st.integers(0, 10))
    def test_random_systems_against_generate_and_filter(self, system,
                                                        n_max):
        N, a = system
        check_ladder(build_system(a, N), n_max)

    @settings(max_examples=30, deadline=None)
    @given(admissible_systems(), st.integers(0, 40), st.integers(0, 6))
    def test_column_is_the_rows_of_one_size(self, system, n_max, guard):
        # a column reads its completions off the running totals whether or
        # not totals[n] stores it; the scan counts the same overpartitions
        # of each n with largest part s, overlined (k non-overlined parts)
        # or not (k + 1)
        N, a = system
        sys_ = build_system(a, N)
        table = _Completions(sys_, n_max, guard)
        w = table.width
        scan = list(scan_walk(sys_, n_max))
        assert [s for s, _ in scan] == table.admissible
        for i, (s, tail) in enumerate(scan):
            below = [0] * (n_max + 1 - s)
            for (k, n), c in tail.items():
                below[n - s] += c << (k * w)
            assert table.column(i) == [x + (x << w) for x in below], (i, s)


def scan_walk(sys_, n_max):
    """Reference for the gap side by largest part: yields ``(first,
    tail)`` for each admissible size, where ``tail[(k, n)]`` counts the
    overpartitions of ``n`` with largest part an overlined ``first`` and
    ``k`` non-overlined parts.  Below each placed part it scans every
    admissible size, with completions memoized by (remaining, previous
    part)."""
    alpha_set = set(sys_.alpha)
    admissible = [s for s in range(1, n_max + 1)
                  if beta(sys_, -s) in alpha_set]
    memo = {}

    def completions(n_rem, prev):
        res = beta(sys_, -prev)
        if n_rem == 0:
            return {0: 1} if prev >= sys_.N * (sys_.w_table[res] - 1) else {}
        key = (n_rem, prev)
        hit = memo.get(key)
        if hit is not None:
            return hit
        base = sys_.N * (sys_.w_table[res] - 1) + sys_.v_table[res] - res
        u_plain = prev - base
        u_over = u_plain - sys_.N
        out = {}
        for s in admissible:
            if s > n_rem or s > u_plain:
                break
            sub = completions(n_rem - s, s)
            for k, c in sub.items():
                out[k + 1] = out.get(k + 1, 0) + c
            if s <= u_over:
                for k, c in sub.items():
                    out[k] = out.get(k, 0) + c
        memo[key] = out
        return out

    for first in admissible:
        tail = {}
        for n in range(first, n_max + 1):
            for k, c in completions(n - first, first).items():
                tail[(k, n)] = c
        yield first, tail


def check_against_scan(sys_, n_max):
    """The scan's tails, summed up to each admissible bound, give
    ``g_series`` there, and summed up to ``n_max``, ``count_G``."""
    want = {(0, 0): 1}
    for first, tail in scan_walk(sys_, n_max):
        for (k, n), c in tail.items():
            want[(k, n)] = want.get((k, n), 0) + c
            want[(k + 1, n)] = want.get((k + 1, n), 0) + c
        assert cells(g_series(sys_, first, n_max)) == want, first
    assert cells(count_G(sys_, n_max)) == want


class TestWalkAgainstScan:
    """Generate-and-filter reaches only n of about 12; the scan checks
    the ladder and the unbounded count, exactly, at the larger sizes."""

    @pytest.mark.parametrize("N,a", BATTERY)
    def test_battery(self, N, a):
        check_against_scan(build_system(a, N), 40)

    @settings(max_examples=40, deadline=None)
    @given(admissible_systems(), st.integers(0, 25))
    def test_random_systems(self, system, n_max):
        N, a = system
        check_against_scan(build_system(a, N), n_max)

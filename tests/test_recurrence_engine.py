import sys
import tracemalloc
from bisect import bisect_right
from itertools import islice

import pytest
from hypothesis import assume, given, settings, strategies as st

from overpart import (
    ChainBroken,
    ChainReport,
    ChainState,
    ConventionOutOfRange,
    DPoly,
    NegativeExponents,
    NonUnitLeadingTerm,
    NotStabilized,
    QLaurent,
    RoundTripMismatch,
    XSeries,
    build_rec_row,
    build_system,
    coeff_f,
    count_F,
    count_G,
    g_series,
    limit_u,
    alpha_weight_sum,
    beta,
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
from overpart import cli, recurrence_engine, series_ring
from overpart.enumeration import _Completions

from conftest import (BATTERY, admissible_systems, cells, d0, divide,
                      factor_product, majorant, packed)


def as_series(trunc, terms):
    """The ``QLaurent`` of a ``{(e, deg): c}`` map of terms ``c d^deg
    q^e``."""
    return QLaurent.from_terms(trunc, ((e, deg, c)
                                       for (e, deg), c in terms.items()))


def as_row(series, width):
    """The packed row ``q^0 .. q^trunc`` of a ``QLaurent`` at ``width``."""
    slots = packed(series, width)
    return [slots.get(n, 0) for n in range(series.trunc + 1)]


def plus(terms, e, k, c):
    """A new ``{(e, deg): c}`` map: ``terms`` plus ``c d^k q^e``, with no
    zero entry."""
    out = dict(terms)
    out[e, k] = out.get((e, k), 0) + c
    return {key: x for key, x in out.items() if x}


def rung_series(ladder, m):
    """The packed rung of ``ladder`` for the bound ``m``, read back."""
    return QLaurent._from_packed(ladder.trunc, enumerate(ladder.rung(m)),
                                 ladder.width)


def perturbed_rows(changes):
    """``_Ladder.rung`` with ``c d^k q^n`` added to ``g_m`` for each ``(n,
    k, c)`` of ``changes[m]``, in its packed rows."""
    real = recurrence_engine._Ladder.rung

    def rung(self, m):
        got = real(self, m)
        if m not in changes:
            return got
        got = list(got)
        for n, k, c in changes[m]:
            if n <= self.trunc:
                got[n] += c << (k * self.width)
        return tuple(got)
    return rung


class TestGSeries:
    def test_g0_is_one(self, sys7):
        assert g_series(sys7, 0, 10) == QLaurent.one(10)

    def test_band_convention(self, sys7):
        assert g_series(sys7, -8, 5) == QLaurent.monomial(5, 0, 1, -1)
        assert g_series(sys7, -1, 5) == QLaurent.one(5)
        assert g_series(sys7, -7, 5) == QLaurent.monomial(5, 0, 1, -1)
        assert g_series(sys7, -17, 5) == QLaurent.monomial(5, 0, 2, 1)
        assert g_series(sys7, -21, 5) == QLaurent.monomial(5, 0, 2, 1)

    def test_convention_domain(self, sys7):
        with pytest.raises(ConventionOutOfRange):
            g_series(sys7, -22, 5)

    @pytest.mark.parametrize("check", [
        lambda s: verify_lemma1(s, 1, 1, 12),
        lambda s: verify_lemma2(s, 1, 1, 12),
        lambda s: verify_eq_357(s, 1, 1, 12),
        lambda s: verify_key_lemma(s, 1, 1, 12),
        lambda s: build_rec_row(s, 1, 12),
        lambda s: run_recurrence(s, 1, 12),
        lambda s: limit_u(s, 12),
    ])
    def test_one_generator_at_modulus_is_out_of_domain(self, check):
        # the ladder's identities fail at j = 1 or ell = 1 when N = a(1);
        # the bounded counters themselves are still exact there
        sys_ = build_system([3], 3)
        with pytest.raises(ConventionOutOfRange):
            check(sys_)
        assert g_series(sys_, 6, 6) == count_G(sys_, 6)

    def test_flagship_coefficient(self, sys7):
        g8 = g_series(sys7, 8, 8)
        assert g8.coefficient(8) == DPoly({0: 1, 1: 2, 2: 1})
        assert g8.coefficient(0) == DPoly({0: 1})

    def test_shared_tables_are_read_only(self, sys7):
        # every read is a fresh series, so changing one reaches neither
        # the ladder nor the checks that read it
        series_before = list(g_series(sys7, 8, 12).terms())
        lemma_before = verify_lemma1(sys7, 2, 1, 12)
        series = g_series(sys7, 8, 12)
        series.coeffs[8] = DPoly({0: 99})
        series.coeffs[0].coeffs[0] = 5
        assert g_series(sys7, 8, 12) is not series
        assert list(g_series(sys7, 8, 12).terms()) == series_before
        assert verify_lemma1(sys7, 2, 1, 12) == lemma_before == []

    def test_adjacent_rungs_share_rows_below_the_newer_size(self, sys9):
        # a rung is a tuple of packed rows; below the newer size it holds
        # the older rung's own ints, and from there on it adds counts
        ladder = recurrence_engine._ladder(sys9, 20)
        sizes = ladder._sizes
        assert sizes == [s for s in range(1, 21)
                         if beta(sys9, -s) in set(sys9.alpha)]
        for lower, upper in zip(sizes, sizes[1:]):
            old, new = ladder.rung(lower), ladder.rung(upper)
            assert type(new) is tuple and len(new) == 21
            for e in range(upper):
                assert new[e] is old[e], (lower, upper, e)
            assert all(x >= y for x, y in zip(new, old)), (lower, upper)
            assert rung_series(ladder, upper) == g_series(sys9, upper, 20)

    def test_lone_bound_builds_rungs_only_that_far(self, sys7):
        want = g_series(sys7, 8, 40)
        ladder = recurrence_engine._Ladder(sys7, 40)
        sizes = ladder._sizes
        series = ladder.rung(8)
        assert len(ladder._series) == bisect_right(sizes, 8) + 1
        assert rung_series(ladder, 8) == want
        ladder.rung(99)
        assert len(ladder._series) == len(sizes) + 1
        assert ladder._table is None      # freed once every rung is built
        assert sizes[-1] <= 40
        assert ladder.rung(8) is series

    def test_interrupted_fill_leaves_a_working_ladder(self, sys7):
        # a KeyboardInterrupt lands on a line partway through a column of
        # the completions table, as a signal could; the columns built
        # before it and the interrupted rung's partial column stay
        want = count_G(sys7, 30)
        ladder = recurrence_engine._Ladder(sys7, 30)
        extend = _Completions._extend.__code__
        lines = []

        def tracer(frame, event, arg):
            if frame.f_code is not extend:
                return None

            def on_line(frame, event, arg):
                if event == "line":
                    lines.append(frame.f_lineno)
                    if len(lines) == 300:
                        raise KeyboardInterrupt
                return on_line
            return on_line
        old = sys.gettrace()
        sys.settrace(tracer)
        try:
            with pytest.raises(KeyboardInterrupt):
                ladder.rung(30)
        finally:
            sys.settrace(old)
        assert 1 < len(ladder._series) < len(ladder._sizes) + 1
        assert ladder._table.filled < len(ladder._series)
        assert rung_series(ladder, 30) == want
        assert len(lines) == 300


class TestPeelingIdentities:
    def test_lemma1_examples(self, sys7, sys3):
        assert verify_lemma1(sys7, 2, 1, 20) == []
        assert verify_lemma1(sys3, 1, 2, 15) == []

    def test_lemma1_full_sweep_small(self, sys3):
        for j in range(1, 8):
            for m in range(1, 4):
                assert verify_lemma1(sys3, j, m, 20) == [], (j, m)

    # j = 2, m = 3 on 7/{1,2,4}: alpha(3) = 3 = 1 + 2, so w = 2, v = 1 and
    # the four tables are g_11, g_10, g_-1 and g_6, shifted by n' = n - 11;
    # `cell` holds the (k, n) cells added to one of them and `want` the
    # offending cells in the order reported
    @pytest.mark.parametrize("bound,cell,want,dl,dr", [
        (11, ((1, 12),), ((1, 12),), 1, 0),     # a cell of g_11
        (10, ((20, 20),), ((20, 20),), -1, 0),  # a cell no table holds
        (-1, ((5, 2),), ((5, 13),), 0, 1),      # g_-1 at (k, n')
        (6, ((0, 3),), ((1, 14),), 0, 1),       # g_6 at (k - 1, n')
        (6, ((15, 3),), ((16, 14),), 0, 1),     # that, where no table holds
        # two cells of one rung come out in (n, then k) order
        (11, ((1, 14), (2, 12)), ((2, 12), (1, 14)), 1, 0),
    ])
    def test_lemma1_reports_the_perturbed_cell(self, sys7, monkeypatch,
                                               bound, cell, want, dl, dr):
        held = set().union(*(cells(g_series(sys7, mm, 20))
                             for mm in (11, 10, -1, 6)))
        assert not held & {(20, 20), (16, 14), (15, 3)}
        bad = []
        for k, n in want:
            value = g_series(sys7, 11, 20).coefficient_int(n, k) - g_series(
                sys7, 10, 20).coefficient_int(n, k)
            bad.append((k, n, value + dl, value + dr))
        monkeypatch.setattr(recurrence_engine._Ladder, "rung",
                            perturbed_rows({bound: [(n, k, 1)
                                                    for k, n in cell]}))
        assert verify_lemma1(sys7, 2, 3, 20) == bad

    def test_lemma2_examples(self, sys7, sys3):
        assert verify_lemma2(sys7, 2, 1, 20).is_zero()
        assert verify_lemma2(sys3, 1, 2, 15).is_zero()

    def test_lemma2_subscripts_past_trunc(self, sys7):
        # bounds beyond the truncation: every series is the unbounded
        # table there, and the identity still holds
        assert verify_lemma2(sys7, 6, 3, 30).is_zero()

    def test_lemma2_index_validation(self, sys7):
        with pytest.raises(ValueError):
            verify_lemma2(sys7, 0, 1, 10)
        with pytest.raises(ValueError):
            verify_lemma2(sys7, 1, 8, 10)

    def test_telescoped_examples(self, sys7, sys3, sys9):
        r35, r37 = verify_eq_357(sys7, 2, 2, 25)
        assert r35.is_zero() and r37.is_zero()
        # at k = 1 the sum side degenerates to g = g
        r35, r37 = verify_eq_357(sys3, 1, 1, 15)
        assert r35.is_zero() and r37.is_zero()
        r35, r37 = verify_eq_357(sys9, 3, 3, 30)
        assert r35.is_zero() and r37.is_zero()

    def test_telescoped_sentinel_case(self, sys7):
        r35, r37 = verify_eq_357(sys7, 2, sys7.r + 1, 25)
        assert r35.is_zero()
        assert r37 is None


class TestRecords:
    def test_rec_row_and_chain_stage_are_named_tuples(self):
        one = QLaurent.one(4)
        row = recurrence_engine.RecRow(one, (one,), 1, ())
        assert row == recurrence_engine.RecRow(lhs=one, rhs=(one,), ell=1,
                                               shifts=())
        assert (row.lhs, row.rhs, row.ell, row.shifts) == (one, (one,), 1, ())
        stage = recurrence_engine.ChainStage("eq", True)
        assert repr(stage) \
            == "ChainStage(name='eq', residual_zero=True, detail='')"
        # a named tuple also equals the plain tuple of its fields
        assert stage == ("eq", True, "")
        for record, name in ((row, "ell"), (stage, "detail")):
            with pytest.raises(AttributeError):
                setattr(record, name, 2)

    def test_chain_report_and_state_constructors(self, sys3):
        first, second = ChainReport(sys3, 10, 2), ChainReport(sys3, 10, 2)
        assert first.stages == [] and first.stages is not second.stages
        assert (first.system, first.trunc, first.x_trunc, first.state) \
            == (sys3, 10, 2, None)
        assert first.first_failure() is None
        state = ChainState(u=[1], beta=[2], s=[3], mu=[4])
        assert [state.u, state.beta, state.s, state.mu] == [[1], [2], [3], [4]]


class TestRecRow:
    def test_single_generator_shape(self):
        # the one-generator recurrence collapses to
        # (1 - d q^(2l-1)) u_l = (1 + q^(2l-1)) u_(l-1)
        sys2 = build_system([1], 2)
        for ell in (1, 2, 5):
            row = build_rec_row(sys2, ell, 20)
            e = 2 * ell - 1
            assert row.lhs == QLaurent.one(20) - QLaurent.monomial(20, e, 1)
            assert row.rhs[0] == QLaurent.one(20) + QLaurent.monomial(20, e)

    def test_first_step_only_reaches_back_one(self, sys7):
        row = build_rec_row(sys7, 1, 15)
        assert len(row.rhs) == 1
        assert not row.rhs[0].is_zero()

    def test_lhs_at_d0_is_one(self, battery):
        for sys_ in battery:
            row = build_rec_row(sys_, 2, 12)
            assert d0(row.lhs) == QLaurent.one(12)

    def test_independent_reassembly(self, battery):
        # every elimination row assembled per subset sum below a(k) instead
        # of grouped by weight; only the top cutoff carries the standalone 1.
        # At trunc (r + 2) N every q^(lN - alpha) with l <= r + 1 is kept.
        # A row stops at u_0, and every reassembled term beyond it is 0.
        for sys_ in battery:
            N, r = sys_.N, sys_.r
            trunc = (r + 2) * N
            zero, one = QLaurent.zero(trunc), QLaurent.one(trunc)
            for k in range(1, r + 2):
                for ell in range(1, r + 2):
                    if k == r + 1:
                        rhs = build_rec_row(sys_, ell, trunc).rhs
                    else:
                        rhs = [as_series(trunc, terms) for terms in
                               recurrence_engine._elimination_row(
                                   sys_, k, ell, trunc)[1]]
                    want = []
                    for j in range(1, k):
                        total = one if (j, k) == (1, r + 1) else zero
                        for al in sys_.alpha:
                            m = sys_.w_table[al] - j
                            if al >= sys_.generator(k) or m < 0:
                                continue
                            combo = zero
                            if m >= 1:
                                combo = qbinomial(j + m - 1, m - 1, -N, trunc) \
                                    .scale_by_monomial(ell * (m - 1) * N) \
                                    * (-1) ** (m - 1)
                            combo = combo + qbinomial(j + m, m, -N, trunc) \
                                .scale_by_monomial(ell * m * N) * (-1) ** m
                            total = total + combo.scale_by_monomial(
                                ell * N - al, m)
                        want.append(total * factor_product(
                            trunc, [(ell - h) * N for h in range(1, j)],
                            0, -1))
                    assert len(rhs) == min(k - 1, ell), (sys_, k, ell)
                    assert list(rhs) == want[:len(rhs)], (sys_, k, ell)
                    assert all(t.is_zero() for t in want[len(rhs):]), \
                        (sys_, k, ell)


def rec_rhs(row, us, trunc):
    """``sum_j rhs[j-1] u_(ell-j)`` for ``row``, which stops at ``u_0``;
    ``us`` ends at ``u_(ell-1)``."""
    if len(row.rhs) > row.ell:
        raise ValueError(f"a row at ell={row.ell} has {len(row.rhs)} "
                         "terms and reaches below u_0")
    total = QLaurent.zero(trunc)
    for j, coeff in enumerate(row.rhs, 1):
        if not coeff.is_zero():
            total = total + coeff * us[-j]
    return total


class TestRunRecurrence:
    def test_initial_value(self, sys7):
        assert run_recurrence(sys7, 0, 10)[0] == QLaurent.one(10)

    def test_single_generator_first_step(self):
        sys2 = build_system([1], 2)
        u1 = run_recurrence(sys2, 1, 4)[1]
        want = QLaurent.from_terms(4, [
            (0, 0, 1),
            (1, 0, 1), (1, 1, 1),
            (2, 1, 1), (2, 2, 1),
            (3, 2, 1), (3, 3, 1),
            (4, 3, 1), (4, 4, 1),
        ])
        assert u1 == want

    def test_single_generator_closed_form(self):
        sys2 = build_system([1], 2)
        us = run_recurrence(sys2, 10, 30)
        for ell in range(1, 11):
            num = factor_product(30, range(1, 2 * ell, 2))
            den = factor_product(30, range(1, 2 * ell, 2), 1, -1)
            assert us[ell] == divide(num, den), ell

    def test_matches_enumeration(self, sys7):
        us = run_recurrence(sys7, 5, 25)
        for ell in range(6):
            assert us[ell] == g_series(sys7, 7 * ell - 1, 25), ell

    def test_rhs_rejects_a_row_reaching_below_u0(self):
        # rhs[1] would multiply u_(-1), which a list index would read as
        # the last iterate
        one = QLaurent.one(5)
        row = recurrence_engine.RecRow(lhs=one, rhs=(one, one), ell=1,
                                       shifts=())
        with pytest.raises(ValueError, match="below u_0"):
            rec_rhs(row, [one, one], 5)


def reference_iterates(sys, steps, trunc):
    """``u_0 .. u_steps`` and the ``num`` of each step, on ``QLaurent``:
    each row's right-hand side multiplied out with the general product
    and divided by its ``lhs`` (``nums[0]`` is ``u_0``)."""
    us = [QLaurent.one(trunc)]
    nums = [QLaurent.one(trunc)]
    for ell in range(1, steps + 1):
        row = recurrence_engine.build_rec_row(sys, ell, trunc)
        nums.append(rec_rhs(row, us, trunc))
        us.append(divide(nums[-1], row.lhs))
    return us, nums


def negated_first_rhs(real):
    """``_rec_row`` with ``rhs[0]`` negated, so the iterates go
    negative."""
    def row(sys, ell, trunc):
        rhs, shifts = real(sys, ell, trunc)
        rhs[0] = {key: -c for key, c in rhs[0].items()}
        return rhs, shifts
    return row


def limit_steps(sys, trunc):
    """The last index :func:`limit_u` iterates to."""
    return (trunc + sys.a[0]) // sys.N + 2


def max_abs(series):
    return max((abs(c) for _, _, c in series.terms()), default=0)


class TestPackedIterates:
    """The packed recurrence against the ``QLaurent`` route."""

    def check(self, sys_, trunc):
        steps = limit_steps(sys_, trunc)
        us, nums = reference_iterates(sys_, steps, trunc)
        assert run_recurrence(sys_, steps, trunc) == us
        # the slots the run chose hold every coefficient of each iterate
        # and of each num it was divided out of
        widths = [w for _, w in recurrence_engine._iterates(sys_, trunc,
                                                            steps)]
        assert len(widths) == steps + 1
        for ell, width in enumerate(widths):
            assert max(max_abs(us[ell]), max_abs(nums[ell])) \
                < 2 ** (width - 1), ell
        return us

    @pytest.mark.parametrize("trunc", [0, 1, 30, 60])
    def test_battery(self, battery, trunc):
        for sys_ in battery:
            us = self.check(sys_, trunc)
            assert us[-1] == us[-2]
            assert limit_u(sys_, trunc) == us[-1]

    @settings(max_examples=20, deadline=None)
    @given(admissible_systems(r_min=2, r_max=3),
           st.sampled_from([0, 1, 30, 60]))
    def test_drawn_systems(self, system, trunc):
        sys_ = build_system(system[1], system[0])
        us = self.check(sys_, trunc)
        assert limit_u(sys_, trunc) == us[-1]

    @pytest.mark.parametrize("trunc", [1, 30, 60])
    def test_negative_slots(self, battery, trunc):
        # the true iterates are nonnegative; only a perturbed row puts
        # negative coefficients in the packed slots
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(recurrence_engine, "_rec_row",
                       negated_first_rhs(recurrence_engine._rec_row))
            for sys_ in battery:
                us = self.check(sys_, trunc)
                assert any(c < 0 for u in us for _, _, c in u.terms())
                if us[-1] == us[-2]:
                    assert limit_u(sys_, trunc) == us[-1]
                else:
                    with pytest.raises(NotStabilized):
                        limit_u(sys_, trunc)

    @settings(max_examples=15, deadline=None)
    @given(admissible_systems(r_min=2, r_max=3), st.sampled_from([1, 30]))
    def test_negative_slots_on_drawn_systems(self, system, trunc):
        sys_ = build_system(system[1], system[0])
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(recurrence_engine, "_rec_row",
                       negated_first_rhs(recurrence_engine._rec_row))
            self.check(sys_, trunc)

    def test_slot_width_at_trunc_120(self, sys3):
        # the slots are sized from the rows' majorants before the run: the
        # limit's coefficients need 29 bits and a sign, the majorants 37
        steps = limit_steps(sys3, 120)
        (_, width), = islice(
            recurrence_engine._iterates(sys3, 120, steps), 1, 2)
        assert max_abs(limit_u(sys3, 120)).bit_length() == 29
        assert 30 <= width <= 37

    def test_zero_rows(self, sys7, monkeypatch):
        # a row whose num vanishes leaves nothing for the sizing pass to
        # bound but u_0
        real = recurrence_engine._rec_row

        def zero(sys, ell, trunc):
            rhs, shifts = real(sys, ell, trunc)
            return [{} for _ in rhs], shifts
        monkeypatch.setattr(recurrence_engine, "_rec_row", zero)
        assert run_recurrence(sys7, 3, 10) == [QLaurent.one(10)] + [
            QLaurent.zero(10)] * 3

    @pytest.mark.parametrize("bad_shift, want", [
        (True, NonUnitLeadingTerm), (False, NegativeExponents)])
    def test_errors_come_before_the_packed_division(self, sys7, monkeypatch,
                                                    bad_shift, want):
        # row 1's rhs reaches below q^0 and, with bad_shift, its lhs has a
        # factor 1 - d q^s with s < 0, which a quotient step would skip: the
        # shifts are checked before any division, then each packed num, so
        # row 1 is never divided; the sizing pass divides each row's
        # majorants once
        real = recurrence_engine._rec_row
        divisions = []

        def broken(sys, ell, trunc):
            rhs, shifts = real(sys, ell, trunc)
            if ell > 1:
                return rhs, shifts
            if bad_shift:
                shifts = (-shifts[0],) + shifts[1:]
            return [{(e - 1, deg): c for (e, deg), c in terms.items()}
                    for terms in rhs], shifts

        def counted(row, factors):
            divisions.append(len(row))
            return series_ring._div_row(row, factors)
        monkeypatch.setattr(recurrence_engine, "_rec_row", broken)
        monkeypatch.setattr(recurrence_engine, "_div_row", counted)
        with pytest.raises(want):
            run_recurrence(sys7, 3, 10)
        assert len(divisions) == (0 if bad_shift else 3)


class TestKeyLemma:
    def test_degenerate_cutoff(self, sys7):
        assert verify_key_lemma(sys7, 1, 3, 20).is_zero()

    def test_interior_cutoffs(self, sys7):
        assert verify_key_lemma(sys7, 2, 2, 25).is_zero()
        assert verify_key_lemma(sys7, 3, 2, 25).is_zero()

    def test_top_cutoff_matches_rec_row(self, sys7):
        trunc, ell = 30, 3
        res = verify_key_lemma(sys7, sys7.r + 1, ell, trunc)
        assert res.is_zero()
        row = build_rec_row(sys7, ell, trunc)
        via_row = row.lhs * g_series(sys7, 7 * ell - 1, trunc)
        for j in range(1, sys7.r + 1):
            via_row = via_row - row.rhs[j - 1] * g_series(
                sys7, 7 * (ell - j) - 1, trunc)
        assert via_row == res


# -- the QLaurent routes of the ladder checks, test-only references ----
#
# Each is its check as it was written on ``QLaurent`` series, before the
# checks ran on packed rows: it reads ``g_series``, which reads the same
# (possibly patched) ladder rows back.


def ref_peeled(sys, j, al, trunc):
    N = sys.N
    w, v = sys.w_table[al], sys.v_table[al]
    return (g_series(sys, (j - w) * N - v, trunc)
            .scale_by_monomial(j * N - al)
            + g_series(sys, (j - w + 1) * N - v, trunc)
            .scale_by_monomial(j * N - al, 1))


def ref_lemma1(sys, j, m, n_max):
    """The four ``(k, n)`` tables of the four series, the last two shifted
    to the left-hand side's ``(k, n)``, compared cell by cell."""
    am, am1 = recurrence_engine._peel_cutoffs(sys, j, m)
    N = sys.N
    w, v = sys.w_table[am], sys.v_table[am]
    shift = j * N - am
    tab_a, tab_b, tab_c, tab_d = (
        {(k + dk, n + dn): c
         for n, row in g_series(sys, bound, n_max).coeffs.items()
         for k, c in row.coeffs.items()}
        for bound, dk, dn in ((j * N - am, 0, 0), (j * N - am1, 0, 0),
                              ((j - w) * N - v, 0, shift),
                              ((j - w + 1) * N - v, 1, shift)))
    bad = []
    for n, k in sorted((n, k) for k, n in
                       tab_a.keys() | tab_b.keys() | tab_c.keys() | tab_d.keys()
                       if n <= n_max):
        lhs = tab_a.get((k, n), 0) - tab_b.get((k, n), 0)
        rhs = tab_c.get((k, n), 0) + tab_d.get((k, n), 0)
        if lhs != rhs:
            bad.append((k, n, lhs, rhs))
    return bad


def ref_lemma2(sys, j, m, trunc):
    am, am1 = recurrence_engine._peel_cutoffs(sys, j, m)
    N = sys.N
    return (g_series(sys, j * N - am, trunc)
            - g_series(sys, j * N - am1, trunc)
            - ref_peeled(sys, j, am, trunc))


def ref_eq_357(sys, j, k, trunc):
    N = sys.N
    a1 = sys.a[0]
    ak = sys.generator(k)
    res35 = (g_series(sys, j * N - a1, trunc)
             - g_series(sys, j * N - ak, trunc))
    for al in sys.alpha:
        if al >= ak:
            break
        res35 = res35 - ref_peeled(sys, j, al, trunc)
    res37 = None
    if k <= sys.r:
        ak1 = sys.generator(k + 1)
        lhs = g_series(sys, j * N - ak, trunc)
        lhs = lhs - lhs.scale_by_monomial(j * N - ak, 1)
        res37 = lhs - g_series(sys, j * N - ak1, trunc)
        res37 = res37 - g_series(sys, (j - 1) * N - a1, trunc) \
            .scale_by_monomial(N - ak)
        back = g_series(sys, (j - 1) * N - ak, trunc)
        back = back - back.scale_by_monomial((j - 1) * N)
        res37 = res37 + back.scale_by_monomial(N - ak)
    return res35, res37


def ref_key_lemma(sys, k, ell, trunc):
    N = sys.N
    a1 = sys.a[0]
    lhs, rhs, _ = recurrence_engine._elimination_row(sys, k, ell, trunc)
    lhs, rhs = as_series(trunc, lhs), [as_series(trunc, x) for x in rhs]
    res = lhs * g_series(sys, ell * N - a1, trunc)
    res = res - g_series(sys, ell * N - sys.generator(k), trunc)
    for j, term in enumerate(rhs, 1):
        if not term.is_zero():
            res = res - term * g_series(sys, (ell - j) * N - a1, trunc)
    return res


#: each ladder check and its reference, by the CLI's check name
LADDER_CHECKS = {
    "lemma1": (verify_lemma1, ref_lemma1),
    "lemma2": (verify_lemma2, ref_lemma2),
    "eq357": (verify_eq_357, ref_eq_357),
    "key": (verify_key_lemma, ref_key_lemma),
}


def ladder_cases(sys, trunc):
    """``(name, args)`` of every ladder check ``verify`` runs at ``trunc``."""
    j_hi = trunc // sys.N + 1
    for j in range(1, j_hi + 1):
        for m in range(1, len(sys.alpha) + 1):
            yield "lemma1", (j, m)
            yield "lemma2", (j, m)
        for k in range(1, sys.r + 2):
            yield "eq357", (j, k)
            yield "key", (k, j)


def failing(result):
    """Whether a ladder check's cells or residuals report a failure."""
    if isinstance(result, tuple):       # eq357's pair
        return any(failing(x) for x in result if x is not None)
    return bool(result) if isinstance(result, list) else not result.is_zero()


def match_references(sys, trunc, names=tuple(LADDER_CHECKS)):
    """Run each ladder check and its reference on every case; require the
    same cells or residuals.  Returns how many cases failed."""
    failed = 0
    for name, args in ladder_cases(sys, trunc):
        if name in names:
            packed, reference = LADDER_CHECKS[name]
            got = packed(sys, *args, trunc)
            assert got == reference(sys, *args, trunc), (name, args)
            failed += failing(got)
    return failed


class TestPackedChecks:
    """The packed ladder checks against their ``QLaurent`` routes: equal
    cells and residuals, not just equal verdicts."""

    @pytest.mark.parametrize("trunc", [0, 1, 30])
    def test_battery(self, battery, trunc):
        for sys_ in battery:
            assert match_references(sys_, trunc) == 0

    @settings(max_examples=20, deadline=None)
    @given(admissible_systems(r_min=1, r_max=3),
           st.sampled_from([0, 1, 12, 25]))
    def test_drawn_systems(self, system, trunc):
        N, a = system
        assume(N > a[-1])
        assert match_references(build_system(a, N), trunc) == 0

    # perturbed rows of 7/{1,2,4} at trunc 20, which leave residuals of
    # either sign, so their slots read back through the sign bit: a count
    # raised, lowered or negated, and the band constants 1 (g_-1), -d
    # (g_-8) and d^2 (g_-15) moved
    @pytest.mark.parametrize("changes", [
        {13: [(14, 2, 1), (20, 9, 1)], 6: [(9, 1, 1)]},
        {13: [(14, 2, -1)], 11: [(12, 1, -1), (20, 0, -1)]},
        {13: [(14, 2, -2 * 4), (19, 3, -2 * 8)],
         6: [(9, 1, -2), (6, 0, -2)]},
        {-1: [(0, 0, -2), (3, 1, -1)], -8: [(0, 1, 2), (0, 0, -3)],
         -15: [(0, 2, -2), (5, 4, 1)]},
    ], ids=["raised", "lowered", "negated", "band"])
    def test_perturbed_rows(self, sys7, monkeypatch, changes):
        for m, cells_ in changes.items():
            for n, k, c in cells_:
                if c < -1 and m > 0:        # negated: -2 times the count
                    assert g_series(sys7, m, 20).coefficient_int(n, k) \
                        == -c // 2, (m, n, k)
        monkeypatch.setattr(recurrence_engine._Ladder, "rung",
                            perturbed_rows(changes))
        assert match_references(sys7, 20) > 10

    @settings(max_examples=15, deadline=None)
    @given(st.sampled_from(range(4)), st.data())
    def test_perturbed_rows_on_the_battery(self, index, data):
        sys_ = build_system(*reversed(cli.BATTERY[index]))
        trunc = 16
        m = data.draw(st.integers(-sys_.r * sys_.N, trunc), label="m")
        n = data.draw(st.integers(0, trunc), label="n")
        k = data.draw(st.integers(0, n + 2), label="k")
        count = g_series(sys_, m, trunc).coefficient_int(n, k)
        c = data.draw(st.sampled_from([1, -1, -2 * count or -1]), label="c")
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(recurrence_engine._Ladder, "rung",
                          perturbed_rows({m: [(n, k, c)]}))
            match_references(sys_, trunc)

    def test_key_with_negative_exponents(self, battery, monkeypatch):
        # terms below q^0 on either side's multipliers reach residual rows
        # below q^0, which both routes keep
        real = recurrence_engine._elimination_row

        def row(sys, k, ell, trunc):
            lhs, rhs, shifts = real(sys, k, ell, trunc)
            lhs = plus(lhs, -3, 1, 2)
            if rhs:
                rhs[-1] = plus(rhs[-1], -5, 0, -1)
            return lhs, rhs, shifts
        monkeypatch.setattr(recurrence_engine, "_elimination_row", row)
        for sys_ in battery:
            assert match_references(sys_, 20, ("key",)) > 0
            assert verify_key_lemma(sys_, 2, 1, 20).min_exp == -5

    def test_too_narrow_width_raises(self, sys7, monkeypatch):
        # 3 guard bits hold lemma1's and lemma2's 4 unit rows, not the 8
        # of eq357's sum below a(3) = 4, nor the key lemma's; 1 holds none
        recurrence_engine._ladder.cache_clear()
        try:
            monkeypatch.setattr(recurrence_engine, "_guard_bits",
                                lambda sys: 3)
            assert verify_lemma1(sys7, 2, 1, 20) == []
            assert verify_lemma2(sys7, 2, 1, 20).is_zero()
            assert verify_eq_357(sys7, 2, 2, 20)[0].is_zero()
            with pytest.raises(OverflowError, match="8 unit rows"):
                verify_eq_357(sys7, 2, 3, 20)
            with pytest.raises(OverflowError, match="guard"):
                verify_key_lemma(sys7, sys7.r + 1, 2, 20)
            recurrence_engine._ladder.cache_clear()
            monkeypatch.setattr(recurrence_engine, "_guard_bits",
                                lambda sys: 1)
            for name, args in ladder_cases(sys7, 20):
                with pytest.raises(OverflowError, match="guard"):
                    LADDER_CHECKS[name][0](sys7, *args, 20)
        finally:
            recurrence_engine._ladder.cache_clear()

    def test_guard_bits(self, battery):
        # the key lemma's a priori bound sets every guard here: 12, 44, 44,
        # 172, 12 and 44 unit rows; it covers every cutoff and ell
        systems = battery + (build_system([1, 2], 5),
                             build_system([2, 3, 7], 20))
        assert [recurrence_engine._guard_bits(sys_) for sys_ in systems] \
            == [4, 6, 6, 8, 4, 6]
        for sys_ in systems:
            guard = recurrence_engine._guard_bits(sys_)
            for k in range(1, sys_.r + 2):
                for ell in range(1, sys_.r + 3):
                    lhs, rhs, _ = recurrence_engine._elimination_row(
                        sys_, k, ell, 60)
                    units = 1 + sum(abs(c) for side in (lhs, *rhs)
                                    for c in side.values())
                    assert units.bit_length() <= guard, (sys_, k, ell)


class TestCoefficientFamilies:
    def test_c_at_zero_is_one(self, sys7):
        for j in range(1, sys7.r + 1):
            # c(k, j) = d^k f(j, k)
            assert coeff_f(sys7, j, 0) == QLaurent.one(0)

    def test_b11_flagship(self, sys7):
        want = QLaurent.from_terms(0, [
            (-1, 0, 1), (-2, 0, 1), (-4, 0, 1),
            (-3, 1, 1), (-5, 1, 1), (-6, 1, 1),
        ])
        # b(m, j): the weight pair over all subset sums
        assert as_series(0, recurrence_engine._weight_pair(
            sys7, sys7.r + 1, 1, 1)) == want

    def test_f0_e0_weight_pair(self, battery):
        for sys_ in battery:
            for m in range(1, sys_.r + 1):
                # e(m, j): the weight pair below a(r)
                got = coeff_f(sys_, m, 0) * as_series(
                    0, recurrence_engine._weight_pair(sys_, sys_.r, m, 0))
                want = alpha_weight_sum(sys_, sys_.r, m - 1) \
                    .scale_by_monomial(0, m - 1)
                want = want + alpha_weight_sum(sys_, sys_.r, m) \
                    .scale_by_monomial(0, m)
                assert got == want, (sys_.N, m)

    def test_transform_coefficients_match(self, battery):
        for sys_ in battery:
            for m in range(1, sys_.r + 1):
                for j in range(1, sys_.r + 1):
                    assert verify_Tmj(sys_, m, j), (sys_.N, m, j)


def weight_pair_at(sys_, k, m, j, trunc):
    """The weight pair ``W_k(m, j)`` multiplied out at ``trunc``."""
    def weights(w):
        return alpha_weight_sum(sys_, k, w).with_trunc(trunc)
    pair = weights(j + m - 1).scale_by_monomial(0, m - 1) \
        + weights(j + m).scale_by_monomial(0, m)
    return pair * qbinomial(j + m - 1, m - 1, -sys_.N, trunc)


def check_weight_pair_tables(sys_):
    # each entry is the pair built afresh at trunc 0 and, raised, the pair
    # multiplied out at 30, so it is exact at trunc 0; every pair with
    # m + j > k is zero
    weight_pair = recurrence_engine._weight_pair
    for k in range(1, sys_.r + 2):
        table = recurrence_engine._weight_pairs(sys_, k)
        for m in range(1, k + 1):
            for j in range(k + 1):
                fresh = weight_pair(sys_, k, m, j)
                assert table[m, j] == fresh, (k, m, j)
                assert as_series(30, table[m, j]) \
                    == weight_pair_at(sys_, k, m, j, 30), (k, m, j)
                if m + j > k:
                    assert not fresh, (k, m, j)


class TestWeightPairTables:
    def test_battery(self, battery):
        for sys_ in battery:
            check_weight_pair_tables(sys_)

    @settings(max_examples=25, deadline=None)
    @given(admissible_systems(r_min=1, r_max=4))
    def test_drawn_systems(self, system):
        check_weight_pair_tables(build_system(system[1], system[0]))

    def test_handed_out_series_cannot_reach_the_tables(self, sys7):
        # the rows of build_rec_row are fresh series: a caller who changes
        # one, down to its d-polynomials, leaves the tables as they were
        # (q^0 may hold the shared constant 1)
        def results():
            report = verify_chain(sys7, 4, 3, 25)
            return ([(st_.name, st_.detail) for st_ in report.stages],
                    report.state.mu, build_rec_row(sys7, 3, 25),
                    [verify_key_lemma(sys7, k, 2, 25)
                     for k in range(1, sys7.r + 2)])
        before = results()
        for series in build_rec_row(sys7, 3, 25).rhs:
            for e, p in series.coeffs.items():
                if e:
                    p.coeffs[0] = p.coeffs.get(0, 0) + 1
            series.coeffs[-1] = DPoly({0: 7})
        assert results() == before


def reference_families(sys_):
    """The weight pairs below ``a(r)`` and ``a(r+1)``, ``f(m, k)`` and both
    sides of every ``T(m, j)``, multiplied out on ``QLaurent`` at trunc 0
    from ``alpha_weight_sum``, ``qbinomial`` and ``scale_by_monomial``."""
    N, r, ar = sys_.N, sys_.r, sys_.a[-1]

    def pair(k, m, j):
        low = alpha_weight_sum(sys_, k, j + m - 1).scale_by_monomial(0, m - 1)
        high = alpha_weight_sum(sys_, k, j + m).scale_by_monomial(0, m)
        return (low + high) * qbinomial(j + m - 1, m - 1, -N, 0)
    pairs = {(k, m, j): pair(k, m, j) for k in (r, r + 1)
             for m in range(1, r + 2) for j in range(r + 1)}
    f = {(m, k): qbinomial(m - 1, k, -N, 0).scale_by_monomial(
        -N * k * (k + 1) // 2 - k * ar) for m in range(1, r + 1)
        for k in range(m)}
    zero = QLaurent.zero(0)
    sides = {}
    for m in range(1, r + 1):
        for j in range(1, r + 1):
            lhs = rhs = zero
            for k in range(min(j, m)):
                lhs = lhs + (f[j, k] * pairs[r + 1, m - k, j]) \
                    .scale_by_monomial(0, k)
            for k in range(min(m, j + 1)):
                e = pairs[r, m, j - k]
                if k < j:
                    e = e + pairs[r, m, j - k - 1].scale_by_monomial(-ar)
                rhs = rhs + f[m, k] * e
            sides[m, j] = lhs, rhs
    return pairs, f, sides


class TestFamiliesAgainstQLaurent:
    """Each flat family the chain reads equals its reference multiplied out
    on ``QLaurent``, so the maps are checked apart from ``_mul_maps``."""

    @pytest.mark.parametrize("system", [*BATTERY, (31, (1, 2, 4, 8, 16))],
                             ids=lambda s: f"{s[0]}-{len(s[1])}")
    def test_families(self, system):
        sys_ = build_system(system[1], system[0])
        pairs, f, sides = reference_families(sys_)
        for (k, m, j), want in pairs.items():
            got = recurrence_engine._weight_pairs(sys_, k)[m, j]
            assert as_series(0, got) == want, (k, m, j)
        table = recurrence_engine._weight_pairs(sys_, sys_.r).f
        assert table.keys() == f.keys()
        for (m, k), want in f.items():
            assert as_series(0, table[m, k]) == want == coeff_f(sys_, m, k)
        for (m, j), want in sides.items():
            got = recurrence_engine._tmj(sys_, m, j)
            assert tuple(as_series(0, x) for x in got) == want, (m, j)
            assert verify_Tmj(sys_, m, j)


class TestLimit:
    def test_constant_term(self, battery):
        for sys_ in battery:
            assert limit_u(sys_, 0) == QLaurent.one(0)

    def test_flagship_coefficient(self, sys7):
        assert limit_u(sys7, 8).coefficient(8) == DPoly({0: 1, 1: 2, 2: 1})

    def test_equals_product(self, sys9):
        assert limit_u(sys9, 40) == product_F(sys9, 40)

    @settings(max_examples=60, deadline=None)
    @given(admissible_systems(r_max=4), st.integers(0, 30))
    def test_random_systems_counts_product_limit(self, system, trunc):
        sys_ = build_system(system[1], system[0])
        counted = count_F(sys_, trunc)
        assert count_G(sys_, trunc) == counted
        product = product_F(sys_, trunc)
        assert product == counted
        if sys_.N == sys_.a[-1]:
            # one generator with N = a(1): the recurrence is out of domain
            with pytest.raises(ConventionOutOfRange):
                limit_u(sys_, trunc)
        else:
            assert limit_u(sys_, trunc) == product

    def test_packed_limit_takes_a_floor_on_its_width(self, battery):
        # a floor widens the slots, never narrows them below what the
        # recurrence's majorants need; the limit is the same either way
        for sys_ in battery:
            limit, own = limit_u(sys_, 60, floor=2)
            assert limit_u(sys_, 60, floor=own - 5) == (limit, own)
            wide, width = limit_u(sys_, 60, floor=own + 9)
            assert width == own + 9
            assert QLaurent._from_packed(60, enumerate(wide), width) \
                == QLaurent._from_packed(60, enumerate(limit), own) \
                == limit_u(sys_, 60)

    def test_keeps_a_bounded_window_of_iterates(self, sys3):
        # the limit compares the last two iterates, and each step reads
        # back at most r of them; keeping all 23 peaks near 2.4 MiB
        tracemalloc.start()
        try:
            limit_u(sys3, 60)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    def test_d0_equals_distinct_product(self, sys7):
        lim = d0(limit_u(sys7, 25))
        want = QLaurent.one(25)
        for g in sys7.a:
            want = want * factor_product(25, range(7 - g, 26, 7))
        assert lim == want

    def test_stabilization_profile(self, sys3):
        # the coefficient of q^n freezes as soon as the bound passes n
        us = run_recurrence(sys3, 9, 20)
        for ell in range(1, 9):
            reach = 3 * ell - 1
            for n in range(min(reach, 20) + 1):
                assert us[ell].coefficient(n) == us[8].coefficient(n), \
                    (ell, n)

    def test_negative_exponents_raise(self, sys7, monkeypatch):
        # shift every right-hand coefficient down one power of q, so u_1
        # picks up a q^-1 term
        real = recurrence_engine._rec_row

        def shifted(sys, ell, trunc):
            rhs, shifts = real(sys, ell, trunc)
            return [{(e - 1, deg): c for (e, deg), c in terms.items()}
                    for terms in rhs], shifts
        monkeypatch.setattr(recurrence_engine, "_rec_row", shifted)
        with pytest.raises(NegativeExponents):
            recurrence_engine.run_recurrence(sys7, 2, 10)

    def test_not_stabilized_diagnostic(self, sys7, monkeypatch):
        def drifting(sys, trunc, steps, floor=2):
            return (([ell + 1] + [0] * trunc, 8) for ell in range(steps + 1))
        monkeypatch.setattr(recurrence_engine, "_iterates", drifting)
        with pytest.raises(NotStabilized):
            recurrence_engine.limit_u(sys7, 10)


class TestChain:
    def test_two_generator_chain(self, sys3):
        report = verify_chain(sys3, 8, 8, 30)
        assert report.first_failure() is None
        assert [st.name for st in report.stages] == [
            "rec_prime", "eq", "eq_prime", "eq_dprime", "rec_dprime",
            "rec_reduced", "mu_limit"]
        assert all(st.residual_zero for st in report.stages)

    def test_state_read_back_on_demand(self, sys3):
        # a passing run reads back nothing; each list is read back when
        # first read, and kept
        state = verify_chain(sys3, 6, 4, 20).state
        assert [name for name in ("u", "beta", "s", "mu")
                if name in vars(state)] == []
        assert state.u == run_recurrence(sys3, 6, 20)
        assert state.u is state.u
        assert [len(state.beta), len(state.s), len(state.mu)] == [7, 5, 5]
        assert all(x.trunc == 20 for name in ("beta", "s")
                   for x in getattr(state, name))

    def test_state_consistency(self, sys3):
        report = verify_chain(sys3, 6, 6, 20)
        state = report.state
        work = state.u[0].trunc
        one = QLaurent.one(work)
        assert state.beta[0] == one
        assert state.mu[0] == one
        assert [len(state.u), len(state.beta), len(state.s),
                len(state.mu)] == [7, 7, 7, 7]
        xseries_quotient(sys3, state)
        # beta_l * prod (1 - q^(jN)) == u_l * prod (1 - d q^(jN - a(r)))
        num, den = one, one
        for ell in range(1, 7):
            num = num * (one - QLaurent.monomial(work, 3 * ell - 2, 1))
            den = den * (one - QLaurent.monomial(work, 3 * ell))
            assert state.beta[ell] * den == state.u[ell] * num

    def test_degenerate_x_trunc(self, sys7):
        report = verify_chain(sys7, 0, 0, 10)
        assert report.first_failure() is None

    def test_report_shape(self, sys3):
        report = verify_chain(sys3, 4, 4, 12)
        assert (report.system.N, report.system.a) == (3, (1, 2))
        assert report.first_failure() is None
        assert ("rec_prime", True) in [(st_.name, st_.residual_zero)
                                       for st_ in report.stages]
        assert len(report.stages) == 7

    def test_needs_two_generators(self):
        sys2 = build_system([1], 2)
        with pytest.raises(ValueError):
            verify_chain(sys2, 4, 4, 10)

    def test_round_trip_mismatch_raises(self, sys3, monkeypatch, capsys):
        # one term too many on each inner [l, j]_(q^N) of the x-product
        # transform leaves q^(2(N - a(r)) + N) over at x^2 on the way back
        real = recurrence_engine._gauss_coeffs

        def bad(m, r):
            got = real(m, r)
            if 0 < r < m:
                got = (got[0], got[1] + 1) + got[2:]
            return got
        monkeypatch.setattr(recurrence_engine, "_gauss_coeffs", bad)
        with pytest.raises(RoundTripMismatch):
            verify_chain(sys3, 4, 4, 12)
        assert cli.main(["verify", "--N", "3", "--a", "1,2", "--trunc", "12",
                         "--x-trunc", "4", "--checks", "chain"]) == 1
        assert capsys.readouterr().err \
            == "error: x-product division failed to invert\n"

    def test_broken_chain_reports_stage(self, sys3, monkeypatch):
        # corrupt the reduced-product comparison to exercise the failure path
        def wrong_product(sys, trunc, *, width):
            return as_row(QLaurent.monomial(trunc, 1, 0, 42)
                          + QLaurent.one(trunc), width)
        monkeypatch.setattr(recurrence_engine, "product_F", wrong_product)
        with pytest.raises(ChainBroken) as exc:
            recurrence_engine.verify_chain(sys3, 6, 6, 15)
        assert exc.value.stage == "mu_limit"
        assert exc.value.report.first_failure().name == "mu_limit"
        names_ok = [st.name for st in exc.value.report.stages
                    if st.residual_zero]
        assert "rec_prime" in names_ok

    def test_mu_limit_names_the_first_difference(self, sys3, monkeypatch):
        # the detail is the lowest term of product - mu below q^eff, eff =
        # min(trunc, x_trunc N - a(1)); at x_trunc 0 there is nothing to
        # compare, so the stage passes whatever the product
        def wrong_product(sys, trunc, *, width):
            return as_row(QLaurent.from_terms(trunc, [
                (0, 0, 1), (1, 0, 42), (2, 1, -5), (9, 0, 7)]), width)
        monkeypatch.setattr(recurrence_engine, "product_F", wrong_product)
        for x_trunc, trunc, want in ((3, 15, (1, 0, 42)), (3, 1, (1, 0, 42)),
                                     (0, 15, None)):
            stages = {st_.name: st_.detail for st_ in
                      _chain_report(sys3, 4, x_trunc, trunc).stages}
            assert stages["mu_limit"] == (
                "" if want is None else f"first offender {want}")

    def test_broken_reduced_recurrence_reports_ell(self, sys3, monkeypatch):
        # one extra q^4 on the reduced system's u_(l-1) multiplier at l = 2
        real = recurrence_engine._rec_row

        def bad_row(sys, ell, trunc):
            rhs, shifts = real(sys, ell, trunc)
            if sys.r == 1 and ell == 2:
                rhs = [plus(rhs[0], 4, 0, 1)]
            return rhs, shifts
        monkeypatch.setattr(recurrence_engine, "_rec_row", bad_row)
        with pytest.raises(ChainBroken) as exc:
            verify_chain(sys3, 5, 5, 20)
        failed = [(st_.name, st_.detail) for st_ in exc.value.report.stages
                  if not st_.residual_zero]
        assert failed == [("rec_reduced", "first offender (2, 4, 0, -1)")]

    @pytest.mark.parametrize("side,stages", [
        (0, ["rec_prime", "eq"]), (1, ["eq_prime"])])
    def test_broken_tmj_side_reports_ell(self, sys3, monkeypatch, side,
                                         stages):
        # one extra 1 on one side of T(1, 2) reaches x^2 (and ell = 2) first
        real = recurrence_engine._tmj

        def bad_tmj(sys, m, j):
            sides = list(real(sys, m, j))
            if (m, j) == (1, 2):
                sides[side] = plus(sides[side], 0, 0, 1)
            return tuple(sides)
        monkeypatch.setattr(recurrence_engine, "_tmj", bad_tmj)
        with pytest.raises(ChainBroken) as exc:
            verify_chain(sys3, 5, 5, 20)
        failed = [(st_.name, st_.detail) for st_ in exc.value.report.stages
                  if not st_.residual_zero]
        assert failed == [(name, "first offender (2, 6, 0, -1)")
                          for name in stages]

    @settings(max_examples=25, deadline=None)
    @given(admissible_systems(r_min=2), st.integers(0, 12),
           st.integers(0, 3), st.integers(0, 2))
    def test_random_systems(self, system, trunc, x_trunc, extra):
        sys_ = build_system(system[1], system[0])
        report = verify_chain(sys_, x_trunc + extra, x_trunc, trunc)
        assert report.first_failure() is None
        for m in range(1, sys_.r + 1):
            for j in range(1, sys_.r + 1):
                assert verify_Tmj(sys_, m, j), (m, j)


def _family_pad(sys):
    """Headroom read off the unscaled families ``c, b, e, f`` instead of
    the multipliers as applied: far more than the chain needs (11, 50, 64
    and 189 on the battery), so a chain run at ``trunc`` plus it is a
    reference for the outputs below ``q^trunc``."""
    r = sys.r
    pair = recurrence_engine._weight_pair
    # c(k, j) = d^k f(j, k); b and e are the weight pairs at a(r+1), a(r)
    min_c = min(coeff_f(sys, j, k).scale_by_monomial(0, k).min_exp
                for j in range(1, r + 1) for k in range(j))
    min_b = min(as_series(0, pair(sys, r + 1, m, j)).min_exp
                for j in range(1, r + 1) for m in range(1, r + 1))
    min_e = min(as_series(0, pair(sys, r, m, j)).min_exp
                for m in range(1, r + 1) for j in range(r + 1))
    min_f = min(coeff_f(sys, m, k).min_exp
                for m in range(1, r + 1) for k in range(m))
    return max(sys.N, -(min_c + min_b), -(min_f + min_e) + sys.a[-1])


def _chain_report(sys_, ell_max, x_trunc, trunc):
    """The report of a passing or failing chain."""
    try:
        return verify_chain(sys_, ell_max, x_trunc, trunc)
    except ChainBroken as exc:
        return exc.report


def _chain_outputs(sys_, ell_max, x_trunc, trunc, pad=0):
    """The stages (name, verdict, detail) and every state series cut to
    ``trunc``, of a passing or failing chain run at ``trunc + pad``."""
    report = _chain_report(sys_, ell_max, x_trunc, trunc + pad)
    cut = {name: [x.with_trunc(trunc) for x in getattr(report.state, name)]
           for name in ("u", "beta", "s", "mu")}
    return list(report.stages), cut


def _tmj_plus_one(side):
    """``_tmj`` with 1 added to side ``side`` of ``T(1, 2)`` (None: as is);
    the extra 1 reaches ``x^2`` (and ``ell = 2``) first."""
    real = recurrence_engine._tmj

    def tmj(sys, m, j):
        sides = list(real(sys, m, j))
        if (m, j) == (1, 2) and side is not None:
            sides[side] = plus(sides[side], 0, 0, 1)
        return tuple(sides)
    return tmj


def _chain_maps(sys):
    """``left``, ``right`` and ``e`` as :func:`verify_chain` builds them,
    through ``recurrence_engine._tmj`` (so a patched one), as ``{(e, deg):
    c}`` maps."""
    r = sys.r
    pairs = recurrence_engine._weight_pairs(sys, r)
    e = {(m, j): pairs[m, j] for m in range(1, r + 1) for j in range(r + 1)}
    left = {(m, 0): e[m, 0] for m in range(1, r + 1)}
    right = dict(left)
    for m in range(1, r + 1):
        for j in range(1, r + 1):
            left[m, j], right[m, j] = recurrence_engine._tmj(sys, m, j)
    return left, right, e


def _chain_tables(sys, work):
    """The tables of :func:`_chain_maps` as ``QLaurent`` series at
    ``work``."""
    return tuple({key: as_series(work, val) for key, val in tab.items()}
                 for tab in _chain_maps(sys))


def _first(rows):
    return next((row for row in rows if row is not None), None)


# -- the x-series route, a test-only reference --------------------------


def x_factor_product(sys, x_trunc, trunc):
    """``prod_(k>=1) (1 + x q^(kN - a(r)))`` at the given truncations."""
    prod = XSeries.one(x_trunc, trunc)
    for e in range(sys.N - sys.a[-1], trunc + 1, sys.N):
        prod = prod + prod.shift_x(1) * QLaurent.monomial(trunc, e)
    return prod


def xseries_quotient(sys, state):
    """``F = sum_(l<=x_trunc) beta_l x^l`` of a chain's state and its
    quotient ``G`` by the x-product, whose coefficients must be the state's
    ``s`` and which must multiply back to ``F``."""
    F = XSeries(len(state.s) - 1, state.beta[:len(state.s)])
    xprod = x_factor_product(sys, F.x_trunc, F.trunc)
    G = F.divide(xprod)
    assert list(G.coeffs) == state.s
    assert G * xprod == F
    return F, G


def xseries_pad(sys, *tables):
    """The headroom the x-series route needs: minus the most negative
    exponent of ``q^(mjN) M[m, j]``, clamped at 0.

    That route scales ``y_(l-j)`` by ``q^(m(l-j)N)`` within the working
    truncation before the multiplier ``q^(mjN) M[m, j]`` meets it, which
    cuts the iterate ``m(l-j)N`` lower than the coefficient rows do."""
    return max(0, -min(M.min_exp + m * j * sys.N
                       for tab in tables for (m, j), M in tab.items()))


def qdiff_rows(sys, F, M, trunc):
    """The first offender ``(x, q, d, c)`` below ``q^trunc``, or None, of
    each ``x^l`` coefficient of ``F - xF - sum_m (-1)^(m+1) M_m(x)
    F(xq^(mN))``, where ``M_m(x) = sum_j M[m, j] q^(mjN) x^j`` and a
    missing pair is 0, computed on the ``XSeries`` ``F`` as a whole."""
    N, x_trunc = sys.N, F.x_trunc
    zero = QLaurent.zero(F.trunc)
    res = F + F.shift_x(1) * -1
    for m in range(1, sys.r + 1):
        mult = XSeries(x_trunc, [
            M.get((m, j), zero).scale_by_monomial(m * j * N)
            for j in range(x_trunc + 1)])
        at_xq = XSeries(x_trunc, [c.scale_by_monomial(j * m * N)
                                  for j, c in enumerate(F.coeffs)])
        res = res + mult * at_xq * (-1) ** m
    firsts = (c.with_trunc(trunc).first_nonzero() for c in res.coeffs)
    return [None if t is None else (ell,) + t for ell, t in enumerate(firsts)]


def reference_stages(sys_, ell_max, x_trunc, trunc):
    """Names and details of the stages ``rec_prime`` to ``rec_dprime``, read
    off :func:`qdiff_rows` below ``q^trunc`` on the state of a chain run
    at ``trunc`` plus :func:`xseries_pad`."""
    work = trunc + xseries_pad(sys_, *_chain_tables(sys_, 0))
    state = _chain_report(sys_, ell_max, x_trunc, work).state
    left, right, e = _chain_tables(sys_, work)
    F, G = xseries_quotient(sys_, state)
    rows = qdiff_rows(sys_, XSeries(ell_max, state.beta), left, trunc)
    g_rows = qdiff_rows(sys_, G, e, trunc)
    found = [("rec_prime", rows[1:]), ("eq", rows[:x_trunc + 1]),
             ("eq_prime", qdiff_rows(sys_, F, right, trunc)),
             ("eq_dprime", g_rows), ("rec_dprime", g_rows[1:])]
    return [(name, "" if _first(r) is None else f"first offender {_first(r)}")
            for name, r in found]


class TestXSeriesReference:
    """The coefficient rows report what the x-series route reports, stage
    for stage, each at its own pad."""

    @pytest.mark.parametrize("bad_side", [None, 0, 1])
    def test_battery_matches_xseries_route(self, battery, monkeypatch,
                                           bad_side):
        monkeypatch.setattr(recurrence_engine, "_tmj",
                            _tmj_plus_one(bad_side))
        for sys_ in battery:
            for ell_max, x_trunc, trunc in ((5, 5, 30), (7, 3, 30)):
                got = [(st_.name, st_.detail) for st_ in
                       _chain_report(sys_, ell_max, x_trunc, trunc).stages]
                assert got[:5] == reference_stages(
                    sys_, ell_max, x_trunc, trunc), (sys_.N, sys_.a)
                assert (bad_side is None) == all(
                    detail == "" for _, detail in got)

    @settings(max_examples=25, deadline=None)
    @given(admissible_systems(r_min=2), st.integers(0, 12),
           st.integers(0, 3), st.integers(0, 2),
           st.sampled_from([None, 0, 1]))
    def test_random_systems_match_xseries_route(self, system, trunc,
                                                x_trunc, extra, bad_side):
        sys_ = build_system(system[1], system[0])
        ell_max = x_trunc + extra
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(recurrence_engine, "_tmj", _tmj_plus_one(bad_side))
            got = [(st_.name, st_.detail) for st_ in
                   _chain_report(sys_, ell_max, x_trunc, trunc).stages]
            assert got[:5] == reference_stages(sys_, ell_max, x_trunc, trunc)

    def test_xseries_route_leaks_one_below_its_pad(self, sys3):
        # the x-series route needs 1 above trunc on 3/{1,2}; at 0 it reads
        # a wrong q^30 coefficient at x^1, where the rows are exact
        report = verify_chain(sys3, 5, 5, 30)
        assert report.state.u[0].trunc == 30
        tables = _chain_tables(sys3, 30)
        assert xseries_pad(sys3, *tables) == 1
        F = XSeries(5, report.state.beta)
        assert _first(qdiff_rows(sys3, F, tables[0], 30)) == (1, 30, 14, 1)
        assert report.first_failure() is None


def dominated_systems(n_max):
    """Every valid system with ``r >= 2`` and ``N <= n_max``: each
    generator above the sum of the smaller ones, ``sum(A) <= N``."""
    def sets(prefix, total):
        for a in range(total + 1, n_max - total + 1):
            yield prefix + (a,)
            yield from sets(prefix + (a,), total + a)
    for gens in sets((), 0):
        if len(gens) >= 2:
            for N in range(sum(gens), n_max + 1):
                yield build_system(gens, N)


def multiplier_margin(sys_):
    """``min(a + m(j+1)N)`` over the terms ``q^a`` of each ``M[m, j]`` of
    the chain's tables, less ``N - S``, ``S = a(1) + ... + a(r-1)``: the
    bound of ``recurrence_engine._coeff_residuals`` holds iff this is
    ``>= 0``, and the chain then needs no headroom."""
    return min(M.min_exp + m * (j + 1) * sys_.N
               for tab in _chain_tables(sys_, 0)
               for (m, j), M in tab.items() if not M.is_zero()) \
        - (sys_.N - sum(sys_.a[:-1]))


@st.composite
def large_systems(draw):
    """``(N, A)`` with ``2 <= r <= 4`` and ``17 <= N``, each generator 1 to
    12 above the smaller ones' sum."""
    a = []
    for _ in range(draw(st.integers(2, 4))):
        a.append(sum(a) + draw(st.integers(1, 12)))
    return max(17, sum(a)) + draw(st.integers(0, 30)), tuple(a)


class TestChainPad:
    """The chain runs at the truncation it reports: every multiplier term
    is high enough that no pad is needed, and a run far above ``trunc``
    agrees with it below ``q^trunc``."""

    def test_every_small_system_needs_no_pad(self):
        margins = {(sys_.N, sys_.a): multiplier_margin(sys_)
                   for sys_ in dominated_systems(16)}
        assert len(margins) == 473
        assert min(margins.values()) == 0
        assert margins[3, (1, 2)] == 0      # tight

    @settings(max_examples=25, deadline=None)
    @given(large_systems())
    def test_drawn_systems_need_no_pad(self, system):
        assert multiplier_margin(build_system(system[1], system[0])) >= 0

    def test_every_state_series_is_at_trunc(self, battery):
        for sys_ in battery:
            state = verify_chain(sys_, 4, 3, 25).state
            assert {x.trunc for name in ("u", "beta", "s", "mu")
                    for x in getattr(state, name)} == {25}

    @pytest.mark.parametrize("bad_side", [None, 0])
    def test_battery_matches_family_pad(self, battery, monkeypatch,
                                        bad_side):
        # bad_side perturbs one side of T(1, 2), so details are non-empty
        monkeypatch.setattr(recurrence_engine, "_tmj",
                            _tmj_plus_one(bad_side))
        for sys_ in battery:
            got = _chain_outputs(sys_, 5, 5, 30)
            assert got == _chain_outputs(sys_, 5, 5, 30, _family_pad(sys_)), \
                (sys_.N, sys_.a)
            assert (bad_side is None) == all(
                stage.detail == "" for stage in got[0])

    @settings(max_examples=25, deadline=None)
    @given(admissible_systems(r_min=2), st.integers(0, 12),
           st.integers(0, 3), st.integers(0, 2))
    def test_random_systems_match_family_pad(self, system, trunc, x_trunc,
                                             extra):
        sys_ = build_system(system[1], system[0])
        ell_max = x_trunc + extra
        assert _chain_outputs(sys_, ell_max, x_trunc, trunc) \
            == _chain_outputs(sys_, ell_max, x_trunc, trunc,
                              _family_pad(sys_))


def packed_residuals(sys_, ys, M):
    """``recurrence_engine._coeff_residuals`` on the ``QLaurent`` series
    ``ys`` and table ``M``, packed in slots sized by the rows' ``sum L1(a)
    max|b|`` (``_rows_bound``)."""
    r = sys_.r
    l1 = [sum(sum(majorant(M[m, j]).values()) for m in range(1, r + 1))
          for j in range(r + 1)]
    bound = recurrence_engine._rows_bound([max_abs(y) for y in ys], l1, r)
    width = max(bound, 1).bit_length() + 1
    trunc = ys[0].trunc
    rows = [[0] * (trunc + 1) for _ in ys]
    for row, y in zip(rows, ys):
        for e, c in packed(y, width).items():
            row[e] = c
    return recurrence_engine._coeff_residuals(
        sys_, rows, {key: packed(x, width) for key, x in M.items()}, width,
        trunc)


class TestChainResiduals:
    """The coefficient rows name the first perturbed ``ell`` and agree
    with the x-series route row by row.

    The inputs are the ``s`` of a passing 3/{1,2} chain, run at 20 plus
    the x-series route's pad and cut to 20, its x-series quotient ``G`` at
    that pad, and the ``e`` table, whose equations they satisfy.
    """

    @pytest.fixture(scope="class")
    def chain3(self, sys3):
        work = 20 + xseries_pad(sys3, *_chain_tables(sys3, 0))
        state = verify_chain(sys3, 5, 5, work).state
        G = xseries_quotient(sys3, state)[1]
        cut = recurrence_engine.ChainState(**{
            name: [x.with_trunc(20) for x in getattr(state, name)]
            for name in ("u", "beta", "s", "mu")})
        return cut, _chain_tables(sys3, work)[2], G

    def test_rec_residual_names_perturbed_s(self, sys3, chain3):
        state, e, _ = chain3
        assert packed_residuals(sys3, state.s, e) == [None] * 6
        s = list(state.s)
        s[3] = s[3] + QLaurent.monomial(s[3].trunc, 4, 1)
        assert packed_residuals(sys3, s, e)[:4] \
            == [None] * 3 + [(3, 4, 1, 1)]

    def test_rec_residual_names_perturbed_row(self, sys3, chain3):
        state, e, _ = chain3
        e = dict(e)
        e[1, 2] = e[1, 2] + QLaurent.one(e[1, 2].trunc)
        assert packed_residuals(sys3, state.s, e)[:3] \
            == [None] * 2 + [(2, 6, 0, -1)]

    def test_qdiff_residual_names_perturbed_series(self, sys3, chain3):
        _, e, G = chain3
        assert qdiff_rows(sys3, G, e, 20) == [None] * 6
        s = list(G.coeffs)
        s[3] = s[3] + QLaurent.monomial(G.trunc, 4, 1)
        rows = packed_residuals(sys3, [x.with_trunc(20) for x in s], e)
        assert rows == qdiff_rows(sys3, XSeries(G.x_trunc, s), e, 20)
        assert _first(rows) == (3, 4, 1, 1)

    def test_qdiff_residual_names_perturbed_row(self, sys3, chain3):
        state, e, G = chain3
        e = dict(e)
        e[2, 1] = e[2, 1] + QLaurent.one(e[2, 1].trunc)
        rows = packed_residuals(sys3, state.s, e)
        assert rows == qdiff_rows(sys3, G, e, 20)
        assert _first(rows) == (1, 6, 0, 1)

    def test_x0_row_names_perturbed_multiplier(self, sys3, chain3):
        # M[m, 0] meets y_0 unscaled at x^0, the row eq has and rec_prime
        # does not
        state, e, G = chain3
        e = dict(e)
        e[1, 0] = e[1, 0] + QLaurent.monomial(e[1, 0].trunc, 2, 1)
        rows = packed_residuals(sys3, state.s, e)
        assert rows == qdiff_rows(sys3, G, e, 20)
        assert rows[0] == (0, 2, 1, -1)

    def test_x0_row_fails_the_equations_only(self, sys3, monkeypatch):
        # a d on e(1, 0), which is M[1, 0] of all three tables
        pairs = recurrence_engine._weight_pairs(sys3, sys3.r)
        monkeypatch.setitem(pairs, (1, 0), plus(pairs[1, 0], 0, 1, 1))
        with pytest.raises(ChainBroken) as exc:
            verify_chain(sys3, 5, 3, 20)
        assert [(st_.name, st_.detail) for st_ in exc.value.report.stages
                if not st_.residual_zero] == [
            ("rec_prime", "first offender (1, 3, 1, -1)"),
            ("eq", "first offender (0, 0, 1, -1)"),
            ("eq_prime", "first offender (0, 0, 1, -1)"),
            ("eq_dprime", "first offender (0, 0, 1, -1)"),
            ("rec_dprime", "first offender (1, 3, 1, -1)")]

    def test_row_past_x_trunc_fails_rec_prime_only(self, sys3, monkeypatch):
        # a term on u_5 reaches the left rows 5 and 6; eq reads rows 0..3
        real = recurrence_engine._iterates

        def bumped(sys, trunc, steps, widen=None, floor=2):
            for ell, (u, width) in enumerate(real(sys, trunc, steps, widen,
                                                  floor)):
                if ell == 5:            # 3 d q^7, packed
                    u = u[:7] + [u[7] + (3 << width)] + u[8:]
                yield u, width
        monkeypatch.setattr(recurrence_engine, "_iterates", bumped)
        with pytest.raises(ChainBroken) as exc:
            verify_chain(sys3, 6, 3, 20)
        failed = [(st_.name, st_.detail) for st_ in exc.value.report.stages
                  if not st_.residual_zero]
        assert failed == [("rec_prime", "first offender (5, 7, 1, 3)")]

    def test_one_chain_makes_three_residual_passes(self, sys3, monkeypatch):
        # one pass serves eq and rec_prime, one eq_prime, one eq_dprime and
        # rec_dprime
        real = recurrence_engine._coeff_residuals
        lengths = []

        def spy(sys, ys, M, width, trunc):
            lengths.append(len(ys))
            return real(sys, ys, M, width, trunc)
        monkeypatch.setattr(recurrence_engine, "_coeff_residuals", spy)
        verify_chain(sys3, 7, 4, 20)
        assert lengths == [8, 5, 5]


def residual_sums(sys_, ys, M):
    """Each row's sum ``y_l - y_(l-1) - sum_j (sum_m (-1)^(m+1) q^(mlN)
    M[m, j]) y_(l-j)`` of ``recurrence_engine._coeff_residuals``, multiplied
    out on ``QLaurent``."""
    r, trunc = sys_.r, ys[0].trunc
    sums = []
    for ell, y in enumerate(ys):
        res = y - ys[ell - 1] if ell else y
        for j in range(min(r, ell) + 1):
            res = res - as_series(trunc, recurrence_engine._multiplier(
                sys_.N, ell, M, j, r, trunc)) * ys[ell - j]
        sums.append(res)
    return sums


class TestChainWidth:
    """The one width a chain run picks holds every coefficient the run
    reads back, compares or tests for zero: each packed series and each
    residual row's sum, all multiplied out here on ``QLaurent``."""

    def check(self, sys_, ell_max, x_trunc, trunc):
        """The largest coefficient, the width and the residual row sums of
        a chain run, after checking that the bound its majorant pass
        returned holds every coefficient and fits below the sign bit."""
        real, real_iterates = (recurrence_engine._coeff_residuals,
                               recurrence_engine._iterates)
        widths, bounds = [], []

        def spy(sys, ys, M, width, trunc):
            widths.append(width)
            return real(sys, ys, M, width, trunc)

        def iterates(sys, trunc, steps, widen=None, floor=2):
            # the reduced iterates, which mu is compared with, come out at
            # the run's width too
            def kept(majorants):
                bounds.append(widen(majorants))
                return bounds[-1]
            for u, width in real_iterates(sys, trunc, steps, widen and kept,
                                          floor):
                widths.append(width)
                yield u, width
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(recurrence_engine, "_coeff_residuals", spy)
            patch.setattr(recurrence_engine, "_iterates", iterates)
            state = _chain_report(sys_, ell_max, x_trunc, trunc).state
        width, = set(widths)
        bound, = bounds
        # the state against the QLaurent route: u, nu = u num, beta = nu /
        # den, and s, mu from the x-series quotient of beta
        one = QLaurent.one(trunc)
        us = run_recurrence(sys_, ell_max, trunc)
        num, den, nus, dens = one, one, [], []
        for ell, u in enumerate(us):
            if ell:
                num = num - num.scale_by_monomial(
                    ell * sys_.N - sys_.a[-1], 1)
                den = den - den.scale_by_monomial(ell * sys_.N)
            nus.append(u * num)
            dens.append(den)
        betas = [divide(nu, d) for nu, d in zip(nus, dens)]
        s = list(XSeries(x_trunc, betas[:x_trunc + 1]).divide(
            x_factor_product(sys_, x_trunc, trunc)).coeffs)
        mus = [x * d for x, d in zip(s, dens)]
        assert (state.u, state.beta, state.s, state.mu) == (us, betas, s, mus)
        left, right, e = _chain_maps(sys_)
        sums = [*residual_sums(sys_, betas, left),
                *residual_sums(sys_, betas[:x_trunc + 1], right),
                *residual_sums(sys_, s, e)]
        top = max(map(max_abs, [*us, *nus, *betas, *s, *mus, *sums]))
        assert top <= bound < 2 ** (width - 1)
        return top, width, sums

    @pytest.mark.parametrize("bad_side", [None, 0, 1])
    def test_battery(self, battery, monkeypatch, bad_side):
        # bad_side perturbs one side of T(1, 2), so some row sums are not 0
        monkeypatch.setattr(recurrence_engine, "_tmj",
                            _tmj_plus_one(bad_side))
        for sys_ in battery:
            for ell_max, x_trunc, trunc in ((5, 5, 30), (7, 3, 40)):
                _, _, sums = self.check(sys_, ell_max, x_trunc, trunc)
                assert (bad_side is None) == all(x.is_zero() for x in sums)

    def test_negative_iterates(self, battery, monkeypatch):
        # negated rows put negative coefficients in every packed series
        monkeypatch.setattr(recurrence_engine, "_rec_row",
                            negated_first_rhs(recurrence_engine._rec_row))
        for sys_ in battery:
            self.check(sys_, 6, 4, 30)

    def test_width_at_the_benchmark_depth(self, sys3):
        # the recurrence's majorants of u run 6 bits over u (22 against 16),
        # and the chain's steps on them reach 31 bits; the largest
        # coefficient, u's, needs 16 and a sign
        top, width, _ = self.check(sys3, 5, 5, 56)
        assert top.bit_length() == 16
        assert 17 <= width <= 32

    @settings(max_examples=20, deadline=None)
    @given(admissible_systems(r_min=2, r_max=4), st.integers(0, 24),
           st.integers(0, 4), st.integers(0, 2),
           st.sampled_from([None, 0, 1]))
    def test_drawn_systems(self, system, trunc, x_trunc, extra, bad_side):
        sys_ = build_system(system[1], system[0])
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(recurrence_engine, "_tmj", _tmj_plus_one(bad_side))
            self.check(sys_, x_trunc + extra, x_trunc, trunc)


def planted_rows(real, reduced, plants):
    """``_rec_row`` with ``c d^k q^e`` added to ``rhs[j-1]`` of the
    ``reduced`` system's row at ``ell`` for each ``(ell, j, e, k, c)`` of
    ``plants`` (a ``j`` past the row's end, or an ``e`` past ``trunc``,
    plants nothing)."""
    def row(sys, ell, trunc):
        rhs, shifts = real(sys, ell, trunc)
        for at, j, e, k, c in plants:
            if sys == reduced and at == ell and j <= len(rhs) and e <= trunc:
                rhs[j - 1] = plus(rhs[j - 1], e, k, c)
        return rhs, shifts
    return row


def reduced_residual(reduced, mus, trunc):
    """The first nonzero term ``(ell, q, d, c)`` below ``q^trunc``, or
    None, of the reduced recurrence's residual ``lhs mu_l - sum_j rhs_j
    mu_(l-j)`` over ``1 <= l < len(mus)``, on the rows of ``build_rec_row``,
    the view of (a possibly patched) ``_rec_row``."""
    work = mus[0].trunc
    for ell in range(1, len(mus)):
        row = recurrence_engine.build_rec_row(reduced, ell, work)
        res = (row.lhs * mus[ell]
               - rec_rhs(row, mus[:ell], work)).with_trunc(trunc)
        if not res.is_zero():
            return (ell,) + res.first_nonzero()
    return None


class TestReducedRecurrenceDetail:
    """``rec_reduced`` compares ``mu`` with the reduced system's iterates
    and names the first nonzero term of the reduced recurrence's residual,
    as multiplied out on ``mu`` with :func:`rec_rhs`."""

    def check(self, sys_, plants, ell_max, x_trunc, trunc):
        """The detail of a chain run on planted reduced rows, required to
        match the reference residual, which it returns."""
        reduced = build_system(sys_.a[:-1], sys_.N)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(recurrence_engine, "_rec_row", planted_rows(
                recurrence_engine._rec_row, reduced, plants))
            report = _chain_report(sys_, ell_max, x_trunc, trunc)
            want = reduced_residual(reduced, report.state.mu, trunc)
        stages = {st_.name: st_.detail for st_ in report.stages}
        assert stages["rec_reduced"] == (
            "" if want is None else f"first offender {want}")
        assert [name for name, detail in stages.items() if detail] \
            == ([] if want is None else ["rec_reduced"])
        return want

    # (ell, j, e, k, c); a plant at u_(ell-j) leaves -c d^k q^e as the
    # residual's first term, since u_(ell-j) and 1/lhs start with 1
    @pytest.mark.parametrize("plants", [
        [(1, 1, 0, 0, 1)],
        [(2, 1, 4, 0, 1)],
        [(3, 1, 7, 1, -2), (5, 1, 2, 0, 1)],
        [(4, 2, 5, 2, 3), (5, 1, 9, 0, -1)],
        [(5, 1, 30, 3, 1)],
        [(5, 1, 31, 0, 1)],             # above trunc: nothing to name
    ])
    def test_battery(self, battery, plants):
        for sys_ in battery:
            live = [p for p in plants
                    if p[1] <= min(p[0], sys_.r - 1) and p[2] <= 30]
            want = self.check(sys_, plants, 5, 5, 30)
            if live:
                ell, _, e, k, c = live[0]
                assert want == (ell, e, k, -c), (sys_.N, sys_.a)
            else:
                assert want is None

    @settings(max_examples=25, deadline=None)
    @given(admissible_systems(r_min=2, r_max=3), st.integers(0, 16),
           st.integers(1, 4), st.data())
    def test_drawn_systems(self, system, trunc, x_trunc, data):
        sys_ = build_system(system[1], system[0])
        ell = data.draw(st.integers(1, x_trunc), label="ell")
        j = data.draw(st.integers(1, min(ell, sys_.r - 1)), label="j")
        e = data.draw(st.integers(0, trunc), label="e")
        k = data.draw(st.integers(0, 3), label="k")
        c = data.draw(st.sampled_from([1, -1, 2, -3]), label="c")
        later = data.draw(st.integers(ell + 1, x_trunc + 1), label="later")
        plants = [(ell, j, e, k, c), (later, 1, 0, 0, 1)]
        assert self.check(sys_, plants, x_trunc + 1, x_trunc, trunc) \
            == (ell, e, k, -c)

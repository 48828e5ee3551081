import pytest

from overpart import (
    ChainBroken,
    ConventionOutOfRange,
    DPoly,
    NegativeExponents,
    NotStabilized,
    QLaurent,
    RoundTripMismatch,
    XSeries,
    build_rec_row,
    build_system,
    coeff_b,
    coeff_c,
    coeff_e,
    coeff_f,
    count_G,
    g_series,
    g_table,
    limit_u,
    alpha_weight_sum,
    pochhammer_expand,
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
from overpart import recurrence_engine


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

    def test_flagship_coefficient(self, sys7):
        g8 = g_series(sys7, 8, 8)
        assert g8.coefficient(8) == DPoly({0: 1, 1: 2, 2: 1})
        assert g8.coefficient(0) == DPoly.const(1)

    def test_shared_tables_are_read_only(self, sys7):
        series_before = list(g_series(sys7, 8, 12).terms())
        lemma_before = verify_lemma1(sys7, 2, 1, 12)
        for m in (8, -8):
            table = g_table(sys7, m, 12)
            before = dict(table)
            with pytest.raises(TypeError):
                table[(0, 8)] = 99
            with pytest.raises(TypeError):
                del table[next(iter(before))]
            assert dict(g_table(sys7, m, 12)) == before
        assert list(g_series(sys7, 8, 12).terms()) == series_before
        assert verify_lemma1(sys7, 2, 1, 12) == lemma_before == []

    def test_lone_bound_pulls_walk_only_that_far(self, sys7, monkeypatch):
        real = recurrence_engine.walk_G
        pulled = []

        def counting(sys, trunc):
            for first, tail in real(sys, trunc):
                pulled.append(first)
                yield first, tail
        monkeypatch.setattr(recurrence_engine, "walk_G", counting)
        ladder = recurrence_engine._Ladder(sys7, 40)
        table, _ = ladder.rung(8)
        assert pulled[-1] == 8
        assert dict(table) == count_G(sys7, 40, largest_bound=8).entries
        ladder.rung(99)
        assert pulled[-1] == 40
        assert ladder.rung(8)[0] is table

    def test_interrupted_walk_starts_over(self, sys7, monkeypatch):
        want = g_series(sys7, 30, 30)
        real = recurrence_engine.walk_G
        starts = []

        def flaky(sys, trunc):
            starts.append(trunc)
            for i, step in enumerate(real(sys, trunc)):
                if len(starts) == 1 and i == 3:
                    raise KeyboardInterrupt
                yield step
        monkeypatch.setattr(recurrence_engine, "walk_G", flaky)
        ladder = recurrence_engine._Ladder(sys7, 30)
        with pytest.raises(KeyboardInterrupt):
            ladder.rung(30)
        table, series = ladder.rung(30)
        assert len(starts) == 2
        assert dict(table) == count_G(sys7, 30).entries
        assert series == want


class TestPeelingIdentities:
    def test_lemma1_examples(self, sys7, sys3):
        assert verify_lemma1(sys7, 2, 1, 20) == []
        assert verify_lemma1(sys3, 1, 2, 15) == []

    def test_lemma1_full_sweep_small(self, sys3):
        for j in range(1, 8):
            for m in range(1, 4):
                assert verify_lemma1(sys3, j, m, 20) == [], (j, m)

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
        assert not row.rhs[0].is_zero()
        assert all(c.is_zero() for c in row.rhs[1:])

    def test_lhs_at_d0_is_one(self, battery):
        for sys_ in battery:
            row = build_rec_row(sys_, 2, 12)
            assert row.lhs.d0() == QLaurent.one(12)

    def test_independent_reassembly(self, sys7):
        # same coefficients assembled per subset sum instead of grouped
        # by weight
        trunc, ell, N = 30, 2, sys7.N
        row = build_rec_row(sys7, ell, trunc)
        one = QLaurent.one(trunc)
        for j in range(1, sys7.r + 1):
            total = one if j == 1 else QLaurent.zero(trunc)
            for al in sys7.alpha:
                m = sys7.w_table[al] - j
                if not 0 <= m <= sys7.r - j:
                    continue
                combo = QLaurent.zero(trunc)
                b1 = qbinomial(j + m - 1, m - 1, -N, trunc)
                if not b1.is_zero():
                    sign = -1 if (m - 1) % 2 else 1
                    combo = combo + b1.scale_by_monomial(
                        ell * (m - 1) * N, 0, sign)
                sign = -1 if m % 2 else 1
                combo = combo + qbinomial(j + m, m, -N, trunc) \
                    .scale_by_monomial(ell * m * N, 0, sign)
                total = total + combo.scale_by_monomial(ell * N - al, m, 1)
            hreach = one
            for h in range(1, j):
                hreach = hreach * (one - QLaurent.monomial(
                    trunc, (ell - h) * N))
            assert row.rhs[j - 1] == total * hreach, j


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
            num = pochhammer_expand(-1, 0, 1, 2, ell, 30)
            den = pochhammer_expand(1, 1, 1, 2, ell, 30)
            assert us[ell] == num.divide(den), ell

    def test_matches_enumeration(self, sys7):
        us = run_recurrence(sys7, 5, 25)
        for ell in range(6):
            assert us[ell] == g_series(sys7, 7 * ell - 1, 25), ell


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


class TestCoefficientFamilies:
    def test_c_at_zero_is_one(self, sys7):
        for j in range(1, sys7.r + 1):
            assert coeff_c(sys7, 0, j) == QLaurent.one(0)

    def test_b11_flagship(self, sys7):
        want = QLaurent.from_terms(0, [
            (-1, 0, 1), (-2, 0, 1), (-4, 0, 1),
            (-3, 1, 1), (-5, 1, 1), (-6, 1, 1),
        ])
        assert coeff_b(sys7, 1, 1) == want

    def test_f0_e0_weight_pair(self, battery):
        for sys_ in battery:
            for m in range(1, sys_.r + 1):
                got = coeff_f(sys_, m, 0) * coeff_e(sys_, m, 0)
                want = alpha_weight_sum(sys_, sys_.r, m - 1) \
                    .scale_by_monomial(0, m - 1, 1)
                want = want + alpha_weight_sum(sys_, sys_.r, m) \
                    .scale_by_monomial(0, m, 1)
                assert got == want, (sys_.N, m)

    def test_transform_coefficients_match(self, battery):
        for sys_ in battery:
            for m in range(1, sys_.r + 1):
                for j in range(1, sys_.r + 1):
                    assert verify_Tmj(sys_, m, j), (sys_.N, m, j)


class TestLimit:
    def test_constant_term(self, battery):
        for sys_ in battery:
            assert limit_u(sys_, 0) == QLaurent.one(0)

    def test_flagship_coefficient(self, sys7):
        assert limit_u(sys7, 8).coefficient(8) == DPoly({0: 1, 1: 2, 2: 1})

    def test_equals_product(self, sys9):
        assert limit_u(sys9, 40) == product_F(sys9, 40)

    def test_d0_equals_distinct_product(self, sys7):
        lim = limit_u(sys7, 25).d0()
        want = QLaurent.one(25)
        for g in sys7.a:
            want = want * pochhammer_expand(-1, 0, 7 - g, 7, None, 25)
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
        real = recurrence_engine.build_rec_row

        def shifted(sys, ell, trunc):
            row = real(sys, ell, trunc)
            rhs = tuple(c.scale_by_monomial(-1, 0, 1) for c in row.rhs)
            return recurrence_engine.RecRow(lhs=row.lhs, rhs=rhs, ell=ell)
        monkeypatch.setattr(recurrence_engine, "build_rec_row", shifted)
        with pytest.raises(NegativeExponents):
            recurrence_engine.run_recurrence(sys7, 2, 10)

    def test_not_stabilized_diagnostic(self, sys7, monkeypatch):
        def drifting(sys, ell_max, trunc):
            return [QLaurent.monomial(trunc, 0, 0, ell + 1)
                    for ell in range(ell_max + 1)]
        monkeypatch.setattr(recurrence_engine, "run_recurrence", drifting)
        with pytest.raises(NotStabilized):
            recurrence_engine.limit_u(sys7, 10)


class TestChain:
    def test_two_generator_chain(self, sys3):
        report = verify_chain(sys3, 8, 8, 30)
        assert report.verdict == "pass"
        assert [st.name for st in report.stages] == [
            "rec_prime", "eq", "eq_prime", "eq_dprime", "rec_dprime",
            "rec_reduced", "mu_limit"]
        assert all(st.residual_zero for st in report.stages)

    def test_state_consistency(self, sys3):
        report = verify_chain(sys3, 6, 6, 20)
        state = report.state
        work = state.u[0].trunc
        one = QLaurent.one(work)
        assert state.f.coeffs[0] == one
        assert state.g == state.f
        assert state.mu[0] == one
        assert state.s == list(state.G.coeffs)
        # beta_l * prod (1 - q^(jN)) == u_l * prod (1 - d q^(jN - a(r)))
        num, den = one, one
        for ell in range(1, 7):
            num = num * (one - QLaurent.monomial(work, 3 * ell - 2, 1))
            den = den * (one - QLaurent.monomial(work, 3 * ell))
            assert state.beta[ell] * den == state.u[ell] * num

    def test_degenerate_x_trunc(self, sys7):
        report = verify_chain(sys7, 0, 0, 10)
        assert report.verdict == "pass"

    def test_report_json_shape(self, sys3):
        obj = verify_chain(sys3, 4, 4, 12).to_json_obj()
        assert obj["system"] == {"N": 3, "a": [1, 2]}
        assert obj["verdict"] == "pass"
        assert {"name": "rec_prime", "residual_zero": True} in obj["stages"]
        assert len(obj["stages"]) == 7

    def test_needs_two_generators(self):
        sys2 = build_system([1], 2)
        with pytest.raises(ValueError):
            verify_chain(sys2, 4, 4, 10)

    def test_round_trip_mismatch_raises(self, sys3, monkeypatch):
        # a "quotient" that is the dividend itself cannot multiply back
        monkeypatch.setattr(XSeries, "divide", lambda self, den: self)
        with pytest.raises(RoundTripMismatch):
            verify_chain(sys3, 4, 4, 12)

    def test_broken_chain_reports_stage(self, sys3, monkeypatch):
        # corrupt the reduced-product comparison to exercise the failure path
        def wrong_product(sys, trunc):
            return QLaurent.monomial(trunc, 1, 0, 42) + QLaurent.one(trunc)
        monkeypatch.setattr(recurrence_engine, "product_F", wrong_product)
        with pytest.raises(ChainBroken) as exc:
            recurrence_engine.verify_chain(sys3, 6, 6, 15)
        assert exc.value.stage == "mu_limit"
        assert exc.value.report.verdict == "fail"
        names_ok = [st.name for st in exc.value.report.stages
                    if st.residual_zero]
        assert "rec_prime" in names_ok

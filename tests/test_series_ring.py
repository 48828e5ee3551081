import json

import pytest
from hypothesis import given, settings, strategies as st

from overpart import (
    DPoly,
    NonUnitLeadingTerm,
    QLaurent,
    TruncationMismatch,
    XSeries,
    build_system,
    count_F,
    product_F,
    qbinomial,
    series_ring,
)

from conftest import (admissible_systems, brute_table, d0, div_packed,
                      divide, factor_product, mul_packed, packed)


# -- independent oracles ----------------------------------------------


def product_by_one_term_divisions(sys, trunc):
    """The product of :func:`product_F` built on ``QLaurent`` one factor
    at a time: a shift-and-add for each ``1 + q^e`` and a one-term
    division for each ``1 - d q^e``."""
    result = QLaurent.one(trunc)
    for g in sys.a:
        for e in range((sys.N - g) or sys.N, trunc + 1, sys.N):
            result = result + result.scale_by_monomial(e)
            result = divide(result, QLaurent.one(trunc)
                            + QLaurent.monomial(trunc, e, 1, -1))
    return result


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def poly_divide_exact(num, den):
    """Exact quotient of integer polynomials, coefficients ascending."""
    num = list(num)
    quo = [0] * (len(num) - len(den) + 1)
    lead = den[-1]
    for i in range(len(quo) - 1, -1, -1):
        c = num[i + len(den) - 1]
        assert c % lead == 0
        quo[i] = c // lead
        for j, y in enumerate(den):
            num[i + j] -= quo[i] * y
    assert all(c == 0 for c in num)
    return quo


def gauss_binomial_oracle(m, r):
    """[m r]_q via the defining product formula and exact division."""
    if r < 0 or r > m:
        return []
    num = [1]
    for i in range(r):
        num = poly_mul(num, [1] + [0] * (m - i - 1) + [-1])
    den = [1]
    for i in range(1, r + 1):
        den = poly_mul(den, [1] + [0] * (i - 1) + [-1])
    return poly_divide_exact(num, den)


def distinct_partition_count(n):
    """Partitions of n into distinct parts, by direct recursion."""
    def rec(rem, biggest):
        if rem == 0:
            return 1
        return sum(rec(rem - s, s) for s in range(min(rem, biggest - 1), 0, -1))
    return rec(n, n + 1)


def even_partitions_by_length(n):
    """Partitions of n into even parts, counted by number of parts."""
    out = {}

    def rec(rem, biggest, length):
        if rem == 0:
            out[length] = out.get(length, 0) + 1
            return
        for s in range(min(rem, biggest), 1, -1):
            if s % 2 == 0:
                rec(rem - s, s, length + 1)

    rec(n, n, 0)
    return out


# -- DPoly -------------------------------------------------------------


class TestDPoly:
    def test_arithmetic(self):
        # a DPoly has no arithmetic; QLaurent runs it on the coefficients,
        # here on series of one exponent
        def at(e, coeffs):
            return QLaurent(3, {e: DPoly(coeffs)})

        p, q = at(1, {0: 1, 1: 2}), at(1, {1: -2, 2: 5})
        assert p + q == at(1, {0: 1, 2: 5})
        assert p - p == QLaurent.zero(3)
        assert (p - p).coefficient(1) == DPoly()
        assert -p == at(1, {0: -1, 1: -2})
        assert p * q == at(2, {1: -2, 2: 1, 3: 10})
        assert p * 3 == at(1, {0: 3, 1: 6})
        assert p.scale_by_monomial(0, 2) == at(1, {2: 1, 3: 2})
        assert p.scale_by_monomial(2, 2) == at(3, {2: 1, 3: 2})
        assert (p * q).coefficient_int(2, 0) == 0
        assert p == p + QLaurent.zero(3)
        assert at(0, {0: 4}) == 4 and DPoly({0: 4}) != 4

    def test_no_negative_degrees(self):
        with pytest.raises(ValueError):
            DPoly({-1: 2})

    def test_str(self):
        assert str(DPoly({0: 1, 1: 2, 2: 1})) == "1 + 2*d + d^2"
        assert str(DPoly()) == "0"
        assert str(DPoly({1: -1})) == "-d"

    def test_qlaurent_str(self):
        x = QLaurent.from_terms(3, [(-1, 1, 2), (0, 0, 1), (2, 1, -1)])
        assert str(x) == "(2*d)*q^-1 + (1) + (-d)*q^2"
        assert str(QLaurent.zero(3)) == "0"


# -- QLaurent ring ops --------------------------------------------------


class TestRingOps:
    def test_difference_of_squares(self):
        one = QLaurent.one(10)
        q = QLaurent.monomial(10, 1)
        got = (one + q) * (one - q)
        assert got == one - QLaurent.monomial(10, 2)

    def test_scale_by_monomial_negative_exponent(self):
        f = QLaurent.one(10)
        got = f.scale_by_monomial(-3, 1) * -1
        assert got == QLaurent.monomial(10, -3, 1, -1)
        assert got.min_exp == -3

    def test_laurent_product(self):
        lhs = QLaurent.from_terms(5, [(-1, 0, 1), (0, 0, 1)])   # q^-1 + 1
        rhs = QLaurent.from_terms(5, [(1, 0, 1), (0, 1, 1)])    # q + d
        got = lhs * rhs
        want = QLaurent.from_terms(
            5, [(0, 0, 1), (1, 0, 1), (-1, 1, 1), (0, 1, 1)])
        assert got == want

    def test_truncation_drops_high_terms(self):
        q = QLaurent.monomial(3, 2)
        assert (q * q).is_zero()

    def test_mixed_truncations_rejected(self):
        with pytest.raises(TruncationMismatch):
            QLaurent.one(5) + QLaurent.one(6)
        with pytest.raises(TruncationMismatch):
            QLaurent.one(5) * QLaurent.one(6)
        with pytest.raises(TruncationMismatch):
            divide(QLaurent.one(5), QLaurent.one(6))
        with pytest.raises(TruncationMismatch):   # before the unit check
            divide(QLaurent.one(5), QLaurent.monomial(6, 1))

    def test_divide_roundtrip(self):
        den = QLaurent.from_terms(12, [(0, 0, 1), (1, 1, -1), (3, 0, 2)])
        num = QLaurent.from_terms(12, [(-2, 0, 3), (0, 2, 1), (5, 1, -4)])
        quo = divide(num, den)
        assert quo * den == num
        assert quo.min_exp == -2

    def test_divide_requires_unit(self):
        for bad in ([(1, 0, 1)], [(-1, 0, 1), (0, 0, 1)], [(0, 0, 2)],
                    [(0, 1, 1)], [(0, 0, 1), (0, 1, 1)], []):
            for num in (QLaurent.one(5), QLaurent.zero(5)):
                with pytest.raises(NonUnitLeadingTerm):
                    divide(num, QLaurent.from_terms(5, bad))

    def test_d0_specialization(self):
        f = QLaurent.from_terms(6, [(0, 0, 1), (2, 1, 5), (2, 0, -3)])
        assert d0(f) == QLaurent.from_terms(6, [(0, 0, 1), (2, 0, -3)])

    def test_with_trunc(self):
        f = QLaurent.from_terms(6, [(0, 0, 1), (5, 0, 2)])
        low = f.with_trunc(3)
        assert low.trunc == 3 and low == QLaurent.one(3)
        assert f.with_trunc(9).coefficient(5) == DPoly({0: 2})

    def test_json_canonical_shape(self):
        f = QLaurent.from_terms(4, [(2, 1, -3), (-1, 0, 7)])
        obj = f.to_json_obj()
        assert obj == {
            "trunc": 4,
            "terms": [{"q": -1, "d": 0, "c": "7"},
                      {"q": 2, "d": 1, "c": "-3"}],
        }
        json.dumps(obj)  # serializable


term_lists = st.lists(
    st.tuples(st.integers(-4, 8), st.integers(0, 3), st.integers(-9, 9)),
    max_size=6)


class TestRingLaws:
    @given(term_lists, term_lists, term_lists)
    @settings(max_examples=60, deadline=None)
    def test_associativity_without_truncation(self, tf, tg, th):
        # at a truncation no triple product can reach, the Laurent
        # polynomials multiply exactly and associativity is exact
        f, g, h = (QLaurent.from_terms(100, t) for t in (tf, tg, th))
        assert (f * g) * h == f * (g * h)

    @given(term_lists, term_lists, term_lists)
    @settings(max_examples=60, deadline=None)
    def test_distributivity(self, tf, tg, th):
        # addition never moves exponents, so this survives truncation
        f, g, h = (QLaurent.from_terms(8, t) for t in (tf, tg, th))
        assert f * (g + h) == f * g + f * h

    @given(term_lists, term_lists)
    @settings(max_examples=60, deadline=None)
    def test_commutativity(self, tf, tg):
        f, g = (QLaurent.from_terms(8, t) for t in (tf, tg))
        assert f * g == g * f
        assert f + g == g + f

    @given(term_lists)
    @settings(max_examples=30, deadline=None)
    def test_one_is_identity(self, tf):
        f = QLaurent.from_terms(8, tf)
        assert f * QLaurent.one(8) == f
        assert f + QLaurent.zero(8) == f

    @given(term_lists, st.integers(0, 8), st.integers(0, 1),
           st.sampled_from((1, -1)))
    @settings(max_examples=60, deadline=None)
    def test_factor_by_shift_and_add(self, tf, e, k, c):
        # how every product site applies one factor 1 + c d^k q^e; for
        # e >= 1 the factor starts with 1, so dividing by it undoes it.
        # e stays at or below trunc: a built factor drops a q^e past it,
        # which q^-1 * q^e could bring back into range
        x = QLaurent.from_terms(8, tf)
        factor = QLaurent.one(8) + QLaurent.monomial(8, e, k, c)
        got = x + x.scale_by_monomial(e, k) * c
        assert got == x * factor
        if e >= 1:
            assert divide(got, factor) == x

    def test_truncation_is_not_associative_past_the_bound(self):
        # the boundary case that motivates the explicit headroom used by
        # the chain checks: q^-1 * (q^4 * q^5) truncates the inner
        # product away while the other grouping keeps q^8
        f = QLaurent.monomial(8, -1)
        g = QLaurent.monomial(8, 4)
        h = QLaurent.monomial(8, 5)
        assert ((f * g) * h) == QLaurent.monomial(8, 8)
        assert (f * (g * h)).is_zero()


# -- Gaussian binomials --------------------------------------------------


class TestQBinomial:
    def test_known_expansion(self):
        assert qbinomial(4, 2, 1) == QLaurent.from_terms(
            4, [(0, 0, 1), (1, 0, 1), (2, 0, 2), (3, 0, 1), (4, 0, 1)])

    def test_zero_choose(self):
        assert qbinomial(5, 0, -3) == QLaurent.one(0)

    def test_negative_base(self):
        assert qbinomial(3, 1, -2) == QLaurent.from_terms(
            0, [(0, 0, 1), (-2, 0, 1), (-4, 0, 1)])

    def test_out_of_range_is_zero(self):
        assert qbinomial(3, -1, 1).is_zero()
        assert qbinomial(3, 4, 1).is_zero()

    def test_against_product_formula_oracle(self):
        for m in range(9):
            for r in range(m + 1):
                want = gauss_binomial_oracle(m, r)
                got = qbinomial(m, r, 1, trunc=len(want))
                assert got == QLaurent.from_terms(
                    len(want), ((i, 0, c) for i, c in enumerate(want)))

    def test_zero_base_rejected(self):
        with pytest.raises(ValueError):
            qbinomial(4, 2, 0)

    @pytest.mark.parametrize("base", [1, -1, -7])
    def test_pascal_identities(self, base):
        # both q-analogues of the Pascal rule, as exact equalities
        trunc = 12 * 12 * abs(base)
        for m in range(1, 13):
            for r in range(m + 1):
                full = qbinomial(m, r, base, trunc)
                left = qbinomial(m - 1, r, base, trunc)
                diag = qbinomial(m - 1, r - 1, base, trunc)
                assert full == left.scale_by_monomial(base * r) + diag
                assert full == left + diag.scale_by_monomial(base * (m - r))

    def test_qbinomial_theorem(self):
        # prod_(k<n) (1 + q^k t) = sum_k q^(k(k-1)/2) [n k] t^k
        # with t a signed monomial in q and d
        for n in range(0, 7):
            for e in (-9, -1, 0, 2, 7):
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
                            term = qbinomial(n, k, 1, trunc)
                            tot = tot + term.scale_by_monomial(
                                k * (k - 1) // 2 + k * e, k * ddeg) * sign ** k
                        assert prod == tot, (n, e, sign, ddeg)

    def test_product_swap_identity(self):
        # [m-1 k][j+m-k-1 m-1] = [j k][j+m-k-1 m-k-1] at negative bases
        for base in (-1, -7):
            for m in range(0, 6):
                for j in range(0, 6):
                    for k in range(0, 6):
                        lhs = qbinomial(m - 1, k, base, 0) * qbinomial(
                            j + m - k - 1, m - 1, base, 0)
                        rhs = qbinomial(j, k, base, 0) * qbinomial(
                            j + m - k - 1, m - k - 1, base, 0)
                        assert lhs == rhs, (base, m, j, k)


# -- Pochhammer products -------------------------------------------------


class TestPochhammer:
    def test_distinct_parts_expansion(self):
        # every part is 0 mod 1: (-q; q)_inf / (d q; q)_inf counts all
        # overpartitions, and at d = 0 the partitions into distinct parts
        got = product_F(build_system([1], 1), 12)
        assert got == brute_table(12, lambda parts: True)
        dist = d0(got)
        for n in range(13):
            assert dist.coefficient_int(n, 0) == distinct_partition_count(n)
        # frozen low-order values
        assert [dist.coefficient_int(n, 0) for n in range(6)] == \
            [1, 1, 1, 2, 2, 3]

    def test_inverse_even_parts(self):
        # 1 / (d q^2; q^2)_inf, one factor 1 - d q^e divided out at a time
        inv = QLaurent.one(10)
        for e in range(2, 11, 2):
            inv = divide(
                inv, QLaurent.one(10) + QLaurent.monomial(10, e, 1, -1))
        # q^6: even-part partitions by length: 2+2+2, 4+2, 6
        assert inv.coefficient(6) == DPoly({1: 1, 2: 1, 3: 1})
        for n in range(0, 11, 2):
            want = even_partitions_by_length(n)
            for length, cnt in want.items():
                assert inv.coefficient_int(n, length) == cnt


class TestProductF:
    def test_flagship_coefficients(self, sys7):
        f = product_F(sys7, 8)
        assert f.coefficient(8) == DPoly({0: 1, 1: 2, 2: 1})
        assert f.coefficient(0) == DPoly({0: 1})
        assert f.coefficient(1).is_zero()

    def test_d0_specializes_to_distinct_product(self, battery):
        for sys_ in battery:
            full = d0(product_F(sys_, 25))
            dist = QLaurent.one(25)
            for g in sys_.a:
                dist = dist * factor_product(25, range(sys_.N - g, 26, sys_.N))
            assert full == dist

    @pytest.mark.parametrize("N", [1, 2, 3, 5])
    def test_generator_equal_to_modulus(self, N):
        # parts are 0 mod N, so the factors start at q^N, not at q^0
        sys_ = build_system([N], N)
        assert product_F(sys_, 20) == count_F(sys_, 20)

    def test_battery_matches_one_factor_route(self, battery):
        for sys_ in battery:
            for trunc in (0, 1, 30, 60):
                assert product_F(sys_, trunc) \
                    == product_by_one_term_divisions(sys_, trunc), \
                    (sys_.N, trunc)

    @settings(max_examples=25, deadline=None)
    @given(admissible_systems(r_max=3), st.sampled_from([0, 1, 30, 60]))
    def test_drawn_systems_match_one_factor_route(self, system, trunc):
        sys_ = build_system(system[1], system[0])
        assert product_F(sys_, trunc) \
            == product_by_one_term_divisions(sys_, trunc)


# -- packed coefficients -------------------------------------------------


@st.composite
def packable_series(draw):
    """``(width, series)`` with every coefficient in the signed slot
    range of ``width`` bits, the slot edges drawn often."""
    width = draw(st.integers(2, 70))
    top = 1 << (width - 1)
    coeff = st.one_of(st.sampled_from([top - 1, -(top - 1), -top, 1, -1]),
                      st.integers(-top, top - 1))
    terms = draw(st.lists(
        st.tuples(st.integers(-5, 12), st.integers(0, 8), coeff),
        max_size=30, unique_by=lambda t: t[:2]))
    return width, QLaurent.from_terms(12, terms)


class TestPacked:
    @settings(max_examples=200, deadline=None)
    @given(packable_series())
    def test_round_trip(self, case):
        width, series = case
        slots = packed(series, width)
        assert QLaurent._from_packed(12, slots.items(), width) == series

    @pytest.mark.parametrize("width", [2, 3, 29, 64])
    def test_slot_edges_next_to_each_other(self, width):
        top = 1 << (width - 1)
        row = {0: -top, 1: top - 1, 2: -(top - 1), 3: -top, 4: -1, 6: 1}
        series = QLaurent.from_terms(
            3, [(e, k, c) for e in (-1, 3) for k, c in row.items()])
        slots = packed(series, width)
        assert set(slots) == {-1, 3}
        assert QLaurent._from_packed(3, slots.items(), width) == series

    def test_sums_and_products_stay_exact(self):
        # d -> 2^width is a ring map: the packed product of two series
        # reads back as their product while its coefficients fit
        width = 12
        a = QLaurent.from_terms(6, [(0, 0, 1), (1, 1, -3), (2, 3, 7)])
        b = QLaurent.from_terms(6, [(0, 2, -5), (3, 0, 2), (4, 1, 1)])
        pa, pb = packed(a, width), packed(b, width)
        prod = {}
        for e1, x in pa.items():
            for e2, y in pb.items():
                if e1 + e2 <= 6:
                    prod[e1 + e2] = prod.get(e1 + e2, 0) + x * y
        assert QLaurent._from_packed(6, prod.items(), width) == a * b
        summed = {e: pa.get(e, 0) + pb.get(e, 0) for e in pa.keys() | pb}
        assert QLaurent._from_packed(6, summed.items(), width) == a + b


# -- the product and the packed quotient kernels ------------------------
#
# ``ref_mul`` and ``ref_divide`` are the ring's product and quotient
# written out on ``DPoly`` coefficients, apart from the package: the
# convolution that ``QLaurent.__mul__`` runs, kept here so that a change
# to it is checked, and the coefficient recursion that the packed
# division kernels must match.


def ref_mul(a, b):
    acc = {}
    for e1, p1 in a.coeffs.items():
        for e2, p2 in b.coeffs.items():
            e = e1 + e2
            if e > a.trunc:
                continue
            row = acc.setdefault(e, {})
            for d1, c1 in p1.coeffs.items():
                for d2, c2 in p2.coeffs.items():
                    row[d1 + d2] = row.get(d1 + d2, 0) + c1 * c2
    return QLaurent.from_terms(a.trunc, ((e, k, c) for e, row in acc.items()
                                         for k, c in row.items()))


def ref_divide(num, den):
    """``num / den`` by the coefficient recursion, for ``den`` starting
    with the constant 1 at ``q^0``."""
    if num.is_zero():
        return QLaurent.zero(num.trunc)
    den_items = sorted((e, p) for e, p in den.coeffs.items() if e > 0)
    nmin = num.min_exp
    quo = {}
    for e in range(nmin, num.trunc + 1):
        row = dict(num.coeffs[e].coeffs) if e in num.coeffs else {}
        for ed, pd in den_items:
            prev = quo.get(e - ed)
            if prev is None:
                continue
            for d1, c1 in pd.coeffs.items():
                for d2, c2 in prev.coeffs.items():
                    row[d1 + d2] = row.get(d1 + d2, 0) - c1 * c2
        row = {k: c for k, c in row.items() if c}
        if row:
            quo[e] = DPoly(row)
    return QLaurent(num.trunc, quo)


BIG = 2 ** 64 - 1

kernel_coeffs = st.one_of(st.integers(-9, 9),
                          st.sampled_from([BIG, -BIG, 2 ** 40, -2 ** 40]))


@st.composite
def kernel_series(draw, trunc=10, low=-4, unit=False):
    """A series at ``trunc`` with negative exponents and coefficients; with
    ``unit``, a divisor: the constant 1 plus terms above ``q^0``."""
    terms = draw(st.lists(
        st.tuples(st.integers(1 if unit else low, trunc), st.integers(0, 4),
                  kernel_coeffs), max_size=8))
    if unit:
        terms.append((0, 0, 1))
    return QLaurent.from_terms(trunc, terms)


def geometric(n, trunc):
    """``sum_(i<n) q^i``."""
    return QLaurent.from_terms(trunc, ((i, 0, 1) for i in range(n)))


def fibonacci_series(trunc):
    fib = [1, 1]
    while len(fib) <= trunc:
        fib.append(fib[-1] + fib[-2])
    return QLaurent.from_terms(trunc, ((n, 0, fib[n])
                                       for n in range(trunc + 1)))


class TestPackedKernels:
    @settings(max_examples=150, deadline=None)
    @given(kernel_series(), kernel_series())
    def test_product_matches_the_dpoly_reference(self, a, b):
        assert a * b == ref_mul(a, b)

    @settings(max_examples=150, deadline=None)
    @given(kernel_series(), kernel_series(unit=True))
    def test_quotient_matches_the_dpoly_reference(self, num, den):
        quo = divide(num, den)
        assert quo == ref_divide(num, den)
        assert quo * den == num

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 8, 9, 64, 1024])
    def test_square_whose_middle_meets_the_bound(self, n):
        # the q^(n-1) coefficient of the square is n = L1 * max, the bound
        # on a sum of products met exactly, a power of two among them
        g = geometric(n, 2 * n)
        sq = g * g
        assert sq.coefficient_int(n - 1, 0) == n
        assert sq == ref_mul(g, g)
        assert g * -g == -sq

    @pytest.mark.parametrize("trunc", [2, 3, 5, 30, 91, 200])
    def test_quotient_that_meets_its_majorant(self, trunc):
        # 1 / (1 - q - q^2) is its own majorant: the Fibonacci numbers
        den = QLaurent.from_terms(trunc, [(0, 0, 1), (1, 0, -1), (2, 0, -1)])
        quo = divide(QLaurent.one(trunc), den)
        assert quo == fibonacci_series(trunc)
        shifted = divide(QLaurent.monomial(trunc, -3, 2, -1), den)
        assert shifted == (fibonacci_series(trunc + 3).scale_by_monomial(
            -3, 2) * -1).with_trunc(trunc)

    def test_coefficients_of_64_bits(self):
        a = QLaurent.from_terms(6, [(-2, 0, BIG), (0, 3, -BIG), (4, 1, 1)])
        b = QLaurent.from_terms(6, [(0, 0, -BIG), (2, 2, BIG), (3, 0, BIG)])
        assert a * b == ref_mul(a, b)
        den = QLaurent.from_terms(6, [(0, 0, 1), (1, 1, -BIG), (2, 0, BIG)])
        assert divide(a, den) == ref_divide(a, den)
        assert max(abs(c) for *_, c in (a * b).terms()) == BIG ** 2

    def test_zero_operands(self):
        # the quotient's bound is 0, and its slots still take the 2 bits
        # read-back needs
        zero, x = QLaurent.zero(5), QLaurent.from_terms(5, [(-1, 2, 7)])
        assert (zero * x).is_zero() and (x * zero).is_zero()
        assert divide(zero, QLaurent.one(5) + x.scale_by_monomial(3)) == zero

    def test_one_bit_slots_are_rejected(self):
        # a 1-bit slot reads 1 as -1 and would carry it back forever
        with pytest.raises(ValueError, match="slot width 1"):
            QLaurent._from_packed(3, [(0, 1)], 1)


# -- the row kernels against the dict-keyed ones -----------------------
#
# A row ends at q^trunc and starts where its length says; the references
# ``mul_packed`` and ``div_packed`` run on the same ints as ``{e: int}``
# maps.

row_ints = st.one_of(st.integers(-9, 9),
                     st.sampled_from([0, BIG, -BIG, 2 ** 40, -2 ** 40]))
# the kernels add or subtract a row with no multiplication at +-1
factor_ints = st.one_of(st.sampled_from([1, -1]), row_ints)
truncs = st.sampled_from([0, 1, 2, 7, 12])


def rows(trunc, low=-3):
    """A row of ``q^start .. q^trunc`` for some ``low <= start <= 0``,
    often all zero."""
    return st.integers(low, 0).flatmap(lambda start: st.one_of(
        st.just([0] * (trunc + 1 - start)),
        st.lists(row_ints, min_size=trunc + 1 - start,
                 max_size=trunc + 1 - start)))


def multipliers(trunc):
    """An ``{e: int}`` map with terms below ``q^0`` and past ``trunc``."""
    return st.dictionaries(st.integers(-5, trunc + 3), factor_ints,
                           max_size=4)


def row_map(row, trunc):
    """The nonzero entries of a row ending at ``q^trunc``, keyed by
    exponent."""
    return {e: c for e, c in enumerate(row, trunc + 1 - len(row)) if c}


def nonzero(x):
    return {e: c for e, c in x.items() if c}


class TestRowKernels:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_product_matches_the_dict_kernel(self, data):
        trunc = data.draw(truncs)
        pairs = data.draw(st.lists(st.tuples(multipliers(trunc), rows(trunc)),
                                   max_size=3))
        got = series_ring._mul_rows(pairs, trunc)
        # the result starts at the least exponent a multiplier term reaches
        # on its row, or at q^0, and nothing below it is dropped
        assert trunc + 1 - len(got) == min([0, *(
            e + trunc + 1 - len(b) for a, b in pairs for e in a)])
        want = mul_packed([(a, row_map(b, trunc)) for a, b in pairs], trunc)
        assert row_map(got, trunc) == nonzero(want)

    @pytest.mark.parametrize("trunc", [0, 3])
    def test_product_of_nothing_is_a_zero_row(self, trunc):
        assert series_ring._mul_rows([], trunc) == [0] * (trunc + 1)
        assert series_ring._mul_rows([({}, [1] * (trunc + 1))], trunc) \
            == [0] * (trunc + 1)
        assert series_ring._mul_rows([({-2: 5}, [0] * (trunc + 1))],
                                     trunc) == [0] * (trunc + 3)

    @settings(max_examples=200, deadline=None)
    @given(st.data(), st.lists(st.tuples(st.integers(1, 15), factor_ints),
                               max_size=4))
    def test_quotient_matches_the_dict_kernel(self, data, factors):
        # shifts run past trunc, where a factor leaves the row as it is; a
        # row from q^low reads the divisor up to q^(trunc - low)
        trunc = data.draw(truncs)
        row = data.draw(rows(trunc))
        den = {0: 1}
        for s, c in factors:
            den = mul_packed([(den, {0: 1, s: -c})], len(row) - 1)
        got = series_ring._div_row(list(row), factors)
        assert len(got) == len(row)
        assert row_map(got, trunc) \
            == div_packed(row_map(row, trunc), den, trunc)

    @settings(max_examples=100, deadline=None)
    @given(st.data(), st.integers(1, 15), factor_ints)
    def test_factor_step_matches_the_dict_kernel(self, data, s, c):
        trunc = data.draw(truncs)
        row = data.draw(rows(trunc))
        got = list(row)
        series_ring._binomial_step(got, s, c)
        assert row_map(got, trunc) == nonzero(mul_packed(
            [({0: 1, s: c}, row_map(row, trunc))], trunc))
        series_ring._binomial_step(got, s, -c, over=True)
        assert got == row


# -- XSeries -------------------------------------------------------------


class TestXSeries:
    def test_mul_and_divide_roundtrip(self):
        one = QLaurent.one(8)
        den = XSeries(3, [one, QLaurent.monomial(8, 2), one,
                          QLaurent.zero(8)])
        num = XSeries(3, [one, one, QLaurent.monomial(8, -1, 1), one])
        quo = num.divide(den)
        assert quo * den == num

    def test_divide_requires_unit_constant(self):
        one = QLaurent.one(8)
        bad = XSeries(1, [QLaurent.monomial(8, 1), one])
        with pytest.raises(NonUnitLeadingTerm):
            XSeries.one(1, 8).divide(bad)

    def test_truncation_mismatch(self):
        with pytest.raises(TruncationMismatch):
            XSeries.one(2, 5) + XSeries.one(3, 5)
        with pytest.raises(TruncationMismatch):
            XSeries.one(2, 5) * XSeries.one(2, 6)

    def test_shift_x(self):
        one = QLaurent.one(5)
        f = XSeries(2, [one, one * 2, one * 3])
        g = f.shift_x(1)
        assert g.coeffs[0].is_zero()
        assert g.coeffs[1] == one
        assert g.coeffs[2] == one * 2

import pytest
from hypothesis import strategies as st

from overpart import (DPoly, NonUnitLeadingTerm, QLaurent, beta,
                      build_system)
from overpart.cli import BATTERY


@pytest.fixture(scope="session")
def sys7():
    return build_system([1, 2, 4], 7)


@pytest.fixture(scope="session")
def sys3():
    return build_system([1, 2], 3)


@pytest.fixture(scope="session")
def sys9():
    return build_system([1, 3, 5], 9)


@pytest.fixture(scope="session")
def sys15():
    return build_system([1, 2, 4, 8], 15)


@pytest.fixture(scope="session")
def battery(sys3, sys7, sys9, sys15):
    return (sys3, sys7, sys9, sys15)


def gen_overpartitions(n, max_part=None):
    """Yield every overpartition of ``n`` with parts ``<= max_part`` once,
    as ``(size, overlined)`` pairs, sizes weakly decreasing: each size
    comes as one run whose first copy alone may be overlined."""
    if n == 0:
        yield ()
        return
    top = n if max_part is None else min(n, max_part)
    for size in range(top, 0, -1):
        for mult in range(1, n // size + 1):
            run = ((size, False),) * mult
            for rest in gen_overpartitions(n - mult * size, size - 1):
                yield run + rest
                yield ((size, True),) + run[1:] + rest


def in_gap_side(sys_, parts):
    """Membership in the gap side, written out from its definition:
    every part's residue ``beta(-size)`` is a subset sum, the smallest
    part ``p`` keeps ``p >= N (w(beta(-p)) - 1)``, and each adjacent pair
    keeps ``larger - smaller >= N (w(res) - 1 + [smaller overlined]) +
    v(res) - res`` with ``res = beta(-larger)``."""
    N, w, v = sys_.N, sys_.w_table, sys_.v_table
    res = [-size % N or N for size, _ in parts]
    if any(r not in w for r in res) or (
            parts and parts[-1][0] < N * (w[res[-1]] - 1)):
        return False
    return all(larger - smaller >= N * (w[r] - 1 + over) + v[r] - r
               for (larger, _), (smaller, over), r
               in zip(parts, parts[1:], res))


def brute_table(n_max, predicate):
    """Generate-and-filter: ``sum d^k q^n`` over the overpartitions of
    ``n <= n_max`` that ``predicate`` accepts, with ``k`` plain parts."""
    return QLaurent.from_terms(
        n_max, ((n, sum(not over for _, over in parts), 1)
                for n in range(n_max + 1)
                for parts in gen_overpartitions(n) if predicate(parts)))


def d0(series):
    """``series`` at ``d = 0``: its ``d^0`` terms."""
    return QLaurent.from_terms(series.trunc, (
        (e, 0, c) for e, k, c in series.terms() if k == 0))


def count_G_andrews_k0(sys_, n_max):
    """Ordinary-partition oracle for the zero-marker column.

    Counts partitions (no overlines) whose parts are congruent to some
    ``-alpha mod N``, where each adjacent pair keeps a gap of at least
    ``N * w(res) + v(res) - res`` with ``res = beta(-larger)`` the
    *larger* part's residue, and the smallest part ``p`` keeps ``p >= N
    * (w(beta(-p)) - 1)``, tested here and not through ``count_G``'s
    helper.  Indexing the gap by the smaller part instead provably breaks
    the count identity (it admits 11 + 3 of 14 in the (7, {1,2,4})
    system, whose congruence side has only 6 + 5 + 3), so the larger
    part it is.  Cross-checks the ``k = 0`` column of ``count_G``, which
    it reproduces through an independent code path.
    """
    if n_max < 0:
        raise ValueError("n_max must be non-negative")
    alpha_set = set(sys_.alpha)
    admissible = [s for s in range(1, n_max + 1)
                  if beta(sys_, -s) in alpha_set]
    memo = {}

    def completions(n_rem, prev):
        if n_rem == 0:
            w = sys_.w_table[beta(sys_, -prev)]
            return 1 if prev >= sys_.N * (w - 1) else 0
        key = (n_rem, prev)
        hit = memo.get(key)
        if hit is not None:
            return hit
        res = beta(sys_, -prev)
        need = sys_.N * sys_.w_table[res] + sys_.v_table[res] - res
        total = 0
        for s in admissible:
            if s > n_rem or s > prev - need:
                break
            total += completions(n_rem - s, s)
        memo[key] = total
        return total

    counts = [1] + [0] * n_max
    try:
        for first in admissible:
            for n in range(first, n_max + 1):
                counts[n] += completions(n - first, first)
    finally:
        # completions refers to itself, so the memo would otherwise wait
        # for the cycle collector once the counts are built
        memo.clear()
    return QLaurent(n_max, dict(enumerate(counts)))


def cells(series):
    """The nonzero ``(k, n)`` cells of a count series ``sum c d^k q^n``."""
    return {(k, n): c for n, k, c in series.terms()}


def factor_product(trunc, exps, d_deg=0, c=1):
    """``prod_(e in exps) (1 + c d^d_deg q^e)``, multiplied out with the
    general ``*``, so that it stays independent of the package's
    shift-and-add factor updates."""
    one = QLaurent.one(trunc)
    out = one
    for e in exps:
        out = out * (one + QLaurent.monomial(trunc, e, d_deg, c))
    return out


@st.composite
def admissible_systems(draw, r_min=1, r_max=3):
    """``(N, A)`` with ``r_min <= r <= r_max``, each generator 1 to 3 above
    the smaller ones' sum, and ``sum(A) <= N <= sum(A) + 3``."""
    a = []
    for _ in range(draw(st.integers(r_min, r_max))):
        a.append(sum(a) + draw(st.integers(1, 3)))
    return sum(a) + draw(st.integers(0, 3)), tuple(a)


# -- the dict-keyed packed kernels, references for the ring's row kernels


def mul_packed(pairs, trunc):
    """``sum a*b`` over the ``(a, b)`` of ``pairs``, each an ``{e: int}``
    map, dropping exponents above ``trunc``."""
    out = {}
    for a, b in pairs:
        b = sorted(b.items())
        for e1, x in a.items():
            lim = trunc - e1
            for e2, y in b:
                if e2 > lim:
                    break
                out[e1 + e2] = out.get(e1 + e2, 0) + x * y
    return out


def div_packed(num, den, trunc):
    """The quotient ``num / den`` up to ``trunc`` as an ``{e: int}`` map
    with no zero entry, for ``den`` with constant 1 (not read) and no
    exponent below 0."""
    low = min((e for e, c in num.items() if c), default=trunc + 1)
    den = sorted((e, c) for e, c in den.items() if e > 0)
    quo = {}
    for e in range(low, trunc + 1):
        c = num.get(e, 0)
        for ed, cd in den:
            if e - ed < low:
                break
            prev = quo.get(e - ed)
            if prev:
                c -= cd * prev
        if c:
            quo[e] = c
    return quo


def majorant(series):
    """``{e: sum_k |c|}`` over the terms ``c d^k q^e`` of a ``QLaurent``: a
    series in ``q`` alone whose coefficients bound those of ``series``."""
    return {e: sum(map(abs, p.coeffs.values()))
            for e, p in series.coeffs.items()}


def packed(series, width):
    """``{e: P_e(2**width)}`` for the coefficients ``P_e(d)`` of a
    ``QLaurent``: the coefficient of ``d^k q^e`` in the ``width``-bit slot
    at bit ``k * width`` (slots may borrow from each other, see
    ``QLaurent._from_packed``)."""
    return {e: sum(c << (k * width) for k, c in p.coeffs.items())
            for e, p in series.coeffs.items()}


def divide(num, den):
    """The reference quotient ``num / den`` of two ``QLaurent`` series, for
    ``den`` starting with the constant 1 at ``q**0`` (no negative
    exponents), on packed coefficients in slots that the quotient of the
    majorants ``|num| / (1 - |den - 1|)`` sizes."""
    den = num._coerce(den)
    num._require_same(den)
    if den.min_exp != 0 or den.coefficient(0) != DPoly({0: 1}):
        raise NonUnitLeadingTerm(
            "divisor must have leading coefficient 1 at q^0")
    bound = div_packed(majorant(num), {
        e: -c for e, c in majorant(den).items()}, num.trunc)
    width = max([1, *bound.values()]).bit_length() + 1
    return QLaurent._from_packed(num.trunc, div_packed(
        packed(num, width), packed(den, width), num.trunc).items(), width)

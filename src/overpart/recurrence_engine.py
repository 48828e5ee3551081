"""Recurrences and q-difference equations for the bounded counters.

Let ``g_m`` be the two-variable generating function (``q`` tracks the
number partitioned, ``d`` the non-overlined parts) for gap-condition
overpartitions with largest part at most ``m``.  This module builds the
whole ladder that connects those series to the congruence-side infinite
product:

* the peeling identities relating ``g`` at adjacent subset-sum cutoffs,
  at count level and at series level,
* the telescoped identities obtained by summing them below a generator,
* the elimination identity whose top case is the main recurrence for
  ``u_l = g_{lN - a(1)}``,
* the transformation chain that rewrites that recurrence, through two
  substitutions and three q-difference equations, into the same
  recurrence with one generator fewer,
* the limit evaluation: iterating the recurrence until the coefficients
  freeze and comparing with the infinite product.

Every check returns an exact residual (series or mismatch list); a
verification passes iff the residual is identically zero.  Negative
``g`` indices follow the band convention ``g_{-m} = (-d)^band`` with
``band = floor(m / N)`` clamped to ``r - 1``.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import deque, namedtuple
from functools import cached_property, lru_cache
from itertools import islice
from operator import add

from .alpha_system import MAX_GENERATORS, alpha_weight_sum, build_system
from .enumeration import _Completions
from .series_ring import (NonUnitLeadingTerm, QLaurent, _binomial_step,
                          _div_row, _first_term, _gauss_coeffs, _gaussian,
                          _mul_maps, _mul_rows, _read_row, _slot_width,
                          product_F)


class ConventionOutOfRange(ValueError):
    """Negative series index beyond the band convention's domain, or a
    system the band convention does not cover (``N = a(1)``)."""


class NotStabilized(RuntimeError):
    """Recurrence coefficients still moving at the stopping index."""


class NegativeExponents(RuntimeError):
    """A recurrence iterate has a term below ``q^0``."""


class RoundTripMismatch(RuntimeError):
    """Multiplying a quotient back by its divisor missed the dividend."""


class ChainBroken(RuntimeError):
    """A transformation-chain stage left a nonzero residual."""

    def __init__(self, stage, report):
        super().__init__(f"chain verification failed at stage {stage!r}")
        self.stage = stage
        self.report = report


def _sign(p):
    return -1 if p % 2 else 1


# -- bounded-largest-part series --------------------------------------


class _Ladder:
    """Every bounded counter ``g_m`` at one truncation, from one
    completions table.

    Rung ``i`` is ``g`` with largest part at most the ``i``-th admissible
    size ``first`` (rung 0 is the empty overpartition alone): the rung
    before it plus, for each ``n >= first``, the overpartitions of ``n``
    whose largest part is ``first``, one column of the table
    (:meth:`_Completions.column`).  A rung is a tuple of ``trunc + 1``
    ints, row ``n`` its ``q^n`` coefficient ``P_n(d)`` packed as
    ``P_n(2^width)``, where ``width`` is ``_slot_width(trunc)`` plus
    ``guard`` bits: :func:`_guard_bits`, or more for a ``width`` of at
    least ``least_width`` (:func:`verify_ladder`).  Rungs are built only as
    far as the bounds asked for so far need, so a lone small bound does not
    pay for the whole truncation.  A rung is appended only once it is
    complete, so an interrupted build leaves the ladder as it was.  A
    reader that reads the bounds in ascending windows drops the rungs below
    its window (:meth:`release`).
    """

    def __init__(self, sys, trunc, least_width=0):
        if trunc < 0:
            raise ValueError("trunc must be non-negative")
        self.sys, self.trunc = sys, trunc
        self.guard = max(_guard_bits(sys), least_width - _slot_width(trunc))
        self._table = _Completions(sys, trunc, self.guard)
        self.width = self._table.width
        self._sizes = self._table.admissible
        self._series = [(1,) + (0,) * trunc]
        self._released = 0      # rungs below this index are dropped

    def rung(self, m):
        """The packed rows of ``g_m`` for the largest-part bound ``m``, or
        for ``m <= 0`` of the band convention's ``(-d)^band``."""
        if m < 1:
            if -m > self.sys.r * self.sys.N:
                raise ConventionOutOfRange(
                    f"index {m} is below -r*N = -{self.sys.r * self.sys.N}")
            band = min(-m // self.sys.N, self.sys.r - 1)
            return (_sign(band) << band * self.width,) + (0,) * self.trunc
        c = bisect_right(self._sizes, m)
        if c < self._released:
            raise LookupError(f"the rung of g_{m} was released")
        while len(self._series) <= c:
            i = len(self._series) - 1
            first, prev = self._sizes[i], self._series[-1]
            self._series.append(prev[:first] + tuple(
                map(add, prev[first:], self._table.column(i))))
        if len(self._series) > len(self._sizes):
            self._table = None      # every rung is built
        return self._series[c]

    def release(self, bound):
        """Drop every rung that no bound above ``bound`` reads, but the last
        one built; reading a dropped rung raises ``LookupError``."""
        stop = min(bisect_right(self._sizes, bound + 1), len(self._series) - 1)
        for c in range(self._released, stop):
            self._series[c] = None
        self._released = max(self._released, stop)


@lru_cache(maxsize=1)   # for g_series and the views; verify_ladder has its own
def _ladder(sys, trunc):
    return _Ladder(sys, trunc)


def _require_ladder_domain(sys):
    """Reject a system outside the identity ladder's domain.

    ``build_system`` forces ``N > a(r)`` once there are two generators,
    so this is one generator with ``N = a(1)``.  There the ladder's
    identities are themselves false at ``j = 1`` or ``ell = 1``: on
    ``2/{2}`` the recurrence leaves ``lhs * g_0 - rhs = -1 - d`` at
    ``ell = 1``, since the band convention for ``g_0`` and below does
    not cover the case.  The counts and the product still agree there.
    """
    if sys.a[-1] == sys.N:
        raise ConventionOutOfRange(
            f"N = a(1) = {sys.N} lies outside the peeling and recurrence "
            "identities, which need N > a(r)")


def g_series(sys, m, trunc):
    """Generating function for gap-condition overpartitions, largest <= m.

    Read back fresh from the system's ladder, so a caller who changes it
    cannot reach the ladder; ``m <= 0`` gives the band convention's
    ``(-d)**band``, what the recurrences expect whenever a peeled
    subscript drops below zero.
    """
    ladder = _ladder(sys, trunc)
    return _read_row(trunc, ladder.width, ladder.rung(m))


def _guard_bits(sys):
    """``bits(t)`` for the largest ``t`` of a residual row
    (:func:`_residual_row`): 4 for lemma2's rows, 6 for the contraction's
    and ``2 + 2 len(alpha)`` for eq357's sums (:func:`_sum_rows`), and for
    the key lemma's at cutoff ``a(k)`` ``L1(lhs) + 1 + sum_j L1(rhs_j) <=
    2^(k-1) + 1 + sum_j 2^(j-1) sum_m L1(W_k(m, j))``.  The weight pairs
    ``W_k`` are exact at trunc 0, so this depends on neither ``ell`` nor
    ``trunc``; their coefficients are nonnegative and grow with ``k``, so
    the top cutoff's table of :func:`_weight_pairs` bounds every ``k``.
    """
    r = sys.r
    pairs = _weight_pairs(sys, r + 1)
    key = 2 ** r + 1 + sum(
        2 ** (j - 1) * abs(c) for j in range(1, r + 1)
        for m in range(1, r + 2 - j) for c in pairs[m, j].values())
    return max(6, 2 + 2 * len(sys.alpha), key).bit_length()


def _require_guard(ladder, units):
    """Every ladder count is at most ``pbar(trunc)``, so a sum of ``units``
    unit multiples of rungs has each coefficient below ``2^bits(units)
    pbar(trunc)`` in absolute value: below the slots' sign bit if
    ``bits(units)`` is within the ladder's guard.  Raise ``OverflowError``
    if not."""
    if units.bit_length() > ladder.guard:
        raise OverflowError(
            f"a sum of {units} unit rows needs more than the {ladder.guard} "
            f"guard bits of its ladder's {ladder.width}-bit slots")


def _residual_row(ladder, terms):
    """``sum c d^k q^e g_m`` over the ``(e, k, c, m)`` of ``terms`` as a
    row, one ``_mul_rows`` call on the ladder's packed rungs, each rung's
    terms one ``{e: c 2^(k width)}`` map.  Its last entry is the ``q^trunc``
    coefficient; it reaches below ``q^0`` only if some term does.

    Checked by :func:`_require_guard` for ``sum |c|`` units, so the sum,
    exact as ``d -> 2^width`` is a ring map, is zero iff every entry is,
    and reads back exactly (:func:`_read_row`).
    """
    _require_guard(ladder, sum(abs(c) for _, _, c, _ in terms))
    maps = {}
    for e, k, c, m in terms:
        a = maps.setdefault(m, {})
        a[e] = a.get(e, 0) + (c << k * ladder.width)
    return _mul_rows([(a, ladder.rung(m)) for m, a in maps.items()],
                     ladder.trunc)


def _peel_cutoffs(sys, j, m):
    """``(alpha(m), alpha(m+1))`` for the peeling identities at ``(j, m)``;
    the subset sum after the last one is ``a_ext = N + a(1)``."""
    if j < 1:
        raise ValueError("j must be >= 1")
    if not 1 <= m <= len(sys.alpha):
        raise ValueError(f"m outside 1..{len(sys.alpha)}")
    _require_ladder_domain(sys)
    am1 = sys.alpha[m] if m < len(sys.alpha) else sys.a_ext
    return sys.alpha[m - 1], am1


def _peeled(sys, j, al):
    """Minus what peeling ``al`` removes, ``q^(jN-al) (g[(j-w)N-v] + d
    g[(j-w+1)N-v])`` with ``w, v`` its weight data, as residual terms."""
    N = sys.N
    w, v = sys.w_table[al], sys.v_table[al]
    return [(j * N - al, 0, -1, (j - w) * N - v),
            (j * N - al, 1, -1, (j - w + 1) * N - v)]


def _peel_row(ladder, j, m):
    """The residual row (:func:`_residual_row`) of the series-level peeling
    identity at ``(j, m)`` (:func:`verify_lemma2`)."""
    sys = ladder.sys
    am, am1 = _peel_cutoffs(sys, j, m)
    return _residual_row(ladder, [
        (0, 0, 1, j * sys.N - am), (0, 0, -1, j * sys.N - am1),
        *_peeled(sys, j, am)])


def _sum_rows(ladder, rows):
    """Yield eq357's sum residual rows at one ``j``, for ``k = 1 .. r + 1``,
    from ``rows``, lemma2's rows at that ``j`` in the order of ``alpha``
    (:func:`_peel_row`), read only as far as the ``k`` asked for.

    The rows of every ``alpha(m) < a(k)`` telescope: ``alpha(1) = a(1)``,
    and the subset sum after the last one below ``a(k)`` is ``a(k)``, or
    ``a_ext`` at ``k = r + 1``.  So their sum is ``g[jN-a(1)] - g[jN-a(k)]``
    minus every peeled term below ``a(k)``, the residual of
    :func:`verify_eq_357`, ``2 + 2 count`` unit rows for ``count`` subset
    sums, which :func:`_require_guard` checks.  Each sum is the one before
    plus the rows from ``a(k-1)`` up, in one ``_mul_rows`` call.
    """
    sys, trunc = ladder.sys, ladder.trunc
    rows, total, done = iter(rows), [0] * (trunc + 1), 0
    for k in range(1, sys.r + 2):
        count = bisect_left(sys.alpha, sys.generator(k))
        _require_guard(ladder, 2 + 2 * count)
        total = _mul_rows([({0: 1}, row) for row in
                           (total, *islice(rows, count - done))], trunc)
        done = count
        yield total


def _contraction_row(ladder, j, k):
    """The residual row (:func:`_residual_row`) of the one-step contraction
    at ``(j, k)``, ``k <= r`` (:func:`verify_eq_357`)."""
    sys = ladder.sys
    N, a1, ak = sys.N, sys.a[0], sys.generator(k)
    return _residual_row(ladder, [
        (0, 0, 1, j * N - ak), (j * N - ak, 1, -1, j * N - ak),
        (0, 0, -1, j * N - sys.generator(k + 1)),
        (N - ak, 0, -1, (j - 1) * N - a1),
        (N - ak, 0, 1, (j - 1) * N - ak),
        (j * N - ak, 0, -1, (j - 1) * N - ak)])


def verify_lemma1(sys, j, m, n_max):
    """Count-level peeling identity at adjacent subset-sum cutoffs.

    Splitting the class with largest part <= ``jN - alpha(m)`` by
    whether the largest part is attained, and removing it when it is,
    gives for every ``(k, n)``::

        psi[jN-alpha(m)](k,n) - psi[jN-alpha(m+1)](k,n)
            = psi[(j-w)N-v](k, n') + psi[(j-w+1)N-v](k-1, n')

    with ``w, v`` the weight data of ``alpha(m)`` and
    ``n' = n - jN + alpha(m)``.  (The removed part is overlined in the
    first term and non-overlined in the second, hence the ``k - 1``.)
    The cells that differ are the terms of :func:`verify_lemma2`'s
    residual, and only their rows of the left-hand side are read back.
    Returns the offending ``(k, n, lhs, rhs)`` cells ordered by ``n`` then
    ``k``, empty on success.
    """
    res = verify_lemma2(sys, j, m, n_max)
    if res.is_zero():
        return []
    ladder = _ladder(sys, n_max)
    upper, lower = (ladder.rung(j * sys.N - al)
                    for al in _peel_cutoffs(sys, j, m))
    lhs = QLaurent._from_packed(
        n_max, ((n, upper[n] - lower[n]) for n in res.coeffs), ladder.width)
    return [(k, n, lhs.coefficient_int(n, k), lhs.coefficient_int(n, k) - c)
            for n, k, c in res.terms()]


def verify_lemma2(sys, j, m, trunc):
    """Series-level peeling identity; returns the residual.

    Zero iff ``g[jN-alpha(m)] = g[jN-alpha(m+1)]
    + q^(jN-alpha(m)) * (g[(j-w)N-v] + d * g[(j-w+1)N-v])``.
    """
    ladder = _ladder(sys, trunc)
    return _read_row(trunc, ladder.width, _peel_row(ladder, j, m))


def verify_eq_357(sys, j, k, trunc):
    """Telescoped identities below the generator ``a(k)``.

    The first residual checks the sum of the peeling identities over all
    subset sums below ``a(k)``; the second (only for ``k <= r``) checks
    the one-step contraction::

        (1 - d q^(jN-a(k))) g[jN-a(k)] = g[jN-a(k+1)]
          + q^(N-a(k)) g[(j-1)N-a(1)]
          - q^(N-a(k)) (1 - q^((j-1)N)) g[(j-1)N-a(k)]

    Returns ``(residual_sum, residual_contraction_or_None)``.
    """
    if j < 1:
        raise ValueError("j must be >= 1")
    if not 1 <= k <= sys.r + 1:
        raise ValueError(f"k outside 1..{sys.r + 1}")
    _require_ladder_domain(sys)
    ladder = _ladder(sys, trunc)
    rows = (_peel_row(ladder, j, m) for m in range(1, len(sys.alpha) + 1))
    *_, total = islice(_sum_rows(ladder, rows), k)
    return _read_row(trunc, ladder.width, total), (
        _read_row(trunc, ladder.width, _contraction_row(ladder, j, k))
        if k <= sys.r else None)


# -- the main recurrence ----------------------------------------------


class RecRow(namedtuple("RecRow", "lhs rhs ell shifts")):
    """One materialized instance of the main recurrence at index ``ell``.

    ``lhs`` multiplies ``u_ell``; ``rhs[j-1]`` multiplies ``u_(ell-j)``
    and is ``sum_(m=1)^(r+1-j) (-1)^(m+1) q^(m ell N) b(m, j)`` (plus 1
    at ``j = 1``) times ``prod_(h<j) (1 - q^((ell-h)N))``, with ``b`` the
    weight pairs over all subset sums (:func:`_weight_pairs` at cutoff
    ``r + 1``).  ``rhs`` has ``min(r, ell)`` entries: it stops at ``u_0``.
    ``lhs`` is ``prod_s (1 - d q^s)`` over the ``shifts`` ``s = ell N -
    a(j)``, which the recurrence divides by one factor at a time.  The
    recurrence itself reads the same terms as ``{(e, deg): c}`` maps
    (:func:`_rec_row`); this is their ``QLaurent`` view.
    """

    __slots__ = ()


def _times_factors(trunc, terms, shifts, k):
    """``terms``, a ``{(e, deg): c}`` map of ``c d^deg q^e``, times ``prod_s
    (1 - d^k q^s)`` over the ``shifts``, each ``s > 0``, at ``trunc``, as
    such a map with no zero entry.  Each factor updates ``terms`` in place
    from a copy of its items (a key gains from one key below it only)."""
    for s in shifts:
        for (e, deg), c in list(terms.items()):
            if e + s <= trunc:
                key = e + s, deg + k
                terms[key] = terms.get(key, 0) - c
    return {key: c for key, c in terms.items() if c}


def _multiplier(N, ell, M, j, m_max, trunc, shifts=()):
    """``sum_(m=1)^(m_max) (-1)^(m+1) q^(m ell N) M[m, j]`` times ``prod_s
    (1 - q^s)`` over the ``shifts``, at ``trunc``, as a ``{(e, deg): c}``
    map (:func:`_times_factors`), from ``M``, a multiplier table of such
    maps with no term above ``q^0``, so exact at any truncation."""
    terms = {}
    for m in range(1, m_max + 1):
        for (e, k), c in M[m, j].items():
            e += m * ell * N
            if e <= trunc:
                terms[e, k] = terms.get((e, k), 0) + (c if m % 2 else -c)
    return _times_factors(trunc, terms, shifts, 0)


def _elimination_rhs(sys, k, ell, trunc):
    """``(rhs, shifts)`` of :func:`_elimination_row`, with ``lhs`` left as
    its ``shifts``, which the recurrence divides by one factor at a
    time."""
    _require_ladder_domain(sys)
    N = sys.N
    rhs = [_multiplier(N, ell, _weight_pairs(sys, k), j, k - j, trunc,
                       [(ell - h) * N for h in range(1, j)])
           for j in range(1, min(k - 1, ell) + 1)]
    return rhs, tuple(ell * N - g for g in sys.a[:k - 1])


def _elimination_row(sys, k, ell, trunc):
    """``(lhs, rhs, shifts)`` of the elimination identity with cutoff
    ``a(k)``: ``lhs = prod_(j<k) (1 - d q^(lN - a(j)))``, ``shifts`` its
    ``lN - a(j)``, and ``rhs[j-1]`` (which
    multiplies ``g[(l-j)N-a(1)]``) the inner sum ``sum_(m=1)^(k-j)
    (-1)^(m+1) q^(mlN) W_k(m, j)`` times ``prod_(h<j) (1 - q^((l-h)N))``,
    with ``W_k`` the weight pairs below ``a(k)``, read from the system's
    table for that cutoff (:func:`_weight_pairs`).  The factor ``h = l``
    is 0, so ``rhs`` stops at ``j = min(k - 1, l)``.  Each side is
    multiplied out in one ``{(e, deg): c}`` map (:func:`_times_factors`),
    and is returned as that map.
    """
    rhs, shifts = _elimination_rhs(sys, k, ell, trunc)
    return _times_factors(trunc, {(0, 0): 1}, shifts, 1), rhs, shifts


def _rec_row(sys, ell, trunc):
    """``(rhs, shifts)`` of the main recurrence at ``ell`` (see
    :class:`RecRow`), ``rhs`` as ``{(e, deg): c}`` maps with no zero
    entry: the elimination row at the top cutoff ``k = r + 1`` with the
    standalone 1 added to ``rhs[0]``, the multiplier of ``u_(ell-1)``."""
    if ell < 1:
        raise ValueError("ell must be >= 1")
    rhs, shifts = _elimination_rhs(sys, sys.r + 1, ell, trunc)
    one = rhs[0].pop((0, 0), 0) + 1
    if one:
        rhs[0][0, 0] = one
    return rhs, shifts


def build_rec_row(sys, ell, trunc):
    """Materialize every coefficient of the main recurrence at ``ell``: the
    ``QLaurent`` view (:class:`RecRow`) of the maps of :func:`_rec_row`,
    with ``lhs`` multiplied out of its shifts."""
    rhs, shifts = _rec_row(sys, ell, trunc)
    lhs, *rhs = (QLaurent.from_terms(trunc, ((e, deg, c)
                                             for (e, deg), c in terms.items()))
                 for terms in (_times_factors(trunc, {(0, 0): 1}, shifts, 1),
                               *rhs))
    return RecRow(lhs=lhs, rhs=tuple(rhs), ell=ell, shifts=shifts)


def _collect(pairs):
    """``{e: sum x}`` over the ``(e, x)`` of ``pairs``."""
    out = {}
    for e, x in pairs:
        out[e] = out.get(e, 0) + x
    return out


def _iterates(sys, trunc, steps, widen=None, floor=2):
    """Yield ``(u_ell, width)`` for ``ell = 0 .. steps``: the iterates of
    the main recurrence, each a row of ``trunc + 1`` ints packed at ``d =
    2^width``, one ``width`` of at least ``floor``; readers must not change
    a row.

    Each step is ``u_ell = num / lhs``, ``num = sum_j rhs_j u_(ell-j)``
    (:func:`_mul_rows`), divided by the factors ``1 - d q^s`` of ``lhs``
    one at a time (:func:`_div_row`).  The rows are built first as the
    maps of :func:`_rec_row`, and each ``rhs_j`` reaches the kernels as an
    ``{e: int}`` map collected from its own.  Unless every shift ``s`` is
    positive, so that ``lhs`` starts with the constant 1,
    ``NonUnitLeadingTerm`` is raised before any division.  The rows run
    once on majorants ``{e: sum |c|}`` at ``d = 1``, where each factor is
    ``1 - q^s``: ``|num| / lhs(1)`` bounds ``u_ell``, and ``|num|`` too, as
    ``1/lhs = prod_s 1/(1 - d q^s)`` has nonnegative coefficients and
    constant 1.  That fixes ``width``, so the slots of every iterate and
    every ``num`` hold their true coefficients, and reading an iterate back,
    comparing two packed iterates and testing a packed coefficient for zero
    are all exact.  Only the last ``r`` iterates are kept, as far back as a
    row reads.
    ``widen``, if given, is called once with the majorant rows ``[|u_0|,
    ..., |u_steps|]`` and returns a bound that ``width`` must hold too, so
    that the caller can go on computing with the iterates at their width
    (:func:`verify_chain`); ``floor`` lets a caller compare the iterates
    with rows packed at a wider width (:func:`limit_u`, :func:`verify_ladder`
    and the chain's reduced iterates).  A wider width holds the same bounds.
    A row with a term below ``q^0`` in its ``num`` raises
    ``NegativeExponents`` before its packed division.
    """
    rows = [_rec_row(sys, ell, trunc) for ell in range(1, steps + 1)]
    for ell, (_, shifts) in enumerate(rows, 1):
        if min(shifts) < 1:
            raise NonUnitLeadingTerm(
                f"divisor at ell={ell} has the factor 1 - d q^{min(shifts)}: "
                "its leading coefficient is not 1 at q^0")
    one = [1] + [0] * trunc
    us = deque([one], maxlen=sys.r if widen is None else None)
    bound = 1
    for rhs, shifts in rows:
        us.append(_div_row(
            _mul_rows([(_collect((e, abs(c)) for (e, _), c in terms.items()),
                        us[-j]) for j, terms in enumerate(rhs, 1)], trunc),
            [(s, 1) for s in shifts]))
        bound = max(bound, max(us[-1]))
    if widen is not None:
        bound = max(bound, widen(list(us)))
    width = max(bound.bit_length() + 1, floor)
    d = 1 << width
    us = deque([one], maxlen=sys.r)
    yield one, width
    for ell, (rhs, shifts) in enumerate(rows, 1):
        num = _mul_rows([(_collect((e, c << deg * width)
                                   for (e, deg), c in terms.items()), us[-j])
                         for j, terms in enumerate(rhs, 1)], trunc)
        below = len(num) - trunc - 1
        if any(num[:below]):
            low = next(e for e, c in enumerate(num, -below) if c)
            raise NegativeExponents(
                f"recurrence produced negative exponents at ell={ell}: "
                f"q^{low}")
        del num[:below]
        us.append(_div_row(num, [(s, d) for s in shifts]))
        yield us[-1], width


def run_recurrence(sys, ell_max, trunc):
    """Iterate the main recurrence; returns ``[u_0, ..., u_ell_max]``.

    Each step solves for ``u_ell`` by exact series division on packed
    coefficients (see :func:`_iterates`); every factor ``1 - d q^s`` of
    the divisor has ``s > 0`` for a valid system, and a violation surfaces
    as ``NonUnitLeadingTerm``; an iterate with a term below ``q^0`` raises
    ``NegativeExponents``.
    """
    if trunc < 0:
        raise ValueError("trunc must be non-negative")
    return [_read_row(trunc, width, u)
            for u, width in _iterates(sys, trunc, max(ell_max, 0))]


def _key_row(ladder, k, ell):
    """The residual row (:func:`_residual_row`) of the elimination identity
    with cutoff ``a(k)`` at ``ell`` (:func:`verify_key_lemma`)."""
    sys = ladder.sys
    N, a1 = sys.N, sys.a[0]
    lhs, rhs, _ = _elimination_row(sys, k, ell, ladder.trunc)
    return _residual_row(ladder, [
        *((e, d, c, ell * N - a1) for (e, d), c in lhs.items()),
        (0, 0, -1, ell * N - sys.generator(k)),
        *((e, d, -c, (ell - j) * N - a1)
          for j, terms in enumerate(rhs, 1) for (e, d), c in terms.items())])


def verify_key_lemma(sys, k, ell, trunc):
    """Residual of the elimination identity with cutoff ``a(k)``.

    ``prod_(j<k) (1 - d q^(lN-a(j))) g[lN-a(1)] = g[lN-a(k)] + sum_j
    (inner sum) * prod_(h<j) (1 - q^((l-h)N)) * g[(l-j)N-a(1)]``.
    At ``k = 1`` both sides collapse to ``g[lN-a(1)]``; at ``k = r + 1``
    this is exactly the main recurrence read on the ``g`` series.
    """
    if not 1 <= k <= sys.r + 1:
        raise ValueError(f"k outside 1..{sys.r + 1}")
    if ell < 1:
        raise ValueError("ell must be >= 1")
    ladder = _ladder(sys, trunc)
    return _read_row(trunc, ladder.width, _key_row(ladder, k, ell))


def verify_ladder(sys, trunc, names):
    """``{name: [(label, ok), ...]}`` for the ladder checks ``names``
    (``lemma1``, ``lemma2``, ``eq357``, ``key``, ``rec``), run in one
    ascending sweep over ``j`` on one ladder of its own: at each ``j``,
    every check's cases at that ``j``, so each check's cases come in its
    own order, ``(j, m)``, ``(j, k)``, ``(ell, k)`` with ``ell = j``, and
    ``ell`` from 0.  ``ok`` is the zero test of the matching view; for
    ``rec``, whether :func:`run_recurrence`'s ``u_ell`` is ``g[ell N - a(1)]``.

    Every identity's residual is a packed row (:func:`_residual_row`),
    zero iff the case passes, and nothing is read back.  lemma1 fails at
    ``(j, m)`` exactly where lemma2's residual is nonzero, so both read one
    row, and eq357's sums are running sums of those rows (:func:`_sum_rows`).
    For ``rec`` the iterates come first, at a width of at least the
    ladder's, and the ladder is built at theirs, so ``u_ell`` compares with
    ``g[ell N - a(1)]`` as ints: the majorants bound every iterate
    coefficient and each count is at most ``pbar(trunc)``, all below the
    slots' sign bit, so equal ints are equal series.

    A case at ``j + 1`` reads no bound at or below ``(j - r)N``: peeling
    reads ``(j+1-w)N - v`` with ``w <= r`` and ``v <= a(r) < N``, the key
    lemma ``(j+1-j')N - a(1)`` with ``j' <= r``, the contraction ``jN -
    a(k)`` and ``rec`` ``(j+1)N - a(1)``.  So after step ``j`` the ladder
    releases every rung that only bounds at or below it read.
    """
    N, r, a1 = sys.N, sys.r, sys.a[0]
    cases = {name: [] for name in names}
    peel = [name for name in ("lemma1", "lemma2") if name in cases]
    if "rec" in cases:
        ell_hi = (trunc + a1) // N
        iterates = _iterates(sys, trunc, ell_hi,
                             floor=_slot_width(trunc) + _guard_bits(sys))
        u, width = next(iterates)
        ladder = _Ladder(sys, trunc, least_width=width)
        cases["rec"].append(("ell=0", tuple(u) == ladder.rung(-a1)))
    else:
        ladder = _Ladder(sys, trunc)
    for j in range(1, trunc // N + 2):
        if peel or "eq357" in cases:
            rows = [_peel_row(ladder, j, m)
                    for m in range(1, len(sys.alpha) + 1)]
            for name in peel:
                cases[name] += ((f"j={j},m={m}", not any(row))
                                for m, row in enumerate(rows, 1))
        if "eq357" in cases:
            for k, total in enumerate(_sum_rows(ladder, rows), 1):
                cases["eq357"].append((f"sum j={j},k={k}", not any(total)))
                if k <= r:
                    cases["eq357"].append((
                        f"contraction j={j},k={k}",
                        not any(_contraction_row(ladder, j, k))))
        if "key" in cases:
            cases["key"] += ((f"k={k},ell={j}",
                              not any(_key_row(ladder, k, j)))
                             for k in range(1, r + 2))
        if "rec" in cases and j <= ell_hi:
            u, _ = next(iterates)
            cases["rec"].append((f"ell={j}",
                                 tuple(u) == ladder.rung(j * N - a1)))
        ladder.release((j - r) * N)
    return cases


# -- coefficient families of the transformation chain -----------------
# Each family is an {(e, k): c} map of terms c d^k q^e, none above q^0.


def _weight_pair(sys, bound_index, m, j):
    """``(d^(m-1) W(j+m-1) + d^m W(j+m)) [j+m-1, m-1]_(q^-N)``, with ``W``
    the weight sums (terms ``q^-s``) below ``a(bound_index)``."""
    weights = {(e, k): 1 for k in (m - 1, m)
               for e in alpha_weight_sum(sys, bound_index, j + k).coeffs}
    return _mul_maps(weights, _gaussian(j + m - 1, m - 1, -sys.N), {})


class _WeightPairs(dict):
    """The weight pairs ``W_k(m, j)`` below ``a(k)``, one table per system
    and cutoff, each built when first read; those with ``m + j > k`` are 0
    (a subset sum below ``a(k)`` has at most ``k - 1`` summands) and not
    built.  Readers must not change an entry."""

    def __init__(self, sys, k):
        self.sys, self.k = sys, k

    def __missing__(self, key):
        m, j = key
        self[key] = (_weight_pair(self.sys, self.k, m, j)
                     if m + j <= self.k else {})
        return self[key]

    @cached_property
    def f(self):
        """``{(m, k): f(m, k)}`` for ``1 <= m <= r``, ``0 <= k < m`` (the
        others are 0), built on first read; :func:`_tmj` reads the one below
        ``a(r)``, so each is built once per system while the tables live."""
        sys = self.sys
        return {(m, k): _coeff_f(sys, m, k)
                for m in range(1, sys.r + 1) for k in range(m)}


# a command reads one system at a time, at most r + 1 cutoffs of it
_weight_pairs = lru_cache(maxsize=MAX_GENERATORS + 1)(_WeightPairs)


def _coeff_f(sys, m, k):
    """``f(m, k) = q^(-N k(k+1)/2 - k a(r)) [m-1, k]_(q^-N)``."""
    return _gaussian(m - 1, k, -sys.N, -sys.N * k * (k + 1) // 2
                     - k * sys.a[-1])


def coeff_f(sys, m, k):
    """``q^(-N k(k+1)/2 - k a(r)) [m-1, k]_(q^-N)``, as a ``QLaurent``."""
    if m < 1 or k < 0:
        raise ValueError("need m >= 1 and k >= 0")
    return QLaurent.from_terms(0, ((e, 0, c) for (e, _), c
                                   in _coeff_f(sys, m, k).items()))


def _tmj(sys, m, j):
    """Both sides of ``T(m, j)`` (see :func:`verify_Tmj`), with ``b`` and
    ``e`` read off the weight-pair tables at ``a(r+1)``, ``a(r)``, and ``f``
    off the latter's :attr:`_WeightPairs.f`; ``c(k, j) b = d^k f(j, k) b``."""
    b, e = _weight_pairs(sys, sys.r + 1), _weight_pairs(sys, sys.r)
    f = e.f
    lhs, rhs = {}, {}
    for k in range(min(j, m)):
        _mul_maps(f[j, k], b[m - k, j], lhs, 0, k)
    for k in range(min(m, j + 1)):
        _mul_maps(f[m, k], e[m, j - k], rhs)
        if k < j:
            _mul_maps(f[m, k], e[m, j - k - 1], rhs, -sys.a[-1])
    return lhs, rhs


def verify_Tmj(sys, m, j):
    """Equality of the two assembled q-difference-equation coefficients.

    Compares ``sum_k c(k,j) b(m-k,j)`` with ``sum_k f(m,k) e(m,j-k)
    + q^(-a(r)) sum_k f(m,k) e(m,j-k-1)`` term by term.
    """
    if not (1 <= m <= sys.r and 1 <= j <= sys.r):
        raise ValueError("need 1 <= m, j <= r")
    lhs, rhs = _tmj(sys, m, j)
    return lhs == rhs


# -- limit evaluation --------------------------------------------------


def limit_u(sys, trunc, *, floor=None):
    """Stabilized limit of the recurrence iterates, exact to ``trunc``.

    Runs until the index ``ell`` satisfies ``ell*N - a(1) > trunc`` plus
    one extra step, checks that the two final iterates agree on every
    retained coefficient, and returns the frozen series.  Only those two
    iterates are kept, packed in slots that the recurrence's majorants
    size (:func:`_iterates`), and only the last is read back.

    With ``floor``, nothing is read back: the result is ``(limit,
    width)``, the last iterate as a row of ``trunc + 1`` ints packed at
    ``d = 2^width``, and a ``width`` of at least ``floor`` that holds every
    bound the majorants prove.  With ``floor =
    series_ring._slot_width(trunc)`` the limit compares, as a list of ints,
    with the packed rows of ``product_F``, ``count_F`` and ``count_G`` at
    ``width``.
    """
    if trunc < 0:
        raise ValueError("trunc must be non-negative")
    ell_stop = (trunc + sys.a[0]) // sys.N + 1
    (prev, _), (last, width) = deque(
        _iterates(sys, trunc, ell_stop + 1, floor=floor or 2), maxlen=2)
    if last != prev:
        raise NotStabilized(
            f"coefficients still moving between steps {ell_stop} "
            f"and {ell_stop + 1}")
    if floor is not None:
        return last, width
    return _read_row(trunc, width, last)


# -- the transformation chain ------------------------------------------


ChainStage = namedtuple("ChainStage", "name residual_zero detail",
                        defaults=("",))


class ChainState:
    """Every intermediate object of one chain run, as lists of ``QLaurent``
    at ``trunc``: ``u`` and ``beta`` up to ``ell_max``, ``s`` and ``mu`` up
    to ``x_trunc``.  A chain run reads none back: it hands over its packed
    rows (:meth:`_of_rows`), and each list is read back when first read."""

    def __init__(self, u, beta, s, mu):
        self.u, self.beta, self.s, self.mu = u, beta, s, mu

    @classmethod
    def _of_rows(cls, trunc, width, **rows):
        """The state of rows of ``trunc + 1`` ints packed at ``d =
        2^width``, keyed by list name."""
        state = cls.__new__(cls)
        state._rows = trunc, width, rows
        return state

    def _read_back(self, name):
        trunc, width, rows = self._rows
        return [_read_row(trunc, width, x) for x in rows.pop(name)]

    u = cached_property(lambda self: self._read_back("u"))
    beta = cached_property(lambda self: self._read_back("beta"))
    s = cached_property(lambda self: self._read_back("s"))
    mu = cached_property(lambda self: self._read_back("mu"))


class ChainReport:
    def __init__(self, system, trunc, x_trunc, stages=None, state=None):
        self.system, self.trunc, self.x_trunc = system, trunc, x_trunc
        self.stages = [] if stages is None else stages
        self.state = state

    def first_failure(self):
        for st in self.stages:
            if not st.residual_zero:
                return st
        return None


def _coeff_residuals(sys, ys, M, width, trunc):
    """The first offender ``(ell, q, d, c)``, or None, of each row ``0 <=
    ell < len(ys)`` of ``y_l = y_(l-1) + sum_(j<=min(r, l)) (sum_m
    (-1)^(m+1) q^(mlN) M[m, j]) y_(l-j)``, with ``y_(-1) = 0``, for rows
    ``y_l`` and ``{e: int}`` maps ``M[m, j]``, packed at ``d = 2^width``.

    Row ``ell`` is the ``x^ell`` coefficient of the q-difference equation
    ``F = xF + sum_m (-1)^(m+1) M_m(x) F(xq^(mN))`` for ``F = sum_l y_l
    x^l``, where ``M_m(x) = sum_j M[m, j] q^(mjN) x^j``, so one pass checks
    both the equation and the coefficient recurrence.

    Exact at ``trunc``, with no headroom: row ``ell`` applies ``q^(m ell
    N) M[m, j]`` to ``y_(ell-j)``, which is ``y_0 = 1`` at ``ell = j``, and
    each term ``q^a`` of :func:`verify_chain`'s tables has ``a + m(j+1)N >=
    N - S >= a(r) > 0``, ``S = a(1) + ... + a(r-1)``.  As ``[n, k]_(q^-N)``
    reaches down to ``q^(-Nk(n-k))``, weight sums below ``a(r)`` to
    ``q^-S`` and all of them to ``q^-(S + a(r))``, ``a + m(j+1)N + S`` is
    at least

    * ``N(m + j)`` on ``e(m, j)``;
    * ``N(m + j + k(k+1)/2) - (k+1)a(r)`` on ``c(k, j) b(m-k, j)``, ``k <
      min(m, j)``;
    * ``N(m + j + k(k-1)/2) - k a(r)`` on ``f(m, k) e(m, j-k)``, ``k < m``,
      ``k <= j``, and ``N(m - 1) - a(r)`` more on ``q^-a(r) f(m, k) e(m,
      j-k-1)``, ``k < j``;

    each at least ``N``, as ``N > a(r)`` and ``m + j - 1`` is at least
    ``k + 1`` where ``(k+1)a(r)`` is taken off, and ``k`` elsewhere.

    Each row's sum is one :func:`_mul_rows` call, the ``q^(m ell N)`` of
    a multiplier a shift of ``M[m, j]``'s keys, starting where the
    multipliers reach below ``q^0``, and only a nonzero sum is read back
    (:func:`_first_term`).  That is exact when every coefficient lies below
    ``2^(width-1)``: the row's ``sum L1(a) max|b|`` over its products bounds
    them (:func:`_rows_bound`), and :func:`verify_chain` sizes its width by
    it.
    """
    N, r = sys.N, sys.r
    offenders = []
    for ell, y in enumerate(ys):
        pairs = [({0: 1}, y)]
        if ell:
            pairs.append(({0: -1}, ys[ell - 1]))
        for j in range(min(r, ell) + 1):
            mult = {}
            for m in range(1, r + 1):
                shift, sign = m * ell * N, -1 if m % 2 else 1
                for e, c in M[m, j].items():
                    if e + shift <= trunc:
                        mult[e + shift] = mult.get(e + shift, 0) + sign * c
            pairs.append((mult, ys[ell - j]))
        first = _first_term(trunc, width, _mul_rows(pairs, trunc))
        offenders.append(first and (ell,) + first)
    return offenders


def _rows_bound(tops, l1, r):
    """``sum L1(a) max|b|`` over the products of the worst row of
    :func:`_coeff_residuals`, from ``tops[l] >= max|y_l|`` and ``l1[j] >=
    sum_m L1(M[m, j])``: it bounds every coefficient of every row's sum."""
    return max(tops[ell] + (ell and tops[ell - 1])
               + sum(l1[j] * tops[ell - j] for j in range(min(r, ell) + 1))
               for ell in range(len(tops)))


def _x_product_tables(sys, x_trunc, trunc):
    """The multipliers ``c_j q^(j(N - a(r))) [l, j]_Q``, ``Q = q^N``, of
    :func:`_x_product_transform` for ``0 <= j <= l <= x_trunc`` as packed
    tables ``{(l, j): {e: int}}``, one with ``c_j = (-1)^j`` and one with
    ``c_j = Q^(j(j-1)/2)``."""
    N, ar = sys.N, sys.a[-1]
    down, up = {}, {}
    for ell in range(x_trunc + 1):
        for j in range(ell + 1):
            for table, shift, sign in (
                    (down, j * (N - ar), (-1) ** j),
                    (up, j * (N - ar) + N * j * (j - 1) // 2, 1)):
                table[ell, j] = {i * N + shift: sign * c
                                 for i, c in enumerate(_gauss_coeffs(ell, j))
                                 if i * N + shift <= trunc}
    return down, up


def _x_product_transform(ys, table, trunc):
    """``(Q; Q)_l`` times the ``x^l`` coefficient of ``P(x)^sign sum_l y_l
    x^l / (Q; Q)_l`` for ``l = 0 .. len(ys) - 1``, with ``Q = q^N`` and the
    x-product ``P(x) = prod_(k>=1) (1 + x q^(kN - a(r)))``, on packed
    ``ys``.  By the q-binomial theorem that is ``sum_j c_j q^(j(N - a(r)))
    [l, j]_Q y_(l-j)``, with ``c_j = (-1)^j`` at ``sign = -1`` and
    ``Q^(j(j-1)/2)`` at ``sign = 1``, so nothing is divided: ``table`` is
    the one of :func:`_x_product_tables` for ``sign``."""
    return [_mul_rows([(table[ell, j], ys[ell - j])
                       for j in range(ell + 1)], trunc)
            for ell in range(len(ys))]


def _chain_series(sys, us, c, down, x_trunc, trunc):
    """``(nu, beta, mu, s)`` of :func:`verify_chain` from ``u``, all packed
    rows: ``nu_l = u_l prod_(h<=l) (1 + c q^(hN - a(r)))``, ``beta_l = nu_l
    / den_l``, ``mu`` the transform ``down`` of ``nu`` up to ``x^x_trunc``
    and ``s_l = mu_l / den_l``, with ``den_l = prod_(h<=l) (1 - q^(hN))``
    divided out one factor at a time.  On ``u`` packed at ``d = 2^width``,
    with ``c = -2^width``, these are the chain's series; on majorants of
    ``u`` at ``d = 1``, with ``c = 1`` and ``|down|``, they are majorants
    of them."""
    N, ar = sys.N, sys.a[-1]
    nus = []
    for ell, u in enumerate(us):
        nu = list(u)
        for h in range(1, ell + 1):
            _binomial_step(nu, h * N - ar, c)
        nus.append(nu)
    mus = _x_product_transform(nus[:x_trunc + 1], down, trunc)
    den = [(h * N, 1) for h in range(1, len(us))]
    return (nus, [_div_row(list(x), den[:ell]) for ell, x in enumerate(nus)],
            mus, [_div_row(list(x), den[:ell]) for ell, x in enumerate(mus)])


def verify_chain(sys, ell_max, x_trunc, trunc):
    """Run and check the whole transformation chain down one generator.

    Builds ``u`` from the recurrence, derives ``beta``, then ``mu`` from
    ``beta``'s quotient by the x-product (:func:`_x_product_transform`,
    checked by the inverse transform) and ``s``, and checks the recurrence
    or q-difference equation each object must satisfy, ending with ``mu``
    matching the reduced (one generator fewer) system's iterates and
    infinite product.  Raises :class:`ChainBroken` naming the first failing
    stage; the report carries every residual verdict either way.  Every
    stage is exact at ``trunc``: only the multipliers
    (:func:`_coeff_residuals`) reach below ``q^0``, and each divisor is
    divided out as its factors ``1 - q^s``, ``s > 0``.

    The run holds ``u, nu, beta, mu, s``, the reduced iterates and the
    reduced product up to ``q^eff``, ``eff = min(trunc, x_trunc N - a(1))``,
    as rows and every multiplier as an ``{e: int}`` map, all packed at one
    ``d = 2^width``, and reads back only a failing stage's first offender.
    Each value it reads back, compares or tests for zero has every
    coefficient below ``2^(width-1)``, so each of those steps is exact:
    ``width`` holds ``pbar(eff)``, the reduced iterates' majorants and the
    same steps run on the majorants ``|u_l|`` at ``d = 1`` that
    :func:`_iterates` hands over.  ``|nu_l| <= |u_l| prod_h (1 + q^(hN -
    a(r)))``; ``|beta_l| <= |nu_l| / den_l`` and ``|s_l| <= |mu_l| /
    den_l``, as ``1/den_l = prod_(h<=l) 1/(1 - q^(hN))`` has no ``d`` and
    nonnegative coefficients; ``|mu_l| <= sum_j q^(j(N - a(r))) [l, j]_Q
    |nu_(l-j)|``; and each sum of products, the round trip's and each
    residual row's, is bounded by ``sum L1(a) max|b|``.
    """
    if sys.r < 2:
        raise ValueError("the chain needs at least two generators")
    if x_trunc < 0 or trunc < 0:
        raise ValueError("truncations must be non-negative")
    if ell_max < x_trunc:
        raise ValueError("ell_max must be at least x_trunc")
    N, r, a1 = sys.N, sys.r, sys.a[0]
    # multipliers M[m, j] of the three q-difference equations: each has the
    # weight pair e(m, 0) at j = 0 (f(m, 0) = 1), then the left side of
    # T(m, j), its right side, or e(m, j)
    e = {(m, j): _weight_pairs(sys, r)[m, j]
         for m in range(1, r + 1) for j in range(r + 1)}
    left = {(m, 0): e[m, 0] for m in range(1, r + 1)}
    right = dict(left)
    for m in range(1, r + 1):
        for j in range(1, r + 1):
            left[m, j], right[m, j] = _tmj(sys, m, j)
    tables = (left, right, e)
    l1 = [[sum(abs(c) for m in range(1, r + 1) for c in M[m, j].values())
           for j in range(r + 1)] for M in tables]
    down, up = _x_product_tables(sys, x_trunc, trunc)
    down_majorant = {key: {k: abs(c) for k, c in x.items()}
                     for key, x in down.items()}
    reduced = build_system(sys.a[:-1], N)
    eff = min(trunc, x_trunc * N - a1)
    reduced_us = None   # the reduced iterates, started by widen

    def widen(majorants):
        nonlocal reduced_us
        # the run's steps on the majorants |u_l| at d = 1, and the largest
        # coefficient each value it reads can have (see the docstring)
        nus, betas, mus, s = (
            [max(x) for x in xs] for xs in _chain_series(
                sys, majorants, 1, down_majorant, x_trunc, trunc))
        back = max(sum(sum(up[ell, j].values()) * mus[ell - j]
                       for j in range(ell + 1)) for ell in range(x_trunc + 1))
        bound = max(back, *nus, _rows_bound(betas, l1[0], r),
                    _rows_bound(betas[:x_trunc + 1], l1[1], r),
                    _rows_bound(s, l1[2], r))
        # the reduced iterates' majorant pass, at a width that holds bound
        # and pbar(eff) too; the run takes that width, as bound >= |u_l|
        reduced_us = _iterates(reduced, trunc, x_trunc, floor=max(
            bound.bit_length() + 1, _slot_width(max(eff, 0))))
        return (1 << next(reduced_us)[1] - 1) - 1

    u = []
    for x, width in _iterates(sys, trunc, ell_max, widen):
        u.append(x)
    left, right, e = ({key: _collect((n, c << k * width)
                                     for (n, k), c in M.items())
                       for key, M in table.items()} for table in tables)

    # nu[ell] = u_ell num_ell = beta_ell den_ell, with num[ell] =
    # prod_(h<=ell) (1 - d q^(hN - a(r))); mu is the quotient by the
    # x-product in closed form, multiplied back one coefficient at a time
    nus, betas, mus, s = _chain_series(sys, u, -(1 << width), down, x_trunc,
                                       trunc)
    if any(back != nu
           for back, nu in zip(_x_product_transform(mus, up, trunc), nus)):
        raise RoundTripMismatch("x-product division failed to invert")

    report = ChainReport(system=sys, trunc=trunc, x_trunc=x_trunc)

    def record(name, *offenders):
        first = next(filter(None, offenders), None)
        detail = "" if first is None else f"first offender {first}"
        report.stages.append(ChainStage(name, first is None, detail))

    # the x^l rows of eq are the rows l of rec_prime, plus x^0
    rows = _coeff_residuals(sys, betas, left, width, trunc)
    record("rec_prime", *rows[1:])
    record("eq", *rows[:x_trunc + 1])
    # the same series satisfies the reduced-form q-difference equation
    record("eq_prime", *_coeff_residuals(sys, betas[:x_trunc + 1], right,
                                         width, trunc))
    # the quotient's equation and recurrence are again one set of rows
    rows = _coeff_residuals(sys, s, e, width, trunc)
    record("eq_dprime", *rows)
    record("rec_dprime", *rows[1:])

    # mu are the reduced iterates u' (u'_0 = 1 = mu_0): where they differ,
    # lhs (mu_l - u'_l) has the first term of mu_l - u'_l (lhs is 1 + ...)
    firsts = ((ell, _first_term(trunc, width, mus[ell], u_red))
              for ell, (u_red, _) in enumerate(reduced_us, 1))
    record("rec_reduced", next(((ell,) + t for ell, t in firsts if t), None))

    # stabilized mu equals the reduced infinite product
    record("mu_limit", None if eff < 0 else _first_term(
        eff, width, product_F(reduced, eff, width=width),
        mus[x_trunc][:eff + 1]))

    report.state = ChainState._of_rows(trunc, width, u=u, beta=betas, s=s,
                                       mu=mus)
    failed = report.first_failure()
    if failed is not None:
        raise ChainBroken(failed.name, report)
    return report

"""Exact truncated series arithmetic in ``q`` and ``x``, with coefficients
that are polynomials in ``d``.

Counting overpartitions refined by the number of non-overlined parts
needs three levels of structure:

* ``DPoly``    - the record of one ``q``-coefficient, a polynomial in the
  part-count marker ``d`` with integer coefficients (the coefficient of
  ``d^k`` counts objects with ``k`` non-overlined parts); it checks its
  degrees and does no arithmetic,
* ``QLaurent`` - Laurent series in ``q`` truncated above at ``trunc``,
  with ``DPoly`` coefficients; negative ``q``-exponents are kept exactly,
  and its sums and products merge the coefficients' ``{deg: c}`` maps
  themselves,
* ``XSeries``  - series in an auxiliary variable ``x`` truncated at
  ``x_trunc``, with ``QLaurent`` coefficients; it is the tests' reference
  for the transformation chain, which runs on lists of coefficients.

All coefficients are Python integers, so everything is exact at the
chosen truncation; there is no floating point anywhere.  Values are
immutable by convention and every operation returns a new object.
Operands must share truncations; mixing them raises
``TruncationMismatch`` instead of silently coercing.

The long runs (the infinite product here, the main recurrence and the
transformation chain in ``recurrence_engine``) hold each q-coefficient
``P_e(d)`` packed as the one int ``P_e(2^width)``: the coefficient of
``d^k`` sits in the ``width``-bit slot at bit ``k * width``.  ``d ->
2^width`` is a ring map, so sums, products and division steps on the
packed ints are exact.  A dense series is a *row*, a list of those ints,
one per exponent, that ends at ``q^trunc``; its length says where it
starts, at ``q^0`` or, for a residual whose multipliers reach below
``q^0``, lower.  A sparse multiplier stays an ``{e: int}`` map.  One loop
multiplies (:func:`_mul_rows`, ``sum a*b`` over pairs of a map and a
row, a slice per term of the map), and one divides, by a divisor given
as its binomial factors ``1 - c q^s``, one factor at a time
(:func:`_div_row`); a factor is one slice-wise step
(:func:`_binomial_step`), which multiplies by ``1 + c q^s`` too.  A unit
term or factor, most of the work in the recurrence, is a plain sum or
difference of slices.
Reading the slots back as signed ints, comparing two packed series and
testing one for zero are exact once every true coefficient lies in
``[-2^(width-1), 2^(width-1))``, so each run proves a bound ``B`` on
every value it will read before it packs anything, and calls the kernels
itself at the one width ``bits(max(B, 1)) + 1``.  The bounds come from
majorants at ``d = 1``, ``|x|`` having the ``q^e`` coefficient ``sum_k
|c|`` over the terms ``c d^k q^e`` of ``x``: the recurrence bounds its
quotients ``max(|num| / prod (1 - q^s))`` from majorants of its rows, and
the chain runs its own steps on the recurrence's majorants
(``recurrence_engine.verify_chain``) and bounds a sum of products ``sum_j
a_j b_j`` by ``sum_j L1(a_j) max|b_j|``.  The infinite product, like the
brute-force counters of ``enumeration``, holds only counts of
overpartitions of some ``n <= trunc``, so ``pbar(trunc)``, the number of
overpartitions of ``trunc``, bounds it (:func:`_slot_width`).  No command
multiplies ``QLaurent`` series: the chain's short Laurent polynomials are
``{(e, k): c}`` maps of terms ``c d^k q^e``, multiplied by :func:`_mul_maps`.
"""

from __future__ import annotations

from functools import lru_cache
from math import isqrt
from operator import add, itemgetter, sub


class TruncationMismatch(ValueError):
    """Operands carry different q- or x-truncations."""


class NonUnitLeadingTerm(ValueError):
    """Series division by a divisor that does not start with constant 1."""


class DPoly:
    """One ``q``-coefficient: a polynomial in the marker ``d`` with
    integer coefficients.

    ``coeffs`` maps each degree to its coefficient, with no explicit
    zeros; the constructor drops zeros and rejects negative degrees.  A
    ``DPoly`` is a validated record, immutable by convention, with no
    arithmetic of its own: ``QLaurent`` adds and multiplies the maps.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        clean = {}
        if coeffs:
            for deg, c in coeffs.items():
                if c:
                    if deg < 0:
                        raise ValueError("d-degrees must be non-negative")
                    clean[deg] = c
        self.coeffs = clean

    def is_zero(self):
        return not self.coeffs

    @property
    def degree(self):
        return max(self.coeffs) if self.coeffs else -1

    def __eq__(self, other):
        if not isinstance(other, DPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    __hash__ = None

    def __str__(self):
        if not self.coeffs:
            return "0"
        bits = []
        for deg in sorted(self.coeffs):
            c = self.coeffs[deg]
            if deg == 0:
                term = str(c)
            else:
                mag = "" if abs(c) == 1 else f"{abs(c)}*"
                sign = "-" if c < 0 else ""
                var = "d" if deg == 1 else f"d^{deg}"
                term = f"{sign}{mag}{var}"
            if bits and not term.startswith("-"):
                bits.append("+ " + term)
            elif bits:
                bits.append("- " + term.lstrip("-"))
            else:
                bits.append(term)
        return " ".join(bits)

    __repr__ = __str__

    @classmethod
    def _wrap(cls, clean):
        # internal: `clean` already has no zeros / negative degrees
        obj = cls.__new__(cls)
        obj.coeffs = clean
        return obj


def _as_dpoly(value):
    if isinstance(value, DPoly):
        return value
    if isinstance(value, int):
        return DPoly({0: value})
    raise TypeError(f"cannot coerce {type(value).__name__} to DPoly")


_DPOLY_ONE = DPoly({0: 1})


class QLaurent:
    """Truncated Laurent series in ``q`` with ``DPoly`` coefficients.

    ``trunc`` is the largest retained ``q``-exponent.  Exponents may be
    negative and are tracked exactly; nothing below is ever dropped.
    Terms above ``trunc`` are discarded by every operation, so two series
    can only interact when their ``trunc`` values agree.
    """

    __slots__ = ("trunc", "coeffs")

    def __init__(self, trunc, coeffs=None):
        self.trunc = int(trunc)
        clean = {}
        if coeffs:
            for e, p in coeffs.items():
                p = _as_dpoly(p)
                if e <= self.trunc and not p.is_zero():
                    clean[e] = p
        self.coeffs = clean

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls, trunc):
        return cls(trunc)

    @classmethod
    def one(cls, trunc):
        return cls(trunc, {0: _DPOLY_ONE})

    @classmethod
    def monomial(cls, trunc, q_exp, d_deg=0, c=1):
        """The single term ``c * d**d_deg * q**q_exp`` (or 0 past trunc)."""
        return cls(trunc, {q_exp: DPoly({d_deg: c})})

    @classmethod
    def from_terms(cls, trunc, terms):
        """Build from an iterable of ``(q_exp, d_deg, coeff)`` triples."""
        acc = {}
        for q_exp, d_deg, c in terms:
            if q_exp > trunc or not c:
                continue
            row = acc.setdefault(q_exp, {})
            row[d_deg] = row.get(d_deg, 0) + c
        return cls._wrap(trunc, acc)

    # -- structure ---------------------------------------------------

    @property
    def min_exp(self):
        """Smallest stored exponent (0 for the zero series)."""
        return min(self.coeffs) if self.coeffs else 0

    def is_zero(self):
        return not self.coeffs

    def coefficient(self, q_exp):
        """The ``DPoly`` coefficient of ``q**q_exp``."""
        return self.coeffs.get(q_exp, DPoly())

    def coefficient_int(self, q_exp, d_deg):
        p = self.coeffs.get(q_exp)
        return p.coeffs.get(d_deg, 0) if p is not None else 0

    def terms(self):
        """Yield ``(q_exp, d_deg, coeff)`` sorted by exponent then degree."""
        for e in sorted(self.coeffs):
            p = self.coeffs[e]
            for deg in sorted(p.coeffs):
                yield e, deg, p.coeffs[deg]

    def first_nonzero(self):
        """Lexicographically first ``(q_exp, d_deg, coeff)``, or None."""
        for t in self.terms():
            return t
        return None

    def _require_same(self, other):
        if self.trunc != other.trunc:
            raise TruncationMismatch(
                f"q-truncations differ: {self.trunc} != {other.trunc}")

    # -- arithmetic --------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        self._require_same(other)
        out = dict(self.coeffs)
        for e, p in other.coeffs.items():
            if e not in out:
                out[e] = p
                continue
            row = dict(out.pop(e).coeffs)
            for deg, c in p.coeffs.items():
                c += row.pop(deg, 0)
                if c:
                    row[deg] = c
            if row:
                out[e] = DPoly._wrap(row)
        return QLaurent._wrap_clean(self.trunc, out)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __neg__(self):
        return QLaurent._wrap_clean(self.trunc, {
            e: DPoly._wrap({deg: -c for deg, c in p.coeffs.items()})
            for e, p in self.coeffs.items()})

    def __mul__(self, other):
        other = self._coerce(other)
        self._require_same(other)
        trunc = self.trunc
        acc = {}
        for e1, p1 in self.coeffs.items():
            for e2, p2 in other.coeffs.items():
                e = e1 + e2
                if e <= trunc:
                    row = acc.setdefault(e, {})
                    for d1, c1 in p1.coeffs.items():
                        for d2, c2 in p2.coeffs.items():
                            c = row.pop(d1 + d2, 0) + c1 * c2
                            if c:
                                row[d1 + d2] = c
        return QLaurent._wrap_clean(trunc, {e: DPoly._wrap(row)
                                            for e, row in acc.items() if row})

    __rmul__ = __mul__

    def scale_by_monomial(self, e_q, e_d=0):
        """Multiply by the monomial ``d**e_d * q**e_q``.

        A negative ``e_q`` lowers ``min_exp``; terms pushed above
        ``trunc`` are dropped.
        """
        trunc = self.trunc
        return QLaurent._wrap_clean(trunc, {
            e + e_q: DPoly._wrap({k + e_d: c for k, c in p.coeffs.items()})
            if e_d else p
            for e, p in self.coeffs.items() if e + e_q <= trunc})

    @classmethod
    def _from_packed(cls, trunc, items, width):
        """The series whose ``q**e`` coefficient ``P_e`` has
        ``P_e(2**width)`` the int paired with ``e`` in ``items``.

        Each slot is read as a signed ``width``-bit int and taken off
        before the shift to the next, which is exact when every
        coefficient lies in ``[-2^(width-1), 2^(width-1))``.  Every ``e``
        must be at most ``trunc``, and ``width`` at least 2.
        """
        if width < 2:
            raise ValueError(f"slot width {width} is below 2")
        mask = (1 << width) - 1
        half = 1 << (width - 1)
        coeffs = {}
        for e, packed in filter(itemgetter(1), items):
            row = {}
            k = 0
            while packed:
                c = packed & mask
                packed >>= width
                if c >= half:       # a negative slot borrowed one above
                    c -= 1 << width
                    packed += 1
                if c:
                    row[k] = c
                k += 1
            if row:
                coeffs[e] = DPoly._wrap(row)
        return cls._wrap_clean(trunc, coeffs)

    def with_trunc(self, new_trunc):
        """Re-truncate to ``new_trunc``.

        Lowering drops terms above the new bound.  Raising keeps the
        terms as-is and checks nothing: the caller must know that no
        term between the old and the new bound was dropped, as for an
        exact Laurent polynomial whose exponents all lie at or below the
        old bound.
        """
        if new_trunc == self.trunc:
            return self
        return QLaurent(new_trunc, self.coeffs)

    # -- inspection / io ---------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, DPoly)):
            other = QLaurent(self.trunc, {0: other})
        if not isinstance(other, QLaurent):
            return NotImplemented
        return self.trunc == other.trunc and self.coeffs == other.coeffs

    __hash__ = None

    def to_json_obj(self):
        """Canonical JSON shape: exponent-sorted terms, integer strings."""
        return {
            "trunc": self.trunc,
            "terms": [
                {"q": e, "d": deg, "c": str(c)} for e, deg, c in self.terms()
            ],
        }

    def __str__(self):
        if not self.coeffs:
            return "0"
        bits = []
        for e in sorted(self.coeffs):
            p = self.coeffs[e]
            if e == 0:
                bits.append(f"({p})")
            else:
                bits.append(f"({p})*q^{e}")
        return " + ".join(bits)

    __repr__ = __str__

    def _coerce(self, other):
        if isinstance(other, (int, DPoly)):
            return QLaurent(self.trunc, {0: other})
        if isinstance(other, QLaurent):
            return other
        raise TypeError(f"cannot combine QLaurent with {type(other).__name__}")

    @classmethod
    def _wrap(cls, trunc, raw):
        # internal: `raw` maps exponent -> {degree: int}, may hold zeros
        obj = cls.__new__(cls)
        obj.trunc = trunc
        coeffs = {}
        for e, row in raw.items():
            row = {deg: c for deg, c in row.items() if c}
            if row:
                coeffs[e] = DPoly._wrap(row)
        obj.coeffs = coeffs
        return obj

    @classmethod
    def _wrap_clean(cls, trunc, coeffs):
        # internal: values are already zero-free DPoly past the trunc filter
        obj = cls.__new__(cls)
        obj.trunc = trunc
        obj.coeffs = coeffs
        return obj


def _mul_rows(pairs, trunc):
    """``sum a*b`` over the ``(a, b)`` of ``pairs``, ``a`` an ``{e: int}``
    map and ``b`` a row, as a row.  Each term ``x q^e`` of ``a`` adds ``x``
    times ``b``, shifted by ``e``, in one slice; a term with ``x = 1`` adds
    ``b`` and one with ``x = -1`` subtracts it, with no multiplication.  The
    result starts at ``q^0`` or, if a term of some ``a`` reaches lower on
    the first entry of its ``b``, at the lowest such exponent, so nothing
    below ``q^0`` is dropped."""
    size = max([trunc + 1, *(len(b) - min(a) for a, b in pairs if a)])
    out = [0] * size
    for a, b in pairs:
        n = len(b)
        for e, x in a.items():
            i = e + size - n
            if not x or i >= size:
                continue
            if x == 1:
                out[i:i + n] = map(add, out[i:i + n], b)
            elif x == -1:
                out[i:i + n] = map(sub, out[i:i + n], b)
            else:
                out[i:i + n] = [y + x * z for y, z in zip(out[i:i + n], b)]
    return out


def _mul_maps(a, b, out, e=0, k=0):
    """Add ``q^e d^k a b`` to ``out`` and return it, for ``{(e, k): c}`` maps
    of exact Laurent polynomials: nothing is truncated, and a 0 is dropped."""
    for (e1, k1), c1 in a.items():
        for (e2, k2), c2 in b.items():
            key = e + e1 + e2, k + k1 + k2
            c = out.pop(key, 0) + c1 * c2
            if c:
                out[key] = c
    return out


def _read_row(trunc, width, row):
    """A row packed at ``d = 2^width``, ending at ``q^trunc``, read back."""
    return QLaurent._from_packed(trunc, enumerate(row, trunc + 1 - len(row)),
                                 width)


def _first_term(trunc, width, a, b=()):
    """The first term ``(q, d, c)`` of ``a - b``, or None if it is 0, for
    rows packed at ``d = 2^width`` that end at ``q^trunc``, each read back
    on its own (their difference can leave the slots' range) if they differ."""
    if (a == b) if b else not any(a):
        return None
    return (_read_row(trunc, width, a)
            - _read_row(trunc, width, b)).first_nonzero()


def _binomial_step(row, s, c, over=False):
    """Multiply ``row`` in place by ``1 + c q^s``, or with ``over`` divide
    it by ``1 - c q^s``, for ``s > 0``: each entry adds ``c`` times the one
    ``s`` below it, as it was for the product (one slice) and as it has
    become for the quotient (one block of ``s`` entries at a time, in
    ascending order).  At ``c = 1``, as in every division of majorants and
    every ``1 + q^e``, an entry adds the other with no multiplication."""
    if not over:
        if c == 1:
            row[s:] = map(add, row[s:], row)
        else:
            row[s:] = [x + c * y for x, y in zip(row[s:], row)]
        return
    for i in range(s, len(row), s):
        if c == 1:
            row[i:i + s] = map(add, row[i:i + s], row[i - s:i])
        else:
            row[i:i + s] = [x + c * y
                            for x, y in zip(row[i:i + s], row[i - s:i])]


def _div_row(row, factors):
    """``row`` divided in place by ``prod (1 - c q^s)`` over the ``(s, c)``
    of ``factors``, ``s > 0``, one factor at a time; returns ``row``."""
    for s, c in factors:
        _binomial_step(row, s, c, over=True)
    return row


class XSeries:
    """Truncated series in ``x`` whose coefficients are ``QLaurent``.

    ``coeffs[j]`` is the coefficient of ``x**j``; the list always has
    ``x_trunc + 1`` entries sharing one q-truncation.
    """

    __slots__ = ("x_trunc", "coeffs")

    def __init__(self, x_trunc, coeffs):
        coeffs = tuple(coeffs)
        if len(coeffs) != x_trunc + 1:
            raise ValueError("need exactly x_trunc + 1 coefficients")
        qt = coeffs[0].trunc
        for c in coeffs:
            if c.trunc != qt:
                raise TruncationMismatch("x-coefficients mix q-truncations")
        self.x_trunc = x_trunc
        self.coeffs = coeffs

    @classmethod
    def one(cls, x_trunc, trunc):
        row = [QLaurent.one(trunc)]
        row += [QLaurent.zero(trunc)] * x_trunc
        return cls(x_trunc, row)

    @property
    def trunc(self):
        return self.coeffs[0].trunc

    def _require_same(self, other):
        if self.x_trunc != other.x_trunc:
            raise TruncationMismatch(
                f"x-truncations differ: {self.x_trunc} != {other.x_trunc}")
        if self.trunc != other.trunc:
            raise TruncationMismatch(
                f"q-truncations differ: {self.trunc} != {other.trunc}")

    def __add__(self, other):
        self._require_same(other)
        return XSeries(self.x_trunc,
                       [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __mul__(self, other):
        if isinstance(other, (int, DPoly, QLaurent)):
            return XSeries(self.x_trunc, [a * other for a in self.coeffs])
        self._require_same(other)
        out = [QLaurent.zero(self.trunc) for _ in range(self.x_trunc + 1)]
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                if i + j > self.x_trunc:
                    break
                if b.is_zero():
                    continue
                out[i + j] = out[i + j] + a * b
        return XSeries(self.x_trunc, out)

    __rmul__ = __mul__

    def shift_x(self, k):
        """Multiply by ``x**k``, dropping degrees past ``x_trunc``."""
        z = QLaurent.zero(self.trunc)
        row = [z] * min(k, self.x_trunc + 1) + list(
            self.coeffs[: self.x_trunc + 1 - k])
        return XSeries(self.x_trunc, row)

    def divide(self, den):
        """Exact quotient in ``x``; ``den`` must have constant term 1."""
        self._require_same(den)
        if den.coeffs[0] != QLaurent.one(self.trunc):
            raise NonUnitLeadingTerm(
                "x-divisor must have constant coefficient 1")
        quo = []
        for j in range(self.x_trunc + 1):
            acc = self.coeffs[j]
            for i in range(1, j + 1):
                if den.coeffs[i].is_zero():
                    continue
                acc = acc - den.coeffs[i] * quo[j - i]
            quo.append(acc)
        return XSeries(self.x_trunc, quo)

    def __eq__(self, other):
        if not isinstance(other, XSeries):
            return NotImplemented
        return (self.x_trunc == other.x_trunc
                and list(self.coeffs) == list(other.coeffs))

    __hash__ = None

    def __str__(self):
        bits = [f"x^{j}: {c}" for j, c in enumerate(self.coeffs)
                if not c.is_zero()]
        return "{" + "; ".join(bits) + "}" if bits else "0"

    __repr__ = __str__


# -- named series constructors ---------------------------------------


@lru_cache(maxsize=None)
def _gauss_coeffs(m, r):
    """Coefficient tuple of the Gaussian binomial [m r] in ascending degree."""
    if r < 0 or r > m:
        return ()
    if r == 0 or r == m:
        return (1,)
    lo = _gauss_coeffs(m - 1, r - 1)
    hi = _gauss_coeffs(m - 1, r)
    out = [0] * (r * (m - r) + 1)
    for i, c in enumerate(lo):
        out[i] += c
    for i, c in enumerate(hi):
        out[i + r] += c
    return tuple(out)


def _gaussian(m, r, base_exp, shift=0):
    """``q^shift [m r]`` at ``q**base_exp`` as an ``{(e, 0): c}`` map."""
    return {(shift + i * base_exp, 0): c
            for i, c in enumerate(_gauss_coeffs(m, r))}


def qbinomial(m, r, base_exp, trunc=None):
    """Gaussian binomial [m r] evaluated at ``q**base_exp``.

    Returns the exact Laurent polynomial, which is 0 whenever ``r`` lies
    outside ``0..m`` (in particular for negative ``m``).  When ``trunc``
    is omitted it is chosen just large enough to hold every monomial of
    the result.
    """
    if base_exp == 0:
        raise ValueError("base exponent must be nonzero")
    coeffs = _gauss_coeffs(m, r)
    exps = [i * base_exp for i in range(len(coeffs))]
    if trunc is None:
        trunc = max([0] + exps)
    return QLaurent.from_terms(
        trunc, ((e, 0, c) for e, c in zip(exps, coeffs) if c))


def _overpartition_count(n):
    """``pbar(n)``, the number of overpartitions of ``n``: the coefficient of
    ``q^n`` in ``prod_s (1 + q^s) / (1 - q^s)``, which is ``1 / (1 + 2
    sum_(k>=1) (-1)^k q^(k^2))`` by Gauss's identity, so ``pbar(m) = 2
    sum_(1<=k<=sqrt(m)) (-1)^(k+1) pbar(m - k^2)``."""
    p = [1]
    for m in range(1, n + 1):
        p.append(2 * sum(p[m - k * k] if k % 2 else -p[m - k * k]
                         for k in range(1, isqrt(m) + 1)))
    return p[n]


@lru_cache(maxsize=8)
def _slot_width(n_max):
    """Bits per ``k`` slot of a packed count vector up to ``n_max``: one
    more than ``pbar(n_max)`` needs, so every count of overpartitions of
    some ``n <= n_max`` lies below the sign bit of
    :meth:`QLaurent._from_packed`.

    A command asks for a few truncations, so a few widths are kept.
    """
    return _overpartition_count(n_max).bit_length() + 1


def _count_width(n_max, width=None):
    """The slot width of rows of overpartition counts up to ``n_max``:
    ``width`` if given, else ``_slot_width(n_max)``; ``ValueError`` if
    ``width`` is below ``_slot_width(n_max)``, the least width that holds
    every such count."""
    need = _slot_width(n_max)
    if width is None:
        return need
    if width < need:
        raise ValueError(f"slot width {width} is below {need}, which holds "
                         f"every count up to {n_max}")
    return width


def _decode_counts(rows, width):
    """The rows ``n = 0 .. n_max`` of a counter packed at ``width`` as they
    are, or for ``width`` None, packed at ``_slot_width(n_max)``, read back
    into a ``QLaurent``."""
    if width is not None:
        return rows
    n_max = len(rows) - 1
    return _read_row(n_max, _slot_width(n_max), rows)


def product_F(sys, trunc, *, width=None):
    """Generating function for congruence-restricted overpartitions.

    Expands ``prod_j (-q^(N-a(j)); q^N)_inf / (d q^(N-a(j)); q^N)_inf``:
    the coefficient of ``q^n d^k`` counts overpartitions of ``n`` whose
    parts are all congruent to some ``-a(j)`` modulo ``N``, with ``k``
    non-overlined parts.  A generator ``a(j) = N`` allows the parts
    ``0 mod N``, so its factors start at ``q^N``, the least such part.

    The coefficients are packed at ``d = 2^width`` (see the module
    docstring) in a row, and each factor, largest part first, is two
    in-place steps over it (:func:`_binomial_step`): ``1 + q^e`` adds the
    row shifted by ``e`` as it was, and ``1 / (1 - d q^e)`` adds ``d``
    times the entry ``e`` below as it has become.  Largest first, the
    packed ints stay short until the last factors.  At every
    point the ``q^n`` coefficient is that of a partial product, the
    generating function of overpartitions with parts in a set of sizes, so
    its ``d^k`` coefficient counts those of ``n`` with ``k`` non-overlined
    parts: nonnegative and at most ``pbar(n) <= pbar(trunc)``, so it stays
    in a slot of ``_slot_width(trunc)`` bits and below the sign bit.  With
    ``width`` (``ValueError`` below that bound), the packed coefficients of
    ``q^0 .. q^trunc`` are returned as a list and nothing is read back.
    """
    if trunc < 0:
        raise ValueError("trunc must be non-negative")
    d = 1 << _count_width(trunc, width)
    c = [1] + [0] * trunc
    for e in sorted((e for g in sys.a
                     for e in range((sys.N - g) or sys.N, trunc + 1, sys.N)),
                    reverse=True):
        _binomial_step(c, e, 1)                 # times 1 + q^e
        _binomial_step(c, e, d, over=True)      # over 1 - d q^e
    return _decode_counts(c, width)

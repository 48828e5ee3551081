"""Brute-force counters for both sides of the identity.

``count_F`` counts overpartitions whose parts lie in fixed residue
classes; ``count_G`` counts those subject to gap conditions driven by
the weight maps of the modulus system.  Both are direct enumerations
with no generating-function machinery, and the two sides agreeing
entrywise is the identity everything else in the package verifies.
The unrestricted table is ``count_F`` on the system ``1/{1}``, which
allows every part size.  The tests check each counter against generate-
and-filter over all overpartitions, with the gap conditions written out
afresh there.

An overpartition is a weakly decreasing sequence of parts in which the
first occurrence of each part size may be overlined; ``k`` always
denotes the number of non-overlined parts.  Every counter returns a
``QLaurent`` truncated at ``n_max``, used only as a container: the
coefficient of ``d^k q^n`` is the count of size ``n`` with ``k``
non-overlined parts.

Both sides are tabulated bottom-up, with no recursion: ``count_F`` one
part size at a time, the gap side one column of running totals at a
time (see ``_Completions``).

While counting, a vector of counts by ``k`` is packed into one int, with
the count at ``k`` in the ``width``-bit slot starting at bit
``k * width``: placing a non-overlined part is a shift by ``width`` and
summing vectors is ``+``.  Every packed count is the size of a set of
overpartitions of some ``m <= n_max``, so it is at most ``pbar(n_max)``,
the number of overpartitions of ``n_max``; a ``width`` of at least
``series_ring._slot_width(n_max)``, one bit more than ``pbar(n_max)``
needs, keeps every sum in its slot and below the sign bit of
``QLaurent._from_packed``, which reads the counts back.  Given a
``width`` (``ValueError`` below that bound), ``count_F`` and ``count_G``
return their rows packed at it and read nothing back, so the
``theorem`` check compares both sides, the infinite product and the
recurrence limit as ints at one width: two rows packed at one such
width are equal exactly when their count vectors are.
"""

from __future__ import annotations

from bisect import bisect_right

from .alpha_system import beta
from .series_ring import _count_width, _decode_counts, _slot_width


def count_F(sys, n_max, *, width=None):
    """Count overpartitions with every part ``= -a(i) mod N``.

    Direct enumeration over admissible part sizes; the coefficient of
    ``d^k q^n`` is the number of such overpartitions of ``n`` with ``k``
    non-overlined parts.  Per admissible size a multiplicity is chosen
    freely; if positive, the first copy is either overlined or not.  One
    pass per size, largest first, adds the ways that use it to the rows
    built from the larger sizes.  With ``width``, the rows ``n = 0 ..
    n_max`` are returned as a list, packed at ``d = 2^width``.
    """
    if n_max < 0:
        raise ValueError("n_max must be non-negative")
    w = _count_width(n_max, width)
    allowed = set(sys.a)
    rows = [1] + [0] * n_max
    for s in range(n_max, 0, -1):
        if beta(sys, -s) not in allowed:
            continue
        # placed[n]: the ways to fill n that use s, before its first copy
        # is marked; either this is the first copy, or one more plain copy
        # goes on top of placed[n - s]
        placed = [0] * (n_max + 1)
        for n in range(s, n_max + 1):
            placed[n] = rows[n - s] + (placed[n - s] << w)
        # the first copy is overlined (at k) or not (at k + 1)
        for n in range(s, n_max + 1):
            rows[n] += placed[n] + (placed[n] << w)
    return _decode_counts(rows, width)


def _smallest_part_ok(sys, size):
    res = beta(sys, -size)
    return size >= sys.N * (sys.w_table[res] - 1)


class _Completions:
    """The ways to complete a gap-condition overpartition below its
    largest part, for every admissible part size ``<= n_max``.

    Below the largest part, parts are placed in decreasing order, pruned
    with the gap bound.  The ways to fill ``m`` below a placed
    ``admissible[i]`` (a completion) depend on that part only through the
    largest sizes it admits next: ``u_plain`` non-overlined and
    ``u_plain - N`` overlined.  So ``totals[m][c]`` keeps, over the first
    ``c`` admissible sizes ``s``, the ways to fill ``m`` with largest part
    ``s``, and a completion is the two running totals at columns
    ``bisect(admissible, min(m, u)) = min(cols[m], bisect(admissible,
    u))``, bisected once per ``m`` and once per size: two list reads.

    Column ``c`` of ``totals[m]`` adds the completion of ``m - s`` below
    ``s = admissible[c - 1]``, which reads ``totals[m - s]`` at columns at
    most ``plain[c - 1] <= c``, because ``u_plain <= s``.  Write ``res =
    beta(-s)``, ``w = w(res)`` and ``v = v(res)``, so ``u_plain = s - N(w -
    1) - v + res``.  If ``w = 1``, ``res`` is one generator and ``v =
    res``, so ``u_plain = s``.  If ``w >= 2``, ``res - v`` sums some
    generators but not ``v``, so ``res - v < sum(a) <= N <= N(w - 1)`` and
    ``u_plain < s``.  So the table fills column by column, each in
    increasing ``m``, and only as far as :meth:`row` is asked to reach.

    ``totals[m]`` is read only by completions below the sizes ``<= n_max
    - m``, so it has no column past ``last[m]``, the last column one of
    them reads.  It is allocated at that length, zeros until built, and a
    column is stored by index, so a pass cut short and run again stores
    the same values.  :meth:`row` reads the running totals and adds the
    completions past them one by one; :meth:`column` gives the rows of one
    largest part for every ``n`` at once.  Totals and completions are count
    vectors packed by ``width``, ``guard`` bits wider than
    ``_slot_width(n_max)`` for a caller that sums signed rows or compares
    them with rows at a wider width.
    """

    def __init__(self, sys, n_max, guard=0):
        alpha_set = set(sys.alpha)
        self.width = _slot_width(n_max) + guard
        adm = self.admissible = [s for s in range(1, n_max + 1)
                                 if beta(sys, -s) in alpha_set]
        self.smallest_ok = [int(_smallest_part_ok(sys, s)) for s in adm]
        self.cols = [bisect_right(adm, m) for m in range(n_max + 1)]
        # plain[i], over[i]: bisect(adm, u) for the largest part allowed
        # below adm[i], non-overlined (u = u_plain) and overlined
        self.plain, self.over = [], []
        for s in adm:
            res = beta(sys, -s)
            u = s - sys.N * (sys.w_table[res] - 1) - sys.v_table[res] + res
            self.plain.append(bisect_right(adm, u))
            self.over.append(bisect_right(adm, u - sys.N))
        reach = [0]     # reach[j]: the last column read below adm[:j]
        for c in self.plain:
            reach.append(max(reach[-1], c))
        last = [min(self.cols[m], reach[self.cols[n_max - m]])
                for m in range(n_max + 1)]
        self.totals = [[0] * (c + 1) for c in last]
        # last[m] >= c holds for m from adm[c - 1] up to ends[c - 1], as
        # cols[m] grows with m and reach[cols[n_max - m]] shrinks
        self.ends = []
        for m in range(n_max, 0, -1):
            self.ends += [m] * (last[m] - len(self.ends))
        self.filled = 0     # the columns built so far

    def _extend(self, stop):
        """Build the columns up to ``stop`` of every ``totals[m]`` that
        stores them."""
        totals, cols, width = self.totals, self.cols, self.width
        for j in range(self.filled, min(stop, len(self.ends))):
            c, s, end = j + 1, self.admissible[j], self.ends[j]
            over, plain = self.over[j], self.plain[j]
            if end >= s:
                totals[s][c] = totals[s][j] + self.smallest_ok[j]
            for m in range(s + 1, end + 1):
                t, b = totals[m - s], cols[m - s]
                col = totals[m]
                col[c] = (col[j] + t[over if over < b else b]
                          + (t[plain if plain < b else b] << width))
        self.filled = stop

    def row(self, n):
        """The packed count vector of the gap-condition overpartitions of
        ``n``: the completions below every admissible largest part ``<= n``
        are summed first, then that part is placed once, overlined (at
        ``k``) and non-overlined (at ``k + 1``)."""
        stop = self.cols[n]
        if self.filled < stop:
            self._extend(stop)
        totals, cols, width = self.totals, self.cols, self.width
        col = totals[n]
        mid = min(stop, len(col) - 1)
        below = col[mid]            # column 0 is the empty sum
        for i in range(mid, stop):
            r = n - self.admissible[i]
            if r == 0:
                below += self.smallest_ok[i]
                continue
            t, b = totals[r], cols[r]
            over, plain = self.over[i], self.plain[i]
            below += (t[over if over < b else b]
                      + (t[plain if plain < b else b] << width))
        return below + (below << width)

    def column(self, i):
        """The packed count vectors of the gap-condition overpartitions of
        ``n`` with largest part ``admissible[i]``, for ``n`` from
        ``admissible[i]`` to ``n_max``, in one pass: each completion is
        read off the running totals of ``r = n - admissible[i]``, whether
        or not ``totals[n]`` stores column ``i + 1``."""
        if self.filled <= i:
            self._extend(i + 1)
        totals, cols, width = self.totals, self.cols, self.width
        over, plain = self.over[i], self.plain[i]
        first = self.smallest_ok[i]
        out = [first + (first << width)]
        for r in range(1, len(totals) - self.admissible[i]):
            t, b = totals[r], cols[r]
            below = (t[over if over < b else b]
                     + (t[plain if plain < b else b] << width))
            out.append(below + (below << width))
        return out


def count_G(sys, n_max, *, width=None):
    """Count gap-condition overpartitions, by largest part.

    Row ``n`` sums the completions of every admissible largest part
    ``<= n``.  The constant term is 1 (the empty overpartition).  The
    counters with a bounded largest part are
    ``recurrence_engine.g_series``.  With ``width``, the rows ``n = 0 ..
    n_max`` are returned as a list, packed at ``d = 2^width`` by a
    completions table with ``width - _slot_width(n_max)`` guard bits.  The
    table is freed before the rows are read back.
    """
    if n_max < 0:
        raise ValueError("n_max must be non-negative")
    w = _count_width(n_max, width)
    table = _Completions(sys, n_max, w - _slot_width(n_max))
    rows = [1] + [table.row(n) for n in range(1, n_max + 1)]
    del table
    return _decode_counts(rows, width)


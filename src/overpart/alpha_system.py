"""Modulus systems built from a dominated set of generators.

A system is a pair ``(N, A)`` where ``A = {a(1) < ... < a(r)}`` is a set
of positive integers in which every generator exceeds the sum of all
smaller ones, and ``N`` is a modulus at least as large as the total sum.
The dominance condition makes all ``2**r - 1`` nonempty subset sums
distinct; the sorted list of those sums is the derived set ``alpha``.
Each subset sum remembers how many generators it uses (``w``) and the
smallest generator involved (``v``); these two maps drive both the
difference conditions on the counting side and the recurrence
coefficients on the series side.
"""

from __future__ import annotations

from .series_ring import QLaurent


class InvalidSystem(ValueError):
    """The generator list and modulus do not form an admissible system."""


class DominanceViolated(InvalidSystem):
    """Some generator is at most the sum of the smaller generators."""


class SumsNotDistinct(InvalidSystem):
    """Two distinct generator subsets share the same sum."""


class ModulusTooSmall(InvalidSystem):
    """The modulus is smaller than the sum of all generators."""


#: Hard cap on the number of generators; the alpha table has 2**r - 1
#: entries, so anything near this bound is already far past desk scale.
MAX_GENERATORS = 16


class AlphaSystem:
    """Validated modulus system with its subset-sum and weight tables.

    ``alpha`` lists all nonempty subset sums ascending; ``w_table`` and
    ``v_table`` map each subset sum to its number of summands and its
    smallest summand; ``summands`` keeps the defining generator subset.
    ``a_ext`` is the sentinel ``a(r+1) = N + a(1)`` used as an upper
    bound meaning "all subset sums".  Instances are immutable and safe
    to share between threads.
    """

    __slots__ = ("a", "N", "alpha", "w_table", "v_table", "summands", "a_ext")

    def __init__(self, a, N, alpha, w_table, v_table, summands, a_ext):
        for name, value in zip(self.__slots__, (a, N, alpha, w_table, v_table,
                                                summands, a_ext)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # copies and pickles rebuild through __init__, the slots in order
        return type(self), tuple(getattr(self, name)
                                 for name in self.__slots__)

    @property
    def r(self):
        return len(self.a)

    def generator(self, k):
        """The generator ``a(k)`` (1-based); ``k = r + 1`` is the sentinel."""
        if k == self.r + 1:
            return self.a_ext
        return self.a[k - 1]

    def __eq__(self, other):
        if not isinstance(other, AlphaSystem):
            return NotImplemented
        return self.a == other.a and self.N == other.N

    def __hash__(self):
        return hash((self.a, self.N))

    def __repr__(self):
        return f"AlphaSystem(N={self.N}, a={list(self.a)})"


def build_system(a, N):
    """Validate ``(a, N)`` and build the full ``AlphaSystem``.

    Raises ``SumsNotDistinct`` when two generator subsets collide,
    ``DominanceViolated`` when some ``a(k)`` is at most the sum of the
    smaller generators, and ``ModulusTooSmall`` when ``N`` is below the
    total sum.  Plain malformed input (empty, unsorted, non-positive)
    raises ``ValueError``.
    """
    a = tuple(int(x) for x in a)
    N = int(N)
    if not a:
        raise ValueError("generator list must be nonempty")
    if any(x <= 0 for x in a):
        raise ValueError("generators must be positive")
    if any(y <= x for x, y in zip(a, a[1:])):
        raise ValueError("generators must be strictly increasing")
    if len(a) > MAX_GENERATORS:
        raise ValueError(
            f"at most {MAX_GENERATORS} generators are supported, got {len(a)}")
    if N <= 0:
        raise ValueError("modulus must be positive")

    r = len(a)
    summands = {}
    for mask in range(1, 1 << r):
        subset = tuple(a[i] for i in range(r) if mask & (1 << i))
        s = sum(subset)
        if s in summands:
            other = summands[s]
            raise SumsNotDistinct(
                f"subset sums collide at {s}: {other} and {subset}")
        summands[s] = subset
    for k in range(r):
        lead = sum(a[:k])
        if a[k] <= lead:
            raise DominanceViolated(
                f"a({k + 1}) = {a[k]} must exceed the sum "
                f"{lead} of the smaller generators")
    total = sum(a)
    if N < total:
        raise ModulusTooSmall(f"modulus {N} is below the total sum {total}")

    alpha = tuple(sorted(summands))
    w_table = {s: len(subset) for s, subset in summands.items()}
    v_table = {s: min(subset) for s, subset in summands.items()}
    return AlphaSystem(a=a, N=N, alpha=alpha, w_table=w_table,
                       v_table=v_table, summands=summands,
                       a_ext=N + a[0])


def beta(sys, m):
    """Least positive residue of ``m`` modulo ``N``, valued in ``1..N``.

    Multiples of ``N`` map to ``N`` rather than 0, and negative ``m`` is
    fine, so expressions like ``beta(sys, -part)`` need no special
    casing.
    """
    rem = m % sys.N
    return sys.N if rem == 0 else rem


def alpha_weight_sum(sys, bound_index, weight):
    """Sum of ``q**-alpha``, at trunc 0, over subset sums below a cutoff.

    ``bound_index`` selects the upper bound ``a(bound_index)`` (1-based,
    with ``r + 1`` meaning the sentinel, i.e. no restriction), and only
    subset sums with exactly ``weight`` summands contribute.  Weight 0
    gives the constant 1, and an empty selection (including every
    ``weight > r``) gives 0.
    """
    if not 1 <= bound_index <= sys.r + 1:
        raise ValueError(f"bound index {bound_index} outside 1..{sys.r + 1}")
    if weight < 0:
        raise ValueError("weight must be non-negative")
    if weight == 0:
        return QLaurent.one(0)
    bound = sys.generator(bound_index)
    return QLaurent.from_terms(
        0,
        ((-s, 0, 1) for s in sys.alpha
         if s < bound and sys.w_table[s] == weight))

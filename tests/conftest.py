import pytest
from hypothesis import strategies as st

from overpart import QLaurent, build_system
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
    """Yield every overpartition of n as ((size, overlined), ...) tuples.

    Non-canonical placements (overline not first in an equal run, double
    overlines) are yielded too; consumers filter through validate().
    """
    if n == 0:
        yield ()
        return
    mp = min(n, max_part if max_part is not None else n)
    for size in range(mp, 0, -1):
        for rest in gen_overpartitions(n - size, size):
            yield ((size, False),) + rest
            yield ((size, True),) + rest


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

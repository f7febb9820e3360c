"""Shared fixtures.

The expensive objects in this suite are exact Laplacian pseudoinverses, which
Network caches per instance.  These factories memoize the networks themselves
for the whole session so each pseudoinverse is computed exactly once no matter
how many tests touch it.  `full_size` gives the closed forms at the full
exponent n, the reference for the half-size forms the package computes.
"""

from fractions import Fraction

import pytest

from prismres import build_ladder, build_prism
from prismres.genfib import gfib


def _memoized(builder):
    cache = {}

    def get(n: int):
        if n not in cache:
            cache[n] = builder(n)
        return cache[n]

    return get


@pytest.fixture(scope="session")
def prisms():
    return _memoized(build_prism)


@pytest.fixture(scope="session")
def ladders():
    return _memoized(build_ladder)


@pytest.fixture(scope="session")
def float_prisms(prisms):
    return _memoized(lambda n: prisms(n).to_float())


@pytest.fixture(scope="session")
def float_ladders(ladders):
    return _memoized(lambda n: ladders(n).to_float())


def _unit(k: int) -> tuple[int, int]:
    """(u_k, a_k) with (2 + sqrt3)^k = u_k + a_k sqrt3."""
    a = gfib(k)
    return gfib(k + 1) - 2 * a, a


def _resistance(n, i, kind, un, an, um, am, ul, al) -> Fraction:
    """r(p1, p_i) or r(p1, q_i) from the powers at n, m = n - i + 1 and l = i - 1."""
    g = un - 1
    flat = 2 * (n - i + 1) * (i - 1) * g + 2 * n * an
    tail = n * (an * (um + ul) - (am + al) * g)
    return Fraction(flat - tail if kind == "pp" else flat + tail, 4 * n * g)


class FullSize:
    """The prism's closed forms built from (2 + sqrt3)^n itself, not from its square root.

    With (2 + sqrt3)^n = u_n + a_n sqrt3 and g = u_n - 1: Kirchhoff index
    n(n^2 - 1)/6 + n^2 a_n/g, trigonometric sum n a_n/g, n g spanning trees,
    and r(p1, p_i), r(p1, q_i) = (n-i+1)(i-1)/(2n) + a_n/(2g)
    -/+ [a_n (u_m + u_l)/(4g) - (a_m + a_l)/4] with m = n - i + 1, l = i - 1.
    """

    @staticmethod
    def kirchhoff(n: int) -> Fraction:
        un, an = _unit(n)
        return Fraction(n * (n * n - 1), 6) + Fraction(n * n * an, un - 1)

    @staticmethod
    def trig_sum(n: int) -> Fraction:
        un, an = _unit(n)
        return Fraction(n * an, un - 1)

    @staticmethod
    def tree_count(n: int) -> int:
        return n * (_unit(n)[0] - 1)

    @staticmethod
    def resistance(n: int, i: int, kind: str) -> Fraction:
        return _resistance(n, i, kind, *_unit(n), *_unit(n - i + 1), *_unit(i - 1))

    @staticmethod
    def first_row(n: int) -> list[Fraction]:
        """r(p1, p_i) then r(p1, q_i) for i = 1..n, stepping the powers from (u_n, a_n)."""
        un, an = _unit(n)
        um, am, ul, al = un, an, 1, 0
        pp, pq = [], []
        for i in range(1, n + 1):
            pp.append(_resistance(n, i, "pp", un, an, um, am, ul, al))
            pq.append(_resistance(n, i, "pq", un, an, um, am, ul, al))
            um, am = 2 * um - 3 * am, 2 * am - um
            ul, al = 2 * ul + 3 * al, ul + 2 * al
        return pp + pq


@pytest.fixture(scope="session")
def full_size():
    return FullSize

"""The integer sequence 0, 1, 4, 15, 56, ... and spanning-tree counts built on it.

The sequence satisfies a[k+2] = 4 a[k+1] - a[k] and is the exact-integer
backbone of every closed form in this package: (2 + sqrt3)^k = u_k + a_k sqrt3
with u_k = a[k+1] - 2 a[k], so a_k = ((2 + sqrt3)^k - (2 - sqrt3)^k)/(2 sqrt3).
The field route checks that identity in Q(sqrt 3); this module imports
nothing from the package.  The closed forms of a prism of n rungs
read only a[k] and a[k+1] at k = n // 2 (and powers below them), because
(2 + sqrt3)^n is the square of (2 + sqrt3)^k, times 2 + sqrt3 for odd n.
"""

from __future__ import annotations


def _check_n(n: int) -> None:
    """Reject a prism size below 1: the one domain check of the closed forms."""
    if n < 1:
        raise ValueError(f"prism index must be positive, got {n}")


def gfib(n: int) -> int:
    """n-th term of a[k+2] = 4 a[k+1] - a[k] with a[0] = 0, a[1] = 1.

    Binary powering of (2 + sqrt3)^n = u + a sqrt3 over the integers, from
    the top bit of n down: a squaring is (u, a) -> (2u^2 - 1, 2ua), which uses
    the unit norm u^2 - 3a^2 = 1, and a set bit multiplies by 2 + sqrt3,
    (u, a) -> (2u + 3a, u + 2a).  Nothing is stored between calls.
    """
    if n < 0:
        raise ValueError(f"sequence index must be nonnegative, got {n}")
    u, a = 1, 0
    for bit in bin(n)[2:]:
        u, a = 2 * u * u - 1, 2 * u * a
        if bit == "1":
            u, a = 2 * u + 3 * a, u + 2 * a
    return a


def prism_spanning_tree_count(n: int) -> int:
    """Number of spanning trees of the n-prism, from the terms at k = n // 2.

    The count is n (u_n - 1) with (2 + sqrt3)^n = u_n + a_n sqrt3, which is
    the paper's (n/2) (a[2n]/a[n] - 2) because a[2n] = 2 u_n a[n].  Halving
    the exponent, u_n - 1 is 6 a[k]^2 for n = 2k and (a[k] + a[k+1])^2 for
    n = 2k + 1 (1, 12, 75, ... for n = 1, 2, 3).
    """
    _check_n(n)
    k, odd = divmod(n, 2)
    a = gfib(k)
    if not odd:
        return 6 * n * a * a
    return n * (a + gfib(k + 1)) ** 2

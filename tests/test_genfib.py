"""The 0, 1, 4, 15, 56, ... sequence and its closed-form identities."""

import random

import pytest

from prismres.exact import Qsqrt3, two_minus_sqrt3_pow
from prismres.genfib import gfib, prism_spanning_tree_count


def test_first_terms():
    assert [gfib(k) for k in range(7)] == [0, 1, 4, 15, 56, 209, 780]


def test_recurrence_at_random_spots():
    rng = random.Random(11)
    for _ in range(20):
        k = rng.randrange(0, 2000)
        assert gfib(k + 2) == 4 * gfib(k + 1) - gfib(k)


def test_closed_form_matches_iteration():
    # Binet: a[k] = ((2 - sqrt3)^-k - (2 - sqrt3)^k) / (2 sqrt3), in the field
    for k in range(401):
        xk = two_minus_sqrt3_pow(k)
        assert two_minus_sqrt3_pow(-k) - xk == Qsqrt3(0, 2) * gfib(k), k


def test_reciprocal_power_identity():
    # (2 - sqrt3)^k (a[k+1] - (2 - sqrt3) a[k]) = 1, the unit norm that lets
    # the closed forms trade negative powers of 2 - sqrt3 for sequence terms
    x = two_minus_sqrt3_pow(1)
    for k in (*range(121), 400):
        assert two_minus_sqrt3_pow(k) * (gfib(k + 1) - x * gfib(k)) == 1, k


def test_doubling_identity():
    # a[2n] = a[n] * (a[n+1] - a[n-1]) follows from the closed form
    for n in range(1, 201):
        assert gfib(2 * n) == gfib(n) * (gfib(n + 1) - gfib(n - 1)), n


def test_negative_index_rejected():
    with pytest.raises(ValueError):
        gfib(-1)


def test_spanning_tree_counts():
    assert [prism_spanning_tree_count(n) for n in (1, 2, 3)] == [1, 12, 75]
    for n in range(1, 40):
        count = prism_spanning_tree_count(n)
        assert isinstance(count, int) and count > 0
        # the paper's form (n/2) (a[2n]/a[n] - 2)
        assert 2 * count * gfib(n) == n * (gfib(2 * n) - 2 * gfib(n)), n
    with pytest.raises(ValueError):
        prism_spanning_tree_count(0)


"""Gorenstein index maxima under the 24-budget."""

import time
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm

import pytest

from fanobasket.indexbound import (
    _index_sets,
    _raw_subsets,
    admissible_index_sets_with_lcm,
    attainable_indices,
    max_index_given_rmax,
    max_index_report,
)
from fanobasket.recovery import BUDGET, COST_UNIT, cost

from oracles import (
    PRIME_POWERS,
    coprime_split_inequality,
    prime_power_parts,
    prime_power_reduction_holds,
    prime_power_sets,
)

F = Fraction


def test_prime_power_menu():
    for s in PRIME_POWERS:
        assert F(s) - F(1, s) <= 24
    assert 23 in PRIME_POWERS and 24 not in PRIME_POWERS and 25 not in PRIME_POWERS


def test_enumerate_admissible_tiny_budget():
    # a largest entry that uses up the budget leaves room for the cheapest
    # index only: 24 - (22 - 1/22) < cost(3) = 8/3, and 1 + 1/23 < cost(2)
    assert _raw_subsets(22) == [(2, 22), (22,)]
    assert _raw_subsets(23) == [(23,)]
    assert _raw_subsets(23, must_contain=(2,)) == []


def test_enumerate_admissible_contains_witnesses():
    sets = set(prime_power_sets())
    assert (3, 5, 7, 8) in sets
    assert (2, 3, 5, 7, 8) in sets
    assert (2, 3, 4, 5, 7) in sets  # lcm 420, cost < 20
    assert sum(cost(v) for v in (7, 5, 4, 3, 2)) == (
        F(2) - F(1, 2) + F(3) - F(1, 3) + F(4) - F(1, 4) + F(5) - F(1, 5) + F(7) - F(1, 7)
    ) * COST_UNIT
    assert lcm(7, 5, 4, 3, 2) == 420


def test_budget_and_maximality():
    found = prime_power_sets()
    assert len(found) == len(set(found))
    for values in found:
        assert sum(cost(v) for v in values) <= BUDGET
    # oracle: all 2^13 - 1 non-empty subsets of PRIME_POWERS, by the Fraction budget
    brute = {
        subset
        for k in range(1, len(PRIME_POWERS) + 1)
        for subset in combinations(PRIME_POWERS, k)
        if sum(F(s) - F(1, s) for s in subset) <= 24
    }
    assert set(found) == brute
    # saturated sets cannot absorb another 2 (the cheapest element)
    saturated = [
        values for values in found
        if sum(cost(v) for v in values) + cost(2) > BUDGET
    ]
    assert saturated, "budget 24 admits saturated sets"


def test_one_index_search_matches_the_prime_power_route():
    # r = 25 alone breaks the budget, so the raw sets of 2..24 are all of them
    assert F(25) - F(1, 25) > 24
    sets = _index_sets()
    assert len(sets) == len(set(sets)) == 427
    assert list(sets) == sorted(sets) and all(list(s) == sorted(set(s)) for s in sets)
    for s in sets:
        assert sum(F(v) - F(1, v) for v in s) <= 24, s
    report = max_index_report()
    oracle = prime_power_sets()
    oracle_lcms = {lcm(*s) for s in oracle}
    assert {lcm(*s) for s in sets} == oracle_lcms and len(oracle_lcms) == 111
    assert report.max_lcm == max(oracle_lcms) == 840
    assert report.witnesses == tuple(s for s in oracle if lcm(*s) == 840) == (
        (2, 3, 5, 7, 8), (3, 5, 7, 8))
    assert report.second_max == max(oracle_lcms - {840}) == 660


def test_max_index_report():
    start = time.monotonic()
    report = max_index_report()
    assert report.max_lcm == 840
    assert set(report.witnesses) == {(3, 5, 7, 8), (2, 3, 5, 7, 8)}
    assert report.second_max <= 660
    assert report.second_max == 660  # attained, e.g. by {3, 4, 5, 11}
    assert time.monotonic() - start < 10


def test_max_index_given_rmax_claims():
    claims = {
        24: 24,
        23: 24,
        22: 132,
        21: 132,
        20: 132,
        19: 190,
        18: 90,
        17: 238,
        16: 240,
        15: 210,
        14: 210,
    }
    for r_max, bound in claims.items():
        assert max_index_given_rmax(r_max) <= bound, r_max


def test_max_index_given_rmax_exact_values():
    assert max_index_given_rmax(24) == 24
    assert max_index_given_rmax(18) == 90
    assert max_index_given_rmax(15) == 210
    assert max_index_given_rmax(14) == 210
    assert max_index_given_rmax(8) == 840


def test_rmax_consistent_with_global_max():
    assert max(max_index_given_rmax(r) for r in range(2, 25)) == 840


def test_attainable_dichotomies():
    # largest entry 9 with a forced 2: nothing strictly between 360 and 630
    values = attainable_indices(9, must_contain=(2,))
    assert max(values) == 630
    assert all(v <= 360 or v == 630 for v in values)
    assert [s for s in admissible_index_sets_with_lcm(630, 9) if 2 in s] == [(2, 5, 7, 9)]

    # largest entry 13 with a forced 2: nothing strictly between 390 and 546
    values13 = attainable_indices(13, must_contain=(2,))
    assert max(values13) == 546
    assert all(v <= 390 or v == 546 for v in values13)
    assert [s for s in admissible_index_sets_with_lcm(546, 13) if 2 in s] == [(2, 3, 7, 13)]


def test_must_contain_is_a_set_within_two_to_rmax():
    # a forced value above r_max would make it no longer the largest entry
    with pytest.raises(ValueError):
        attainable_indices(5, must_contain=(7,))
    with pytest.raises(ValueError):
        attainable_indices(5, must_contain=(1,))
    # r_max itself, or a repeat, forces nothing more
    assert attainable_indices(2, must_contain=(2,)) == attainable_indices(2)
    assert attainable_indices(9, must_contain=(9, 2)) == attainable_indices(9, must_contain=(2,))
    assert attainable_indices(9, must_contain=(2, 2)) == attainable_indices(9, must_contain=(2,))


@pytest.mark.parametrize("r_max", [0, 1, 25, 30])
def test_every_rmax_question_refuses_an_rmax_outside_two_to_24(r_max):
    for ask in (max_index_given_rmax, attainable_indices,
                lambda r: admissible_index_sets_with_lcm(840, r)):
        with pytest.raises(ValueError, match=r"^r_max must lie in \[2, 24\]$"):
            ask(r_max)


def test_coprime_split_inequality_exhaustive():
    # the budget-soundness of the prime-power reduction holds everywhere;
    # the sharper form with slack 2 fails exactly at {2, 3} (35/6 < 37/6)
    for a in range(2, 25):
        for b in range(2, 25):
            if gcd(a, b) == 1:
                assert coprime_split_inequality(a, b)
                assert (cost(a * b) >= cost(a) + cost(b) + 2 * COST_UNIT) == (
                    {a, b} != {2, 3}
                )


def test_integer_costs_are_exact_on_coprime_products():
    for a in range(2, 25):
        for b in range(2, 25):
            if gcd(a, b) == 1:
                assert F(cost(a * b), COST_UNIT) == a * b - F(1, a * b)
    with pytest.raises(ValueError):
        coprime_split_inequality(2, 25)  # 50 does not divide COST_UNIT


def test_prime_power_split_is_budget_sound():
    for r in range(2, 25):
        assert prime_power_reduction_holds(r), r
        parts = prime_power_parts(r)
        assert all(p in PRIME_POWERS for p in parts)
        cost = lambda v: F(v) - F(1, v)
        assert cost(r) >= sum(cost(p) for p in parts)

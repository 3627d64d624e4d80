"""Recovery of stage-0/stage-5 data from plurigenus sequences."""

import random
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement
from math import gcd

import pytest

from fanobasket.basket import Basket, PlurigenusSequence, WeightedBasket
from fanobasket.canonical import unpack
from fanobasket.recovery import (
    BUDGET,
    COST_UNIT,
    TAIL_R_CAP,
    Infeasible,
    budgeted_tails,
    cost,
    feasible_tails,
    recover,
    stage0_head,
    structural_tail,
    tail_budget,
)
from fanobasket.wci import (
    X6D_PAIRS,
    X19,
    X24_30,
    X42,
    X66,
    anti_plurigenera_from_hilbert,
    x6d_member,
)
from oracles import epsilon_n

B = Basket.parse


def seq(*values: int) -> PlurigenusSequence:
    return PlurigenusSequence(tuple(values))


def test_recover_ladder_sequence():
    out = recover(seq(2, 3, 4, 5, 6, 7), {5: 1})
    assert not isinstance(out, Infeasible)
    assert out.eps[5] == 0
    assert out.eps[6] == 0
    assert out.basket0 == B("(1,2),(1,3),(1,5)")
    assert out.basket5 == out.basket0


def test_recover_all_zero_head():
    out = recover(seq(0, 0, 0, 0), {})
    assert not isinstance(out, Infeasible)
    assert out.basket0 == B("5x(1,2),4x(1,3),(1,4)")
    assert out.basket0.sigma() == 10


def test_recover_flags_violations_by_name():
    bad = recover(seq(2, 3, 4, 5, 6, 8), {5: 1})
    assert isinstance(bad, Infeasible) and bad.violated == "eps_6 = 0"
    neg = recover(seq(0, 0, 0, 2, 0), {})
    assert isinstance(neg, Infeasible) and neg.violated == "eps_5 >= 0"


def test_infeasible_is_falsy_and_recovered_data_truthy():
    # callers and the benchmark's tracer test a recovery by its truth value
    assert bool(Infeasible("sigma >= 0", -1)) is False
    assert bool(recover(seq(2, 3, 4, 5, 6, 8), {5: 1})) is False
    assert bool(recover(seq(2, 3, 4, 5, 6, 7), {5: 1})) is True


def test_feasible_tails_examples():
    picks = feasible_tails(seq(1, 1, 1, 1, 2, 2, 2))
    assert [structural_tail(t.basket0) for t in picks] == [{6: 1}, {5: 2}]

    unique = feasible_tails(seq(2, 3, 4, 5, 6, 7))
    assert [structural_tail(t.basket0) for t in unique] == [{5: 1}]
    assert unique[0] == recover(seq(2, 3, 4, 5, 6, 7), {5: 1})

    assert feasible_tails(seq(0, 0, 0, 2, 0)) == []


def _round_trip(wb: WeightedBasket) -> None:
    basket = wb.basket
    p = wb.plurigenera(8)
    out = recover(p, structural_tail(basket))
    assert not isinstance(out, Infeasible), (wb.text(), out)
    b0 = unpack(basket, 0)
    assert out.basket0 == b0
    assert out.basket5 == unpack(basket, 5)
    assert out.basket0.sigma() == basket.sigma() == 10 - 5 * p[1] + p[2]
    assert dict(b0.counts()).get((1, 2), 0) == basket.delta(3)
    assert out.eps[5] == epsilon_n(basket, 5)
    assert out.eps[6] == 0 == epsilon_n(basket, 6)
    assert out.eps[7] == epsilon_n(basket, 7)
    assert out.eps[8] == epsilon_n(basket, 8)


def test_round_trip_named_example():
    _round_trip(WeightedBasket(B("2x(1,2),(2,5),(3,7),(4,9)"), 0))


def test_round_trip_random_sample():
    pool = [
        (b, r) for r in range(2, 14) for b in range(1, r // 2 + 1) if gcd(b, r) == 1
    ]
    rng = random.Random(20260810)
    done = 0
    while done < 150:
        basket = Basket(rng.choices(pool, k=rng.randint(1, 8)))
        wb = WeightedBasket(basket, rng.randint(0, 5))
        _round_trip(wb)
        done += 1


def test_recover_rejects_malformed_tails():
    with pytest.raises(ValueError, match="r >= 5"):
        recover(seq(1, 1, 1, 1, 2), {4: 1})
    with pytest.raises(ValueError, match="non-negative"):
        recover(seq(1, 1, 1, 1, 2), {5: 2, 6: -1})


def test_stage0_head_needs_four_terms():
    with pytest.raises(ValueError, match="recovery needs"):
        stage0_head(seq(1, 1, 1), 0)


def test_short_sequences_leave_late_eps_unknown():
    out = recover(seq(1, 1, 1, 1, 2), {5: 1})
    assert not isinstance(out, Infeasible)
    assert out.eps[6] is None and out.eps[7] is None and out.eps[8] is None
    assert out.basket5 == B("2x(2,5),(1,4),(1,5)")
    four = recover(seq(1, 1, 1, 1), {5: 1})
    assert not isinstance(four, Infeasible)
    assert four.basket5 is None and four.eps[5] is None
    assert four.basket0 == B("2x(1,2),2x(1,3),(1,4),(1,5)")


def test_cost_unit_is_exact_up_to_the_cap():
    assert COST_UNIT == 5_354_228_880 and BUDGET == 24 * COST_UNIT
    for r in range(2, TAIL_R_CAP + 1):
        assert Fraction(cost(r), COST_UNIT) == r - Fraction(1, r)
    # past the cap r - 1/r is no whole number of units (cost(COST_UNIT + 1) once read 0)
    for r in (25, COST_UNIT + 1):
        with pytest.raises(ValueError):
            cost(r)
    assert tail_budget(2, 1, 1) == (24 - 3 - Fraction(8, 3) - Fraction(15, 4)) * COST_UNIT


def _displacement(tail: tuple[int, ...]) -> Fraction:
    """What a tail costs beyond the (1,4) points it displaces, in Fractions."""
    return sum((r - Fraction(1, r) - Fraction(15, 4) for r in tail), Fraction(0))


def test_budgeted_tails_match_fraction_brute_force():
    budgets = [
        Fraction(24),
        Fraction(24) - 5 * Fraction(3, 2),
        Fraction(48, 5),
        Fraction(73, 7),
        Fraction(21, 4),
        Fraction(21, 20),
        Fraction(0),
        Fraction(-1, 2),
    ]
    combos = [list(combinations_with_replacement(range(5, TAIL_R_CAP + 1), k)) for k in range(6)]
    costs = [[_displacement(c) for c in combos_k] for combos_k in combos]
    for budget in budgets:
        scaled = budget * COST_UNIT
        assert scaled.denominator == 1
        fits = [[c for c, total in zip(combos[k], costs[k]) if total <= budget] for k in range(6)]
        for most in range(6):
            # shortest first, then in the order of combinations_with_replacement
            expected = [c for k in range(most + 1) for c in fits[k]]
            assert list(budgeted_tails(int(scaled), most)) == expected, (most, budget)


def test_budgeted_tails_boundary_and_cap():
    # the head (0, 0, 5) keeps 5 x (1,5), which uses its whole budget
    assert _displacement((5,) * 5) * COST_UNIT == tail_budget(0, 0, 5)
    assert list(budgeted_tails(tail_budget(0, 0, 5), 5))[-1] == (5, 5, 5, 5, 5)
    # no head of the budget keeps a tail of 6 points: 6 x (1,5) displaces more
    # than 6 x (1,4) leave, and a seventh (1,4) breaks the budget
    triples = [(a, b, c) for a in range(17) for b in range(10) for c in range(7)
               if tail_budget(a, b, c) >= 0]
    assert len(triples) == 243 and tail_budget(0, 0, 7) < 0
    assert max(len(tail) for a, b, c in triples
               for tail in budgeted_tails(tail_budget(a, b, c), c)) == 5
    # the one-point tails are r = 5..24: r > 24 alone exceeds the budget
    assert list(budgeted_tails(tail_budget(0, 0, 1), 1)) == [()] + [(r,) for r in range(5, 25)]
    assert list(budgeted_tails(0, 5)) == [()]
    assert list(budgeted_tails(-1, 5)) == []
    with pytest.raises(ValueError, match="most must be >= 0"):
        budgeted_tails(BUDGET, -1)


# a tail costing more than 24 on its own leaves gamma(B^(0)) < 0, so at
# sigma5 = 5 the brute force only recovers the tails this Fraction filter keeps
FIVE_POINT_TAILS = [
    c
    for c in combinations_with_replacement(range(5, TAIL_R_CAP + 1), 5)
    if sum((r - Fraction(1, r) for r in c), Fraction(0)) <= 24
]


def test_only_five_times_one_fifth_fits_in_five_or_more_tail_points():
    assert FIVE_POINT_TAILS == [(5, 5, 5, 5, 5)]
    assert 6 * (5 - Fraction(1, 5)) > 24  # (1,5) is the cheapest tail point


def _exhaustive_feasible(p: PlurigenusSequence) -> list:
    """recover over every tail multiset with sigma5 <= 4 and over
    FIVE_POINT_TAILS, then gamma(B^(0)) >= 0."""
    out = []
    for k in range(6):
        combos = FIVE_POINT_TAILS if k == 5 else combinations_with_replacement(range(5, 25), k)
        for combo in combos:
            data = recover(p, dict(Counter(combo)))
            if not isinstance(data, Infeasible) and data.basket0.gamma() >= 0:
                out.append(data)
    return out


def test_feasible_tails_equal_exhaustive_recovery_on_fixtures():
    fixtures = [seq(1, 1, 1, 1, 2, 2, 2), seq(2, 3, 4, 5, 6, 7), seq(0, 0, 0, 2, 0)]
    wcis = [X66, X42, X24_30, X19] + [x6d_member(a, b) for a, b in X6D_PAIRS]
    fixtures += [anti_plurigenera_from_hilbert(w, 40) for w in wcis]
    # n_{1,2} = n_{1,3} = 0 and n_{1,4} = 5 - sigma5: only 5 x (1,5) at sigma5 = 5
    five = seq(2, 5, 13, 29)
    assert stage0_head(five, 5) == (0, 0, 0)
    fixtures.append(five)
    for p in fixtures:
        assert feasible_tails(p) == _exhaustive_feasible(p), p.values
    assert structural_tail(feasible_tails(five)[-1].basket0) == {5: 5}


def test_feasible_tails_equal_exhaustive_recovery_on_random_baskets():
    pool = [
        (b, r) for r in range(2, 14) for b in range(1, r // 2 + 1) if gcd(b, r) == 1
    ]
    rng = random.Random(20261018)
    hits = 0
    for _ in range(50):
        basket = Basket(rng.choices(pool, k=rng.randint(1, 7)))
        p = WeightedBasket(basket, rng.randint(0, 3)).plurigenera(8)
        picks = feasible_tails(p)
        assert picks == _exhaustive_feasible(p), basket.text()
        if basket.gamma() >= 0:
            # a packing only lowers gamma: the true tail is always kept
            assert recover(p, structural_tail(basket)) in picks, basket.text()
            hits += 1
    assert hits >= 10

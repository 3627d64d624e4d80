"""Core basket arithmetic: definitions, worked values, and cross-identities."""

import random
from fractions import Fraction
from math import gcd

import pytest

from fanobasket.basket import (
    Basket,
    BasketParseError,
    IntegralityFault,
    PlurigenusSequence,
    WeightedBasket,
    f_periodic,
    local_correction,
)
from oracles import local_correction_unreduced, sigma_prime, weighted_basket_from_json

F = Fraction


def B(text: str) -> Basket:
    return Basket.parse(text)


def WB(text: str, p1: int) -> WeightedBasket:
    return WeightedBasket(B(text), p1)


# --- construction, normalization, grammar ------------------------------------


def test_parse_round_trip_canonical():
    b = B("2x(1,2), 3x(2,5), (1,3), (1,4)")
    assert b.text() == "2x(1,2),(1,3),(1,4),3x(2,5)"
    assert Basket.parse(b.text()) == b
    assert len(b) == 7


def test_reflection_and_gcd_convention():
    assert B("(3,4)") == B("(1,4)")  # b > r/2 reflects
    assert B("(2,4)") == B("(1,2),(1,2)")  # the {(2,4)} convention
    assert B("(3,6)") == B("3x(1,2)")
    assert B("(4,6)") == B("2x(1,3)")  # reflect then expand


def test_invalid_pairs_rejected():
    for bad in [(1, 1), (0, 5), (2, 2), (5, 5), (-1, 3)]:
        with pytest.raises(ValueError):
            Basket([bad])
    for text in ["(1,2", "x(1,2)", "(1,2),,(1,3)", "(1,2),", "0x(1,2)", "(1,2)(1,3)",
                 "{(1,2)}", "(1,2,3)", "((1,2))", "2x", ",(1,2)", "00x(1,2)", "(1,2)x"]:
        with pytest.raises(BasketParseError):
            Basket.parse(text)
    # a count with leading zeros and whitespace anywhere are part of the grammar
    assert Basket.parse("01x(1,2)") == B("(1,2)")
    assert Basket.parse(" 2 x ( 1 , 2 ) ") == B("2x(1,2)")


def test_runs_are_the_stored_form():
    b = B("2x(1,2), 3x(2,5), (1,3), (2,4)")
    assert b.counts() == (((1, 2), 4), ((1, 3), 1), ((2, 5), 3))
    assert Basket.from_counts(b.counts()) == b == Basket(list(b))
    # the {(2,4)} convention and reflection apply to counted pairs too
    assert Basket.from_counts([((2, 4), 3), ((3, 5), 2), ((1, 7), 0)]) == B("6x(1,2),2x(2,5)")
    with pytest.raises(ValueError):
        Basket.from_counts([((1, 2), -1)])


def test_replace_pair_with_normalizes_only_the_merged_pair():
    # the held runs are trusted; the merged pair reflects and splits by its gcd
    basket = B("(1,2),2x(1,3),(2,5),3x(3,7)")
    runs = basket.counts()
    for i in range(len(runs)):
        for j in range(i + 1, len(runs)):
            rest = [(pt, n - (k in (i, j))) for k, (pt, n) in enumerate(runs)]
            for merged in ((3, 5), (2, 4)):
                want = Basket.from_counts([*rest, (merged, 1)])
                got = basket.replace_pair_with(i, j, merged)
                assert got == want and got.counts() == want.counts(), (i, j, merged)
    assert basket.replace_pair_with(1, 1, (2, 6)) == B("(1,2),(2,5),3x(3,7),2x(1,3)")
    with pytest.raises(ValueError):
        basket.replace_pair_with(0, 0, (2, 4))  # run 0 holds one (1,2)
    with pytest.raises(ValueError):
        basket.replace_pair_with(0, 1, (2, 2))


def test_order_is_that_of_the_expanded_points():
    pool = [(1, 2), (1, 3), (2, 5), (1, 4), (3, 7), (2, 7), (1, 5), (3, 8)]
    rng = random.Random(41)
    baskets = [
        Basket.from_counts((pt, rng.randint(1, 3)) for pt in rng.sample(pool, rng.randint(0, 4)))
        for _ in range(150)
    ]
    for a in baskets:
        for b in baskets[:40]:
            assert (a < b) == (tuple(a) < tuple(b)), (a, b)
    assert sorted(baskets) == sorted(baskets, key=tuple)


def test_json_round_trip():
    wb = WB("2x(1,2),3x(2,5),(1,3),(1,4)", 0)
    assert weighted_basket_from_json(wb.to_json()) == wb


# --- sigma, sigma', delta, gamma ---------------------------------------------


def test_sigma_examples():
    assert B("").sigma() == 0
    assert B("(1,2)").sigma() == 1
    assert B("2x(1,2),3x(2,5),(1,3),(1,4)").sigma() == 10


def test_sigma_prime_examples():
    assert sigma_prime(B("")) == 0
    assert sigma_prime(B("(1,2),(1,3),(1,5)")) == F(31, 30)
    assert sigma_prime(B("2x(1,2),3x(2,5),(1,3),(1,4)")) == F(239, 60)


def test_delta_examples():
    assert B("(2,5)").delta(2) == 0
    assert B("(2,5)").delta(3) == 1
    assert B("(1,2),(1,3)").delta(5) == 6
    with pytest.raises(ValueError):
        B("(1,2)").delta(1)


def test_delta_nonnegative_and_vanishing_at_two():
    pts = ["(1,2)", "(1,3)", "(2,5)", "(3,7)", "(4,9)", "(5,11)", "(6,13)", "(3,8)"]
    basket = B(",".join(pts))
    for m in range(2, 101):
        assert basket.delta(m) >= 0
    assert basket.delta(2) == 0


def test_gamma_examples():
    assert B("").gamma() == 24
    assert B("(1,2)").gamma() == F(45, 2)
    g = B("(1,2),(2,5),(1,3),(1,4),(1,11)").gamma()
    assert g == 24 + (F(1, 2) + F(1, 5) + F(1, 3) + F(1, 4) + F(1, 11)) - 25
    assert g > 0


# --- local corrections and l(-n) ----------------------------------------------


def test_local_correction_examples():
    assert local_correction(1, 2, 0) == 0
    assert local_correction(1, 2, 1) == F(-1, 8)
    assert local_correction(2, 5, 2) == F(-1, 5)
    with pytest.raises(ValueError):
        local_correction(1, 2, 2)
    with pytest.raises(ValueError):
        local_correction(2, 4, 1)


def test_unreduced_variant_agrees_with_reduced():
    # the t-fold form telescopes over full periods back to the reduced form
    for r in range(2, 25):
        for b in range(1, r // 2 + 1):
            if gcd(b, r) != 1:
                continue
            for t in range(0, 3 * r + 1):
                assert local_correction_unreduced(b, r, t) == local_correction(
                    b, r, t % r
                )


def test_l_neg_examples():
    assert B("(1,2)").l_neg(1) == F(1, 4)
    assert B("(1,2),(1,3),(1,5)").l_neg(2) == F(23, 12)
    assert B("").l_neg(7) == 0
    assert B("(1,2)").l_neg(0) == 0


def test_l_neg_full_period_identity():
    # sum over one full period equals (r^2 - 1)/12 for any coprime pair
    for r in range(2, 25):
        for b in range(1, r // 2 + 1):
            if gcd(b, r) == 1:
                assert Basket([(b, r)]).l_neg(r) == F(r * r - 1, 12)


def test_l_neg_periodicity():
    for r in (2, 5, 7, 12):
        basket = Basket([(1, r) if r > 2 else (1, 2)])
        for n in range(0, 2 * r):
            assert basket.l_neg(n + r) - basket.l_neg(n) == F(r * r - 1, 12)


def test_l_neg_telescopes_against_local_correction():
    # sum_{j=0..n} F(jb) = c_unreduced(n+1) + (n+1)(r^2-1)/(12r), so l(-n)
    # for a single point is recoverable from the unreduced local correction
    for r in range(2, 25):
        for b in range(1, r // 2 + 1):
            if gcd(b, r) != 1:
                continue
            basket = Basket([(b, r)])
            for n in range(0, 2 * r):
                recon = local_correction_unreduced(b, r, n + 1) + F(
                    (n + 1) * (r * r - 1), 12 * r
                )
                assert basket.l_neg(n) == recon


# --- volume and plurigenera ----------------------------------------------------


def test_volume_examples():
    assert WB("(1,2),(1,3),(1,5)", 2).volume() == F(-1, 30)
    assert WB("2x(1,2),3x(2,5),(1,3),(1,4)", 0).volume() == F(1, 60)
    assert WB("", 3).volume() == 0


def test_volume_definition_identity():
    rng = random.Random(20260810)
    pool = [(1, 2), (1, 3), (2, 5), (1, 4), (3, 7), (2, 7), (3, 8), (4, 9), (1, 5)]
    for _ in range(200):
        basket = Basket(rng.choices(pool, k=rng.randint(0, 6)))
        p1 = rng.randint(0, 5)
        wb = WeightedBasket(basket, p1)
        assert wb.volume() + sigma_prime(basket) == 2 * p1 + basket.sigma() - 6


def test_anti_plurigenus_examples():
    assert WB("(1,2),(1,3),(1,5)", 2).anti_plurigenus(2) == 3
    assert WB("2x(1,2),3x(2,5),(1,3),(1,4)", 0).anti_plurigenus(8) == 2
    assert WB("2x(1,2),(2,5),(3,7),(4,9)", 0).anti_plurigenus(61) == 5294


def test_anti_plurigenus_recursive_examples():
    assert WB("(1,2),(1,3),(1,5)", 2).plurigenera(6)[6] == 7
    assert WB("(1,2),(1,3),(3,7),(6,13)", 0).plurigenera(57)[57] == 3540
    for wb in [WB("(1,2)", 0), WB("2x(2,5)", 4), WB("", 1)]:
        assert wb.plurigenera(1)[1] == wb.p1


def test_two_forms_agree():
    rng = random.Random(7)
    pool = [(1, 2), (1, 3), (2, 5), (1, 4), (3, 7), (3, 8), (5, 11), (1, 13), (6, 13)]
    for _ in range(40):
        basket = Basket(rng.choices(pool, k=rng.randint(0, 5)))
        wb = WeightedBasket(basket, rng.randint(0, 10))
        seq = wb.plurigenera(100)
        for m in (1, 2, 3, 17, 50, 100):
            assert seq[m] == wb.anti_plurigenus(m)


def test_gorenstein_index_examples():
    assert B("").gorenstein_index() == 1
    assert B("(1,3),(2,5),(3,7),(3,8)").gorenstein_index() == 840
    assert B("2x(1,2),(2,5),(3,7),(4,9)").gorenstein_index() == 630


def test_plurigenus_sequence_access():
    seq = WB("(1,2),(1,3)", 1).plurigenera(12)
    assert len(seq) == 12
    assert seq.multiples_of(3) == [seq[3], seq[6], seq[9], seq[12]]
    with pytest.raises(IndexError):
        seq[13]


def test_weighted_records_compare_hash_and_print_by_value():
    # a head is a cache key and a weighted basket reaches fault messages by repr
    one, twin = WB("(1,2),(2,5)", 1), WB("(2,5),(1,2)", 1)
    assert one is not twin and one == twin and hash(one) == hash(twin) and len({one, twin}) == 1
    assert one != WB("(1,2),(2,5)", 2) and one != one.basket
    assert repr(one) == "WeightedBasket(basket=Basket[(1,2),(2,5)], p1=1)"
    seq, same = one.plurigenera(3), PlurigenusSequence((1, -2, -11))
    assert seq is not same and seq == same and hash(seq) == hash(same) and len({seq, same}) == 1
    assert seq != PlurigenusSequence((1, -2)) and seq != (1, -2, -11)
    assert repr(seq) == "PlurigenusSequence(values=(1, -2, -11))"


def test_integrality_sweep_never_faults():
    rng = random.Random(99)
    pool = [
        (b, r)
        for r in range(2, 25)
        for b in range(1, r // 2 + 1)
        if gcd(b, r) == 1
    ]
    for _ in range(60):
        basket = Basket(rng.choices(pool, k=rng.randint(0, 7)))
        wb = WeightedBasket(basket, rng.randint(0, 50))
        wb.plurigenera(100)  # raises IntegralityFault on any defect


def test_f_periodic():
    assert f_periodic(0, 7) == 0
    assert f_periodic(1, 2) == F(1, 4)
    assert f_periodic(7, 5) == f_periodic(2, 5) == F(3, 5)

"""The 24-budget universe as an oracle for the enumeration and the index sets.

`oracles.budget_universe()` lists every basket with sum(r - 1/r) <= 24 by a
walk that shares no code with recovery, the packing closure or `unpack`;
every candidate pool, survivor list and certificate of the pipeline is
checked against it for P_-1 = 0..3, weak and strict, and so are the budget
test, the recovery identities, `unpack` at levels 0 and 5 and P_-1..P_-12
on every one of its baskets, and P_-13..P_-24 grown from that table; the
per-point sums and the recursion agree on each of them to P_-40.
"""

from math import lcm

from fanobasket.basket import POINT_HORIZON, Basket, WeightedBasket
from fanobasket.canonical import unpack
from fanobasket.indexbound import _index_sets
from fanobasket.recovery import recover, structural_tail, within_budget
from fanobasket.search import (
    ConstraintSet,
    _heads,
    candidates,
    enumerate_geometric_full,
    is_geometric_candidate,
)
from oracles import CANONICAL_POINTS, budget_universe, plurigenera_closed_form, unpack_reference


def test_the_universe_counts():
    universe = budget_universe()
    # r <= 24 (25 - 1/25 > 24 alone) with b <= r/2 coprime to r: 90 points
    assert len(CANONICAL_POINTS) == 90 and max(r for _, r in CANONICAL_POINTS) == 24
    # every point costs at least 2 - 1/2 = 3/2, so at most 24 / (3/2) = 16
    # points; 16 x (1,2) spends the budget exactly
    assert max(len(basket) for basket in universe) == 16
    assert universe[Basket([(1, 2)] * 16)] == 0
    # the tail-free stage-0 baskets n12 (1,2) + n13 (1,3) + n14 (1,4) are the
    # 243 heads that `search._heads` maps at P_-1 = 3
    assert sum(set(basket) <= {(1, 2), (1, 3), (1, 4)} for basket in universe) == 243
    # 8,338 baskets, the empty one (gamma = 24) among them; 24 spend the
    # budget exactly, and the other 8,314 have gamma > 0
    assert len(universe) == 8338 and universe[Basket()] == 24
    assert min(universe.values()) == 0
    assert sum(gamma > 0 for gamma in universe.values()) == 8314


def test_pools_and_survivors_are_the_universe_slices():
    universe = budget_universe()
    # P_-m is affine in P_-1: the closed form adds 2 P_-1 to -K^3, so
    # P_-m(p1) = P_-m(0) + p1 m(m+1)(2m+1)/6
    at_zero = {basket: plurigenera_closed_form(WeightedBasket(basket, 0), 4)
               for basket in universe}
    sizes = {}
    for p1 in range(4):
        shift = [p1 * m * (m + 1) * (2 * m + 1) // 6 for m in range(1, 5)]
        for strict in (False, True):
            cs = ConstraintSet(p_exact={1: p1}, fano_strict=strict)
            # the universe baskets with P_-2..P_-4 >= 0, and gamma > 0 when strict
            expected = sorted(
                basket for basket, gamma in universe.items()
                if all(at_zero[basket][m] + shift[m] >= 0 for m in (1, 2, 3))
                and (gamma > 0 or not strict))
            pool = [wb.basket for head in _heads(cs) for wb in candidates(head, strict)]
            assert sorted(pool) == expected, (p1, strict)
            assert len(set(pool)) == len(pool), (p1, strict)
            # the same slice through the exact filter: survivors and
            # certificates, in basket order
            weighted = [WeightedBasket(basket, p1) for basket in expected]
            verdicts = [is_geometric_candidate(wb, cs) for wb in weighted]
            result = enumerate_geometric_full(cs)
            assert result.survivors == [
                wb for wb, (ok, _) in zip(weighted, verdicts) if ok], (p1, strict)
            assert result.eliminated == [
                (wb, cert) for wb, (ok, cert) in zip(weighted, verdicts) if not ok], (p1, strict)
            sizes[p1, strict] = len(pool), len(result.survivors)
    assert sizes == {
        (0, False): (376, 293), (0, True): (370, 291),
        (1, False): (5554, 5262), (1, True): (5531, 5242),
        (2, False): (8183, 8149), (2, True): (8159, 8125),
        (3, False): (8338, 8337), (3, True): (8314, 8313),
    }


def test_index_sets_are_the_universe_index_sets():
    found = {tuple(sorted({r for (_, r), _ in basket.counts()}))
             for basket in budget_universe() if basket}
    assert set(_index_sets()) == found
    assert len(_index_sets()) == len(found) == 427
    lcms = {lcm(*s) for s in found}
    assert (len(lcms), max(lcms)) == (111, 840)


def test_within_budget_is_the_sign_of_gamma_on_the_universe_and_one_point_beyond():
    # every universe basket, and each with one more (1, 2), the cheapest
    # point: gamma - 3/2 is negative on the baskets of gamma < 3/2
    universe = budget_universe()
    signs = set()
    for basket in universe:
        for candidate in (basket, Basket([*basket, (1, 2)])):
            gamma = candidate.gamma()
            signs.add((gamma > 0) - (gamma < 0))
            assert within_budget(candidate, strict=True) == (gamma > 0), candidate.text()
            assert within_budget(candidate, strict=False) == (gamma >= 0), candidate.text()
    assert signs == {-1, 0, 1}


def test_recovery_round_trips_on_every_universe_basket():
    # P_-1..P_-8 at p1 = 0 and the true tail recover the stage-0 and the
    # stage-5 basket of the canonical chain, on all 8,338 baskets
    for basket in budget_universe():
        out = recover(WeightedBasket(basket, 0).plurigenera(8), structural_tail(basket))
        assert out, (basket.text(), out)
        assert (out.basket0, out.basket5) == (unpack(basket, 0), unpack(basket, 5)), basket.text()


def test_unpack_matches_the_reference_on_every_universe_basket():
    # the stage-0 and stage-5 baskets that recovery states, on all 8,338
    for basket in budget_universe():
        for level in (0, 5):
            assert unpack(basket, level) == unpack_reference(basket, level), (basket.text(), level)


def test_plurigenera_match_the_closed_form_on_every_universe_basket():
    # P_-1..P_-12 at p1 = 0, summed from the per-point tables, against the
    # closed form, on all 8,338; then the same table, grown to P_-24
    for basket in budget_universe():
        wb = WeightedBasket(Basket.from_counts(basket.counts()), 0)  # an empty table
        expected = plurigenera_closed_form(wb, 24)
        assert wb.plurigenera(12).values == expected[:12], basket.text()
        assert wb.plurigenera(24).values == expected, basket.text()
        assert wb.basket._table == (0, expected), basket.text()


def test_both_table_routes_agree_on_every_universe_basket():
    # a fresh table to POINT_HORIZON sums per-point tables; one a degree
    # longer runs the recursion from P_-1: at p1 = 0 they agree on all 8,338
    for basket in budget_universe():
        summed = WeightedBasket(Basket.from_counts(basket.counts()), 0).plurigenera(POINT_HORIZON)
        recursed = WeightedBasket(Basket.from_counts(basket.counts()), 0).plurigenera(POINT_HORIZON + 1)
        assert summed.values == recursed.values[:POINT_HORIZON], basket.text()

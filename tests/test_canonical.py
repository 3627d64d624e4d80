"""Packing order, S^(n) sets, unpacking chain, and their structural laws."""

import itertools
import random
from fractions import Fraction
from math import gcd

import pytest

import fanobasket.canonical as canonical
from fanobasket.basket import Basket, WeightedBasket
from fanobasket.canonical import (
    _neighbours,
    canonical_chain,
    dominated_baskets,
    minimal_baskets,
    prime_packings,
    s_set,
    unpack,
)
from fanobasket.reports import ReplayContradiction
from fanobasket.search import p1_zero_family
from oracles import (
    brute_prime_packings, epsilon_n, general_packings, neighbours, sigma_prime, unpack_reference,
)

F = Fraction
B = Basket.parse


def test_s_set_examples():
    assert s_set(0, 6) == (F(1, 2), F(1, 3), F(1, 4), F(1, 5), F(1, 6))
    assert s_set(5, 5) == (F(1, 2), F(2, 5), F(1, 3), F(1, 4), F(1, 5))
    seven = s_set(7, 7)
    assert F(3, 7) in seven and F(2, 7) in seven
    with pytest.raises(ValueError):
        s_set(3, 10)


def test_s_set_neighbour_determinants_large():
    # Claim-A adjacency holds for every truncation we ever build
    for n in (0, 5, 9, 17, 24):
        s_set(n, 24)


def test_neighbours_match_s_set_exhaustive():
    # the integer Farey step against the reference S^(n), r <= 60
    checked = 0
    for r in range(2, 61):
        numerators = [b for b in range(1, r // 2 + 1) if gcd(b, r) == 1]
        for n in [0, *range(5, 61)]:
            sset = s_set(n, r)
            members = set(sset)
            for b in numerators:
                frac = F(b, r)
                got = _neighbours(b, r, n)
                if frac in members:
                    assert got is None, (b, r, n)
                else:
                    want = tuple((f.numerator, f.denominator) for f in neighbours(sset, frac))
                    assert got == want, (b, r, n)
                checked += 1
    assert checked == 31407


def test_unpack_examples():
    assert unpack(B("(2,5)"), 0) == B("(1,2),(1,3)")
    assert unpack(B("(1,2)"), 0) == B("(1,2)")
    assert unpack(B("(3,7)"), 5) == B("(2,5),(1,2)")


def test_unpack_fixed_point_at_high_level():
    for text in ["(2,5),(3,7)", "(6,13),(1,2)", "3x(2,5),(1,4)"]:
        basket = B(text)
        for n in range(basket.r_max(), basket.r_max() + 3):
            assert unpack(basket, n) == basket


def test_unpack_preserves_sigma_and_dominates():
    pool = [(2, 5), (3, 7), (3, 8), (4, 9), (5, 11), (6, 13), (5, 12), (1, 2), (2, 9)]
    rng = random.Random(3)
    for _ in range(50):
        basket = Basket(rng.choices(pool, k=rng.randint(1, 5)))
        for n in (0, 5, 6, 7, 8):
            up = unpack(basket, n)
            assert up.sigma() == basket.sigma()
            assert basket in dominated_baskets(up)


def test_epsilon_examples():
    assert epsilon_n(B("(2,5)"), 5) == 1
    assert epsilon_n(B("(1,2)"), 5) == 0
    assert epsilon_n(B("(3,7)"), 7) == 1


def test_canonical_chain_examples():
    chain = canonical_chain(B("(2,5)"))
    assert [s.level for s in chain.stages] == [0, 5]
    assert chain.stages[0].basket == B("(1,2),(1,3)")
    assert chain.stages[1].basket == B("(2,5)")
    assert chain.stages[1].epsilon == 1

    flat = canonical_chain(B("(1,2)"))
    assert all(s.basket == B("(1,2)") for s in flat.stages)

    fixed = canonical_chain(B("5x(1,2),(1,3),(1,5)"))
    assert fixed.stages[0].basket == B("5x(1,2),(1,3),(1,5)")
    assert all(s.epsilon == 0 for s in fixed.stages)


def wide_baskets(seed, count):
    """1-8 distinct canonical points with r <= 24, each repeated 1-12 times."""
    rng = random.Random(seed)
    for _ in range(count):
        points = set()
        size = rng.randint(1, 8)
        while len(points) < size:
            r = rng.randint(2, 24)
            b = rng.randint(1, r // 2)
            if gcd(b, r) == 1:
                points.add((b, r))
        yield Basket.from_counts((pt, rng.randint(1, 12)) for pt in sorted(points))


def oracle_chain(basket):
    """(level, stage, eps_n) for n = 0, 5, .., r_max from the memo-free oracles."""
    return [(n, unpack_reference(basket, n), epsilon_n(basket, n) if n else 0)
            for n in (0, *range(5, basket.r_max() + 1))]


def test_chain_matches_unpack_and_epsilon_on_wide_baskets():
    # the oracles read no memo of the package: `unpack_reference` splits
    # against `s_set`, and `epsilon_n` sums a Delta built from `f_periodic`
    for basket in wide_baskets(41, 60):
        chain = canonical_chain(basket)
        assert [tuple(s) for s in chain.stages] == oracle_chain(basket), basket.text()
        for stage in chain.stages:
            assert stage.basket == unpack(basket, stage.level)
        assert chain.stages[-1].basket == basket


def test_chain_edge_cases_match_the_oracle():
    # every canonical point alone and thrice, every basket with r_max <= 4 (the
    # empty one too, where no stage follows stage 0), and a second wide seed
    points = [(b, r) for r in range(2, 25) for b in range(1, r // 2 + 1) if gcd(b, r) == 1]
    low = [Basket.from_counts(zip([(1, 2), (1, 3), (1, 4)], counts))
           for counts in itertools.product(range(3), repeat=3)]
    assert Basket() in low and max(b.r_max() for b in low) == 4
    singles = [Basket.from_counts([(pt, k)]) for pt in points for k in (1, 3)]
    for basket in singles + low + list(wide_baskets(43, 60)):
        assert [tuple(s) for s in canonical_chain(basket).stages] == oracle_chain(basket), basket
    assert len(points) == 90


def assert_trusted(basket):
    """Runs built without normalising again: as `from_counts` would give them,
    strictly increasing by (r, b), canonical coprime points, positive counts."""
    runs = basket.counts()
    assert runs == Basket.from_counts(runs).counts(), basket
    keys = [(r, b) for (b, r), _ in runs]
    assert keys == sorted(set(keys)), basket
    assert all(n > 0 and 2 * b <= r and gcd(b, r) == 1 for (b, r), n in runs), basket


def test_unpacked_and_packed_baskets_are_canonical():
    # `unpack` and `replace_pair_with` hand canonical points to the trusted
    # constructor; check every basket they build here against `from_counts`
    wide = list(wide_baskets(43, 60))
    for basket in wide:
        for n in (0, *range(5, basket.r_max() + 1)):
            assert_trusted(unpack(basket, n))
    built = []
    for basket in wide:  # three packings down at most, a monotone prune
        near = lambda bb, size=len(basket): len(bb) >= size - 3
        built += prime_packings(basket) + dominated_baskets(basket, prune=near)
    for row in p1_zero_family():
        built += prime_packings(row.wb.basket) + dominated_baskets(row.wb.basket)
    assert len(built) > 9000
    for packed in built:
        assert_trusted(packed)


def test_a_memo_keeps_no_failure(monkeypatch):
    # a split whose neighbours are not adjacent faults, every time: the memo
    # stores no exception, so the real neighbours answer once the patch is gone
    basket = B("3x(1,2),2x(5,23),(2,9)")
    real = canonical._neighbours

    def skewed(b, r, n):
        near = real(b, r, n)
        return ((1, 2), (1, 5)) if (b, r) == (5, 23) and near is not None else near

    for memo in (canonical._split, canonical._levels):
        memo.cache_clear()  # so no earlier call has seen (5, 23)
    monkeypatch.setattr(canonical, "_neighbours", skewed)
    for _ in range(2):
        with pytest.raises(ReplayContradiction, match="neighbour determinant"):
            canonical_chain(basket)
    monkeypatch.undo()
    assert [tuple(s) for s in canonical_chain(basket).stages] == oracle_chain(basket)


def test_run_packings_match_brute_force_over_points():
    pool = [(1, 2), (1, 3), (2, 5), (1, 4), (3, 7), (2, 7), (1, 5), (3, 8), (4, 9)]
    rng = random.Random(29)
    repeated = 0
    for _ in range(200):
        runs = [(pt, rng.randint(1, 4)) for pt in rng.sample(pool, rng.randint(1, 5))]
        basket = Basket.from_counts(runs)
        repeated += any(n > 1 for _, n in runs)
        assert prime_packings(basket) == brute_prime_packings(basket)
    assert repeated > 100


def test_prime_packings_examples():
    assert prime_packings(B("(1,2),(1,3)")) == [B("(2,5)")]
    assert prime_packings(B("(1,2)")) == []
    assert prime_packings(B("2x(1,2),(1,3)")) == [B("(1,2),(2,5)")]


def test_prime_packing_preserves_coprimality_and_size():
    pool = [(1, 2), (1, 3), (2, 5), (1, 4), (3, 7), (2, 7), (1, 5)]
    rng = random.Random(11)
    for _ in range(100):
        basket = Basket(rng.choices(pool, k=rng.randint(2, 6)))
        for packed in prime_packings(basket):
            assert len(packed) == len(basket) - 1
            assert all(gcd(b, r) == 1 for b, r in packed)


def test_dominated_baskets_examples():
    assert dominated_baskets(B("(1,2),(1,3)")) == sorted([B("(1,2),(1,3)"), B("(2,5)")])

    closure = dominated_baskets(B("2x(1,2),(1,3),(1,4)"))
    # exhaustive closure by hand: the base, one (2,5) merge, one (2,7) merge,
    # and the maximal packing {(3,7),(1,4)}
    assert set(closure) == {
        B("2x(1,2),(1,3),(1,4)"),
        B("(1,2),(2,5),(1,4)"),
        B("2x(1,2),(2,7)"),
        B("(3,7),(1,4)"),
    }

    survivors = [
        wb
        for wb in dominated_baskets(
            B("9x(1,2),(1,3),(1,5)"), prune=lambda bb: bb.gamma() > 0
        )
        if WeightedBasket(wb, 0).volume() > 0
    ]
    assert set(survivors) == {
        B("7x(1,2),(3,7),(1,5)"),
        B("6x(1,2),(4,9),(1,5)"),
        B("5x(1,2),(5,11),(1,5)"),
        B("4x(1,2),(6,13),(1,5)"),
    }


def test_minimal_baskets_examples():
    assert minimal_baskets(B("(2,5)")) == [B("(2,5)")]
    assert set(minimal_baskets(B("9x(1,2),(1,3),(1,4)"))) == {
        B("(10,21),(1,4)"),
        B("9x(1,2),(2,7)"),
    }
    assert minimal_baskets(B("(1,2),(1,4)")) == [B("(1,2),(1,4)")]


def test_packing_monotonicity_single_steps():
    pool = [(1, 2), (1, 3), (2, 5), (1, 4), (3, 7), (2, 7), (1, 5), (3, 8), (1, 7)]
    rng = random.Random(5)
    checked = 0
    for _ in range(300):
        basket = Basket(rng.choices(pool, k=rng.randint(2, 6)))
        p1 = rng.randint(0, 3)
        wb = WeightedBasket(basket, p1)
        seq = wb.plurigenera(40)
        for packed in general_packings(basket):
            wp = WeightedBasket(packed, p1)
            assert packed.sigma() == basket.sigma()
            assert sigma_prime(packed) <= sigma_prime(basket)
            assert wp.volume() >= wb.volume()
            assert wp.volume() + sigma_prime(packed) == wb.volume() + sigma_prime(basket)
            assert packed.gamma() <= basket.gamma()
            pseq = wp.plurigenera(40)
            for m in range(2, 41):
                assert basket.delta(m) >= packed.delta(m)
                assert seq[m] <= pseq[m]
            checked += 1
    assert checked > 100


def test_chain_delta_invariants_small_exhaustive():
    points = [
        (b, r) for r in range(2, 10) for b in range(1, r // 2 + 1) if gcd(b, r) == 1
    ]
    for k in (1, 2, 3):
        for combo in itertools.combinations_with_replacement(points, k):
            basket = Basket(combo)
            chain = canonical_chain(basket)
            b0 = chain.stages[0].basket
            for j in (3, 4):
                assert b0.delta(j) == basket.delta(j)
            for prev, cur in zip(chain.stages, chain.stages[1:]):
                for j in range(2, cur.level):
                    assert prev.basket.delta(j) == cur.basket.delta(j)
                assert (
                    prev.basket.delta(cur.level)
                    == cur.basket.delta(cur.level) + cur.epsilon
                )


def test_prune_soundness_matches_post_filter():
    pool = [(1, 2), (1, 3), (1, 4), (1, 5), (2, 5), (1, 6), (3, 7)]
    rng = random.Random(17)
    for _ in range(40):
        basket = Basket(rng.choices(pool, k=rng.randint(2, 6)))
        pruned = dominated_baskets(basket, prune=lambda bb: bb.gamma() > 0)
        unpruned = [bb for bb in dominated_baskets(basket) if bb.gamma() > 0]
        assert pruned == unpruned


def test_unpacking_invariant_under_prime_packings():
    # stage baskets of a packed basket never move above the packing stage:
    # walk only the prime packings with r1 + r2 >= 6, below stage 5
    base = B("(1,2),(2,5),(1,3),(1,4),(1,7)")
    seen, stack = {base}, [base]
    while stack:
        for packed in brute_prime_packings(stack.pop(), min_r=6):
            if packed not in seen:
                seen.add(packed)
                stack.append(packed)
    assert len(seen) == 5
    for packed in seen:
        assert unpack(packed, 5) == unpack(base, 5)
        assert unpack(packed, 0) == unpack(base, 0)


def test_chain_stages_dominate_each_other():
    for text in ["(3,7),(2,5)", "2x(1,2),(2,5),(3,7),(4,9)", "(6,13),(1,4)"]:
        chain = canonical_chain(B(text))
        for prev, cur in zip(chain.stages, chain.stages[1:]):
            assert cur.basket in dominated_baskets(prev.basket)

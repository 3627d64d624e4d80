"""The integer residue-table kernels against independent references.

The references are the forms the kernels replaced: the Delta-based increment
recursion for the plurigenera, sums of `local_correction_unreduced` (in
`tests/oracles.py`) for l(-n), gamma as a `Fraction`, and the index-840
growth check compared in `Fraction`s.  The P_-m table a basket keeps at
its own weight, and the package's closed form `anti_plurigenus`, are held
against the closed form as `plurigenera_closed_form` (also in
`tests/oracles.py`) states it, reading no residue table of the package.
"""

import os
import random
import subprocess
import sys
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import sub
from pathlib import Path

import pytest

import fanobasket.basket as basket_module
import fanobasket.pencil as pencil
import fanobasket.recovery as recovery
import fanobasket.search as search
from fanobasket.basket import Basket, IntegralityFault, WeightedBasket
from fanobasket.birational import INDEX_840_SETS, _index_840_sweep, _residue_baskets
from fanobasket.recovery import COST_UNIT, within_budget
from fanobasket.tables import P1_P2_ZERO_TABLE
from oracles import CANONICAL_POINTS, local_correction_unreduced, plurigenera_closed_form

F = Fraction
SRC = Path(__file__).resolve().parent.parent / "src"


# --- references ----------------------------------------------------------------


def delta_reference(basket: Basket, m: int) -> int:
    """Delta^m from its definition, point by point."""
    total = 0
    for (b, r), n in basket.counts():
        u = (b * m) % r
        q, rem = divmod(u * (r - u) - b * m * (r - b * m), 2 * r)
        assert rem == 0
        total += n * q
    return total


def plurigenera_reference(wb: WeightedBasket, upto: int) -> list[int]:
    """P_-1 .. P_-upto by the increment k^2 a - k sigma + 4 - 2 Delta^k over 2,
    with a = 2 p1 + sigma - 6."""
    sig = wb.basket.sigma()
    a = 2 * wb.p1 + sig - 6
    values = [wb.p1]
    for k in range(2, upto + 1):
        q, rem = divmod(k * k * a - k * sig + 4 - 2 * delta_reference(wb.basket, k), 2)
        assert rem == 0
        values.append(values[-1] + q)
    return values[:upto]


def l_neg_reference(basket: Basket, n: int) -> Fraction:
    """l(-n) from the unreduced local corrections: for one point,
    sum_{j=0..n} F(jb) = c_unreduced(n + 1) + (n + 1)(r^2 - 1)/(12 r)."""
    return sum(
        (k * (local_correction_unreduced(b, r, n + 1) + F((n + 1) * (r * r - 1), 12 * r))
         for (b, r), k in basket.counts()),
        F(0),
    )


def scaled_volume_reference(wb: WeightedBasket) -> int:
    """L (-K^3) = L (2 p1 + sigma - 6) - sum n b^2 L/r, L = lcm(r_i), from the
    runs alone."""
    runs = wb.basket.counts()
    big_l = lcm(*(r for (_, r), _ in runs))
    sigma = sum(n * b for (b, _), n in runs)
    return big_l * (2 * wb.p1 + sigma - 6) - sum(n * b * b * (big_l // r) for (b, r), n in runs)


def thm2_check_840_fraction(wb: WeightedBasket) -> bool:
    """The index-840 growth check compared in `Fraction`s."""
    vol = wb.volume()
    seq = wb.plurigenera(pencil.L840_HORIZON)
    for m in range(71, pencil.L840_HORIZON + 1):
        if seq[m] < 840 * vol * m + 2:
            return False
        if wb.basket.l_neg(m) > pencil.L840_SLOPE * m + pencil.L840_OFFSET:
            return False
    return True


# --- inputs ----------------------------------------------------------------------


def seeded_baskets(seed: int, count: int, r_cap: int = 24) -> list[WeightedBasket]:
    """1-8 distinct canonical points with r <= r_cap, each 1-12 times, p1 0..10."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        points, size = set(), rng.randint(1, 8)
        while len(points) < size:
            r = rng.randint(2, r_cap)
            b = rng.randint(1, r // 2)
            if gcd(b, r) == 1:
                points.add((b, r))
        basket = Basket.from_counts((pt, rng.randint(1, 12)) for pt in sorted(points))
        out.append(WeightedBasket(basket, rng.randint(0, 10)))
    return out


BASKETS_840 = list(_residue_baskets(INDEX_840_SETS))
WEIGHTS_840 = range(11)
ALL_840 = [WeightedBasket(b, p1) for b in BASKETS_840 for p1 in WEIGHTS_840]
SWEEP_840 = [wb for wb in ALL_840 if wb.volume() > 0]


def passes_840(wb: WeightedBasket) -> bool:
    """The integer index-840 check at one weight: a least passing weight, at
    most this one."""
    least = pencil.thm2_check_840(wb.basket)
    return least is not None and least <= wb.p1


def least_volume_positive_weight(basket: Basket) -> int:
    """v: the least p1 with -K^3 > 0, found by walking the weights."""
    return next(p1 for p1 in range(100) if WeightedBasket(basket, p1).volume() > 0)


def test_the_840_sweep_has_its_236_baskets():
    assert (len(BASKETS_840), len(ALL_840), len(SWEEP_840)) == (24, 264, 236)
    assert {wb.gorenstein_index() for wb in SWEEP_840} == {840}


# --- plurigenera, l(-n), Delta -------------------------------------------------


def test_plurigenera_match_the_delta_recursion_to_degree_200():
    for wb in seeded_baskets(20261018, 60):
        assert list(wb.plurigenera(200).values) == plurigenera_reference(wb, 200), wb.text()


def test_plurigenera_match_the_delta_recursion_on_the_840_sweep():
    for wb in SWEEP_840:
        assert list(wb.plurigenera(200).values) == plurigenera_reference(wb, 200), wb.text()


def test_kept_residue_sums_serve_every_weight_and_degree():
    # the weights of one basket read to one degree in a row, as in the 840
    # sweep, then another basket or another degree: every table agrees
    for basket in (Basket.parse("(1,3),(2,5),(3,7),(3,8)"), Basket.parse("4x(1,2),(2,9)")):
        for upto in (1, 12, 150, 200):
            for p1 in (0, 3, 10):
                wb = WeightedBasket(basket, p1)
                assert list(wb.plurigenera(upto).values) == plurigenera_reference(wb, upto)
    one, other = Basket.parse("4x(1,2),(2,9)"), Basket.parse("(1,2),(2,5)")
    for basket, upto in ((one, 12), (other, 12), (one, 12), (one, 13)):
        wb = WeightedBasket(basket, 1)
        assert list(wb.plurigenera(upto).values) == plurigenera_reference(wb, upto)


def test_short_and_empty_sequences():
    wb = WeightedBasket(Basket.parse("(1,2),(2,5)"), 3)
    assert wb.plurigenera(0).values == ()
    assert wb.plurigenera(1).values == (3,)
    assert list(WeightedBasket(Basket(), 2).plurigenera(30).values) == plurigenera_reference(
        WeightedBasket(Basket(), 2), 30
    )


def test_l_neg_and_delta_match_their_references():
    for wb in seeded_baskets(7, 40) + SWEEP_840[::7]:
        basket = wb.basket
        for n in (0, 1, 2, 5, 13, 24, 71, 150, 200):
            assert basket.l_neg(n) == l_neg_reference(basket, n), (basket.text(), n)
        for m in (2, 3, 7, 24, 25, 199):
            assert basket.delta(m) == delta_reference(basket, m), (basket.text(), m)


def test_closed_form_matches_the_recursion():
    for wb in seeded_baskets(11, 30):
        seq = wb.plurigenera(120)
        for m in (1, 2, 3, 8, 41, 120):
            assert wb.anti_plurigenus(m) == seq[m]


def test_closed_form_matches_the_oracle():
    # the package's closed form shares its residue tables with the recursion;
    # the oracle states Riemann-Roch without them
    for wb in seeded_baskets(13, 30):
        expected = plurigenera_closed_form(wb, 120)
        assert [wb.anti_plurigenus(m) for m in range(1, 121)] == list(expected), wb.text()


def faults_under_optimize(calls: str) -> str:
    """Run `calls`, a tuple of lambdas over `basket`, `canonical` and `wb`,
    under `python -O` with every residue table off by one; print the flag and
    which calls raised IntegralityFault."""
    script = (
        "import fanobasket.basket as basket\n"
        "import fanobasket.canonical as canonical\n"
        "real = basket._residues\n"
        "basket._residues = lambda b, r: tuple(w + 1 for w in real(b, r))\n"
        "wb = basket.WeightedBasket(basket.Basket.parse('(1,2),(2,5)'), 1)\n"
        "names = []\n"
        f"for call in {calls}:\n"
        "    try:\n"
        "        call()\n"
        "        names.append('none')\n"
        "    except basket.IntegralityFault:\n"
        "        names.append('IntegralityFault')\n"
        "import sys\n"
        "print(sys.flags.optimize, *names)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                          text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_a_corrupted_residue_table_faults_under_optimize():
    # IntegralityFault and Delta's divisibility check are raises, not asserts
    out = faults_under_optimize("(lambda: wb.basket.delta(3), lambda: wb.plurigenera(10))")
    assert out == "1 IntegralityFault IntegralityFault\n"


def test_the_delta_memo_and_the_chain_fault_under_optimize():
    # replays are proofs: per-point Delta, and the chain's eps_n summed from it
    # inside the `_levels` memo, keep their divisibility raise when asserts are off
    out = faults_under_optimize(
        "(lambda: basket._delta_point(2, 5, 3), lambda: canonical.canonical_chain(wb.basket))")
    assert out == "1 IntegralityFault IntegralityFault\n"


# --- the Riemann-Roch table a basket keeps ---------------------------------------


def fresh(basket: Basket) -> Basket:
    """An equal basket whose memo is still empty."""
    return Basket.from_counts(basket.counts())


def test_kept_tables_answer_any_weight_and_horizon_in_any_order():
    # a table is rebuilt at the weight asked when the weight changes, grows
    # from its last value when a horizon outgrows it, and serves shorter
    # horizons at its own weight
    table_rows = [Basket.parse(row.basket) for row in P1_P2_ZERO_TABLE]
    for basket in BASKETS_840 + table_rows:
        shared = fresh(basket)
        for p1 in (3, 0, 10, 7, 1, 5, 9, 2, 8, 4, 6):
            expected = plurigenera_closed_form(WeightedBasket(basket, p1), pencil.L840_HORIZON)
            for owner in (fresh(basket), shared):
                wb = WeightedBasket(owner, p1)
                for upto in (4, pencil.L840_HORIZON, 12, 40):
                    assert wb.plurigenera(upto).values == expected[:upto], (basket.text(), p1, upto)
                    assert owner._table[0] == p1


def off_by_one(monkeypatch) -> None:
    """Every residue table off by one, which makes each step of either route odd."""
    real = basket_module._residues
    monkeypatch.setattr(basket_module, "_residues", lambda b, r: tuple(w + 1 for w in real(b, r)))


def test_a_faulting_recursion_keeps_nothing(monkeypatch):
    # tables past POINT_HORIZON run the recursion; with wrong residues it
    # faults at the first degree it computes, from P_-1 or from a kept table's
    # end, whichever route built that table
    far = basket_module.POINT_HORIZON + 10
    wb = WeightedBasket(Basket.parse("(1,2),(2,5)"), 1)
    expected = plurigenera_closed_form(wb, far)
    off_by_one(monkeypatch)
    for _ in range(2):
        with pytest.raises(IntegralityFault, match="increment at m=2 "):
            wb.plurigenera(far)
    assert wb.basket._table == (0, ())  # the empty table a basket starts with
    monkeypatch.undo()
    assert wb.plurigenera(far - 4).values == expected[:far - 4]
    # an extension that faults keeps the valid prefix, and grows from it later
    off_by_one(monkeypatch)
    for _ in range(2):
        with pytest.raises(IntegralityFault, match=f"increment at m={far - 3} "):
            wb.plurigenera(far)
        assert wb.basket._table == (1, expected[:far - 4])
    monkeypatch.undo()
    assert wb.plurigenera(far).values == expected
    # a table summed from the per-point tables grows by the recursion
    short, near = WeightedBasket(fresh(wb.basket), 1), basket_module.POINT_HORIZON
    assert short.plurigenera(near).values == expected[:near]
    off_by_one(monkeypatch)
    with pytest.raises(IntegralityFault, match=f"increment at m={near + 1} "):
        short.plurigenera(far)
    assert short.basket._table == (1, expected[:near])


def test_a_faulting_point_table_keeps_nothing(monkeypatch):
    # tables to POINT_HORIZON sum the per-point tables; with the per-point
    # memo emptied and wrong residues, a point's table faults at its first
    # step, and neither the basket nor the memo keeps anything
    real = basket_module._residues
    point_sums = lru_cache(maxsize=None)(basket_module._point_sums.__wrapped__)
    monkeypatch.setattr(basket_module, "_point_sums", point_sums)
    wb = WeightedBasket(Basket.parse("(1,2),(2,5)"), 1)
    expected = plurigenera_closed_form(wb, 10)
    off_by_one(monkeypatch)
    for upto in (10, basket_module.POINT_HORIZON, 1):
        with pytest.raises(IntegralityFault, match=r"step at m=2 for \(1, 2\)"):
            wb.plurigenera(upto)
        assert wb.basket._table == (0, ())
        assert point_sums.cache_info().currsize == 0
    # a growth that faults keeps the valid prefix
    monkeypatch.setattr(basket_module, "_residues", real)
    assert wb.plurigenera(6).values == expected[:6]
    assert point_sums.cache_info().currsize == 2
    point_sums.cache_clear()
    off_by_one(monkeypatch)
    with pytest.raises(IntegralityFault, match=r"step at m=2 for \(1, 2\)"):
        wb.plurigenera(10)
    assert wb.basket._table == (1, expected[:6])
    assert point_sums.cache_info().currsize == 0
    monkeypatch.undo()
    assert wb.plurigenera(10).values == expected


def test_both_routes_fault_under_optimize():
    # a table to P_-10 sums per-point tables, one to P_-50 runs the recursion
    out = faults_under_optimize(
        "(lambda: wb.plurigenera(10), lambda: wb.plurigenera(50),"
        " lambda: basket._point_sums(1, 3))")
    assert out == "1 IntegralityFault IntegralityFault IntegralityFault\n"


def test_point_tables_match_the_closed_form_on_every_canonical_point():
    # the point-free part is P_-m of the empty basket, and T_m(b, r) what the
    # one point (b, r) adds to it, both read off the closed form
    horizon = basket_module.POINT_HORIZON
    for p1 in (0, 1, 7):
        empty = plurigenera_closed_form(WeightedBasket(Basket(), p1), horizon)
        assert basket_module._point_free(p1) == empty, p1
    free = basket_module._point_free(0)
    for b, r in CANONICAL_POINTS:
        one_point = plurigenera_closed_form(WeightedBasket(Basket([(b, r)]), 0), horizon)
        assert basket_module._point_sums(b, r) == tuple(map(sub, one_point, free)), (b, r)


def test_the_m1_growth_stays_within_the_point_horizon():
    # `_m1_from_choice` grows the candidate filter's P_-12 tables to M1_HORIZON;
    # within POINT_HORIZON that growth sums per-point tables, not the recursion
    assert search.M1_HORIZON <= basket_module.POINT_HORIZON


def test_the_memo_leaves_equality_hash_and_order_alone():
    one, other = Basket.parse("(1,3),(2,5),(3,7),(3,8)"), Basket.parse("4x(1,2),(2,9)")
    twin = fresh(one)

    def seen():
        return (hash(one), one == twin, twin == one, one < other, other < one,
                one in {twin}, twin in {one}, repr(one), one.text())

    before = seen()
    # the text memo holds what text() gives; the twin has not been asked
    assert (one._text, twin._text) == ("(1,3),(2,5),(3,7),(3,8)", None)
    WeightedBasket(one, 2).plurigenera(pencil.L840_HORIZON)
    assert one.gorenstein_index() == 840
    assert WeightedBasket(one, 2).volume() == Fraction(scaled_volume_reference(
        WeightedBasket(one, 2)), 840)
    assert one._volume == scaled_volume_reference(WeightedBasket(twin, 0))
    assert twin._volume is None
    assert seen() == before
    assert before[:3] == (hash(twin), True, True)
    # a basket made from a memoised one starts with an empty text memo
    merged = one.replace_pair_with(0, 1, (3, 8))
    assert merged._text is None and merged.text() == "(3,7),2x(3,8)"
    assert (Basket().text(), repr(Basket()), Basket()._text) == ("", "Basket[empty]", None)


def test_scaled_volume_matches_its_memo_free_formula():
    # the volume memo keeps the p1-free part; each weight adds 2 L p1 to it
    table_rows = [Basket.parse(row.basket) for row in P1_P2_ZERO_TABLE]
    assert len(table_rows) == 23
    for basket in table_rows + BASKETS_840:
        for p1 in WEIGHTS_840:
            wb = WeightedBasket(basket, p1)
            assert wb._scaled_volume() == scaled_volume_reference(wb), (basket.text(), p1)


# --- the integer index-840 check -------------------------------------------------


def test_integer_840_check_matches_the_fraction_check():
    # every weight p1 = 0..10 of every basket: the 236 volume-positive ones
    # pass and the others fail the growth criterion, in both checks
    fraction = {wb: thm2_check_840_fraction(wb) for wb in ALL_840}
    assert list(fraction.values()) == [wb.volume() > 0 for wb in ALL_840]
    assert [passes_840(wb) for wb in ALL_840] == list(fraction.values())


def test_weighted_tables_match_the_recursion_on_the_840_baskets():
    # the weights of one basket in a row, each rebuilding the basket's one
    # table at its own weight; each must equal the closed form degree by degree
    for basket in BASKETS_840:
        for p1 in WEIGHTS_840:
            wb = WeightedBasket(basket, p1)
            assert wb.plurigenera(pencil.L840_HORIZON).values == plurigenera_closed_form(
                wb, pencil.L840_HORIZON), (basket.text(), p1)


def test_the_840_degrees_start_where_the_margin_rises_with_p1():
    # rise(m) = m(m+1)(2m+1)/6 - 1680 m is what a unit of p1 adds to the growth
    # margin at index 840: negative up to degree 70, positive from 71 on
    assert (pencil._rise_840(70), pencil._rise_840(71)) == (-805, 2556)
    assert all(pencil._rise_840(m) > 0 for m in range(71, pencil.L840_HORIZON + 1))
    # the per-degree memo of the check holds the degree, its rise and m(m+1)(2m+1)
    assert pencil._degrees_840() == tuple(
        (m, pencil._rise_840(m), m * (m + 1) * (2 * m + 1))
        for m in range(71, pencil.L840_HORIZON + 1))


def test_least_passing_weight_matches_the_fraction_check_to_weight_30():
    # the least weight is the first one the Fraction check passes, and every
    # weight from it on to 30 passes
    for basket in BASKETS_840:
        verdicts = [thm2_check_840_fraction(WeightedBasket(basket, p1)) for p1 in range(31)]
        least = pencil.thm2_check_840(basket)
        assert least == verdicts.index(True), basket.text()
        assert verdicts == [p1 >= least for p1 in range(31)], basket.text()


def test_one_check_per_basket_decides_every_weight():
    # v, the least weight with -K^3 > 0, is 1 on 20 baskets and 2 on 4; the
    # least passing weight is v on all 24; the sweep's count is the number of
    # volume-positive weights p1 <= 10; far weights pass the Fraction check
    v = {basket: least_volume_positive_weight(basket) for basket in BASKETS_840}
    assert sorted(v.values()) == [1] * 20 + [2] * 4
    assert all(pencil.thm2_check_840(basket) == v[basket] for basket in BASKETS_840)
    assert sum(11 - v[basket] for basket in BASKETS_840) == 236 == _index_840_sweep()
    for basket in BASKETS_840:
        for p1 in (100, 1000):
            assert thm2_check_840_fraction(WeightedBasket(basket, p1)), (basket.text(), p1)


@pytest.mark.parametrize("slope", [pencil.L840_SLOPE, F(1999, 1001)], ids=["slope", "slope_1001"])
def test_tight_840_constants_fail_the_same_baskets(monkeypatch, slope):
    # an offset at the median of max_m (l(-m) - slope m) fails about half
    # the sweep; a basket at the median itself sits exactly on the envelope.
    # A failing basket fails its envelope, at every weight: no least weight
    worst = sorted(
        max(wb.basket.l_neg(m) - slope * m for m in range(71, pencil.L840_HORIZON + 1))
        for wb in SWEEP_840
    )
    monkeypatch.setattr(pencil, "L840_SLOPE", slope)
    monkeypatch.setattr(pencil, "L840_OFFSET", worst[len(worst) // 2])
    integer = [passes_840(wb) for wb in SWEEP_840]
    assert integer == [thm2_check_840_fraction(wb) for wb in SWEEP_840]
    assert 0 < integer.count(False) < len(integer)
    assert all(pencil.thm2_check_840(wb.basket) is None
               for wb, ok in zip(SWEEP_840, integer) if not ok)


# --- gamma in budget units --------------------------------------------------------


def test_budget_units_decide_gamma_like_the_fraction():
    rng = random.Random(40)
    pool = [(b, r) for r in range(2, 41) for b in range(1, r // 2 + 1) if gcd(b, r) == 1]
    small = [(b, r) for b, r in pool if r <= 8]
    baskets = [Basket.parse(text) for text in ("5x(1,5)", "16x(1,2)", "9x(1,3)", "(1,25)", "")]
    baskets.append(Basket([(1, COST_UNIT + 1)]))  # cost() would floor its share to 0
    baskets += [Basket(rng.choices(pool, k=rng.randint(0, 4))) for _ in range(300)]
    baskets += [Basket(rng.choices(small, k=rng.randint(1, 12))) for _ in range(300)]
    signs = set()
    for basket in baskets:
        g = basket.gamma()
        signs.add((g > 0) - (g < 0))
        assert within_budget(basket, strict=True) == (g > 0)
        assert within_budget(basket, strict=False) == (g >= 0)
    assert signs == {-1, 0, 1}


def test_the_cost_table_is_cost_on_every_index_the_budget_admits():
    assert recovery._COSTS == {r: recovery.cost(r) for r in range(2, 25)}
    assert recovery.TAIL_R_CAP == 24


def test_five_points_of_index_five_sit_on_the_budget():
    basket = Basket.parse("5x(1,5)")
    assert basket.gamma() == 0
    assert within_budget(basket, strict=False)
    assert not within_budget(basket, strict=True)

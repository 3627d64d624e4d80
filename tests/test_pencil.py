"""Local pencil criteria, doubling thresholds, and growth bounds."""

import os
import random
import subprocess
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest

from fanobasket.basket import Basket, WeightedBasket, f_periodic
from fanobasket.pencil import (
    K2Thresholds,
    NOT_PENCIL,
    POSSIBLY_PENCIL,
    g_min,
    k1_all_points,
    k1_condition,
    k2_thresholds,
    non_pencil_threshold,
    thm1_threshold_from_bounds,
    thm2_check_840,
)
from oracles import g_min_bruteforce, k1_condition_tabulated, l_upper_bound_general

F = Fraction
B = Basket.parse
SRC = Path(__file__).resolve().parent.parent / "src"


def canonical_pairs(r_cap: int):
    for r in range(2, r_cap + 1):
        for b in range(1, r // 2 + 1):
            if gcd(b, r) == 1:
                yield b, r


def test_g_min_examples():
    # residues 0 and +-1 are always safe
    for b, r in [(1, 2), (2, 5), (3, 7), (5, 11)]:
        for m in (r, r + 1, 2 * r - 1):
            assert g_min(b, r, m) == 0
    # residue 2: sign decided by 3b vs r; the interior end point carries
    # F(b) - F(2b), and G(0) = 0 caps the minimum at zero
    assert g_min(1, 5, 7) == F(2, 5) - F(3, 5) == F(-1, 5)
    assert f_periodic(2, 5) - f_periodic(4, 5) == F(1, 5)
    assert g_min(2, 5, 7) == 0


def test_g_min_equals_bruteforce():
    for b, r in canonical_pairs(24):
        for m in range(1, 2 * r + 1):
            assert g_min(b, r, m) == g_min_bruteforce(b, r, m), (b, r, m)


def test_g_min_equals_bruteforce_large_r():
    rng = random.Random(7)
    large = [(b, r) for b, r in canonical_pairs(60) if r >= 25]
    for _ in range(400):
        b, r = rng.choice(large)
        m = rng.randint(1, 3 * r)
        assert g_min(b, r, m) == g_min_bruteforce(b, r, m), (b, r, m)


def test_k1_condition_examples():
    assert k1_condition((1, 3), 5) is True
    assert k1_condition((1, 5), 7) is False
    assert k1_condition((2, 5), 3) is True


def test_k1_matches_tabulated_conditions():
    hits = 0
    for b, r in canonical_pairs(24):
        for m in range(1, 3 * r + 1):
            expected = k1_condition_tabulated((b, r), m)
            if expected is None:
                continue
            hits += 1
            assert k1_condition((b, r), m) == expected, (b, r, m)
    assert hits > 500


def test_k2_thresholds_examples():
    assert k2_thresholds([1, 2, 2, 5]) == K2Thresholds(2, 4)
    # with n0 = 1 the escape condition is P_{-l} > l + 1
    assert k2_thresholds([2, 2, 4]) is None
    assert k2_thresholds([2, 3, 5]) == K2Thresholds(1, 3)
    assert k2_thresholds([1, 1, 1, 1, 1, 2, 2, 2]) is None  # n0=6, horizon 8
    assert k2_thresholds([1, 1, 1]) is None


def test_non_pencil_threshold_paper_cases():
    wb = WeightedBasket(B("2x(1,2),(2,5),(3,7),(4,9)"), 0)
    assert wb.volume() == F(43, 315)
    assert wb.gorenstein_index() == 630
    scan = non_pencil_threshold(wb, 61)
    assert scan.verdicts[60].verdict == NOT_PENCIL
    assert wb.anti_plurigenus(61) == 5294 > 630 * F(43, 315) * 61 + 1 == 5247

    wb2 = WeightedBasket(B("(1,2),(1,3),(3,7),(6,13)"), 0)
    assert wb2.volume() == F(61, 546)
    scan2 = non_pencil_threshold(wb2, 57)
    assert scan2.verdicts[56].verdict == NOT_PENCIL
    assert wb2.anti_plurigenus(57) == 3540 > 546 * F(61, 546) * 57 + 1 == 3478


def test_non_pencil_small_values_stay_possible():
    wb = WeightedBasket(B("2x(1,2),(2,5),(3,7),(4,9)"), 0)
    scan = non_pencil_threshold(wb, 10)
    for v in scan.verdicts:
        if wb.anti_plurigenus(v.m) <= 1:
            assert v.verdict == POSSIBLY_PENCIL


def test_thm1_threshold_examples():
    no2 = WeightedBasket(B("5x(1,2),2x(1,3),(2,7),(1,4)"), 0)
    assert no2.gorenstein_index() == 84 and no2.volume() == F(1, 84)
    # max(37, ceil(56/3)=19, ceil(sqrt(504 + 126))=26)
    assert thm1_threshold_from_bounds(84, no2.volume(), no2.basket.r_max(), F(8)) == 37

    # case-wide caps reproduce the published case-I choice
    assert thm1_threshold_from_bounds(210, F(1, 84), 14, F(8)) == 38

    # r_max t / 3 dominates in the degenerate corner
    assert thm1_threshold_from_bounds(840, F(47, 840), 24, F(37)) == 296

    with pytest.raises(ValueError):
        thm1_threshold_from_bounds(84, no2.volume(), no2.basket.r_max(), F(38))


def test_thm1_soundness_on_admissible_sample():
    cases = [
        ("5x(1,2),2x(1,3),(2,7),(1,4)", 0),
        ("2x(1,2),(2,5),(3,7),(4,9)", 0),
        ("2x(1,2),3x(2,5),(1,3),(1,4)", 0),
        ("(1,2),(1,3),(3,7),(6,13)", 0),
        ("(1,2),(1,3),(2,5),(3,7),(3,8)", 1),
        ("(1,3),(2,5),(3,7),(3,8)", 2),
    ]
    for text, p1 in cases:
        wb = WeightedBasket(B(text), p1)
        star = thm1_threshold_from_bounds(wb.gorenstein_index(), wb.volume(), wb.basket.r_max(),
                                          F(8))
        vol, r_x = wb.volume(), wb.gorenstein_index()
        seq = wb.plurigenera(star + 30)
        for m in range(star, star + 31):
            assert seq[m] >= r_x * vol * m + 2, (text, m)


def test_thm1_threshold_from_bounds_matches_a_direct_scan():
    # oracle: the least m >= 37 with 3m >= rmax t and m^2 >= 6 r_X + 12/(t vol)
    rng = random.Random(20261018)
    for _ in range(300):
        r_x, vol = rng.randint(1, 840), F(1, rng.randint(1, 330))
        r_max, t = rng.randint(2, 24), F(rng.randint(1, 3700), 100)
        m = 37
        while 3 * m < r_max * t or m * m < 6 * r_x + 12 / (t * vol):
            m += 1
        assert thm1_threshold_from_bounds(r_x, vol, r_max, t) == m, (r_x, vol, r_max, t)


def test_thm1_threshold_from_bounds_refuses_a_nonpositive_index():
    for r_x in (0, -1):
        with pytest.raises(ValueError, match="r_X must be >= 1"):
            thm1_threshold_from_bounds(r_x, F(1, 330), 12, F(8))


def test_thm1_threshold_at_most_67_in_the_small_index_regime():
    # r_X <= 660 and volume >= 1/330 always land at or below 67 with t = 8
    for r_x in (24, 84, 330, 546, 660):
        assert thm1_threshold_from_bounds(r_x, F(1, 330), 24, F(8)) <= 67


def test_thm2_check_840():
    wb = WeightedBasket(B("(1,2),(1,3),(2,5),(3,7),(3,8)"), 1)
    assert wb.gorenstein_index() == 840
    assert wb.volume() > 0
    assert thm2_check_840(wb.basket) == 1  # the least passing weight
    # the linear envelope at the threshold degree, checked explicitly
    assert wb.basket.l_neg(71) <= F(19907, 10080) * 71 + F(295, 72)
    with pytest.raises(ValueError):
        thm2_check_840(B("(1,2)"))


def test_l_upper_bound_general_examples():
    assert l_upper_bound_general(2, 5, 10)
    assert l_upper_bound_general(1, 3, 4)
    assert l_upper_bound_general(3, 8, 8)
    assert Basket([(2, 5)]).l_neg(10) == 4 <= F(24, 60) * (10 + F(5, 3))


def test_l_upper_bound_general_exhaustive():
    for b, r in canonical_pairs(24):
        if r == 2:
            continue
        for n in range(0, 3 * r + 1):
            assert l_upper_bound_general(b, r, n), (b, r, n)


def test_840_envelope_crosses_the_linear_line_exactly_at_71():
    env = lambda n: F(19907, 10080) * n + F(295, 72)
    line = lambda n: 2 * n + F(7, 3)
    assert env(70) > line(70)
    for n in (71, 100, 150):
        assert env(n) <= line(n)


def test_thm1_soundness_random_admissible_sweep():
    import random

    rng = random.Random(20260810)
    pool = list(canonical_pairs(13))
    done = 0
    while done < 30:
        basket = Basket(rng.choices(pool, k=rng.randint(1, 6)))
        if basket.gamma() < 0:
            continue
        wb = WeightedBasket(basket, rng.randint(0, 10))
        if wb.volume() <= 0:
            continue
        star = thm1_threshold_from_bounds(wb.gorenstein_index(), wb.volume(), wb.basket.r_max(),
                                          F(8))
        vol, r_x = wb.volume(), wb.gorenstein_index()
        seq = wb.plurigenera(star + 30)
        for m in range(star, star + 31):
            assert seq[m] >= r_x * vol * m + 2, (basket.text(), m)
        done += 1


def test_pencil_witnesses_reevaluate_exactly():
    import re as _re

    wb = WeightedBasket(B("2x(1,2),(2,5),(3,7),(4,9)"), 0)
    scan = non_pencil_threshold(wb, 61)
    vol, r_x = wb.volume(), wb.gorenstein_index()
    for v in scan.verdicts:
        if v.verdict != NOT_PENCIL:
            assert v.witness is None
            continue
        m = _re.fullmatch(r"P_-(\d+) = (\d+) > (-?[0-9/]+)", v.witness)
        assert m and int(m.group(1)) == v.m
        assert wb.anti_plurigenus(v.m) == int(m.group(2))
        assert Fraction(m.group(3)) == r_x * vol * v.m + 1


def test_k1_all_points_reads_the_bruteforce_sign_on_random_baskets():
    # the integer memo's sign against the Fraction oracle, which keeps no memo
    rng = random.Random(20261020)
    pool = list(canonical_pairs(24))
    bruteforce, seen = {}, set()
    for _ in range(30):
        basket = Basket(rng.choices(pool, k=rng.randint(2, 6)))
        for m in range(1, 3 * basket.r_max() + 1):
            expected = all(
                bruteforce.setdefault((b, r, m), g_min_bruteforce(b, r, m)) >= 0
                for (b, r), _ in basket.counts())
            assert k1_all_points(basket, m) == expected, (basket.text(), m)
            seen.add(expected)
    assert seen == {True, False}


def edges_under(flags: list[str]) -> str:
    """Run the criteria's edge cases in a fresh interpreter with `flags`; print
    the optimize flag and each case's result or its ValueError."""
    script = (
        "import sys\n"
        "from fanobasket.basket import Basket, WeightedBasket\n"
        "from fanobasket.pencil import k1_all_points, non_pencil_threshold\n"
        "cases = (lambda: k1_all_points(Basket.parse('(1,2),(2,5)'), 0),\n"
        "         lambda: k1_all_points(Basket(), 0),\n"
        "         lambda: non_pencil_threshold(WeightedBasket(Basket(), 3), 5))\n"
        "print(sys.flags.optimize)\n"
        "for case in cases:\n"
        "    try:\n"
        "        print(case())\n"
        "    except ValueError as error:\n"
        "        print('ValueError:', error)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, *flags, "-c", script], capture_output=True,
                          text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.parametrize("flags, optimize", [([], 0), (["-O"], 1)])
def test_criteria_edges_hold_with_and_without_asserts(flags, optimize):
    # m = 0 on a non-empty basket, the empty basket, and -K^3 = 0 exactly
    assert WeightedBasket(Basket(), 3).volume() == 0
    assert edges_under(flags) == (
        f"{optimize}\n"
        "ValueError: need canonical (b, r) and m >= 1, got (1,2), m=0\n"
        "True\n"
        "ValueError: the growth criterion needs positive volume\n"
    )

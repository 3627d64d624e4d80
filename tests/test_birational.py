"""Birationality thresholds and the two full case-tree replays."""

import re
from fractions import Fraction
from functools import partial

import pytest

from fanobasket.basket import WeightedBasket
from fanobasket.birational import (
    AX_CC_P8,
    AX_CC_VOL,
    AX_RX_VOL_INT,
    BirationalityInputs,
    _capped_leaf,
    _dead_index,
    _explicit_basket,
    _leaf,
    _residue_baskets,
    replay_birationality,
    thm_main_threshold,
)
from fanobasket.indexbound import admissible_index_sets_with_lcm
from fanobasket.recovery import BUDGET, cost, within_budget
from fanobasket.reports import ReplayContradiction, ReplayReport, require
from fanobasket.search import (
    ConstraintSet,
    enumerate_geometric,
    is_geometric_candidate,
    p1_zero_family,
)
from fanobasket.wci import X6D_PAIRS

F = Fraction


# --- the residue oracle for Weak97's named indices ----------------------------


def _zero_p1_residue_baskets(index: int, rmax: int) -> list[WeightedBasket]:
    """Every p1 = 0 weighted basket with one point per entry of an admissible
    index set of lcm `index` and largest entry rmax, the forced index 2 once
    or twice.  Up to the 24-budget that is every such basket: it first
    requires that beside each set the budget has room for no second point of
    any index but 2, and for at most one of 2."""
    sets = [s for s in admissible_index_sets_with_lcm(index, rmax) if 2 in s]
    for rset in sets:
        left = BUDGET - sum(map(cost, rset))
        require(2 * cost(2) > left and all(cost(r) > left for r in rset if r != 2),
                f"Weak97 IV: beside {rset} only index 2 repeats within the 24-budget,"
                " and only once")
    return [WeightedBasket(b, 0) for b in _residue_baskets(sets + [(2,) + s for s in sets])]


def _zero_p1_baskets(index: int, rmax: int) -> list[WeightedBasket]:
    """The baskets of `_zero_p1_residue_baskets(index, rmax)` that pass the
    weak geometric constraints with P_-2 >= 1 and P_-4 >= 2."""
    cs = ConstraintSet(p_exact={1: 0}, p_min={2: 1, 4: 2}, fano_strict=False)
    return sorted((wb for wb in _zero_p1_residue_baskets(index, rmax)
                   if is_geometric_candidate(wb, cs)[0]), key=lambda w: w.basket)


def test_a_of_m0():
    # a(1) = 1 and a(m0) = 6 for m0 >= 2, read where the base term m0 + m1 + a(m0)
    # of variant i binds: floor(3 mu0) + 3 m1 is 3, 6 and 15 at mu0 = 1/4
    for m0, expected in ((1, 3), (2, 10), (5, 16)):
        inputs = BirationalityInputs(m0, m0, Fraction(1, 4))
        assert thm_main_threshold(inputs, "i") == expected
    with pytest.raises(ValueError):
        BirationalityInputs(0, 1, Fraction(1, 4))


def test_inputs_reject_a_nonpositive_rmax_or_nu0():
    # rmax and nu0 are a local index and a degree, both at least 1
    for kwargs in ({"rmax": 0}, {"rmax": -3}, {"rmax": 3, "nu0": 0}):
        with pytest.raises(ValueError, match="must be >= 1"):
            BirationalityInputs(1, 2, F(1), **kwargs)


def test_thm_main_threshold_examples():
    inp = BirationalityInputs(1, 2, F(1), rmax=3, nu0=1)
    assert thm_main_threshold(inp, "i") == 9
    assert thm_main_threshold(inp, "iii") == 9

    case1 = BirationalityInputs(8, 38, F(8), rmax=14)
    assert thm_main_threshold(case1, "ii") == 76

    case3 = BirationalityInputs(8, 65, F(8), rmax=12, nu0=1)
    assert thm_main_threshold(case3, "iii") == 97

    with pytest.raises(ValueError):
        thm_main_threshold(BirationalityInputs(1, 2, F(1)), "ii")


def test_threshold_monotonicity():
    base = BirationalityInputs(4, 20, F(3), rmax=9, nu0=2)
    for variant in ("i", "ii", "iii"):
        t0 = thm_main_threshold(base, variant)
        assert thm_main_threshold(
            BirationalityInputs(5, 20, F(3), rmax=9, nu0=2), variant
        ) >= t0
        assert thm_main_threshold(
            BirationalityInputs(4, 21, F(3), rmax=9, nu0=2), variant
        ) >= t0
        assert thm_main_threshold(
            BirationalityInputs(4, 20, F(7, 2), rmax=9, nu0=2), variant
        ) >= t0
        if variant in ("ii", "iii"):
            assert thm_main_threshold(
                BirationalityInputs(4, 20, F(3), rmax=10, nu0=2), variant
            ) >= t0


def test_floor_identity_variant_ii():
    for mu0 in range(0, 8):
        for m1 in range(mu0 if mu0 else 1, 12):
            if m1 < 1:
                continue
            inp = BirationalityInputs(max(mu0, 1), m1, F(max(mu0, 1)), rmax=2)
            middle = (5 * (inp.mu0_upper + m1)) // 3
            assert (
                F(5, 3) * inp.mu0_upper + F(5, 3) * m1
            ).__floor__() == middle


def test_x6d_family_thresholds_are_3d():
    for a, b in X6D_PAIRS:
        d = a + b
        inp = BirationalityInputs(a, b, F(a), rmax=d, nu0=1)
        assert thm_main_threshold(inp, "i") == 3 * d, (a, b)
        assert thm_main_threshold(inp, "ii") == 3 * d, (a, b)
        assert thm_main_threshold(inp, "iii") == 3 * d, (a, b)


def test_replay_qfano_39():
    rep = replay_birationality("QFano39")
    assert rep.conclusion.startswith("birational for all m >= 39")
    assert rep.leaves and all(leaf["threshold"] <= 39 for leaf in rep.leaves)
    assert max(leaf["threshold"] for leaf in rep.leaves) == 39
    # the two sharp leaves
    sharp = {leaf["name"] for leaf in rep.leaves if leaf["threshold"] == 39}
    assert "P1=P2=0 No.3" in sharp and "P1=1, n0>=7" in sharp


def test_replay_weak_97():
    rep = replay_birationality("Weak97")
    assert rep.conclusion.startswith("birational for all m >= 97")
    assert all(leaf["threshold"] <= 97 for leaf in rep.leaves)
    by_name = {leaf["name"]: leaf for leaf in rep.leaves}
    assert by_name["I: P2=0"]["threshold"] == 76
    assert by_name["II: 14<=rmax<=22"]["threshold"] == 96
    assert by_name["III: rmax<=12, rX<=660"]["threshold"] == 97
    assert by_name["IV: rX=630, pencil persists"]["threshold"] == 97
    assert by_name["IV: rX=630, pencil persists"]["mu0"] == "7/9"
    assert by_name["IV: rX=546, pencil persists"]["threshold"] == 95
    assert by_name["IV: rX=546, pencil persists"]["mu0"] == "1/2"
    # the three special baskets surface as survivors with their leaves
    texts = {s.wb.basket.text() for s in rep.survivors}
    assert "2x(1,2),(2,5),(3,7),(4,9)" in texts
    assert "2x(1,2),(1,3),(3,7),(5,11)" in texts
    assert "(1,2),(1,3),(3,7),(6,13)" in texts


def test_replay_reports_serialize():
    rep = replay_birationality("Weak97")
    data = rep.to_json()
    assert data["case"] == "Weak97"
    assert len(data["leaves"]) == len(rep.leaves)
    assert "axioms" in data
    assert rep.render()


def test_replays_carry_a_coverage_audit():
    for target in ("QFano39", "Weak97"):
        rep = replay_birationality(target)
        assert rep.coverage and all(isinstance(c, str) for c in rep.coverage)
        assert "coverage" in rep.to_json()


def test_weak97_residue_claims_match_the_enumeration():
    # the residue oracle against the complete weak P_-1 = 0, P_-2 >= 1,
    # P_-4 >= 2 enumeration, filtered by Gorenstein index; Weak97 reads the
    # same survivors off the shared weak P_-1 = 0 family
    survivors = enumerate_geometric(
        ConstraintSet(p_exact={1: 0}, p_min={2: 1, 4: 2}, fano_strict=False)
    )
    assert len(survivors) == 261
    assert survivors == [row.wb for row in p1_zero_family()
                         if row.cert is None and row.p[2] >= 1 and row.p[4] >= 2]

    claims = {
        (630, 9): ["2x(1,2),(2,5),(3,7),(4,9)"],
        (546, 13): ["(1,2),(1,3),(3,7),(6,13)"],
        (462, 11): ["2x(1,2),(1,3),(3,7),(5,11)"],
        (840, 8): [],
        (660, 11): [],
    }
    for (index, rmax), expected in claims.items():
        enumerated = [wb.basket.text() for wb in survivors if wb.gorenstein_index() == index]
        residues = [wb.basket.text() for wb in _zero_p1_baskets(index, rmax)]
        assert enumerated == residues == expected, (index, rmax)


def test_dead_indices_have_no_volume_positive_basket_in_budget():
    # every p1 = 0 basket of index 840 (rmax 8) or 660 (rmax 11) within the
    # 24-budget has -K^3 <= 0, and the shared family has no candidate of
    # either index at all
    for index, rmax in ((840, 8), (660, 11)):
        baskets = _zero_p1_residue_baskets(index, rmax)
        assert baskets, index
        assert [wb.basket.text() for wb in baskets
                if within_budget(wb.basket, strict=False) and wb.volume() > 0] == []
        assert [row for row in p1_zero_family() if row.wb.gorenstein_index() == index] == []


def test_dead_index_refuses_a_volume_positive_example():
    report = ReplayReport(case="Weak97", constraints="", axioms=[])
    _dead_index(report, 660, 11, "(1,2),(1,3),(1,4),(2,5),(5,11)", "IV: rmax=11")
    assert [e.certificate for e in report.eliminated] == [
        "every index-660 candidate with P_-1 = 0 has -K^3 <= 0"
    ]
    # same index and rmax, but a second (1,2) makes -K^3 = 227/660 > 0
    with pytest.raises(ReplayContradiction, match=r"-K\^3 = 227/660$"):
        _dead_index(report, 660, 11, "2x(1,2),(1,3),(1,4),(2,5),(5,11)", "IV: rmax=11")
    with pytest.raises(ReplayContradiction, match="it has rX = 660, rmax = 11,"):
        _dead_index(report, 840, 8, "(1,2),(1,3),(1,4),(2,5),(5,11)", "IV: rmax<=8")
    assert len(report.eliminated) == 1


# (2, 3, 7) has room for a second (b, 7) point, (2, 7, 11) for a third (1, 2)
# and (2, 3, 17) for a second (1, 3) but not a second (1, 2): each is a
# basket the one-point-per-entry search would never try
@pytest.mark.parametrize("rset", [(2, 3, 7), (2, 7, 11), (2, 3, 17)])
def test_zero_p1_baskets_refuses_a_set_with_room_for_a_repeat(monkeypatch, rset):
    monkeypatch.setitem(globals(), "admissible_index_sets_with_lcm", lambda *args: [rset])
    with pytest.raises(ReplayContradiction, match=re.escape(f"beside {rset} only")):
        _zero_p1_baskets(42, 7)


def test_dead_index_checks_every_basket_in_budget_not_only_candidates(monkeypatch):
    import fanobasket.search as search

    # with the weak constraints made to reject everything, the family has no
    # survivor, yet its eliminated row 2x(1,2),(2,5),(3,7),(4,9) has
    # -K^3 = 43/315 > 0: the certificate "-K^3 <= 0" must still fail
    monkeypatch.setattr(search, "is_geometric_candidate", lambda wb, cs: (False, "off"))
    p1_zero_family.cache_clear()
    try:
        rows = p1_zero_family()
        assert rows and all(row.cert == "off" for row in rows)
        report = ReplayReport(case="Weak97", constraints="", axioms=[])
        with pytest.raises(ReplayContradiction, match=re.escape("(2,5),(3,7),(4,9)'")):
            _dead_index(report, 630, 9, "(1,2),(1,5),(1,7),(1,9)", "IV: rmax=9")
        assert report.eliminated == []
        # while the explicit baskets are read off the survivors alone
        leaf = partial(_leaf, report, 97)
        with pytest.raises(ReplayContradiction, match="is the only index-630 basket$"):
            _explicit_basket(report, leaf, 630)
        assert report.survivors == [] and report.leaves == []
    finally:
        p1_zero_family.cache_clear()


def test_capped_leaf_requires_an_attained_cap_and_derives_the_volume_floor():
    report = ReplayReport(case="Weak97", constraints="", axioms=[])
    leaf = partial(_leaf, report, 97)
    # for 14 <= rmax <= 22 the largest attainable rX is 240, so a cap of 250
    # is refused although nothing exceeds it
    with pytest.raises(ReplayContradiction, match=r"^Weak97 II: .*largest 240, expected 250$"):
        _capped_leaf(leaf, "II: 14<=rmax<=22", range(14, 23), 250, 6, 44, 8, "ii", [], [])
    assert report.leaves == []
    # below 330 the floor is 1/cap, from rX(-K^3) in Z; from 330 on it is 1/330
    _capped_leaf(leaf, "II: 14<=rmax<=22", range(14, 23), 240, 6, 44, 8, "ii", [], [AX_CC_P8])
    _capped_leaf(leaf, "IV: rmax=11, rX<=330", range(11, 12), 330, 13, 48, 4, "ii", [], [],
                 nu0=2, forced=(2,), isolated=(660, 462))
    assert [node["threshold"] for node in report.leaves] == [96, 86]
    assert report.axioms == [AX_CC_P8, AX_RX_VOL_INT, AX_CC_VOL]

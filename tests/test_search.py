"""Geometric enumeration and the image-dimension replays."""

from itertools import groupby
from pathlib import Path

import pytest

import fanobasket.search as search_module
from fanobasket.basket import Basket, PlurigenusSequence, WeightedBasket
from fanobasket.birational import replay_birationality
from fanobasket.canonical import unpack
from fanobasket.recovery import feasible_tails
from fanobasket.search import (
    P1_EQ_1_HORIZONS,
    ConstraintSet,
    _heads,
    candidates,
    enumerate_geometric,
    enumerate_geometric_full,
    forced_ladder,
    is_geometric_candidate,
    late_ladder,
    p1_zero_family,
    replay_delta1,
)
from fanobasket.tables import EXCEPTIONAL_TYPES, P1_P2_ZERO_TABLE
from oracles import unpruned_heads

B = Basket.parse
GOLDEN_DIR = Path(__file__).parent / "golden"


def test_is_geometric_candidate_examples():
    cs = ConstraintSet(p_exact={})
    ok, cert = is_geometric_candidate(WeightedBasket(B("(1,2),(1,3),(1,5)"), 2), cs)
    assert not ok and cert == "-K^3 = -1/30 <= 0"

    ok, cert = is_geometric_candidate(WeightedBasket(B(""), 3), cs)
    assert not ok and cert == "-K^3 = 0 <= 0"

    ok, cert = is_geometric_candidate(
        WeightedBasket(B("2x(1,2),3x(2,5),(1,3),(1,4)"), 0), cs
    )
    assert ok and cert is None


def test_constraint_certificates_are_ordered_and_named():
    cs = ConstraintSet(p_exact={5: 1})
    ok, cert = is_geometric_candidate(WeightedBasket(B("(1,2),(1,3),(1,5)"), 2), cs)
    assert not ok and cert.startswith("P_-5 = 6 != pinned 1")


def test_constraint_sets_keep_their_pins_as_copies_in_degree_order():
    # pins given out of order are checked, described and shown in degree
    # order, and a caller's later edit of its dict reaches no constraint set
    exact, low, high = {5: 1, 2: 9, 1: 2}, {4: 0, 3: 0}, {6: 99, 2: 3}
    cs = ConstraintSet(p_exact=exact, p_min=low, p_max=high)
    exact[7], low[3] = 1, 5
    high.clear()
    assert [list(pins) for pins in (cs.p_exact, cs.p_min, cs.p_max)] == [[1, 2, 5], [3, 4], [2, 6]]
    assert cs.describe().startswith("P_-1=2, P_-2=9, P_-5=1, P_-3>=0, P_-4>=0, P_-2<=3, P_-6<=99")
    assert "p_exact={1: 2, 2: 9, 5: 1}" in repr(cs)
    assert cs == ConstraintSet(p_exact={1: 2, 2: 9, 5: 1}, p_min={3: 0, 4: 0}, p_max={2: 3, 6: 99})
    ok, cert = is_geometric_candidate(WeightedBasket(B("(1,2),(1,3),(1,5)"), 2), cs)
    assert not ok and cert == "P_-2 = 3 != pinned 9"  # P_-5 = 6 != 1 comes after it


def test_gamma_certificates_name_the_strict_and_weak_bound():
    strict, weak = ConstraintSet(p_exact={}), ConstraintSet(p_exact={}, fano_strict=False)
    boundary = WeightedBasket(B("5x(1,5)"), 2)  # gamma = 0, -K^3 = 2
    assert is_geometric_candidate(boundary, strict) == (False, "gamma = 0 <= 0")
    assert is_geometric_candidate(boundary, weak)[0]
    beyond = WeightedBasket(B("6x(1,5)"), 2)  # gamma = -24/5
    assert is_geometric_candidate(beyond, strict) == (False, "gamma = -24/5 <= 0")
    assert is_geometric_candidate(beyond, weak) == (False, "gamma = -24/5 < 0")


def test_enumerate_geometric_reproduces_the_23_rows():
    survivors = enumerate_geometric(ConstraintSet(p_exact={1: 0, 2: 0}))
    assert len(survivors) == 23
    by_text = {wb.basket.text(): wb for wb in survivors}
    for row in P1_P2_ZERO_TABLE:
        wb = by_text[row.basket]
        assert wb.volume() == row.volume, row.no
        seq = wb.plurigenera(8)
        assert tuple(seq[m] for m in range(3, 9)) == row.p3_to_p8, row.no


def test_enumerate_geometric_weak_mode_gives_the_same_rows():
    strict = {w.basket.text() for w in enumerate_geometric(ConstraintSet(p_exact={1: 0, 2: 0}))}
    weak = {
        w.basket.text()
        for w in enumerate_geometric(
            ConstraintSet(p_exact={1: 0, 2: 0}, fano_strict=False)
        )
    }
    assert strict == weak


def test_enumerate_geometric_ladder_family_is_empty():
    survivors = enumerate_geometric(
        ConstraintSet(p_exact={1: 2, 2: 3, 3: 4, 4: 5, 5: 6, 6: 7})
    )
    assert survivors == []


def test_enumerate_geometric_nine_basket_family():
    res = enumerate_geometric_full(
        ConstraintSet(p_exact={1: 0, 3: 0, 4: 1}, p_min={2: 1}, fano_strict=False)
    )
    got = {wb.basket.text() for wb in res.survivors}
    assert got == {
        "9x(1,2),(1,3),(1,7)",
        "8x(1,2),(2,5),(1,7)",
        "8x(1,2),(2,5),(1,6)",
        "7x(1,2),(1,6),(3,7)",
        "6x(1,2),(1,6),(4,9)",
        "7x(1,2),(1,5),(3,7)",
        "6x(1,2),(1,5),(4,9)",
        "5x(1,2),(1,5),(5,11)",
        "4x(1,2),(1,5),(6,13)",
    }


# every superadditivity certificate of the weak P_-1 = 1 enumeration, in order;
# the first failing pair (m, n), m <= n, tried in increasing m then n, is named
SUPERADDITIVITY_CERTIFICATES = [
    ("3x(1,2),(1,5),(1,6),(1,8)", "P_-3 = 0 < P_-1 + P_-2 - 1 = 1"),
    ("3x(1,2),(1,5),2x(1,7)", "P_-3 = 0 < P_-1 + P_-2 - 1 = 1"),
    ("3x(1,2),2x(1,6),(1,7)", "P_-3 = 0 < P_-1 + P_-2 - 1 = 1"),
    ("3x(1,2),(1,6),(2,13)", "P_-3 = 0 < P_-1 + P_-2 - 1 = 1"),
    ("3x(1,2),(1,8),(2,11)", "P_-3 = 0 < P_-1 + P_-2 - 1 = 1"),
    ("3x(1,2),(3,19)", "P_-3 = 0 < P_-1 + P_-2 - 1 = 1"),
    ("2x(1,2),(1,3),(2,7),(1,11)", "P_-5 = 0 < P_-1 + P_-4 - 1 = 1"),
    ("2x(1,2),(3,10),(1,11)", "P_-5 = 0 < P_-1 + P_-4 - 1 = 1"),
]


def test_superadditivity_certificates_are_pinned():
    result = enumerate_geometric_full(ConstraintSet(p_exact={1: 1}, fano_strict=False))
    got = [(wb.basket.text(), cert) for wb, cert in result.eliminated if " - 1 = " in cert]
    assert got == SUPERADDITIVITY_CERTIFICATES
    assert (len(result.survivors), len(result.eliminated)) == (5262, 292)


def test_candidate_closures_are_disjoint():
    # the enumerations keep no dedupe set: every candidate unpacks at level 0
    # to its own seed, seeds come in feasible_tails order, nothing comes twice
    for p1 in range(3):
        weak = ConstraintSet(p_exact={1: p1}, fano_strict=False)
        listed = []
        for head in _heads(weak):
            cands = [wb.basket for wb in candidates(head, False)]
            seeds = [d.basket0 for d in feasible_tails(head) if d.basket0.gamma() >= 0]
            assert [seed for seed, _ in groupby(unpack(c, 0) for c in cands)] == seeds
            listed += cands
        strict = ConstraintSet(p_exact={1: p1})
        strict_listed = [wb.basket for head in _heads(strict) for wb in candidates(head, True)]
        # gamma only drops along a packing, so the strict closures are the
        # weak ones cut to gamma > 0
        assert strict_listed == [c for c in listed if c.gamma() > 0]
        assert len(set(listed)) == len(listed), p1


def test_heads_are_the_unpruned_ranges_with_a_feasible_tail():
    kept = {}
    for p1 in range(4):
        for fano_strict in (True, False):
            cs = ConstraintSet(p_exact={1: p1}, fano_strict=fano_strict)
            unpruned = list(unpruned_heads(cs))
            heads = list(_heads(cs))
            assert heads == [head for head in unpruned if feasible_tails(head)], (p1, fano_strict)
            kept[p1] = len(unpruned), len(heads)
    # at P_-1 = 0, 884 of the 928 heads fail the budget at sigma5 = 0
    assert kept[0] == (928, 44)


def test_heads_match_the_ranges_under_every_pin_they_read():
    # the tail-free heads, walked once and shifted to each P_-1, against the
    # range route with pins on P_-2..P_-4 and caps on P_-2, and the ladders
    # the replays enumerate
    sets = [ConstraintSet(p_exact=forced_ladder(2, 1, 6)), late_ladder(9),
            *(ConstraintSet(p_exact=forced_ladder(1, n0, l)) for n0, l in P1_EQ_1_HORIZONS)]
    for p1 in range(4):
        free = list(_heads(ConstraintSet(p_exact={1: p1})))
        sets.append(ConstraintSet(p_exact={1: p1}))
        sets += [ConstraintSet(p_exact={1: p1, 2: p2}) for p2 in {h[2] for h in free[::9]}]
        sets += [ConstraintSet(p_exact={1: p1, 3: h[3], 4: h[4]}) for h in free[::40]]
        sets += [ConstraintSet(p_exact=dict(zip((1, 2, 3, 4), h.values))) for h in free[::40]]
        sets += [ConstraintSet(p_exact={1: p1, 2: 5 * p1 + 17})]  # past every head
        low = free[len(free) // 2][2]
        sets += [ConstraintSet(p_exact={1: p1}, p_min={2: low}, p_max={2: low + 2}),
                 ConstraintSet(p_exact={1: p1}, p_max={2: low - 1})]
    sizes = []
    for cs in sets:
        heads = list(_heads(cs))
        assert heads == [head for head in unpruned_heads(cs) if feasible_tails(head)], cs
        sizes.append(len(heads))
    assert 0 in sizes and max(sizes) == 243


def test_enumeration_after_clearing_the_candidate_pool_is_unchanged():
    for cs in (ConstraintSet(p_exact={1: 2}), ConstraintSet(p_exact={1: 1, 2: 1}, fano_strict=False)):
        first = enumerate_geometric_full(cs)
        assert enumerate_geometric_full(cs) == first
        candidates.cache_clear()
        assert enumerate_geometric_full(cs) == first


def test_enumeration_needs_p1_and_honest_caps():
    with pytest.raises(ValueError):
        enumerate_geometric(ConstraintSet(p_exact={2: 0}))


def test_sigma_above_sixteen_leaves_nothing():
    # sigma = 10 - 5 P_-1 + P_-2 = 27 stage-0 points cost more than the budget
    for strict in (True, False):
        cs = ConstraintSet(p_exact={1: 0, 2: 17}, fano_strict=strict)
        result = enumerate_geometric_full(cs)
        assert result.survivors == [] and result.eliminated == []


def test_large_p1_enumerates_inside_budget_derived_ranges():
    # the P_-2/P_-3/P_-4 loops are cut by sigma, n_{1,2} <= 16 and n_{1,3} <= 9,
    # not by P_-1; the survivor counts were measured with the uncut loops
    for strict, count in ((True, 8314), (False, 8338)):
        survivors = enumerate_geometric(ConstraintSet(p_exact={1: 40}, fano_strict=strict))
        assert len(survivors) == count


def test_horizon_must_cover_every_pinned_degree():
    for kwargs in ({"horizon": 0}, {"horizon": 1}, {"p_min": {13: 1}}, {"p_max": {0: 1}}):
        with pytest.raises(ValueError):
            ConstraintSet(p_exact={1: 0, 2: 0}, **kwargs)
    assert ConstraintSet(p_exact={1: 0, 2: 0}, horizon=2).horizon == 2


def test_forced_ladders():
    assert forced_ladder(2, 1, 6) == {m: m + 1 for m in range(1, 7)}
    assert forced_ladder(1, 4, 6) == {1: 1, 2: 1, 3: 1, 4: 2, 5: 2, 6: 2}
    assert forced_ladder(1, 6, 8) == {1: 1, 2: 1, 3: 1, 4: 1, 5: 1, 6: 2, 7: 2, 8: 2}
    # n0 = 7 and n0 = 8 disagree exactly at degree 7
    l7, l8 = forced_ladder(1, 7, 9), forced_ladder(1, 8, 9)
    assert l7[7] == 2 and l8[7] == 1
    assert {k: v for k, v in l7.items() if k != 7} == {
        k: v for k, v in l8.items() if k != 7
    }
    # the merged n0 >= 7 branch of the P1_eq_1 replay, and QFano39's families
    # "n0=6, escape at 8" and "n0>=7"
    ones = {m: 1 for m in range(1, 7)}
    assert late_ladder(9) == ConstraintSet(
        p_exact={**ones, 8: 2, 9: 2}, p_min={7: 1}, p_max={7: 2})
    assert forced_ladder(1, 6, 7) == {**ones, 6: 2, 7: 2}
    assert late_ladder(8, p_min={9: 3}) == ConstraintSet(
        p_exact={**ones, 8: 2}, p_min={7: 1, 9: 3}, p_max={7: 2})


def test_replay_p1_ge_3():
    rep = replay_delta1("P1_ge_3")
    assert rep.conclusion == "delta_1 <= 1"


def test_replay_p1_eq_2():
    rep = replay_delta1("P1_eq_2")
    assert rep.conclusion == "delta_1 <= 6"
    assert not rep.survivors
    vol_certs = [
        e for e in rep.eliminated if e.certificate.startswith("-K^3")
    ]
    assert len(vol_certs) == 1
    assert vol_certs[0].wb.basket.text() == "(1,2),(1,3),(1,5)"
    assert vol_certs[0].certificate == "-K^3 = -1/30 <= 0"


def test_replay_p1_eq_1_branch_certificates():
    rep = replay_delta1("P1_eq_1")
    assert rep.conclusion == "delta_1 <= 9"
    assert not rep.survivors

    def certs(branch):
        return {
            (e.wb.basket.text(), e.certificate)
            for e in rep.eliminated
            if e.branch == branch
        }

    assert ("5x(1,2),(1,3),(1,5)", "-K^3 = -1/30 <= 0") in certs("n0=2")
    assert ("(1,2),4x(1,3),(1,5)", "-K^3 = -1/30 <= 0") in certs("n0=3")
    assert ("(1,4),2x(2,5),(1,6)", "-K^3 = -1/60 <= 0") in certs("n0=5")
    assert ("(1,3),2x(1,5),(3,7)", "-K^3 = -2/105 <= 0") in certs("n0=5")
    assert ("2x(1,2),2x(1,3),(1,5),(1,7)", "-K^3 = -1/105 <= 0") in certs("n0=6")
    late = certs("n0>=7")
    for s in (9, 10, 11):
        assert (
            f"(1,2),(1,3),(1,4),(2,5),(1,{s})",
            "P_-9 = 3 != pinned 2",
        ) in late


def test_replay_p1_eq_0_exceptional_list():
    rep = replay_delta1("P1_eq_0")
    ex = {
        s.wb.basket.text(): s.notes
        for s in rep.survivors
        if "type" in s.notes
    }
    assert set(ex) == set(EXCEPTIONAL_TYPES)
    for text, notes in ex.items():
        tag = EXCEPTIONAL_TYPES[text]
        if tag in ("No.1", "No.2", "No.3", "No.4"):
            assert notes["delta1"] == 10
        elif tag in ("No.A", "No.B", "No.C", "No.D"):
            assert notes["delta1"] == 8
        else:
            assert notes["delta1"] == 6
    # everything outside the exceptional list stays at degree <= 8
    for s in rep.survivors:
        if "type" not in s.notes:
            assert s.notes["m1"] <= 8, s.wb.basket.text()


def test_replay_p1_eq_0_has_all_23_rows():
    rep = replay_delta1("P1_eq_0")
    case1 = {s.wb.basket.text() for s in rep.survivors if s.notes["branch"] == "P2=0"}
    assert case1 == {row.basket for row in P1_P2_ZERO_TABLE}
    for s in rep.survivors:
        if s.notes["branch"] == "P2=0":
            row = next(r for r in P1_P2_ZERO_TABLE if r.basket == s.wb.basket.text())
            assert s.notes["m"] == row.m_choice and s.notes["m1"] == row.m1


def test_report_serialization_round_trip():
    rep = replay_delta1("P1_eq_2")
    data = rep.to_json()
    assert data["case"] == "P1_eq_2"
    assert data["conclusion"] == "delta_1 <= 6"
    assert rep.render().startswith("case: P1_eq_2")


def test_reports_are_run_to_run_deterministic():
    first = replay_delta1("P1_eq_1")
    replay_delta1.cache_clear()  # a second, independent computation
    candidates.cache_clear()
    second = replay_delta1("P1_eq_1")
    assert second is not first and second.json_text() == first.json_text()


@pytest.mark.parametrize("delta1_first", [True, False], ids=["delta1-first", "qfano39-first"])
def test_qfano39_leaves_the_shared_delta1_reports_unmutated(delta1_first):
    # QFano39 reads the same report objects that `replay_delta1` hands out
    replay_delta1.cache_clear()
    candidates.cache_clear()
    golden = {family: (GOLDEN_DIR / f"replay_{case}.json").read_text()
              for family, case in (("P1_eq_0", "p0"), ("P1_eq_1", "p1"))}
    before = {family: replay_delta1(family).json_text() + "\n" for family in golden}
    if not delta1_first:
        replay_delta1.cache_clear()
        candidates.cache_clear()
    birat1 = replay_birationality("QFano39").json_text() + "\n"
    after = {family: replay_delta1(family).json_text() + "\n" for family in golden}
    assert before == after == golden
    assert birat1 == (GOLDEN_DIR / "replay_birat1.json").read_text()
    assert replay_delta1.cache_info().misses == 4  # one computation per family


def test_fano_rows_of_the_weak_p1_zero_family_are_the_strict_branches():
    # gamma > 0 is all that separates Q-Fano from weak, so the shared weak
    # family restricted to it is each strict enumeration: same survivors,
    # eliminated rows, certificates and order
    family = p1_zero_family()
    for label, keep, cs in (
        ("P2=0", lambda p2: p2 == 0, ConstraintSet(p_exact={1: 0, 2: 0})),
        ("P2>0", lambda p2: p2 >= 1, ConstraintSet(p_exact={1: 0}, p_min={2: 1})),
    ):
        rows = [row for row in family if row.fano and keep(row.p[2])]
        strict = enumerate_geometric_full(cs)
        assert [row.wb for row in rows if row.cert is None] == strict.survivors, label
        assert [(row.wb, row.cert) for row in rows if row.cert is not None] == strict.eliminated
    # the rows carry the P_-1..P_-4 and gamma status they were read with
    for row in family:
        assert row.p.values == row.wb.plurigenera(4).values
        assert row.fano == (row.wb.basket.gamma() > 0)


def test_a_replays_pass_enumerates_the_p1_zero_family_once(capsys, monkeypatch):
    import fanobasket.birational as birational
    from fanobasket.cli import main

    calls, builds = [], []
    full, tails = enumerate_geometric_full, search_module.feasible_tails

    def counted(cs):
        calls.append(cs)
        return full(cs)

    def built(head):
        builds.append(head)
        return tails(head)

    for module in (search_module, birational):
        monkeypatch.setattr(module, "enumerate_geometric_full", counted)
    monkeypatch.setattr(search_module, "feasible_tails", built)
    replay_delta1.cache_clear()
    p1_zero_family.cache_clear()
    candidates.cache_clear()
    assert main(["replay", "list"]) == 0
    capsys.readouterr()
    for family in ("P1_ge_3", "P1_eq_2", "P1_eq_1", "P1_eq_0"):
        replay_delta1(family)
    for target in ("QFano39", "Weak97"):
        replay_birationality(target)
    # the P1_eq_2 ladder, six P1_eq_1 branches, two QFano39 families and the
    # one P_-1 = 0 family
    assert len(calls) == 10
    assert [cs for cs in calls if cs.p_exact[1] == 0] == [
        ConstraintSet(p_exact={1: 0}, fano_strict=False)
    ]
    assert p1_zero_family.cache_info().misses == 1
    # the pool builds each head's closure once: (1,1,1,1) serves the ladders
    # n0 = 5, 6, >=7 and both QFano39 families
    pool = candidates.cache_info()
    assert pool.misses == len(builds) == len(set(builds))
    assert builds.count(PlurigenusSequence((1, 1, 1, 1))) == 1
    heads = [head for cs in calls for head in _heads(cs)]
    assert pool.hits + pool.misses == len(heads)
    assert heads.count(PlurigenusSequence((1, 1, 1, 1))) == 5
    assert (pool.hits, pool.misses) == (4, 49)


def _bruteforce_survivors(cs: ConstraintSet, r_cap: int, size_cap: int):
    """Independent generate-and-filter oracle over a small basket universe."""
    import itertools
    from math import gcd

    points = [
        (b, r)
        for r in range(2, r_cap + 1)
        for b in range(1, r // 2 + 1)
        if gcd(b, r) == 1
    ]
    out = set()
    p1 = cs.p_exact[1]
    for k in range(0, size_cap + 1):
        for combo in itertools.combinations_with_replacement(points, k):
            wb = WeightedBasket(Basket(combo), p1)
            ok, _ = is_geometric_candidate(wb, cs)
            if ok:
                out.add(wb)
    return out


def test_enumeration_matches_bruteforce_oracle_on_small_universe():
    for pins in ({1: 0, 2: 0}, {1: 1, 2: 1}, {1: 2, 2: 3}):
        cs = ConstraintSet(p_exact=pins)
        brute = _bruteforce_survivors(cs, r_cap=8, size_cap=5)
        clever = {
            wb
            for wb in enumerate_geometric(cs)
            if len(wb.basket) <= 5 and wb.basket.r_max() <= 8
        }
        assert brute == clever, pins


def test_zero_volume_boundary_basket_is_eliminated_exactly():
    rep = replay_delta1("P1_eq_0")
    hits = [
        e.certificate
        for e in rep.eliminated
        if e.wb.basket.text() == "9x(1,2),2x(1,4)"
    ]
    assert hits == ["-K^3 = 0 <= 0"]


def test_certificates_reevaluate_exactly():
    """Every contradiction certificate re-derives through the closed form."""
    import re as _re
    from fractions import Fraction

    for family in ("P1_eq_2", "P1_eq_1"):
        rep = replay_delta1(family)
        assert rep.eliminated
        for row in rep.eliminated:
            cert = row.certificate
            vol_match = _re.fullmatch(r"-K\^3 = (-?[0-9/]+) <= 0", cert)
            pin_match = _re.fullmatch(
                r"P_-(\d+) = (-?\d+) != pinned (-?\d+)", cert
            )
            gamma_match = _re.fullmatch(r"gamma = (-?[0-9/]+) <=? 0", cert)
            bound_match = _re.fullmatch(r"P_-(\d+) = (-?\d+) [<>] (-?\d+)", cert)
            if vol_match:
                claimed = Fraction(vol_match.group(1))
                assert row.wb.volume() == claimed and claimed <= 0
            elif pin_match:
                m, value, pinned = map(int, pin_match.groups())
                assert row.wb.anti_plurigenus(m) == value != pinned
            elif gamma_match:
                assert row.wb.basket.gamma() == Fraction(gamma_match.group(1))
            elif bound_match:
                m, value, _ = map(int, bound_match.groups())
                assert row.wb.anti_plurigenus(m) == value
            else:
                raise AssertionError(f"unrecognized certificate {cert!r}")

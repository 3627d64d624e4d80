"""Birationality thresholds and the machine replay of their case analyses.

The threshold criterion: the anti-m-canonical map is birational once m
clears, depending on the variant,

    (i)   max( m0 + m1 + a(m0),  floor(3 mu0) + 3 m1 )
    (ii)  max( m0 + m1 + a(m0),  floor(5/3 mu0 + 5/3 m1),
               floor(mu0) + m1 + 2 r_max )
    (iii) max( m0 + m1 + a(m0),  floor(mu0) + m1 + 2 nu0 r_max )

with a(m0) = 6 for m0 >= 2 and 1 for m0 = 1.  Here m0 is a degree with at
least a pencil, m1 one whose system escapes the pencil of degree m0, mu0 an
upper bound for the pencil's scaling infimum, nu0 any degree with a section.
The replays walk the published case trees for the two headline targets
(degree 39 in the Picard-rank-one case, 97 in the weak case), recomputing
every arithmetic input and flagging each geometric step as a named axiom.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import floor, gcd
from typing import Iterator, Optional

from .basket import Basket, WeightedBasket
from .indexbound import (
    admissible_index_sets_with_lcm,
    attainable_indices,
    max_index_given_rmax,
)
from .pencil import non_pencil_threshold, thm1_threshold_from_bounds, thm2_check_840
from .reports import EliminatedRow, ReplayReport, SurvivorRow
from .search import ConstraintSet, enumerate_geometric_full, is_geometric_candidate, replay_delta1
from .tables import P1_P2_ZERO_TABLE

F = Fraction

GENUS_CASES = ("g0", "g1", "g_ge2", "unknown")
INDEX_840_SETS = [(3, 5, 7, 8), (2, 3, 5, 7, 8)]  # the witnesses of the index bound 840


@dataclass(frozen=True)
class BirationalityInputs:
    m0: int
    m1: int
    mu0_upper: Fraction
    rmax: Optional[int] = None
    nu0: Optional[int] = None
    genus_case: Optional[str] = None
    mu0_provenance: str = "default m0/iota"

    def __post_init__(self) -> None:
        if self.m0 < 1 or self.m1 < self.m0:
            raise ValueError("need 1 <= m0 <= m1")
        if self.mu0_upper <= 0:
            raise ValueError("mu0 upper bound must be positive")
        if self.genus_case is not None and self.genus_case not in GENUS_CASES:
            raise ValueError(f"unknown genus case {self.genus_case!r}")


def a_of_m0(m0: int) -> int:
    if m0 < 1:
        raise ValueError("m0 must be >= 1")
    return 6 if m0 >= 2 else 1


def zeta_lower_bound(inp: BirationalityInputs) -> Fraction:
    """Best applicable lower bound for the auxiliary curve degree zeta."""
    candidates: list[Fraction] = []
    if inp.nu0 is not None:
        if inp.rmax is None:
            raise ValueError("the section-based bound needs rmax")
        candidates.append(F(1, inp.nu0 * inp.rmax))
    case = inp.genus_case or "unknown"
    if case == "g0":
        candidates.append(F(2))
    elif case == "g1":
        if inp.rmax is None:
            raise ValueError("the elliptic bound needs rmax")
        candidates.append(F(1, inp.rmax))
        candidates.append(F(1, inp.mu0_upper + inp.m1))
    elif case == "g_ge2":
        candidates.append(F(3, inp.mu0_upper + inp.m1))
    if not candidates:
        raise ValueError("no bound applies: set a genus case or nu0")
    return max(candidates)


def thm_main_threshold(inp: BirationalityInputs, variant: str) -> int:
    """Exact integer threshold for the requested variant."""
    mu0 = F(inp.mu0_upper)
    base = inp.m0 + inp.m1 + a_of_m0(inp.m0)
    if variant == "i":
        return max(base, floor(3 * mu0) + 3 * inp.m1)
    if variant == "ii":
        if inp.rmax is None:
            raise ValueError("variant ii needs rmax")
        return max(
            base,
            floor(F(5, 3) * mu0 + F(5, 3) * inp.m1),
            floor(mu0) + inp.m1 + 2 * inp.rmax,
        )
    if variant == "iii":
        if inp.rmax is None or inp.nu0 is None:
            raise ValueError("variant iii needs rmax and nu0")
        return max(base, floor(mu0) + inp.m1 + 2 * inp.nu0 * inp.rmax)
    raise ValueError(f"unknown variant {variant!r}")


AX_CC_P8 = "every (weak) Fano 3-fold of this kind has P_-8 >= 2"
AX_CC_P6 = "P_-1 = 0 < P_-2 forces P_-6 >= 2"
AX_CC_VOL = "-K^3 >= 1/330 always"
AX_RX_VOL_INT = "r_X * (-K^3) is a positive integer"
AX_MU0_REMARK = "pencil comparison tightens the mu0 upper bound to k/iota(k)"
AX_PENCIL_DIFF = "consecutive pencils differ (fixed-part argument)"
AX_DELTA1 = "image-dimension conclusions consumed from the delta_1 replays"


def _leaf(
    report: ReplayReport,
    target: int,
    name: str,
    inp: BirationalityInputs,
    variant: str,
    checks: list[str],
    axioms: list[str],
) -> int:
    threshold = thm_main_threshold(inp, variant)
    leaf = {
        "name": name,
        "m0": inp.m0,
        "m1": inp.m1,
        "mu0": str(inp.mu0_upper),
        "mu0_provenance": inp.mu0_provenance,
        "rmax": inp.rmax,
        "nu0": inp.nu0,
        "variant": variant,
        "threshold": threshold,
        "checks": checks,
    }
    report.leaves.append(leaf)
    report.axioms.extend(axioms)
    if threshold > target:
        raise AssertionError(f"leaf {name} exceeds target: {threshold} > {target}")
    return threshold


def _rows_by_no() -> dict[int, WeightedBasket]:
    return {
        row.no: WeightedBasket(Basket.parse(row.basket), 0)
        for row in P1_P2_ZERO_TABLE
    }


def _residue_baskets(index_sets: list[tuple[int, ...]]) -> Iterator[Basket]:
    """Every basket with one point (b, r) per entry r of each index set, over
    all canonical residues b."""
    for rset in index_sets:
        choices = [[b for b in range(1, r // 2 + 1) if gcd(b, r) == 1] for r in rset]
        for bs in product(*choices):
            yield Basket(list(zip(bs, rset)))


def _unique_zero_p1_basket(index_sets: list[tuple[int, ...]]) -> list[WeightedBasket]:
    """All weighted baskets with p1 = 0 on the given index multisets that
    pass the weak geometric constraints; used for the 'only basket' claims."""
    cs = ConstraintSet(p_exact={1: 0}, p_min={2: 1, 4: 2}, fano_strict=False)
    found: dict[WeightedBasket, None] = {}
    for basket in _residue_baskets(index_sets):
        wb = WeightedBasket(basket, 0)
        if is_geometric_candidate(wb, cs)[0]:
            found[wb] = None
    return sorted(found, key=lambda w: w.basket)


def replay_birationality(target_name: str) -> ReplayReport:
    if target_name == "QFano39":
        return _replay_qfano_39()
    if target_name == "Weak97":
        return _replay_weak_97()
    raise ValueError(f"unknown target {target_name!r}")


def _replay_qfano_39() -> ReplayReport:
    target = 39
    report = ReplayReport(
        case="QFano39",
        constraints="Picard-rank-one Fano; split on P_-1",
        axioms=[AX_DELTA1],
    )

    # case 1: P_-1 >= 2; degrees from the ladder replays
    d2 = replay_delta1("P1_eq_2")
    d3 = replay_delta1("P1_ge_3")
    assert d2.conclusion == "delta_1 <= 6" and d3.conclusion == "delta_1 <= 1"
    _leaf(
        report,
        target,
        "P1>=2",
        BirationalityInputs(1, 6, F(1)),
        "i",
        ["m1 <= 6 from the P_-1 = 2 ladder replay (and <= 1 when P_-1 >= 3)"],
        [],
    )

    # case 2: P_-1 = 1, by the doubling degree n0 (n0 <= 8)
    d1 = replay_delta1("P1_eq_1")
    assert d1.conclusion == "delta_1 <= 9"
    _leaf(
        report,
        target,
        "P1=1, n0<=5",
        BirationalityInputs(5, 7, F(5)),
        "i",
        ["n0 = 2, 3, 4 branches contradict past degree 6; n0 = 5 past 7"],
        [AX_CC_P8],
    )
    _leaf(
        report,
        target,
        "P1=1, n0=6, escape at 7",
        BirationalityInputs(6, 7, F(6)),
        "i",
        [],
        [],
    )
    # n0 = 6 with the escape exactly at 8: the surviving family pins rmax
    cs6 = ConstraintSet(p_exact={1: 1, 2: 1, 3: 1, 4: 1, 5: 1, 6: 2, 7: 2})
    res6 = enumerate_geometric_full(cs6)
    fam6 = {wb.basket.text() for wb in res6.survivors}
    assert fam6 == {
        "2x(1,2),2x(1,3),(1,5),(1,8)",
        "2x(1,2),2x(1,3),(1,5),(1,9)",
        "2x(1,2),2x(1,3),(1,5),(1,10)",
    }, sorted(fam6)
    rmax6 = max(wb.basket.r_max() for wb in res6.survivors)
    report.survivors.extend(
        SurvivorRow(wb, 12, {"leaf": "P1=1, n0=6, escape at 8"})
        for wb in res6.survivors
    )
    _leaf(
        report,
        target,
        "P1=1, n0=6, escape at 8",
        BirationalityInputs(6, 8, F(6), rmax=rmax6),
        "ii",
        [f"survivor family rmax = {rmax6}"],
        [],
    )
    # n0 in {7, 8}: the single family with tail 9..11 and escape at 9
    cs78 = ConstraintSet(
        p_exact={1: 1, 2: 1, 3: 1, 4: 1, 5: 1, 6: 1, 8: 2},
        p_min={7: 1, 9: 3},
        p_max={7: 2},
    )
    res78 = enumerate_geometric_full(cs78)
    fam78 = {wb.basket.text() for wb in res78.survivors}
    assert fam78 == {
        "(1,2),(1,3),(1,4),(2,5),(1,9)",
        "(1,2),(1,3),(1,4),(2,5),(1,10)",
        "(1,2),(1,3),(1,4),(2,5),(1,11)",
    }, sorted(fam78)
    for wb in res78.survivors:
        assert wb.plurigenera(9)[9] == 3  # escape degree 9 is arithmetic
    rmax78 = max(wb.basket.r_max() for wb in res78.survivors)
    report.survivors.extend(
        SurvivorRow(wb, 12, {"leaf": "P1=1, n0>=7"}) for wb in res78.survivors
    )
    _leaf(
        report,
        target,
        "P1=1, n0>=7",
        BirationalityInputs(8, 9, F(8), rmax=rmax78),
        "ii",
        [f"survivor family rmax = {rmax78}", "P_-9 = 3 on every survivor"],
        [AX_CC_P8],
    )

    # case 3: P_-1 = P_-2 = 0, on the 23 tabulated rows
    rows = _rows_by_no()
    for row in P1_P2_ZERO_TABLE:
        wb = rows[row.no]
        seq = wb.plurigenera(12)
        if row.no in (1, 2, 4):
            assert seq[8] >= 2
            checks = [f"No.{row.no}: P_-8 = {seq[8]}"]
            axioms = [] if row.m1 <= 10 else [AX_DELTA1]
            _leaf(
                report,
                target,
                f"P1=P2=0 No.{row.no}",
                BirationalityInputs(8, 10, F(8), rmax=wb.basket.r_max()),
                "ii",
                checks + ["m1 = 10 via the exceptional-type upgrades"],
                axioms,
            )
        elif row.no == 3:
            assert seq[8] == 2 and seq[9] == 2
            _leaf(
                report,
                target,
                "P1=P2=0 No.3",
                BirationalityInputs(8, 9, F(8), rmax=wb.basket.r_max()),
                "ii",
                ["P_-8 = P_-9 = 2; degrees 8 and 9 carry different pencils"],
                [AX_PENCIL_DIFF],
            )
        elif row.no in (5, 6):
            assert seq[7] >= 2 and row.m1 == 8
            _leaf(
                report,
                target,
                f"P1=P2=0 No.{row.no}",
                BirationalityInputs(7, 8, F(7), rmax=wb.basket.r_max()),
                "ii",
                [f"P_-7 = {seq[7]}"],
                [],
            )
        else:
            assert seq[6] >= 3 and row.m1 == 6
            _leaf(
                report,
                target,
                f"P1=P2=0 No.{row.no}",
                BirationalityInputs(6, 6, F(6), rmax=wb.basket.r_max()),
                "i",
                [],
                [],
            )

    # case 4: P_-1 = 0 < P_-2, from the replayed survivor list
    d0 = replay_delta1("P1_eq_0")
    case2 = [s for s in d0.survivors if s.notes["branch"] == "P2>0"]
    assert case2, "the P_-2 > 0 family cannot be empty"
    buckets = {"<=6": 0, "7-8": 0}
    special = None
    rmax_78 = 0
    for s in case2:
        eff_m1 = s.notes.get("delta1", s.notes["m1"])
        seq = s.wb.plurigenera(6)
        assert seq[6] >= 2  # the m0 = 6 axiom is consistent on every survivor
        if s.wb.basket.text() == "4x(1,2),(1,5),(6,13)":
            special = s.wb
            continue
        if eff_m1 <= 6:
            buckets["<=6"] += 1
        elif eff_m1 <= 8:
            buckets["7-8"] += 1
            rmax_78 = max(rmax_78, s.wb.basket.r_max())
        else:
            raise AssertionError(f"unassigned survivor {s.wb.basket.text()}")
    assert special is not None and rmax_78 <= 11
    _leaf(
        report,
        target,
        "P1=0<P2, m1<=6",
        BirationalityInputs(6, 6, F(6)),
        "i",
        [f"{buckets['<=6']} survivors"],
        [AX_CC_P6, AX_DELTA1],
    )
    _leaf(
        report,
        target,
        "P1=0<P2, m1 in {7,8}",
        BirationalityInputs(6, 8, F(6), rmax=rmax_78),
        "ii",
        [f"{buckets['7-8']} survivors, rmax <= {rmax_78}"],
        [AX_CC_P6, AX_DELTA1],
    )
    seq_d = special.plurigenera(7)
    assert tuple(seq_d.values) == (0, 1, 0, 1, 1, 2, 2)
    _leaf(
        report,
        target,
        "P1=0<P2, No.D",
        BirationalityInputs(6, 7, F(6)),
        "i",
        ["degrees 6 and 7 carry different pencils on the No.D basket"],
        [AX_CC_P6, AX_PENCIL_DIFF],
    )

    report.coverage = [
        "P_-1 >= 2 | = 1 | = 0 partitions the family; the P_-1 = 1 branches"
        " n0 = 2..8 are exhaustive because P_-8 >= 2",
        "P_-1 = 0 splits on P_-2 = 0 (the 23 enumerated rows, each assigned"
        " a leaf) vs P_-2 > 0 (every replay survivor assigned a leaf)",
    ]
    worst = max(leaf["threshold"] for leaf in report.leaves)
    report.conclusion = f"birational for all m >= {target} (worst leaf {worst})"
    assert worst == target  # attained at No.3 and at n0 >= 7
    return report


def _no_two_forces_nonpositive_volume() -> bool:
    """Certificate for the forced index 2 in the P_-1 = 0 branches.

    For every canonical point with r >= 3, b(r-b)/(2r) <= (r^2-1)/(8r); so
    without an index-2 point, sum b(r-b)/(2r) <= (1/8) sum (r - 1/r) <= 3
    under the 24-budget, and the p1 = 0 volume 2(sum b(r-b)/(2r) - 3) cannot
    be positive.  The per-point inequality is checked exhaustively.
    """
    for r in range(3, 25):
        for b in range(1, r // 2 + 1):
            if gcd(b, r) != 1:
                continue  # b = r/2 would violate the bound but is never coprime
            if F(b * (r - b), 2 * r) > F(r * r - 1, 8 * r):
                return False
    return True


def _replay_weak_97() -> ReplayReport:
    target = 97
    report = ReplayReport(
        case="Weak97",
        constraints="arbitrary weak Fano; split on P_-2, rmax, P_-1, P_-4",
        axioms=[],
    )
    assert _no_two_forces_nonpositive_volume()

    # case I: P_-2 = 0 -> the 23 rows pin everything
    rows = list(_rows_by_no().values())
    r_x = max(wb.gorenstein_index() for wb in rows)
    vol_min = min(wb.volume() for wb in rows)
    rmax = max(wb.basket.r_max() for wb in rows)
    assert (r_x, vol_min, rmax) == (210, F(1, 84), 14)
    assert all(wb.plurigenera(8)[8] >= 2 for wb in rows)
    m1 = thm1_threshold_from_bounds(r_x, vol_min, rmax, F(8))
    assert m1 == 38
    _leaf(
        report,
        target,
        "I: P2=0",
        BirationalityInputs(8, m1, F(8), rmax=rmax),
        "ii",
        [f"23 rows: rX <= {r_x}, -K^3 >= {vol_min}, rmax <= {rmax}, t = 8"],
        [AX_CC_P8],
    )

    # case II: rmax >= 14
    cap_14_22 = max(max_index_given_rmax(r) for r in range(14, 23))
    assert cap_14_22 == 240
    m1 = thm1_threshold_from_bounds(240, F(1, 240), 22, F(6))
    assert m1 == 44
    _leaf(
        report,
        target,
        "II: 14<=rmax<=22",
        BirationalityInputs(8, m1, F(8), rmax=22),
        "ii",
        [f"brute-force rX <= {cap_14_22}; -K^3 >= 1/240; t = 6"],
        [AX_CC_P8, AX_RX_VOL_INT],
    )
    cap_23_24 = max(max_index_given_rmax(23), max_index_given_rmax(24))
    assert cap_23_24 == 24
    m1 = thm1_threshold_from_bounds(24, F(1, 24), 24, F(2))
    assert m1 == 37
    _leaf(
        report,
        target,
        "II: rmax in {23,24}",
        BirationalityInputs(8, m1, F(8), rmax=24),
        "ii",
        [f"brute-force rX <= {cap_23_24}; -K^3 >= 1/24; t = 2"],
        [AX_CC_P8, AX_RX_VOL_INT],
    )

    # case III: rmax < 14 and P_-1 > 0 (nu0 = 1)
    m1 = thm1_threshold_from_bounds(660, F(1, 330), 12, F(15))
    assert m1 == 65
    _leaf(
        report,
        target,
        "III: rmax<=12, rX<=660",
        BirationalityInputs(8, m1, F(8), rmax=12, nu0=1),
        "iii",
        ["t = 15"],
        [AX_CC_P8, AX_CC_VOL],
    )
    cap13 = max_index_given_rmax(13)
    assert cap13 == 546
    m1 = thm1_threshold_from_bounds(546, F(1, 330), 13, F(10))
    assert m1 == 61
    _leaf(
        report,
        target,
        "III: rmax=13",
        BirationalityInputs(8, m1, F(8), rmax=13, nu0=1),
        "iii",
        [f"brute-force rX <= {cap13}; t = 10"],
        [AX_CC_P8, AX_CC_VOL],
    )
    # rX = 840 forces rmax = 8 and the sharp growth regime applies from 71
    sweep = _index_840_sweep()
    assert sweep, "the 840 sweep must be non-empty"
    _leaf(
        report,
        target,
        "III: rX=840",
        BirationalityInputs(8, 71, F(8), rmax=8, nu0=1),
        "iii",
        [f"growth regime verified on {sweep} volume-positive baskets, m in 71..150"],
        [AX_CC_P8, AX_CC_VOL],
    )

    # case IV: rmax < 14, P_-1 = 0 < P_-2 (nu0 = 2, m0 = 6)
    nine = enumerate_geometric_full(
        ConstraintSet(p_exact={1: 0, 3: 0, 4: 1}, p_min={2: 1}, fano_strict=False)
    ).survivors
    assert len(nine) == 9
    nine_rx = max(wb.gorenstein_index() for wb in nine)
    nine_rmax = max(wb.basket.r_max() for wb in nine)
    assert nine_rx == 130 and nine_rmax == 13
    assert all(wb.plurigenera(6)[6] >= 2 for wb in nine)
    m1 = thm1_threshold_from_bounds(130, F(1, 130), 13, F(7))
    assert m1 == 37
    _leaf(
        report,
        target,
        "IV: P4=1",
        BirationalityInputs(6, m1, F(6), rmax=nine_rmax, nu0=2),
        "iii",
        [f"nine baskets; rX <= {nine_rx}; t = 7"],
        [AX_CC_P6, AX_RX_VOL_INT],
    )

    # from here on P_-4 >= 2, so m0 = 4 is pure arithmetic
    # rmax <= 8: rX | 840; the 840 option has no volume-positive basket
    for r in range(2, 9):
        for value in attainable_indices(r, must_contain=(2,) if r != 2 else ()):
            assert 840 % value == 0
            assert value <= 420 or value == 840
    dead840 = _unique_zero_p1_basket(INDEX_840_SETS)
    assert dead840 == []
    report.eliminated.append(
        EliminatedRow(
            WeightedBasket(Basket.parse("(1,3),(2,5),(3,7),(3,8)"), 0),
            "every index-840 candidate with P_-1 = 0 has -K^3 <= 0",
            branch="IV: rmax<=8",
        )
    )
    m1 = thm1_threshold_from_bounds(420, F(1, 330), 8, F(20))
    assert m1 == 54
    _leaf(
        report,
        target,
        "IV: rmax<=8, rX<=420",
        BirationalityInputs(4, m1, F(4), rmax=8, nu0=2),
        "iii",
        ["rX | 840 and rX < 840; t = 20"],
        [AX_CC_VOL],
    )

    # rmax = 9: either rX <= 360 or exactly 630
    att9 = attainable_indices(9, must_contain=(2,))
    assert max(att9) == 630 and all(v <= 360 or v == 630 for v in att9)
    m1 = thm1_threshold_from_bounds(360, F(1, 330), 9, F(12))
    assert m1 == 50
    _leaf(
        report,
        target,
        "IV: rmax=9, rX<=360",
        BirationalityInputs(4, m1, F(4), rmax=9, nu0=2),
        "iii",
        ["t = 12"],
        [AX_CC_VOL],
    )
    sets630 = admissible_index_sets_with_lcm(630, 9, must_contain=(2,))
    only630 = _unique_zero_p1_basket(sets630 + [(2,) + s for s in sets630])
    assert [wb.basket.text() for wb in only630] == ["2x(1,2),(2,5),(3,7),(4,9)"]
    wb630 = only630[0]
    seq = wb630.plurigenera(61)
    assert (seq[3], seq[4], seq[7]) == (1, 2, 10)
    report.survivors.append(SurvivorRow(wb630, 12, {"leaf": "IV: rX=630"}))
    _leaf(
        report,
        target,
        "IV: rX=630, degree-7 escape",
        BirationalityInputs(4, 7, F(4), rmax=9, nu0=2),
        "ii",
        ["P_-7 = 10"],
        [],
    )
    scan = non_pencil_threshold(wb630, 61)
    assert seq[61] == 5294 and scan.verdicts[60].verdict == "NotPencil"
    _leaf(
        report,
        target,
        "IV: rX=630, pencil persists",
        BirationalityInputs(
            4, 61, F(7, 9), rmax=9, nu0=2,
            mu0_provenance="mu0 <= 7/iota(7) = 7/9; P_-7 = 10, P_-3 = 1",
        ),
        "iii",
        ["P_-61 = 5294 > 630 (43/315) 61 + 1 = 5247"],
        [AX_MU0_REMARK],
    )

    # rmax = 10: rX <= 210
    att10 = attainable_indices(10, must_contain=(2,))
    assert max(att10) == 210
    m1 = thm1_threshold_from_bounds(210, F(1, 210), 10, F(10))
    assert m1 == 39
    _leaf(
        report,
        target,
        "IV: rmax=10",
        BirationalityInputs(4, m1, F(4), rmax=10, nu0=2),
        "ii",
        ["t = 10"],
        [AX_RX_VOL_INT],
    )

    # rmax = 11: rX <= 330, or 462, or 660 (660 dies)
    att11 = attainable_indices(11, must_contain=(2,))
    assert max(att11) == 660
    assert all(v <= 330 or v in (462, 660) for v in att11)
    m1 = thm1_threshold_from_bounds(330, F(1, 330), 11, F(13))
    assert m1 == 48
    _leaf(
        report,
        target,
        "IV: rmax=11, rX<=330",
        BirationalityInputs(4, m1, F(4), rmax=11, nu0=2),
        "ii",
        ["t = 13"],
        [AX_CC_VOL],
    )
    sets660 = admissible_index_sets_with_lcm(660, 11, must_contain=(2,))
    dead660 = _unique_zero_p1_basket(sets660)
    assert dead660 == []
    report.eliminated.append(
        EliminatedRow(
            WeightedBasket(Basket.parse("(1,2),(1,3),(1,4),(2,5),(5,11)"), 0),
            "every index-660 candidate with P_-1 = 0 has -K^3 <= 0",
            branch="IV: rmax=11",
        )
    )
    sets462 = admissible_index_sets_with_lcm(462, 11, must_contain=(2,))
    only462 = _unique_zero_p1_basket(sets462 + [(2,) + s for s in sets462])
    assert [wb.basket.text() for wb in only462] == ["2x(1,2),(1,3),(3,7),(5,11)"]
    wb462 = only462[0]
    seq462 = wb462.plurigenera(52)
    assert seq462[52] == 2612 and wb462.volume() == F(50, 462)
    assert seq462[52] > 462 * F(50, 462) * 52 + 1 == 2601
    report.survivors.append(SurvivorRow(wb462, 12, {"leaf": "IV: rX=462"}))
    _leaf(
        report,
        target,
        "IV: rX=462",
        BirationalityInputs(4, 52, F(4), rmax=11, nu0=2),
        "ii",
        ["P_-52 = 2612 > 2601"],
        [],
    )

    # rmax = 12: rX <= 84
    att12 = attainable_indices(12, must_contain=(2,))
    assert max(att12) == 84
    m1 = thm1_threshold_from_bounds(84, F(1, 84), 12, F(5))
    assert m1 == 37
    _leaf(
        report,
        target,
        "IV: rmax=12",
        BirationalityInputs(4, m1, F(4), rmax=12, nu0=2),
        "ii",
        ["t = 5"],
        [AX_RX_VOL_INT],
    )

    # rmax = 13: rX <= 390 or exactly 546
    att13 = attainable_indices(13, must_contain=(2,))
    assert max(att13) == 546 and all(v <= 390 or v == 546 for v in att13)
    m1 = thm1_threshold_from_bounds(390, F(1, 330), 13, F(12))
    assert m1 == 52
    _leaf(
        report,
        target,
        "IV: rmax=13, rX<=390",
        BirationalityInputs(4, m1, F(4), rmax=13, nu0=2),
        "ii",
        ["t = 12"],
        [AX_CC_VOL],
    )
    sets546 = admissible_index_sets_with_lcm(546, 13, must_contain=(2,))
    assert sets546 == [(2, 3, 7, 13)]
    only546 = _unique_zero_p1_basket(sets546 + [(2,) + s for s in sets546])
    assert [wb.basket.text() for wb in only546] == ["(1,2),(1,3),(3,7),(6,13)"]
    wb546 = only546[0]
    seq546 = wb546.plurigenera(57)
    assert (seq546[4], seq546[6], seq546[10]) == (2, 5, 21)
    report.survivors.append(SurvivorRow(wb546, 12, {"leaf": "IV: rX=546"}))
    _leaf(
        report,
        target,
        "IV: rX=546, degree-10 escape",
        BirationalityInputs(4, 10, F(4), rmax=13, nu0=2),
        "ii",
        ["P_-10 = 21"],
        [],
    )
    assert seq546[57] == 3540 and wb546.volume() == F(61, 546)
    assert seq546[57] > 546 * F(61, 546) * 57 + 1 == 3478
    _leaf(
        report,
        target,
        "IV: rX=546, pencil persists",
        BirationalityInputs(
            4, 57, F(1, 2), rmax=13, nu0=2,
            mu0_provenance="mu0 <= 10/iota(10) = 1/2; P_-10 = 21, P_-6 = 5",
        ),
        "ii",
        ["P_-57 = 3540 > 546 (61/546) 57 + 1 = 3478"],
        [AX_MU0_REMARK],
    )

    report.coverage = [
        "P_-2 = 0 | rmax >= 14 | (rmax <= 13, P_-1 >= 1) |"
        " (rmax <= 13, P_-1 = 0 < P_-2) partitions the family"
        " (P_-2 >= 2 P_-1 - 1 rules out P_-2 = 0 < P_-1)",
        "within rmax <= 13, P_-1 >= 1: rX <= 660 with rmax <= 12, rmax = 13,"
        " or rX = 840 (the only index above 660)",
        "within P_-1 = 0 < P_-2: P_-4 = 1 (nine baskets) vs P_-4 >= 2 split"
        " over rmax = 2..13, with the isolated indices 630, 462, 546 and the"
        " dead 840/660 options handled by explicit residue enumeration",
    ]
    worst = max(leaf["threshold"] for leaf in report.leaves)
    report.conclusion = f"birational for all m >= {target} (worst leaf {worst})"
    assert worst == target
    return report


def _index_840_sweep() -> int:
    """Verify the sharp growth regime on every volume-positive 840 basket.

    Sweeps both admissible index sets, all residue choices, and weights
    p1 = 0..10; counts the volume-positive cases, each checked on degrees
    71..150 together with the linear envelope for l(-n).
    """
    count = 0
    for basket in _residue_baskets(INDEX_840_SETS):
        for p1 in range(0, 11):
            wb = WeightedBasket(basket, p1)
            if wb.volume() <= 0:
                continue
            assert wb.volume() >= F(1, 330)
            assert thm2_check_840(wb, horizon=150)
            count += 1
    return count

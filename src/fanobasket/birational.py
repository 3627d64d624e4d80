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

from fractions import Fraction
from functools import partial
from itertools import product
from math import floor, gcd
from typing import Iterator, Optional

from .basket import Basket, Record, WeightedBasket
from .indexbound import attainable_indices, max_index_report
from .pencil import L840_HORIZON, growth_bounds, thm1_threshold_from_bounds, thm2_check_840
from .recovery import TAIL_R_CAP
from .reports import EliminatedRow, ReplayReport, SurvivorRow, require
from .search import (
    P1_EQ_1_HORIZONS, ConstraintSet, enumerate_geometric_full, forced_ladder, late_ladder,
    p1_zero_family, replay_delta1,
)
from .tables import P1_P2_ZERO_TABLE

INDEX_840_SETS = [(3, 5, 7, 8), (2, 3, 5, 7, 8)]  # the witnesses of the index bound 840


class BirationalityInputs(Record):
    __slots__ = ("m0", "m1", "mu0_upper", "rmax", "nu0", "mu0_provenance")

    def __init__(self, m0: int, m1: int, mu0_upper: Fraction, rmax: Optional[int] = None,
                 nu0: Optional[int] = None, mu0_provenance: str = "default m0/iota") -> None:
        if m0 < 1 or m1 < m0:
            raise ValueError("need 1 <= m0 <= m1")
        if mu0_upper <= 0:
            raise ValueError("mu0 upper bound must be positive")
        for name, value in (("rmax", rmax), ("nu0", nu0)):
            if value is not None and value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
        self.m0, self.m1, self.mu0_upper, self.rmax = m0, m1, mu0_upper, rmax
        self.nu0, self.mu0_provenance = nu0, mu0_provenance


def thm_main_threshold(inp: BirationalityInputs, variant: str) -> int:
    """Exact integer threshold for the requested variant."""
    mu0 = Fraction(inp.mu0_upper)
    base = inp.m0 + inp.m1 + (6 if inp.m0 >= 2 else 1)  # a(m0)
    if variant == "i":
        return max(base, floor(3 * mu0) + 3 * inp.m1)
    if variant == "ii":
        if inp.rmax is None:
            raise ValueError("variant ii needs rmax")
        return max(
            base,
            floor(Fraction(5, 3) * mu0 + Fraction(5, 3) * inp.m1),
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
) -> None:
    """Record one leaf of a case tree; its threshold must not pass the target.

    Each replay binds `report` and `target` once, with `partial`.
    """
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
    require(threshold <= target, f"{report.case} leaf {name}: threshold {threshold} > {target}")


def _conclude(report: ReplayReport, target: int) -> ReplayReport:
    """The closing step of a case tree: its worst leaf is exactly the target."""
    worst = max(leaf["threshold"] for leaf in report.leaves)
    report.conclusion = f"birational for all m >= {target} (worst leaf {worst})"
    require(worst == target, f"{report.case}: worst leaf {worst} != target {target}")
    return report


def _residue_baskets(index_sets: list[tuple[int, ...]]) -> Iterator[Basket]:
    """Every basket with one point (b, r) per entry r of each index set, over
    all canonical residues b."""
    for rset in index_sets:
        choices = [[b for b in range(1, r // 2 + 1) if gcd(b, r) == 1] for r in rset]
        for bs in product(*choices):
            yield Basket(list(zip(bs, rset)))


def replay_birationality(target_name: str) -> ReplayReport:
    if target_name == "QFano39":
        return _replay_qfano_39()
    if target_name == "Weak97":
        return _replay_weak_97()
    raise ValueError(f"unknown target {target_name!r}")


def _family(
    report: ReplayReport, name: str, cs: ConstraintSet, *texts: str
) -> tuple[list[WeightedBasket], int]:
    """One enumerated P_-1 = 1 family of the QFano39 tree: its survivors must
    be exactly the baskets `texts`, and each is recorded under leaf `name`.
    Returns the survivors and their largest local index."""
    survivors = enumerate_geometric_full(cs).survivors
    found = {wb.basket.text() for wb in survivors}
    require(found == set(texts), f"QFano39 {name}: survivor family {sorted(found)}")
    report.survivors.extend(SurvivorRow(wb, {"leaf": name}) for wb in survivors)
    return survivors, max(wb.basket.r_max() for wb in survivors)


def _replay_qfano_39() -> ReplayReport:
    target = 39
    report = ReplayReport(
        case="QFano39",
        constraints="Picard-rank-one Fano; split on P_-1",
        axioms=[AX_DELTA1],
    )
    leaf = partial(_leaf, report, target)

    # case 1: P_-1 >= 2; degrees from the ladder replays
    d2 = replay_delta1("P1_eq_2")
    d3 = replay_delta1("P1_ge_3")
    require(d2.conclusion == "delta_1 <= 6" and d3.conclusion == "delta_1 <= 1",
            "QFano39 P1>=2: the ladder replays give delta_1 <= 6 and <= 1")
    leaf("P1>=2", BirationalityInputs(1, 6, Fraction(1)), "i",
         ["m1 <= 6 from the P_-1 = 2 ladder replay (and <= 1 when P_-1 >= 3)"], [])

    # case 2: P_-1 = 1, by the doubling degree n0 (n0 <= 8)
    d1 = replay_delta1("P1_eq_1")
    require(d1.conclusion == "delta_1 <= 9", "QFano39 P1=1: the ladder replay gives delta_1 <= 9")
    n0_le_5 = BirationalityInputs(5, 7, Fraction(5))
    horizon = max(l for n0, l in P1_EQ_1_HORIZONS if n0 <= 5)
    require(n0_le_5.m1 == horizon,
            f"QFano39 P1=1, n0<=5: m1 = {n0_le_5.m1}, not the longest n0 <= 5 horizon {horizon}")
    leaf("P1=1, n0<=5", n0_le_5, "i",
         ["n0 = 2, 3, 4 branches contradict past degree 6; n0 = 5 past 7"], [AX_CC_P8])
    # n0 = 6: the P1_eq_1 replay contradicts the n0 = 6 ladder at its horizon, so
    # the pencil escapes at one of 7..horizon, the last on a surviving family
    esc, horizon6 = (7, 8), dict(P1_EQ_1_HORIZONS)[6]
    require(esc == tuple(range(7, horizon6 + 1)),
            f"QFano39 P1=1, n0=6: escapes at {esc}, not at 7..{horizon6}, the n0 = 6 horizon")
    leaf("P1=1, n0=6, escape at 7", BirationalityInputs(6, esc[0], Fraction(6)), "i", [], [])
    _, rmax6 = _family(report, "P1=1, n0=6, escape at 8",
                       ConstraintSet(p_exact=forced_ladder(1, 6, esc[1] - 1)),
                       *(f"2x(1,2),2x(1,3),(1,5),(1,{r})" for r in (8, 9, 10)))
    leaf("P1=1, n0=6, escape at 8", BirationalityInputs(6, esc[1], Fraction(6), rmax=rmax6), "ii",
         [f"survivor family rmax = {rmax6}"], [])
    # n0 in {7, 8}: the single family with tail 9..11 and escape at 9
    fam78, rmax78 = _family(report, "P1=1, n0>=7", late_ladder(8, p_min={9: 3}),
                            *(f"(1,2),(1,3),(1,4),(2,5),(1,{r})" for r in (9, 10, 11)))
    # escape degree 9 is arithmetic
    require(all(wb.plurigenera(9)[9] == 3 for wb in fam78),
            "QFano39 P1=1, n0>=7: P_-9 = 3 on every survivor")
    leaf("P1=1, n0>=7", BirationalityInputs(8, 9, Fraction(8), rmax=rmax78), "ii",
         [f"survivor family rmax = {rmax78}", "P_-9 = 3 on every survivor"], [AX_CC_P8])

    # case 3: P_-1 = P_-2 = 0, on the 23 tabulated rows; each row group is
    # picked by row number, not by m1, so a row whose m1 drifts is not
    # absorbed into another group
    for row in P1_P2_ZERO_TABLE:
        wb = WeightedBasket(Basket.parse(row.basket), 0)
        seq = wb.plurigenera(12)
        if row.no in (1, 2, 4):
            m0, m1, holds, claim = 8, 10, seq[8] >= 2, "P_-8 >= 2"
            checks = [f"No.{row.no}: P_-8 = {seq[8]}", "m1 = 10 via the exceptional-type upgrades"]
            axioms = [AX_DELTA1] if row.m1 > 10 else []
        elif row.no == 3:
            m0, m1, holds, claim = 8, 9, seq[8] == seq[9] == 2, "P_-8 = P_-9 = 2"
            checks = ["P_-8 = P_-9 = 2; degrees 8 and 9 carry different pencils"]
            axioms = [AX_PENCIL_DIFF]
        elif row.no in (5, 6):
            m0, m1, holds, claim = 7, 8, seq[7] >= 2 and row.m1 == 8, "P_-7 >= 2 and m1 = 8"
            checks, axioms = [f"P_-7 = {seq[7]}"], []
        else:
            m0, m1, holds, claim = 6, 6, seq[6] >= 3 and row.m1 == 6, "P_-6 >= 3 and m1 = 6"
            checks, axioms = [], []
        require(holds, f"QFano39 No.{row.no}: {claim}")
        leaf(f"P1=P2=0 No.{row.no}",
             BirationalityInputs(m0, m1, Fraction(m0), rmax=wb.basket.r_max()),
             "i" if m0 == m1 else "ii", checks, axioms)

    # case 4: P_-1 = 0 < P_-2, from the replayed survivor list
    d0 = replay_delta1("P1_eq_0")
    case2 = [s for s in d0.survivors if s.notes["branch"] == "P2>0"]
    require(bool(case2), "QFano39 P1=0<P2: the P_-2 > 0 family cannot be empty")
    buckets = {"<=6": 0, "7-8": 0}
    special = None
    rmax_78 = 0
    for s in case2:
        eff_m1 = s.notes.get("delta1", s.notes["m1"])
        text = s.wb.basket.text()
        # the m0 = 6 axiom is consistent on every survivor
        require(s.wb.plurigenera(6)[6] >= 2, f"QFano39 P1=0<P2: P_-6 >= 2 on {text}")
        if s.notes.get("type") == "No.D":
            special = s.wb
            continue
        require(eff_m1 <= 8, f"QFano39 P1=0<P2: unassigned survivor {text}")
        if eff_m1 <= 6:
            buckets["<=6"] += 1
        else:
            buckets["7-8"] += 1
            rmax_78 = max(rmax_78, s.wb.basket.r_max())
    require(special is not None and rmax_78 <= 11,
            "QFano39 P1=0<P2: No.D survives and rmax <= 11 where m1 is 7 or 8")
    leaf("P1=0<P2, m1<=6", BirationalityInputs(6, 6, Fraction(6)), "i",
         [f"{buckets['<=6']} survivors"], [AX_CC_P6, AX_DELTA1])
    leaf("P1=0<P2, m1 in {7,8}", BirationalityInputs(6, 8, Fraction(6), rmax=rmax_78), "ii",
         [f"{buckets['7-8']} survivors, rmax <= {rmax_78}"], [AX_CC_P6, AX_DELTA1])
    seq_d = special.plurigenera(7)
    require(tuple(seq_d.values) == (0, 1, 0, 1, 1, 2, 2), "QFano39 No.D: P_-1..P_-7 as tabulated")
    leaf("P1=0<P2, No.D", BirationalityInputs(6, 7, Fraction(6)), "i",
         ["degrees 6 and 7 carry different pencils on the No.D basket"],
         [AX_CC_P6, AX_PENCIL_DIFF])

    report.coverage = [
        "P_-1 >= 2 | = 1 | = 0 partitions the family; the P_-1 = 1 branches"
        " n0 = 2..8 are exhaustive because P_-8 >= 2",
        "P_-1 = 0 splits on P_-2 = 0 (the 23 enumerated rows, each assigned"
        " a leaf) vs P_-2 > 0 (every replay survivor assigned a leaf)",
    ]
    return _conclude(report, target)  # worst leaf attained at No.3 and at n0 >= 7


def _no_two_forces_nonpositive_volume() -> bool:
    """Certificate for the forced index 2 in the P_-1 = 0 branches.

    For every canonical point with r >= 3, b(r-b)/(2r) <= (r^2-1)/(8r); so
    without an index-2 point, sum b(r-b)/(2r) <= (1/8) sum (r - 1/r) <= 3
    under the 24-budget, and the p1 = 0 volume 2(sum b(r-b)/(2r) - 3) cannot
    be positive.  The per-point inequality is checked exhaustively.
    """
    for r in range(3, TAIL_R_CAP + 1):
        for b in range(1, r // 2 + 1):
            if gcd(b, r) != 1:
                continue  # b = r/2 would violate the bound but is never coprime
            if Fraction(b * (r - b), 2 * r) > Fraction(r * r - 1, 8 * r):
                return False
    return True


def _growth_leaf(
    leaf: partial, name: str, bounds: tuple[int, Fraction, int], t: int, expected_m1: int,
    m0: int, variant: str, checks: list[str], axioms: list[str], nu0: Optional[int] = None,
) -> None:
    """One growth leaf of the Weak97 tree: on the case-wide bounds
    (r_X, -K^3 floor, rmax) the growth threshold must be the paper's m1,
    which the leaf escapes to from the pencil of degree m0 (mu0 = m0)."""
    r_x, vol_floor, rmax = bounds
    m1 = thm1_threshold_from_bounds(r_x, vol_floor, rmax, Fraction(t))
    require(m1 == expected_m1, f"Weak97 leaf {name}: growth threshold {m1} != {expected_m1}")
    inputs = BirationalityInputs(m0, m1, Fraction(m0), rmax=rmax, nu0=nu0)
    leaf(name, inputs, variant, checks, axioms)


def _capped_leaf(
    leaf: partial, name: str, rmaxes: range, cap: int, t: int, m1: int, m0: int,
    variant: str, checks: list[str], axioms: list[str], nu0: Optional[int] = None,
    forced: tuple[int, ...] = (), isolated: tuple[int, ...] = (),
) -> dict[int, str]:
    """A growth leaf whose r_X is capped by the 24-budget: with largest local
    index r in `rmaxes` and every `forced` index among the local indices,
    every attainable r_X is at most `cap` or one of the `isolated` indices,
    and the largest is attained.  The -K^3 floor is 1/cap, as r_X(-K^3) is a
    positive integer, or 1/330 when larger.  Returns each isolated index
    mapped to `name`, for other steps of the case to settle."""
    values = {v for r in rmaxes for v in attainable_indices(r, must_contain=forced)}
    extra = sorted(v for v in values if v > cap and v not in isolated)
    top = max((cap, *isolated))
    require(not extra and max(values) == top,
            f"Weak97 {name}: rX is at most {cap} or one of {list(isolated)}, not {extra}"
            f"; largest {max(values)}, expected {top}")
    vol_floor, axiom = (
        (Fraction(1, cap), AX_RX_VOL_INT) if cap < 330 else (Fraction(1, 330), AX_CC_VOL))
    _growth_leaf(leaf, name, (cap, vol_floor, rmaxes[-1]), t, m1, m0, variant, checks,
                 [*axioms, axiom], nu0)
    return dict.fromkeys(isolated, name)


def _require_settled(case: str, excused: dict[int, str], settled: set[int]) -> None:
    """Case `case` of Weak97 settles exactly the indices its capped leaves excuse."""
    loose = "".join(f"leaf {name} excuses rX = {i}, which no step settles; "
                    for i, name in sorted(excused.items()) if i not in settled)
    require(settled == excused.keys(), f"Weak97 {case}: {loose}the steps settle {sorted(settled)}")


# the explicit p1 = 0 baskets of Weak97 case IV, by Gorenstein index:
# (basket, -K^3, pinned P_-m, escape degree k or None, variant of the growth
# leaf); the last pinned degree is the growth degree m1
EXPLICIT_BASKETS = {
    630: ("2x(1,2),(2,5),(3,7),(4,9)", Fraction(43, 315), {3: 1, 4: 2, 7: 10, 61: 5294}, 7, "iii"),
    462: ("2x(1,2),(1,3),(3,7),(5,11)", Fraction(50, 462), {52: 2612}, None, "ii"),
    546: ("(1,2),(1,3),(3,7),(6,13)", Fraction(61, 546), {4: 2, 6: 5, 10: 21, 57: 3540}, 10, "ii"),
}


def _explicit_basket(report: ReplayReport, leaf: partial, index: int) -> None:
    """The one survivor of the weak P_-1 = 0 family with Gorenstein index
    `index`, P_-2 >= 1 and P_-4 >= 2 is the pinned basket, recorded as the
    survivor of leaf "IV: rX=<index>"; its -K^3 and P_-m are the pinned ones,
    and the growth criterion holds at m1.  The pencil of degree m0 = 4
    escapes at m1; with an escape degree k it also escapes at k, and the
    growth leaf then takes mu0 = k/iota(k), iota(k) = P_-k - 1."""
    text, volume, pins, k, variant = EXPLICIT_BASKETS[index]
    name, rmax, m0, m1 = f"IV: rX={index}", Basket.parse(text).r_max(), 4, max(pins)
    found = [row.wb for row in p1_zero_family() if row.wb.gorenstein_index() == index
             and row.cert is None and row.p[2] >= 1 and row.p[4] >= 2]
    require([wb.basket.text() for wb in found] == [text],
            f"Weak97 IV: {text} is the only index-{index} basket")
    wb = found[0]
    report.survivors.append(SurvivorRow(wb, {"leaf": name}))
    seq, bound = wb.plurigenera(m1), growth_bounds(wb, m1)[m1]
    require(wb.volume() == volume and all(seq[m] == v for m, v in pins.items())
            and seq[m1] > bound,
            f"Weak97 {name}: -K^3 = {volume}, "
            + ", ".join(f"P_-{m} = {v}" for m, v in pins.items()) + f" > {bound}")
    inputs = partial(BirationalityInputs, m0, rmax=rmax, nu0=2)
    if k is None:
        leaf(name, inputs(m1, Fraction(m0)), variant, [f"P_-{m1} = {seq[m1]} > {bound}"], [])
        return
    mu0 = Fraction(k, seq[k] - 1)
    cited = ", ".join(f"P_-{m} = {seq[m]}" for m in dict.fromkeys((k, *pins)) if m not in (m0, m1))
    leaf(f"{name}, degree-{k} escape", inputs(k, Fraction(m0)), "ii", [f"P_-{k} = {seq[k]}"], [])
    leaf(f"{name}, pencil persists",
         inputs(m1, mu0, mu0_provenance=f"mu0 <= {k}/iota({k}) = {mu0}; {cited}"),
         variant, [f"P_-{m1} = {seq[m1]} > {index} ({volume}) {m1} + 1 = {bound}"],
         [AX_MU0_REMARK])


def _dead_index(report: ReplayReport, index: int, rmax: int, example: str, branch: str) -> None:
    """No candidate of the weak P_-1 = 0 family with Gorenstein index `index`,
    survivor or eliminated row, has -K^3 > 0, so the check does not rest on
    the survivor filter; `example`, a basket with p1 = 0, that index, largest
    local index rmax and -K^3 <= 0, stands for them among the eliminated rows."""
    wb = WeightedBasket(Basket.parse(example), 0)
    r_x, r_max, vol = wb.gorenstein_index(), wb.basket.r_max(), wb.volume()
    require((r_x, r_max) == (index, rmax) and vol <= 0,
            f"Weak97 IV: example {example} needs rX = {index}, rmax = {rmax}, -K^3 <= 0;"
            f" it has rX = {r_x}, rmax = {r_max}, -K^3 = {vol}")
    positive = [row.wb.basket.text() for row in p1_zero_family()
                if row.wb.gorenstein_index() == index and row.wb.volume() > 0]
    require(not positive, f"Weak97 IV: index-{index} candidates with P_-1 = 0"
            f" have -K^3 <= 0, not {positive}")
    report.eliminated.append(EliminatedRow(
        wb, f"every index-{index} candidate with P_-1 = 0 has -K^3 <= 0", branch=branch,
    ))


def _replay_weak_97() -> ReplayReport:
    target = 97
    report = ReplayReport(
        case="Weak97",
        constraints="arbitrary weak Fano; split on P_-2, rmax, P_-1, P_-4",
        axioms=[],
    )
    leaf = partial(_leaf, report, target)
    require(_no_two_forces_nonpositive_volume(),
            "Weak97: without an index-2 point, P_-1 = 0 forces -K^3 <= 0")

    # case I: P_-2 = 0 -> the weak family is the 23 rows, which pin everything
    survivors = [row for row in p1_zero_family() if row.cert is None]
    rows = [row.wb for row in survivors if row.p[2] == 0]
    found, table = {wb.basket.text() for wb in rows}, {row.basket for row in P1_P2_ZERO_TABLE}
    require(found == table, "Weak97 I: the weak P_-1 = P_-2 = 0 family is the table's"
            f" {len(table)} rows, not {len(found)} baskets; they differ on {sorted(found ^ table)}")
    r_x = max(wb.gorenstein_index() for wb in rows)
    vol_min = min(wb.volume() for wb in rows)
    rmax = max(wb.basket.r_max() for wb in rows)
    require((r_x, vol_min, rmax) == (210, Fraction(1, 84), 14),
            "Weak97 I: rX 210, -K^3 1/84, rmax 14")
    require(all(wb.plurigenera(8)[8] >= 2 for wb in rows), "Weak97 I: P_-8 >= 2 on every row")
    _growth_leaf(leaf, "I: P2=0", (r_x, vol_min, rmax), 8, 38, 8, "ii",
                 [f"23 rows: rX <= {r_x}, -K^3 >= {vol_min}, rmax <= {rmax}, t = 8"],
                 [AX_CC_P8])

    # case II: rmax >= 14
    _capped_leaf(leaf, "II: 14<=rmax<=22", range(14, 23), 240, 6, 44, 8, "ii",
                 ["brute-force rX <= 240; -K^3 >= 1/240; t = 6"], [AX_CC_P8])
    _capped_leaf(leaf, "II: rmax in {23,24}", range(23, 25), 24, 2, 37, 8, "ii",
                 ["brute-force rX <= 24; -K^3 >= 1/24; t = 2"], [AX_CC_P8])

    # case III: rmax < 14 and P_-1 > 0 (nu0 = 1)
    excused = _capped_leaf(leaf, "III: rmax<=12, rX<=660", range(2, 13), 660, 15, 65, 8, "iii",
                           ["t = 15"], [AX_CC_P8], nu0=1, isolated=(840,))
    excused |= _capped_leaf(leaf, "III: rmax=13", range(13, 14), 546, 10, 61, 8, "iii",
                            ["brute-force rX <= 546; t = 10"], [AX_CC_P8], nu0=1)
    # rX = 840, the largest index, forces rmax = 8; the growth regime applies from 71
    top, witnesses, _ = max_index_report()
    sets840 = sorted(witnesses)
    require(top == 840 and sets840 == sorted(INDEX_840_SETS) and {s[-1] for s in sets840} == {8},
            f"Weak97 III: index-840 sets {sets840}, not {sorted(INDEX_840_SETS)} with rmax 8")
    sweep = _index_840_sweep()
    require(sweep > 0, "Weak97 III: the 840 sweep must be non-empty")
    leaf("III: rX=840", BirationalityInputs(8, 71, Fraction(8), rmax=8, nu0=1), "iii",
         [f"growth regime verified on {sweep} volume-positive baskets, m in 71..{L840_HORIZON}"],
         [AX_CC_P8, AX_CC_VOL])
    _require_settled("III", excused, {top})

    # case IV: rmax < 14, P_-1 = 0 < P_-2 (nu0 = 2, m0 = 6)
    nine = [row.wb for row in survivors if row.p[2] >= 1 and row.p[3] == 0 and row.p[4] == 1]
    require(len(nine) == 9, f"Weak97 IV: {len(nine)} baskets with P_-4 = 1, not nine")
    nine_rx = max(wb.gorenstein_index() for wb in nine)
    nine_rmax = max(wb.basket.r_max() for wb in nine)
    require(nine_rx == 130 and nine_rmax == 13, "Weak97 IV: the nine have rX <= 130, rmax 13")
    require(all(wb.plurigenera(6)[6] >= 2 for wb in nine), "Weak97 IV: P_-6 >= 2 on the nine")
    _growth_leaf(leaf, "IV: P4=1", (nine_rx, Fraction(1, nine_rx), nine_rmax), 7, 37, 6, "iii",
                 [f"nine baskets; rX <= {nine_rx}; t = 7"], [AX_CC_P6, AX_RX_VOL_INT], nu0=2)

    # from here on P_-4 >= 2, so m0 = 4 is pure arithmetic, and a p1 = 0
    # basket has an index-2 point
    capped = partial(_capped_leaf, leaf, m0=4, axioms=[], nu0=2, forced=(2,))
    # rmax <= 8: rX | 840; the 840 option has no volume-positive basket
    require(all(840 % v == 0 for r in range(2, 9)
                for v in attainable_indices(r, must_contain=(2,))),
            "Weak97 IV: with rmax <= 8, rX divides 840")
    _dead_index(report, 840, 8, "(1,3),(2,5),(3,7),(3,8)", "IV: rmax<=8")
    excused = capped("IV: rmax<=8, rX<=420", range(2, 9), 420, 20, 54, variant="iii",
                     checks=["rX | 840 and rX < 840; t = 20"], isolated=(840,))

    excused |= capped("IV: rmax=9, rX<=360", range(9, 10), 360, 12, 50, variant="iii",
                      checks=["t = 12"], isolated=(630,))
    _explicit_basket(report, leaf, 630)

    excused |= capped("IV: rmax=10", range(10, 11), 210, 10, 39, variant="ii", checks=["t = 10"])

    excused |= capped("IV: rmax=11, rX<=330", range(11, 12), 330, 13, 48, variant="ii",
                      checks=["t = 13"], isolated=(660, 462))
    _dead_index(report, 660, 11, "(1,2),(1,3),(1,4),(2,5),(5,11)", "IV: rmax=11")
    _explicit_basket(report, leaf, 462)

    excused |= capped("IV: rmax=12", range(12, 13), 84, 5, 37, variant="ii", checks=["t = 5"])

    excused |= capped("IV: rmax=13, rX<=390", range(13, 14), 390, 12, 52, variant="ii",
                      checks=["t = 12"], isolated=(546,))
    _explicit_basket(report, leaf, 546)
    rows = report.survivors + report.eliminated  # only case IV's steps add rows
    _require_settled("IV", excused, {row.wb.gorenstein_index() for row in rows})

    report.coverage = [
        "P_-2 = 0 | rmax >= 14 | (rmax <= 13, P_-1 >= 1) |"
        " (rmax <= 13, P_-1 = 0 < P_-2) partitions the family"
        " (P_-2 >= 2 P_-1 - 1 rules out P_-2 = 0 < P_-1)",
        "within rmax <= 13, P_-1 >= 1: rX <= 660 with rmax <= 12, rmax = 13,"
        " or rX = 840 (the only index above 660)",
        "within P_-1 = 0 < P_-2: P_-4 = 1 (nine baskets) vs P_-4 >= 2 split"
        " over rmax = 2..13, with the isolated indices 630, 462, 546 and the"
        " dead 840/660 options read off the weak P_-1 = 0 enumeration",
    ]
    return _conclude(report, target)


def _index_840_sweep() -> int:
    """Verify the sharp growth regime on every 840 basket under every weight.

    Each basket of both index sets, over all residue choices, is decided
    once, at v, its least weight with -K^3 > 0: -K^3 >= 1/330 there, and
    `thm2_check_840`'s least passing weight is at most v.  -K^3 rises by 2
    per unit of p1 and the regime holds from the least weight on, so this
    covers every volume-positive weight.  The count stops at p1 <= 10 only
    because the leaf's pinned check text reports the weights v..10.
    """
    count = 0
    for basket in _residue_baskets(INDEX_840_SETS):
        v = max(0, -WeightedBasket(basket, 0).volume() // 2 + 1)
        vol, least = WeightedBasket(basket, v).volume(), thm2_check_840(basket)
        where = f"Weak97 840 sweep, {basket.text()} with p1 = {v}"
        require(vol >= Fraction(1, 330), f"{where}: -K^3 = {vol} < 1/330")
        require(least is not None and least <= v,
                f"{where}: growth regime fails on 71..{L840_HORIZON}")
        count += max(0, 11 - v)  # the volume-positive weights p1 <= 10
    return count

"""Constraint-driven enumeration of geometric weighted baskets.

The pipeline mirrors the analytic route: pin the first anti-plurigenera,
recover the stage-0 basket counts (with the tail counts as enumerated
parameters), close under prime packings with the gamma bound as a
monotone-safe prune, then post-filter with the exact geometric constraints
(positive volume, superadditivity, non-negativity, pinned values).  Heads and
tails come from the one budget walk in `recovery`, and `candidates` is the one
pool, shared with `wci.fit_basket`.  Every eliminated candidate carries a
certificate, and the image-dimension replays are built on the same machinery.
"""

from __future__ import annotations

from functools import cache, partial
from typing import Iterator, NamedTuple, Optional

from .basket import PlurigenusSequence, Record, WeightedBasket
from .canonical import dominated_baskets
from .pencil import k1_all_points, k2_thresholds
from .recovery import _tail_free_heads, feasible_tails, structural_tail, within_budget
from .reports import EliminatedRow, ReplayReport, SurvivorRow, require
from .tables import EXCEPTIONAL_TYPES, P1_P2_ZERO_TABLE, P1_ZERO_CASE2_M


class ConstraintSet(Record):
    """Exact constraints cutting out geometric weighted baskets.  `fano_strict`
    asks gamma > 0; False relaxes to gamma >= 0.  Each pin dict is kept as a
    copy in degree order."""

    __slots__ = ("p_exact", "p_min", "p_max", "fano_strict", "horizon")

    def __init__(self, p_exact: dict[int, int], p_min: Optional[dict[int, int]] = None,
                 p_max: Optional[dict[int, int]] = None, fano_strict: bool = True,
                 horizon: int = 12) -> None:
        p_exact, p_min, p_max = (dict(sorted((pins or {}).items()))
                                 for pins in (p_exact, p_min, p_max))
        if horizon < 1 or any(not 1 <= m <= horizon for m in (*p_exact, *p_min, *p_max)):
            raise ValueError(f"horizon {horizon} must be >= 1 and >= every pinned degree")
        for m, v in p_exact.items():
            if v < 0:  # an anti-plurigenus is a dimension
                raise ValueError(f"pinned P_-{m} must be >= 0, got {v}")
        self.p_exact, self.p_min, self.p_max = p_exact, p_min, p_max
        self.fano_strict, self.horizon = fano_strict, horizon

    def describe(self) -> str:
        bits = [f"P_-{m}={v}" for m, v in self.p_exact.items()]
        bits += [f"P_-{m}>={v}" for m, v in self.p_min.items()]
        bits += [f"P_-{m}<={v}" for m, v in self.p_max.items()]
        bits.append("gamma>0" if self.fano_strict else "gamma>=0")
        bits += ["-K^3>0", "superadditive"]
        return ", ".join(bits)


def is_geometric_candidate(
    wb: WeightedBasket, cs: ConstraintSet
) -> tuple[bool, Optional[str]]:
    """All constraints, checked in a fixed order; first failure named."""
    p = (None, *wb.plurigenera(cs.horizon).values)  # p[m] = P_{-m}, plainly indexed
    for m, v in cs.p_exact.items():
        if p[m] != v:
            return False, f"P_-{m} = {p[m]} != pinned {v}"
    for m, v in cs.p_min.items():
        if p[m] < v:
            return False, f"P_-{m} = {p[m]} < {v}"
    for m, v in cs.p_max.items():
        if p[m] > v:
            return False, f"P_-{m} = {p[m]} > {v}"
    if wb._scaled_volume() <= 0:
        return False, f"-K^3 = {wb.volume()} <= 0"
    if not within_budget(wb.basket, cs.fano_strict):
        return False, f"gamma = {wb.basket.gamma()} {'<=' if cs.fano_strict else '<'} 0"
    for m in range(1, cs.horizon + 1):
        if p[m] < 0:
            return False, f"P_-{m} = {p[m]} < 0"
    for m in range(1, cs.horizon):
        if p[m] <= 0:
            continue
        for n in range(m, cs.horizon + 1 - m):
            if p[n] <= 0:
                continue
            if p[m + n] < p[m] + p[n] - 1:
                return False, (
                    f"P_-{m + n} = {p[m + n]} <"
                    f" P_-{m} + P_-{n} - 1 = {p[m] + p[n] - 1}"
                )
    return True, None


@cache
def candidates(p: PlurigenusSequence, strict: bool) -> tuple[WeightedBasket, ...]:
    """The prime-packing closure of every stage-0 basket recovered from p,
    seed by seed in `feasible_tails` order, pruned at gamma > 0 (`strict`)
    or gamma >= 0 and weighted by P_{-1}; built once per process, since
    families with different pins share heads.

    A prime packing keeps B^(0), and distinct recovered data give distinct
    stage-0 baskets, so the closures are disjoint: no basket comes twice.
    """
    prune = partial(within_budget, strict=strict)
    return tuple(WeightedBasket(cand, p[1]) for data in feasible_tails(p)
                 for cand in dominated_baskets(data.basket0, prune=prune))


def _heads(cs: ConstraintSet) -> Iterator[PlurigenusSequence]:
    """(P_-1, P_-2, P_-3, P_-4) with the pins of `cs`, in ascending order;
    P_{-1} must be pinned.

    The heads are the `_tail_free_heads`, shifted to P_{-1} = p1: the
    stage-0 formulas add p1 m(m+1)(2m+1)/6 to P_-m, as Riemann-Roch does.
    Every head with a feasible tail is one of them, since a tail point
    displaces a (1, 4) point and costs more than it, and each keeps at least
    the empty tail.
    """
    if 1 not in cs.p_exact:
        raise ValueError("the enumeration needs P_{-1} pinned")
    p1 = cs.p_exact[1]
    e2, e3, e4 = (cs.p_exact.get(m) for m in (2, 3, 4))
    lo2, hi2 = max(0, cs.p_min.get(2, 0)), cs.p_max.get(2)
    for q2, q3, q4 in _tail_free_heads():
        p2, p3, p4 = q2 + 5 * p1, q3 + 14 * p1, q4 + 30 * p1
        if (p2 >= lo2 and p3 >= 0 and p4 >= 0 and (hi2 is None or p2 <= hi2)
                and (e2 is None or p2 == e2) and (e3 is None or p3 == e3)
                and (e4 is None or p4 == e4)):
            yield PlurigenusSequence((p1, p2, p3, p4))


class EnumerationResult(NamedTuple):
    survivors: list[WeightedBasket]
    eliminated: list[tuple[WeightedBasket, str]]


def enumerate_geometric_full(cs: ConstraintSet) -> EnumerationResult:
    """Complete, duplicate-free enumeration with per-candidate certificates.

    Requires P_{-1} pinned.  The `candidates` of every head supply the
    tails and the prime-packing closure, and every candidate is filtered
    exactly.
    """
    survivors: list[WeightedBasket] = []
    eliminated: list[tuple[WeightedBasket, str]] = []
    for head in _heads(cs):
        for wb in candidates(head, cs.fano_strict):
            ok, cert = is_geometric_candidate(wb, cs)
            if ok:
                survivors.append(wb)
            else:
                eliminated.append((wb, cert))
    survivors.sort(key=lambda w: w.basket)
    eliminated.sort(key=lambda e: e[0].basket)
    return EnumerationResult(survivors, eliminated)


def enumerate_geometric(cs: ConstraintSet) -> list[WeightedBasket]:
    return enumerate_geometric_full(cs).survivors


# --- degree bookkeeping for the image-dimension replays -----------------------


def forced_ladder(p1: int, n0: int, l: int) -> dict[int, int]:
    """The anti-plurigenera forced by n0 and the failure horizon l.

    Serves the two families p1 in {1, 2} (n0 > 1 only for p1 = 1): the
    values below n0 equal 1, P_{-n0} = 2, and for n0 <= k <= l the doubling
    upper bound k//n0 + 1 meets the superadditive lower bound.  Degrees where
    the two bounds disagree are omitted (left free); a lower bound above the
    upper one is a contradiction.
    """
    if p1 not in (1, 2):
        raise ValueError("the ladder derivation covers p1 in {1, 2}")
    if p1 == 2 and n0 != 1:
        raise ValueError("p1 = 2 forces n0 = 1")
    low: dict[int, int] = {}
    for k in range(1, l + 1):
        if k == 1:
            low[k] = p1
        else:
            best = 1
            for j in range(1, k):
                if low[j] > 0 and low[k - j] > 0:
                    best = max(best, low[j] + low[k - j] - 1)
            low[k] = best
        if k == n0:
            low[k] = max(low[k], 2)
    forced = {}
    for k in range(1, l + 1):
        upper = 1 if k < n0 else k // n0 + 1
        require(low[k] <= upper, f"ladder p1={p1}, n0={n0}: P_-{k} >= {low[k]} > {upper}")
        if low[k] == upper:
            forced[k] = upper
    return forced


def late_ladder(l: int, p_min: Optional[dict[int, int]] = None) -> ConstraintSet:
    """The p1 = 1 branches n0 = 7 and n0 = 8 merged up to degree l: pin only
    what both ladders force, with P_-7 free in {1, 2}; `p_min` adds lower
    bounds."""
    l7, l8 = forced_ladder(1, 7, l), forced_ladder(1, 8, l)
    merged = {k: v for k, v in l7.items() if l8.get(k) == v}
    return ConstraintSet(p_exact=merged, p_min={7: 1, **(p_min or {})}, p_max={7: 2})


M1_HORIZON = 40  # the degrees whose multiples feed the doubling thresholds


def _m1_from_choice(wb: WeightedBasket, m: int) -> tuple[int, str]:
    """The degree with image dimension > 1, from base degree m.

    Checks the local criterion at m on every point, then either P_{-m} >= 3
    settles it at m directly, or the doubling thresholds along multiples of
    m produce l0 with m1 = l0 m.
    """
    text = wb.basket.text()
    require(k1_all_points(wb.basket, m), f"{text}: local criterion fails at m={m}")
    pm = wb.plurigenera(m)[m]  # the table grows to M1_HORIZON only when P_-m < 3
    if pm >= 3:
        return m, f"P_-{m} = {pm} >= 3"
    require(pm >= 1, f"{text}: P_-{m} = {pm} < 1 cannot drive the criterion")
    thresholds = k2_thresholds(wb.plurigenera(M1_HORIZON).multiples_of(m))
    require(thresholds is not None, f"{text}: doubling horizon {M1_HORIZON} too short at m={m}")
    m1 = thresholds.l0 * m
    return m1, f"n0={thresholds.n0}, l0={thresholds.l0} along multiples of {m}"


AXIOM_LOCAL_CRITERION = "geometric content of the local criterion (fixed parts)"
AXIOM_DOUBLING = "geometric content of the doubling criterion (pencil structure)"
AXIOM_DELTA1_UPGRADE_10 = "divisor-class upgrade: exceptional types No.1-No.4 reach dimension > 1 at degree 10"
AXIOM_DELTA1_UPGRADE_8 = "divisor-class upgrade: types No.A-No.D reach dimension > 1 at degree 8"
AXIOM_DELTA1_UPGRADE_6 = "divisor-class upgrade: types No.E-No.F reach dimension > 1 at degree 6"

# the ten exceptional types of P_-1 = 0, by delta_1: (types, delta_1, exact,
# upgrade pins, axiom).  With `exact`, P_-m <= 2 below delta_1, so no lower
# degree has image dimension > 1 and delta_1 is attained.  A type whose m1
# passes delta_1 reaches dimension > 1 at delta_1 by the divisor-class
# upgrade, on the pinned P_-m; the others do so by P_-delta_1 >= 3.
UPGRADES = (
    (("No.1", "No.2", "No.3", "No.4"), 10, True, {4: 1, 6: 1, 8: 2, 9: 2},
     AXIOM_DELTA1_UPGRADE_10),
    (("No.A", "No.B", "No.C", "No.D"), 8, True, {2: 1, 4: 1, 6: 2, 8: 3},
     AXIOM_DELTA1_UPGRADE_8),
    (("No.E", "No.F"), 6, False, {2: 1, 4: 3, 6: 9}, AXIOM_DELTA1_UPGRADE_6),
)

# the P_-1 = 1 ladders by doubling degree: (n0, failure horizon l); QFano39
# checks the m1 of its n0 <= 5 leaf against them
P1_EQ_1_HORIZONS = ((2, 6), (3, 6), (4, 6), (5, 7), (6, 8))


@cache
def replay_delta1(family: str) -> ReplayReport:
    """Machine replay of the image-dimension bounds, by first-plurigenus family.

    Families: 'P1_ge_3', 'P1_eq_2', 'P1_eq_1', 'P1_eq_0'.  Each family is
    replayed once per process and every caller gets the same report, so no
    caller may mutate it; a failing step raises on every call, since `cache`
    stores no exception.
    """
    if family == "P1_ge_3":
        report = ReplayReport(case=family, constraints="P_-1 >= 3",
                              axioms=[AXIOM_LOCAL_CRITERION])
        report.conclusion = "delta_1 <= 1"
        return report

    if family == "P1_eq_2":
        cs = ConstraintSet(p_exact=forced_ladder(2, 1, 6))
        return _replay_ladders(family, cs.describe(), [("delta1>6", 6, cs)])

    if family == "P1_eq_1":
        branches = [
            (f"n0={n0}", l, ConstraintSet(p_exact=forced_ladder(1, n0, l)))
            for n0, l in P1_EQ_1_HORIZONS
        ]
        branches.append(("n0>=7", 9, late_ladder(9)))
        return _replay_ladders(family, "P_-1 = 1, branches over n0 = 2..8", branches)

    if family == "P1_eq_0":
        return _replay_p1_zero()

    raise ValueError(f"unknown family {family!r}")


def _replay_ladders(
    family: str, constraints: str, branches: list[tuple[str, int, ConstraintSet]]
) -> ReplayReport:
    """Every (label, failure horizon, constraints) branch must contradict;
    delta_1 is then at most the longest ladder."""
    report = ReplayReport(
        case=family,
        constraints=constraints,
        axioms=[AXIOM_LOCAL_CRITERION, AXIOM_DOUBLING],
    )
    for label, _, cs in branches:
        result = enumerate_geometric_full(cs)
        require(not result.survivors, f"{family} {label}: {len(result.survivors)} survivors")
        report.eliminated.extend(
            EliminatedRow(wb, cert, branch=label) for wb, cert in result.eliminated
        )
    report.conclusion = f"delta_1 <= {max(l for _, l, _ in branches)}"
    return report


class FamilyRow(NamedTuple):
    """A candidate of the weak P_-1 = 0 family with its certificate (None for
    a survivor), P_-1..P_-4 and whether gamma > 0, each read once."""

    wb: WeightedBasket
    cert: Optional[str]
    p: PlurigenusSequence
    fano: bool


@cache
def p1_zero_family() -> tuple[FamilyRow, ...]:
    """The weak (gamma >= 0) P_-1 = 0 family, enumerated once per process:
    survivors, then eliminated rows, each in basket order.  Its gamma > 0 rows
    are the Q-Fano family, so the P1_eq_0 replay and Weak97 both read it."""
    result = enumerate_geometric_full(ConstraintSet(p_exact={1: 0}, fano_strict=False))
    rows = [(wb, None) for wb in result.survivors] + result.eliminated
    return tuple(FamilyRow(wb, cert, wb.plurigenera(4), within_budget(wb.basket, strict=True))
                 for wb, cert in rows)


def _replay_p1_zero() -> ReplayReport:
    report = ReplayReport(
        case="P1_eq_0",
        constraints="P_-1 = 0; split on P_-2 = 0 vs P_-2 > 0",
        axioms=[AXIOM_LOCAL_CRITERION, AXIOM_DOUBLING],
    )
    exceptional: dict[str, tuple[WeightedBasket, dict]] = {}
    # the gamma > 0 rows of the shared family, split on P_-2 = 0 vs P_-2 > 0
    fano = [row for row in p1_zero_family() if row.fano]
    split = {"P2=0": [row for row in fano if row.p[2] == 0],
             "P2>0": [row for row in fano if row.p[2] > 0]}
    for label, rows in split.items():
        report.eliminated.extend(EliminatedRow(row.wb, row.cert, branch=label)
                                 for row in rows if row.cert is not None)
    survivors0, survivors2 = ([row.wb for row in rows if row.cert is None]
                              for rows in split.values())

    # branch one: P_-2 = 0, the tabulated 23 baskets
    table = {row.basket: row for row in P1_P2_ZERO_TABLE}
    found = {wb.basket.text() for wb in survivors0}
    require(found == set(table), f"P1_eq_0, P2=0: {len(found)} survivors, not the 23 rows")
    for wb in survivors0:
        row = table[wb.basket.text()]
        vol, p3_to_p8 = wb.volume(), wb.plurigenera(8).values[2:]
        require((vol, p3_to_p8) == (row.volume, row.p3_to_p8),
                f"P1_eq_0 No.{row.no}: -K^3 = {vol}, P_-3..P_-8 = {p3_to_p8},"
                f" the table says {row.volume}, {row.p3_to_p8}")
        m1, why = _m1_from_choice(wb, row.m_choice)
        require(m1 == row.m1, f"P1_eq_0 No.{row.no}: m1 = {m1}, the table says {row.m1}")
        notes = {"branch": "P2=0", "no": row.no, "m": row.m_choice, "m1": m1, "why": why}
        report.survivors.append(SurvivorRow(wb, notes))
        if m1 > 8:
            exceptional[wb.basket.text()] = wb, notes

    # branch two: P_-2 > 0
    for wb in survivors2:
        text = wb.basket.text()
        if not structural_tail(wb.basket):
            m = 3
        else:
            require(text in P1_ZERO_CASE2_M, f"P1_eq_0, P2>0: unexpected survivor {text}")
            m = P1_ZERO_CASE2_M[text]
        m1, why = _m1_from_choice(wb, m)
        notes = {"branch": "P2>0", "m": m, "m1": m1, "why": why}
        report.survivors.append(SurvivorRow(wb, notes))
        if m1 > 8:
            exceptional[text] = wb, notes

    # the exceptional list must be the ten tabulated types, with the
    # divisor-class upgrades consumed as named axioms
    require(set(exceptional) == set(EXCEPTIONAL_TYPES),
            f"P1_eq_0: m1 > 8 on {sorted(exceptional)}, not the exceptional types")
    rule = {tag: row for row in UPGRADES for tag in row[0]}
    for text, (wb, notes) in exceptional.items():
        tag = EXCEPTIONAL_TYPES[text]
        _, delta1, exact, pins, axiom = rule[tag]
        seq = wb.plurigenera(12)
        if exact:  # dimension <= P - 1 <= 1 below delta_1
            require(all(seq[m] <= 2 for m in range(1, delta1)),
                    f"P1_eq_0 {tag}: P_-m <= 2, m <= {delta1 - 1}")
        if notes["m1"] > delta1:  # the upgrade, its inputs recomputed
            require(all(seq[m] == v for m, v in pins.items()), f"P1_eq_0 {tag}: upgrade needs "
                    + ", ".join(f"P_-{m} = {v}" for m, v in pins.items()))
            notes["axiom"] = axiom
            report.axioms.append(axiom)
        else:
            require(seq[delta1] >= 3, f"P1_eq_0 {tag}: P_-{delta1} >= 3")
        notes["delta1"] = delta1
        notes["type"] = tag
    report.conclusion = "delta_1 <= 8 except " + ", ".join(
        f"{tags[0]}-{tags[-1]} (delta_1 {'=' if exact else '<='} {delta1})"
        for tags, delta1, exact, _, _ in UPGRADES
    )
    return report

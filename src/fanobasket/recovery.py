"""Recover the head of the canonical chain from anti-plurigenera.

The stage-0 basket of a weighted basket consists of points (1, r) only, and
its multiplicities are integer-linear in the first few anti-plurigenera once
the tail counts n_{1,r} for r >= 5 are chosen:

    sigma   = 10 - 5 P1 + P2
    n_{1,2} = 5 - 6 P1 + 4 P2 - P3            (= Delta^3)
    n_{1,3} = 4 - 2 P1 - 2 P2 + 3 P3 - P4
    n_{1,4} = 1 + 3 P1 - P2 - 2 P3 + P4 - sigma5

with sigma5 the total tail count.  The stage-5 basket and the prime-packing
counts eps_5..eps_8 follow from further linear formulas, with eps_6 = 0 as a
hard consistency identity.  Negative counts, negative eps, or eps_6 != 0
certify that no basket realizes the given data.

Tails are drawn from Kawamata's 24-budget: a stage-0 basket with
gamma(B^(0)) = 24 - sum(r - 1/r) < 0 has no packing with gamma >= 0, so only
tails that fit the budget beside n_{1,2}, n_{1,3}, n_{1,4} are tried.  Costs
are exact integers in units of 1/COST_UNIT, COST_UNIT = lcm(2..24).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from math import lcm
from typing import Iterator, Optional, Union

from .basket import Basket, PlurigenusSequence
from .canonical import unpack

TAIL_R_CAP = 24  # a single (1, r) with r > 24 already violates sum(r - 1/r) <= 24
COST_UNIT = lcm(*range(2, TAIL_R_CAP + 1))  # r - 1/r is a whole number of 1/COST_UNIT
BUDGET = 24 * COST_UNIT


def cost(r: int) -> int:
    """r - 1/r in units of 1/COST_UNIT, for r dividing COST_UNIT: every
    r <= TAIL_R_CAP and every product of coprime such r.  Any other r raises
    ValueError, since its r - 1/r is not a whole number of units."""
    share, rem = divmod(COST_UNIT, r)
    if rem:
        raise ValueError(f"{r} does not divide COST_UNIT")
    return (r * r - 1) * share


def within_budget(basket: Basket, strict: bool) -> bool:
    """gamma(B) > 0 (strict) or gamma(B) >= 0, decided in budget units.

    COST_UNIT gamma = BUDGET - sum n cost(r) once every r <= TAIL_R_CAP, and a
    point with r > TAIL_R_CAP alone makes gamma negative.
    """
    if basket.r_max() > TAIL_R_CAP:
        return False
    spent = sum(n * cost(r) for (_, r), n in basket.counts())
    return spent < BUDGET if strict else spent <= BUDGET


def tail_budget(n12: int, n13: int, n14: int) -> int:
    """What the 24-budget leaves for the tail beside n_{1,2}, n_{1,3}, n_{1,4}."""
    return BUDGET - n12 * cost(2) - n13 * cost(3) - n14 * cost(4)


def budgeted_tails(sigma5: int, budget: int) -> Iterator[tuple[int, ...]]:
    """Non-decreasing tails of exactly sigma5 points r in [5, TAIL_R_CAP]
    costing at most `budget`."""
    if sigma5 < 0:
        raise ValueError("sigma5 must be >= 0")

    def rec(lo: int, left: int, k: int, chosen: list[int]):
        if k == 0:
            if left >= 0:
                yield tuple(chosen)
            return
        for r in range(lo, TAIL_R_CAP + 1):
            c = cost(r)
            if c * k > left:
                return  # every point still to come costs at least c
            chosen.append(r)
            yield from rec(r, left - c, k - 1, chosen)
            chosen.pop()

    yield from rec(5, budget, sigma5, [])


@dataclass(frozen=True)
class RecoveryInput:
    p: PlurigenusSequence
    sigma5: int
    tail_counts: dict[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if any(r < 5 for r in self.tail_counts):
            raise ValueError("tail counts are indexed by r >= 5")
        if any(c < 0 for c in self.tail_counts.values()):
            raise ValueError("tail counts must be non-negative")
        if sum(self.tail_counts.values()) != self.sigma5:
            raise ValueError("sigma5 must equal the total tail count")


@dataclass(frozen=True)
class Infeasible:
    """Witness that the recovery identities reject the input."""

    violated: str
    value: Optional[int] = None

    def __bool__(self) -> bool:
        return False


@dataclass(frozen=True)
class RecoveredData:
    sigma: int
    delta3: int
    delta4: int
    n0: dict[int, int]          # r in {2, 3, 4}
    tail: dict[int, int]        # r >= 5, shared by stages 0 and 5
    n5: dict[tuple[int, int], int]
    eps: dict[int, Optional[int]]  # eps_5, eps_6 (=0), eps_7, eps_8

    def basket0(self) -> Basket:
        return Basket.from_counts(
            [((1, r), self.n0[r]) for r in (2, 3, 4)]
            + [((1, r), c) for r, c in self.tail.items()]
        )

    def basket5(self) -> Basket:
        return Basket.from_counts(
            [*self.n5.items()] + [((1, r), c) for r, c in self.tail.items()]
        )


def stage0_head(
    p: PlurigenusSequence, sigma5: int
) -> tuple[Optional[int], Optional[int], Optional[int]]:
    """(n_{1,2}, n_{1,3}, n_{1,4}) of the stage-0 basket; None where unknown."""
    if not p.has(2):
        raise ValueError("recovery needs at least P_{-1} and P_{-2}")
    p1, p2 = p[1], p[2]
    p3, p4 = (p[m] if p.has(m) else None for m in (3, 4))
    n12 = None if p3 is None else 5 - 6 * p1 + 4 * p2 - p3
    if p4 is None:
        return n12, None, None
    n13 = 4 - 2 * p1 - 2 * p2 + 3 * p3 - p4
    return n12, n13, 1 + 3 * p1 - p2 - 2 * p3 + p4 - sigma5


def recover(inp: RecoveryInput) -> Union[RecoveredData, Infeasible]:
    """Evaluate the recovery formulas; first violated identity wins."""
    p = inp.p
    s5 = inp.sigma5
    n12, n13, n14 = stage0_head(p, s5)
    p1, p2, p3, p4, p5, p6, p7, p8 = (p[m] if p.has(m) else None for m in range(1, 9))
    sigma = 10 - 5 * p1 + p2
    if sigma < 0:
        return Infeasible("sigma >= 0", sigma)

    delta4 = None if p4 is None else 14 - 14 * p1 + 6 * p2 + p3 - p4
    for name, val in (("n0_{1,2}", n12), ("n0_{1,3}", n13), ("n0_{1,4}", n14)):
        if val is not None and val < 0:
            return Infeasible(f"{name} >= 0", val)

    n15 = inp.tail_counts.get(5, 0)
    n16 = inp.tail_counts.get(6, 0)
    n17 = inp.tail_counts.get(7, 0)
    eps = 2 * s5 - n15
    if eps < 0:
        return Infeasible("eps = 2 sigma5 - n0_{1,5} >= 0", eps)

    eps5 = None if p5 is None else 2 + p2 - 2 * p4 + p5 - s5
    if eps5 is not None and eps5 < 0:
        return Infeasible("eps_5 >= 0", eps5)

    n5 = {}
    if p5 is not None:
        n5 = {
            (1, 2): 3 - 6 * p1 + 3 * p2 - p3 + 2 * p4 - p5 + s5,
            (2, 5): eps5,
            (1, 3): 2 - 2 * p1 - 3 * p2 + 3 * p3 + p4 - p5 + s5,
            (1, 4): n14,
        }
        for key, val in n5.items():
            if val < 0:
                return Infeasible(f"n5_{key} >= 0", val)

    eps6 = None
    if p6 is not None:
        eps6 = 3 * p1 + p2 - p3 - p4 - p5 + p6 - eps
        if eps6 != 0:
            return Infeasible("eps_6 = 0", eps6)

    eps7 = None
    if p7 is not None:
        eps7 = 1 + p1 + p2 - p5 - p6 + p7 - 2 * s5 + 2 * n15 + n16
        if eps7 < 0:
            return Infeasible("eps_7 >= 0", eps7)

    eps8 = None
    if p8 is not None:
        eps8 = (
            2 * p1 + p2 + p3 - p4 - p5 - p7 + p8 - 3 * s5 + 3 * n15 + 2 * n16 + n17
        )
        if eps8 < 0:
            return Infeasible("eps_8 >= 0", eps8)

    return RecoveredData(
        sigma=sigma,
        delta3=n12,  # n0_{1,2} = Delta^3
        delta4=delta4,
        n0={2: n12, 3: n13, 4: n14},
        tail={r: c for r, c in inp.tail_counts.items() if c},
        n5=n5,
        eps={5: eps5, 6: eps6, 7: eps7, 8: eps8},
    )


def feasible_tails(p: PlurigenusSequence) -> list[RecoveredData]:
    """The recovered data of every (sigma5, tail) choice the recovery
    identities accept whose known stage-0 counts leave room in the 24-budget:
    gamma(B^(0)) >= 0 when P_{-1}..P_{-4} are given, a superset of those tails
    otherwise.  Ordered by sigma5, then by the non-decreasing tail."""
    out = []
    for s5 in range(BUDGET // cost(5) + 1):  # (1, 5) is the cheapest tail point
        head = stage0_head(p, s5)
        if any(n is not None and n < 0 for n in head):
            continue  # recover rejects every tail
        left = tail_budget(*(n or 0 for n in head))  # unknown counts cost nothing
        for tail in budgeted_tails(s5, left):
            data = recover(RecoveryInput(p, s5, dict(Counter(tail))))
            if not isinstance(data, Infeasible):
                out.append(data)
    return out


def structural_tail(basket: Basket) -> tuple[int, dict[int, int]]:
    """The true (sigma5, tail counts) of a basket, read off its stage-0 form."""
    runs = unpack(basket, 0).counts()
    assert all(b == 1 for (b, _), _ in runs)
    counts = {r: n for (_, r), n in runs if r >= 5}
    return sum(counts.values()), counts

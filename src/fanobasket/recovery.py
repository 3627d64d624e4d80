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
gamma(B^(0)) = 24 - sum(r - 1/r) < 0 has no packing with gamma >= 0.  A tail
point displaces a (1, 4) point of the tail-free head.  `_budget_walk` is the
one search of the budget: it lists the tails of a head, the 243 tail-free
heads and the index sets of `indexbound`.  Costs are exact integers in units
of 1/COST_UNIT, COST_UNIT = lcm(2..24).
"""

from __future__ import annotations

from collections import Counter
from functools import cache
from math import lcm
from typing import NamedTuple, Optional, Union

from .basket import Basket, PlurigenusSequence
from .canonical import unpack
from .reports import require

TAIL_R_CAP = 24  # a single (1, r) with r > 24 already violates sum(r - 1/r) <= 24
COST_UNIT = lcm(*range(2, TAIL_R_CAP + 1))  # r - 1/r is a whole number of 1/COST_UNIT
BUDGET = 24 * COST_UNIT


def cost(r: int) -> int:
    """r - 1/r in units of 1/COST_UNIT, for r dividing COST_UNIT: every
    r <= TAIL_R_CAP, and every product of coprime such r, which only the
    prime-power oracle of the tests asks for.  Any other r raises
    ValueError, since its r - 1/r is not a whole number of units."""
    share, rem = divmod(COST_UNIT, r)
    if rem:
        raise ValueError(f"{r} does not divide COST_UNIT")
    return (r * r - 1) * share


_COSTS = {r: cost(r) for r in range(2, TAIL_R_CAP + 1)}  # cost(r) of every r a budget admits
# what a tail point (1, r), r >= 5, costs over the (1, 4) point it displaces
_TAIL_OVER = {r: c - _COSTS[4] for r, c in _COSTS.items() if r >= 5}


def within_budget(basket: Basket, strict: bool) -> bool:
    """gamma(B) > 0 (strict) or gamma(B) >= 0, decided in budget units.

    COST_UNIT gamma = BUDGET - sum n cost(r) once every r <= TAIL_R_CAP, and a
    point with r > TAIL_R_CAP alone makes gamma negative.
    """
    if basket.r_max() > TAIL_R_CAP:
        return False
    spent = sum(n * _COSTS[r] for (_, r), n in basket.counts())
    return spent < BUDGET if strict else spent <= BUDGET


def _budget_walk(lo: int, hi: int, over: dict[int, int], budget: int, most: int,
                 repeat: bool) -> list[tuple[int, ...]]:
    """The sequences of values in lo..hi, non-decreasing when `repeat` and
    increasing otherwise, of at most `most` entries, whose summed over[r] is
    at most `budget`; depth first, so the empty sequence comes first and each
    sequence before its extensions, and none when the budget is negative.
    `over` must be non-decreasing in r: a step stops at the first value it
    cannot afford, since no larger one fits either."""
    found: list[tuple[int, ...]] = []

    def step(start: int, left: int, room: int, chosen: tuple[int, ...]) -> None:
        found.append(chosen)
        for r in range(start, hi + 1):
            if not room or over[r] > left:
                return
            step(r if repeat else r + 1, left - over[r], room - 1, (*chosen, r))

    if budget >= 0:
        step(lo, budget, most, ())
    return found


class Infeasible(NamedTuple):
    """Witness that the recovery identities reject the input."""

    violated: str
    value: int

    def __bool__(self) -> bool:
        return False


class RecoveredData(NamedTuple):
    basket0: Basket
    basket5: Optional[Basket]      # None when P_{-5} is not given
    eps: dict[int, Optional[int]]  # eps_5, eps_6 (=0), eps_7, eps_8


def stage0_head(p: PlurigenusSequence, sigma5: int) -> tuple[int, int, int]:
    """(n_{1,2}, n_{1,3}, n_{1,4}) of the stage-0 basket."""
    if len(p) < 4:
        raise ValueError("recovery needs P_{-1}..P_{-4}")
    p1, p2, p3, p4 = (p[m] for m in range(1, 5))
    return (5 - 6 * p1 + 4 * p2 - p3, 4 - 2 * p1 - 2 * p2 + 3 * p3 - p4,
            1 + 3 * p1 - p2 - 2 * p3 + p4 - sigma5)


@cache
def _tail_free_heads() -> tuple[tuple[int, int, int], ...]:
    """(P_-2, P_-3, P_-4) at P_{-1} = 0 of the 243 tail-free stage-0 baskets
    n_{1,2} x (1,2) + n_{1,3} x (1,3) + n_{1,4} x (1,4) within the 24-budget,
    by `stage0_head` solved for P_-2, P_-3, P_-4; ascending, built once per
    process.  No budgeted basket has more than BUDGET // cost(2) points."""
    heads = []
    for points in _budget_walk(2, 4, _COSTS, BUDGET, BUDGET // _COSTS[2], repeat=True):
        n12, n13, n14 = map(points.count, (2, 3, 4))
        p2 = n12 + n13 + n14 - 10  # sigma = 10 - 5 P_-1 + P_-2
        p3 = 5 + 4 * p2 - n12
        heads.append((p2, p3, 4 - 2 * p2 + 3 * p3 - n13))
    return tuple(sorted(heads))


def recover(p: PlurigenusSequence, tail: dict[int, int]) -> Union[RecoveredData, Infeasible]:
    """Evaluate the recovery formulas on P_{-1}.. and the tail counts
    {r: n_{1,r}}, r >= 5; first violated identity wins.  The stage-5 basket
    is recovered only when P_{-5} is given."""
    if any(r < 5 for r in tail):
        raise ValueError("tail counts are indexed by r >= 5")
    if any(c < 0 for c in tail.values()):
        raise ValueError("tail counts must be non-negative")
    s5 = sum(tail.values())
    n12, n13, n14 = stage0_head(p, s5)
    p1, p2, p3, p4, p5, p6, p7, p8 = (p[m] if m <= len(p) else None for m in range(1, 9))
    sigma = 10 - 5 * p1 + p2
    if sigma < 0:
        return Infeasible("sigma >= 0", sigma)

    for name, val in (("n0_{1,2}", n12), ("n0_{1,3}", n13), ("n0_{1,4}", n14)):
        if val < 0:
            return Infeasible(f"{name} >= 0", val)

    n15, n16, n17 = (tail.get(r, 0) for r in (5, 6, 7))

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
        eps6 = 3 * p1 + p2 - p3 - p4 - p5 + p6 - (2 * s5 - n15)
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

    tail_runs = [((1, r), c) for r, c in tail.items()]
    return RecoveredData(
        basket0=Basket.from_counts([((1, 2), n12), ((1, 3), n13), ((1, 4), n14), *tail_runs]),
        basket5=None if p5 is None else Basket.from_counts([*n5.items(), *tail_runs]),
        eps={5: eps5, 6: eps6, 7: eps7, 8: eps8},
    )


def feasible_tails(p: PlurigenusSequence) -> list[RecoveredData]:
    """The recovered data of every tail the recovery identities accept with
    gamma(B^(0)) >= 0, ordered by sigma5, then by the non-decreasing tail.
    A tail point displaces a (1, 4) point of the tail-free head, so that
    head's n_{1,4} and what it leaves of the budget bound every tail."""
    head = stage0_head(p, 0)
    if min(head) < 0:
        return []  # recover rejects every tail
    left = BUDGET - sum(n * _COSTS[r] for n, r in zip(head, (2, 3, 4)))
    tails = _budget_walk(5, TAIL_R_CAP, _TAIL_OVER, left, head[2], repeat=True)
    out = []
    for tail in sorted(tails, key=len):  # stable: each length stays in walk order
        data = recover(p, dict(Counter(tail)))
        if not isinstance(data, Infeasible):
            out.append(data)
    return out


def structural_tail(basket: Basket) -> dict[int, int]:
    """The true tail counts {r: n_{1,r}}, r >= 5, of a basket, read off its
    stage-0 form, which consists of points (1, r) only."""
    runs = unpack(basket, 0).counts()
    require(all(b == 1 for (b, _), _ in runs),
            f"{basket.text()}: the stage-0 form has only points (1, r)")
    return {r: n for (_, r), n in runs if r >= 5}

"""The packing partial order and the canonical unpacking chain.

Packing merges two points (b1,r1),(b2,r2) into (b1+b2, r1+r2); the packing
is prime when b1 r2 - b2 r1 = 1.  Unpacking goes the other way: against the
fraction set S^(n) every point splits into a combination of the two
S^(n)-neighbours of b/r, producing the stage baskets

    B^(0)  >=  B^(5)  >=  B^(6)  >=  ...  >=  B,

where eps_n counts the prime packings between consecutive stages.  All the
arithmetic (counts, neighbour determinants) is exact.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Callable, NamedTuple, Optional

from .basket import Basket, Run, _delta_point
from .reports import ReplayContradiction


def _valid_level(n: int) -> None:
    if n != 0 and n < 5:
        raise ValueError(f"fraction-set level must be 0 or >= 5, got {n}")


def s_set(n: int, cap: int) -> tuple[Fraction, ...]:
    """The truncation of S^(n) with denominators up to `cap`, largest first.

    S^(0) holds 1/k for k >= 2; for n >= 5 every reduced b/m with
    0 < b < m/2 and m <= n joins; adjacent members q/p > q'/p' satisfy
    q p' - p q' = 1, which is checked.  The truncation suffices to unpack any
    basket whose local indices are <= cap, since neighbours of b/r always
    have denominator < r.  The tests' reference; `unpack` never builds it.
    """
    _valid_level(n)
    if cap < 2:
        raise ValueError("cap must be >= 2")
    members = {Fraction(1, k) for k in range(2, cap + 1)}
    for m in range(5, min(n, cap) + 1):
        for b in range(2, (m + 1) // 2):
            if gcd(b, m) == 1:
                members.add(Fraction(b, m))
    fractions = tuple(sorted(members, reverse=True))
    for hi, lo in zip(fractions, fractions[1:]):
        det = hi.numerator * lo.denominator - hi.denominator * lo.numerator
        if det != 1:
            raise ValueError(f"neighbour determinant {det} != 1 between {hi} and {lo}")
    return fractions


def _neighbours(b: int, r: int, n: int) -> Optional[tuple[tuple[int, int], ...]]:
    """The S^(n)-neighbours ((q_hi, p_hi), (q_lo, p_lo)) of a canonical b/r,
    or None for a member.  Below 1/2, S^(n) is the 1/k and the Farey fractions
    of order n: descend the Stern-Brocot tree from 0/1, 1/2 until denominators
    pass n; a lower end still at 0/1 leaves only the 1/k around b/r."""
    if b == 1 or (n >= 5 and r <= n):
        return None
    lq, lp, hq, hp = 0, 1, 1, 2
    while lp + hp <= n:
        mq, mp = lq + hq, lp + hp
        if mq * r < b * mp:
            lq, lp = mq, mp
        else:
            hq, hp = mq, mp
    if lq == 0:
        k = r // b
        lq, lp, hq, hp = 1, k + 1, 1, k
    return (hq, hp), (lq, lp)


@lru_cache(maxsize=None)
def _split(b: int, r: int, n: int) -> tuple[Run, ...]:
    """The runs one copy of a canonical (b, r) becomes in B^(n), checked exactly."""
    near = _neighbours(b, r, n)
    if near is None:
        return (((b, r), 1),)
    (qh, ph), (ql, pl) = near
    if qh * pl - ph * ql != 1:
        raise ReplayContradiction(f"unpack: neighbour determinant != 1: {qh}/{ph}, {ql}/{pl}")
    count_low, count_high = r * qh - b * ph, b * pl - r * ql
    if count_low <= 0 or count_high <= 0:
        raise ReplayContradiction(f"unpack: ({b},{r}) splits into a non-positive count")
    return ((ql, pl), count_low), ((qh, ph), count_high)


@lru_cache(maxsize=None)
def _levels(b: int, r: int) -> tuple[tuple[int, ...], frozenset[int]]:
    # for n = 5..r, one copy's share of eps_n (Delta^n of its split at the level before n,
    # 0 before 5, less its own Delta^n), and the levels where its split changes
    splits = [_split(b, r, n) for n in (0, *range(5, r + 1))]
    steps = tuple(zip(range(5, r + 1), splits, splits[1:]))  # (n, split before n, split at n)
    shares = tuple(sum(k * _delta_point(*pt, n) for pt, k in before) - _delta_point(b, r, n)
                   for n, before, _ in steps)
    return shares, frozenset(n for n, before, after in steps if after != before)


def unpack(basket: Basket, n: int) -> Basket:
    """The stage-n basket B^(n): split every point against S^(n)."""
    _valid_level(n)
    counts: dict[tuple[int, int], int] = {}
    for (b, r), count in basket.counts():
        for pt, k in _split(b, r, n):
            counts[pt] = counts.get(pt, 0) + k * count
    return Basket._from_canonical(counts)  # the splits are canonical and checked


class ChainStage(NamedTuple):
    level: int
    basket: Basket
    epsilon: int


class CanonicalChain(NamedTuple):
    stages: tuple[ChainStage, ...]


def canonical_chain(basket: Basket) -> CanonicalChain:
    """Stages n = 0, 5, 6, ..., r_max with eps_n = Delta^n(B^(n-1)) - Delta^n(B), a sum over
    points; a stage where no point splits anew reuses the basket of the stage before."""
    eps, moves = [0] * (basket.r_max() + 1), set()
    for (b, r), k in basket.counts():
        shares, moved = _levels(b, r)
        eps[5:r + 1] = [e + k * share for e, share in zip(eps[5:r + 1], shares)]
        moves |= moved
    stages = [ChainStage(0, unpack(basket, 0), 0)]
    for n in range(5, basket.r_max() + 1):
        if eps[n] < 0:
            raise ReplayContradiction(f"epsilon_{n} = {eps[n]} < 0 for {basket.text()}")
        stages.append(ChainStage(n, unpack(basket, n) if n in moves else stages[-1].basket, eps[n]))
    if stages[-1].basket != basket:
        raise ReplayContradiction(f"canonical chain ends at {stages[-1].basket.text()}")
    return CanonicalChain(tuple(stages))


def prime_packings(basket: Basket) -> list[Basket]:
    """All distinct one-step prime packings of `basket`.

    A point never packs with a copy of itself (b r - b r = 0), and two
    different pairs of distinct points never pack to the same basket, so
    pairing distinct runs i < j yields each packed basket once.
    """
    runs = basket.counts()
    out = []
    for i, ((b1, r1), _) in enumerate(runs):
        for j in range(i + 1, len(runs)):
            b2, r2 = runs[j][0]
            if abs(b1 * r2 - b2 * r1) == 1:
                out.append(basket.replace_pair_with(i, j, (b1 + b2, r1 + r2)))
    out.sort()
    return out


def dominated_baskets(
    basket: Basket, prune: Optional[Callable[[Basket], bool]] = None
) -> list[Basket]:
    """Every basket reachable from `basket` by prime packings, itself included.

    `prune`, when given, must be monotone-safe: once it rejects a basket it
    rejects all of its packings (gamma-threshold predicates qualify).  The
    result is deterministic, sorted by canonical form.
    """
    if prune is not None and not prune(basket):
        return []
    seen: set[Basket] = {basket}
    stack = [basket]
    while stack:
        current = stack.pop()
        for nxt in prime_packings(current):
            if nxt in seen:
                continue
            if prune is not None and not prune(nxt):
                continue
            seen.add(nxt)
            stack.append(nxt)
    return sorted(seen)


def minimal_baskets(basket: Basket) -> list[Basket]:
    """The dominated baskets admitting no further prime packing."""
    return [b for b in dominated_baskets(basket) if not prime_packings(b)]

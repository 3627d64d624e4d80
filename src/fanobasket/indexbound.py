"""Brute-force bounds on the Gorenstein index via the 24-budget.

Every basket satisfies sum_i (r_i - 1/r_i) <= 24.  Splitting each r_i into
its maximal prime-power factors only lowers that sum (for coprime a, b > 1
one has ab - 1/(ab) >= a - 1/a + b - 1/b), and preserves the lcm, so
the index maximum can be searched over prime powers under the same budget;
`max_index_report` requires both facts for r = 2..24 before it searches.
Every search here walks sets of distinct values, never multisets: a repeated
entry costs budget without changing the lcm, so sets lose nothing for lcm
questions.  The global maximum searches sets of prime powers, the per-r_max
questions sets of raw index values, both through one budgeted subset
recursion.  Costs are the exact integers of `recovery.cost`, in units of
1/COST_UNIT: every value summed here is at most 24, and a product of coprime
values at most 24 divides COST_UNIT.
"""

from __future__ import annotations

from itertools import combinations
from math import gcd, lcm, prod
from typing import Iterator, NamedTuple, Sequence

from .recovery import BUDGET, TAIL_R_CAP, cost
from .reports import require

# prime powers s with s - 1/s <= 24 (25 = 5^2 already exceeds the budget)
PRIME_POWERS = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23)


def _budgeted_sets(base: Sequence[int], rest: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """Every sorted set base + S, S a subset of the distinct values rest,
    whose total cost is at most BUDGET."""
    remaining = BUDGET - sum(cost(v) for v in base)
    if remaining < 0:
        return

    def rec(idx: int, remaining: int, chosen: list[int]) -> Iterator[tuple[int, ...]]:
        yield tuple(sorted([*base, *chosen]))
        for i in range(idx, len(rest)):
            c = cost(rest[i])
            if c <= remaining:
                chosen.append(rest[i])
                yield from rec(i + 1, remaining - c, chosen)
                chosen.pop()

    yield from rec(0, remaining, [])


class IndexReport(NamedTuple):
    max_lcm: int
    witnesses: tuple[tuple[int, ...], ...]
    second_max: int

    def to_json(self) -> dict:
        return {
            "max": self.max_lcm,
            "witnesses": [sorted(w) for w in self.witnesses],
            "second_max": self.second_max,
        }


def max_index_report() -> IndexReport:
    """Global maximum of lcm over the budgeted sets of distinct prime powers.

    The witnesses are every set attaining the maximum; `second_max` is the
    largest lcm below it.  The search first requires the reduction it rests
    on: for r = 2..24, `prime_power_parts(r)` are coprime members of
    PRIME_POWERS with product r, and splitting off the first part does not
    raise the budget (`coprime_split_inequality`; the rest is a smaller r).
    """
    for r in range(2, TAIL_R_CAP + 1):
        parts = prime_power_parts(r)
        rest = r // parts[0]
        require(prod(parts) == r and set(parts) <= set(PRIME_POWERS)
                and all(gcd(a, b) == 1 for a, b in combinations(parts, 2))
                and (rest == 1 or coprime_split_inequality(parts[0], rest)),
                f"index bound: r = {r} splits into coprime prime powers {parts}"
                " at no extra budget")
    best = 0
    second = 0
    witnesses: list[tuple[int, ...]] = []
    for values in _budgeted_sets((), PRIME_POWERS):
        value = lcm(*values)
        if value > best:
            second = best
            best = value
            witnesses = [values]
        elif value == best:
            witnesses.append(values)
        elif value > second:
            second = value
    return IndexReport(best, tuple(sorted(witnesses)), second)


def _raw_subsets(
    r_max: int, must_contain: tuple[int, ...] = ()
) -> Iterator[tuple[int, ...]]:
    """Distinct-value index sets with largest entry r_max that hold every
    value of `must_contain` (a set; r_max may be in it), budget respected."""
    if not 2 <= r_max <= TAIL_R_CAP:
        raise ValueError(f"r_max must lie in [2, {TAIL_R_CAP}]")
    if not all(2 <= v <= r_max for v in must_contain):
        raise ValueError(f"must_contain values must lie in [2, {r_max}], got {must_contain}")
    base = {r_max, *must_contain}
    return _budgeted_sets(sorted(base), [v for v in range(2, r_max) if v not in base])


def max_index_given_rmax(r_max: int) -> int:
    """Max lcm over admissible raw index sets whose largest entry is r_max."""
    return max(lcm(*subset) for subset in _raw_subsets(r_max))


def attainable_indices(
    r_max: int, must_contain: tuple[int, ...] = ()
) -> dict[int, tuple[int, ...]]:
    """Every attainable lcm value (largest entry r_max, every `must_contain`
    value present), with one witness each."""
    out: dict[int, tuple[int, ...]] = {}
    for subset in _raw_subsets(r_max, must_contain):
        value = lcm(*subset)
        if value not in out:
            out[value] = subset
    return dict(sorted(out.items()))


def admissible_index_sets_with_lcm(target: int, r_max: int) -> list[tuple[int, ...]]:
    """All admissible distinct-value index sets with the given lcm."""
    return sorted(s for s in _raw_subsets(r_max) if lcm(*s) == target)


def coprime_split_inequality(a: int, b: int) -> bool:
    """ab - 1/(ab) >= a - 1/a + b - 1/b for coprime 1 < a, b <= 24.

    This makes the prime-power reduction budget-sound, and holds for every
    coprime pair.  A product ab that does not divide COST_UNIT raises
    ValueError from `cost`.
    """
    return cost(a * b) >= cost(a) + cost(b)


def prime_power_parts(n: int) -> tuple[int, ...]:
    """The maximal prime-power factors of n (e.g. 12 -> (4, 3))."""
    parts = []
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            q = 1
            while m % p == 0:
                q *= p
                m //= p
            parts.append(q)
        p += 1
    if m > 1:
        parts.append(m)
    return tuple(sorted(parts, reverse=True))

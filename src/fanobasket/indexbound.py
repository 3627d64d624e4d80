"""Brute-force bounds on the Gorenstein index via the 24-budget.

Every basket satisfies sum_i (r_i - 1/r_i) <= 24.  Splitting each r_i into
its maximal prime-power factors only lowers that sum (for coprime a, b > 1
one has ab - 1/(ab) >= a - 1/a + b - 1/b + 2), and preserves the lcm, so
the index maximum can be searched over multisets of prime powers under the
same budget.  For per-r_max questions the search runs on raw index values
directly.  Costs are the exact integers of `recovery.cost`, in units of
1/COST_UNIT: every value summed here is at most 24, and a product of coprime
values at most 24 divides COST_UNIT.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm
from typing import Iterator

from .recovery import BUDGET, COST_UNIT, cost

# prime powers s with s - 1/s <= 24 (25 = 5^2 already exceeds the budget)
PRIME_POWERS = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23)


@dataclass(frozen=True)
class PrimePowerMultiset:
    values: tuple[int, ...]  # non-increasing

    def budget(self) -> int:
        """Total cost in units of 1/COST_UNIT."""
        return sum(cost(v) for v in self.values)

    def lcm(self) -> int:
        return lcm(*self.values) if self.values else 1


def enumerate_admissible(budget: int = BUDGET) -> list[PrimePowerMultiset]:
    """All prime-power multisets with total cost <= budget (in units of
    1/COST_UNIT); complete."""
    if budget <= 0:
        raise ValueError("budget must be positive")
    out: list[PrimePowerMultiset] = []
    values = sorted(PRIME_POWERS, reverse=True)

    def rec(start: int, remaining: int, chosen: list[int]) -> None:
        out.append(PrimePowerMultiset(tuple(chosen)))
        for i in range(start, len(values)):
            c = cost(values[i])
            if c <= remaining:
                chosen.append(values[i])
                rec(i, remaining - c, chosen)
                chosen.pop()

    rec(0, budget, [])
    return out


@dataclass(frozen=True)
class IndexReport:
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
    """Global maximum of lcm over admissible prime-power multisets.

    Witness multisets are deduplicated on their distinct-value support
    (repeats never change the lcm).
    """
    best = 0
    second = 0
    witnesses: set[tuple[int, ...]] = set()
    for ms in enumerate_admissible():
        value = ms.lcm()
        if value > best:
            second = best
            best = value
            witnesses = {tuple(sorted(set(ms.values)))}
        elif value == best:
            witnesses.add(tuple(sorted(set(ms.values))))
        elif value > second:
            second = value
    return IndexReport(best, tuple(sorted(witnesses)), second)


def _raw_subsets(
    r_max: int, must_contain: tuple[int, ...] = ()
) -> Iterator[tuple[int, ...]]:
    """Distinct-value index sets: r_max included, budget respected.

    Enumerating sets rather than multisets is lossless for lcm maxima,
    since repeated entries cost budget without changing the lcm.
    """
    base = [r_max, *must_contain]
    if len(set(base)) != len(base):
        raise ValueError("must_contain should not repeat r_max or itself")
    start_cost = sum(cost(v) for v in base)
    if start_cost > BUDGET:
        return
    rest = [v for v in range(2, r_max) if v not in must_contain]

    def rec(idx: int, remaining: int, chosen: list[int]) -> Iterator[tuple[int, ...]]:
        yield tuple(sorted(base + chosen))
        for i in range(idx, len(rest)):
            c = cost(rest[i])
            if c <= remaining:
                chosen.append(rest[i])
                yield from rec(i + 1, remaining - c, chosen)
                chosen.pop()

    yield from rec(0, BUDGET - start_cost, [])


def max_index_given_rmax(r_max: int, must_contain: tuple[int, ...] = ()) -> int:
    """Max lcm over admissible raw index sets whose largest entry is r_max."""
    if not 2 <= r_max <= 24:
        raise ValueError("r_max must lie in [2, 24]")
    best = 0
    for subset in _raw_subsets(r_max, must_contain):
        best = max(best, lcm(*subset))
    return best


def attainable_indices(
    r_max: int, must_contain: tuple[int, ...] = ()
) -> dict[int, tuple[int, ...]]:
    """Every attainable lcm value (largest entry r_max), with one witness each."""
    out: dict[int, tuple[int, ...]] = {}
    for subset in _raw_subsets(r_max, must_contain):
        value = lcm(*subset)
        if value not in out:
            out[value] = subset
    return dict(sorted(out.items()))


def admissible_index_sets_with_lcm(
    target: int, r_max: int, must_contain: tuple[int, ...] = ()
) -> list[tuple[int, ...]]:
    """All admissible distinct-value index sets with the given lcm."""
    return sorted(
        s for s in _raw_subsets(r_max, must_contain) if lcm(*s) == target
    )


def coprime_split_inequality(a: int, b: int, slack: int = 0) -> bool:
    """ab - 1/(ab) >= a - 1/a + b - 1/b + slack for coprime 1 < a, b <= 24.

    slack (a whole number) = 0 is what makes the prime-power reduction
    budget-sound and holds for every coprime pair; the sharper slack=2 form
    fails exactly at {a, b} = {2, 3} (35/6 < 37/6).
    """
    if COST_UNIT % (a * b):
        raise ValueError(f"{a} * {b} does not divide COST_UNIT; need coprime a, b <= 24")
    return cost(a * b) >= cost(a) + cost(b) + slack * COST_UNIT


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

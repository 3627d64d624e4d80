"""Brute-force bounds on the Gorenstein index via the 24-budget.

Every basket satisfies sum_i (r_i - 1/r_i) <= 24.  An index r >= 25 alone
breaks that budget (25 - 1/25 > 24), and a repeated index costs budget
without changing the lcm, so the distinct indices of a basket form a set of
values in 2..TAIL_R_CAP whose costs fit the budget, and the lcm of that set
is the basket's r_X.  `_index_sets` lists every such set once per process,
read off the increasing mode of `recovery._budget_walk`; the global maximum
and the per-r_max questions of the Weak97 tree each read that one table.
Costs are the exact integers of `recovery.cost`, in units of 1/COST_UNIT.
"""

from __future__ import annotations

from functools import cache
from math import lcm
from typing import NamedTuple

from .recovery import _COSTS, BUDGET, TAIL_R_CAP, _budget_walk


@cache
def _index_sets() -> tuple[tuple[int, ...], ...]:
    """Every non-empty sorted set of distinct values in 2..TAIL_R_CAP whose
    total cost is at most BUDGET, in lexicographic order: each set is listed
    before its extensions, and those before the sets that follow it.  No
    set within the budget holds more than BUDGET // cost(2) values."""
    return tuple(_budget_walk(2, TAIL_R_CAP, _COSTS, BUDGET, BUDGET // _COSTS[2], repeat=False)[1:])


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
    """Global maximum of lcm over the budgeted index sets.

    The witnesses are every set attaining the maximum; `second_max` is the
    largest lcm below it.
    """
    *_, second, best = sorted({lcm(*s) for s in _index_sets()})
    return IndexReport(best, tuple(s for s in _index_sets() if lcm(*s) == best), second)


def _raw_subsets(r_max: int, must_contain: tuple[int, ...] = ()) -> list[tuple[int, ...]]:
    """Budgeted index sets with largest entry r_max that hold every value of
    `must_contain` (a set; r_max may be in it), in lexicographic order."""
    if not 2 <= r_max <= TAIL_R_CAP:
        raise ValueError(f"r_max must lie in [2, {TAIL_R_CAP}]")
    if not all(2 <= v <= r_max for v in must_contain):
        raise ValueError(f"must_contain values must lie in [2, {r_max}], got {must_contain}")
    forced = set(must_contain)
    return [s for s in _index_sets() if s[-1] == r_max and forced.issubset(s)]


def max_index_given_rmax(r_max: int) -> int:
    """Max lcm over admissible raw index sets whose largest entry is r_max."""
    return max(lcm(*subset) for subset in _raw_subsets(r_max))


def attainable_indices(r_max: int, must_contain: tuple[int, ...] = ()) -> tuple[int, ...]:
    """Every attainable lcm value (largest entry r_max, every `must_contain`
    value present), ascending."""
    return tuple(sorted({lcm(*subset) for subset in _raw_subsets(r_max, must_contain)}))


def admissible_index_sets_with_lcm(target: int, r_max: int) -> list[tuple[int, ...]]:
    """All admissible distinct-value index sets with the given lcm, sorted."""
    return [s for s in _raw_subsets(r_max) if lcm(*s) == target]

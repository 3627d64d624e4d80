"""Reference implementations that the tests hold the package against.

Each is a direct, slow statement of something `fanobasket` computes another
way, or, for `weighted_basket_from_json`, the inverse of a package output;
nothing in the package, the CLI, the demos or the benchmark calls them.
Not a test module: pytest collects only `test_*.py`, and the test modules
import this one from their own directory.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cache
from math import gcd, lcm, prod
from typing import Iterator, Optional

from fanobasket.basket import Basket, PlurigenusSequence, WeightedBasket, f_periodic
from fanobasket.canonical import s_set
from fanobasket.recovery import BUDGET, cost
from fanobasket.reports import ReplayContradiction
from fanobasket.search import ConstraintSet
from fanobasket.wci import WeightedCI


def sigma_prime(basket: Basket) -> Fraction:
    """sigma'(B) = sum of b_i^2 / r_i, exact."""
    return sum((Fraction(n * b * b, r) for (b, r), n in basket.counts()), Fraction(0))


def weighted_basket_from_json(data: dict) -> WeightedBasket:
    """The weighted basket whose `to_json` is data."""
    runs = (((entry["b"], entry["r"]), entry.get("count", 1)) for entry in data["points"])
    return WeightedBasket(Basket.from_counts(runs), data["p1"])


def plurigenera_closed_form(wb: WeightedBasket, upto: int) -> tuple[int, ...]:
    """P_-1 .. P_-upto by the closed Riemann-Roch form, stated here in
    Fractions and reading no kernel or table of the package:

        P_-m = m(m+1)(2m+1)/12 (-K^3) + (2m+1) - l(-m),
        -K^3 = 2 p1 + sigma - sigma' - 6,
        l(-m) = sum over the points of sum_{j=1..m} F(jb),

    with F(x) = x̄ (r - x̄) / (2r), x̄ = x mod r.  Oracle for
    `WeightedBasket.plurigenera` and `WeightedBasket.anti_plurigenus`."""
    runs = wb.basket.counts()
    volume = 2 * wb.p1 + sum(n * b for (b, _), n in runs) - sigma_prime(wb.basket) - 6
    values, l_neg = [], Fraction(0)
    for m in range(1, upto + 1):
        l_neg += sum(Fraction(n * (m * b % r) * (r - m * b % r), 2 * r) for (b, r), n in runs)
        value = Fraction(m * (m + 1) * (2 * m + 1), 12) * volume + 2 * m + 1 - l_neg
        if value.denominator != 1:
            raise ValueError(f"P_-{m} of {wb.text()} is {value}, not an integer")
        values.append(value.numerator)
    return tuple(values)


def local_correction_unreduced(b: int, r: int, t: int) -> Fraction:
    """The t-fold variant of `local_correction` for t >= 0.

    Agrees exactly with local_correction(b, r, t mod r): each full period
    contributes (r^2-1)/12 to the sum and the same amount to the linear term.
    """
    if gcd(b, r) != 1:
        raise ValueError(f"b={b} and r={r} must be coprime")
    if t < 0:
        raise ValueError("t must be >= 0")
    total = -Fraction(t * (r * r - 1), 12 * r)
    whole, part = divmod(t, r)
    total += whole * Fraction(r * r - 1, 12)
    for j in range(part):
        total += f_periodic(j * b, r)
    return total


def g_min_bruteforce(b: int, r: int, m: int) -> Fraction:
    """Direct minimum of G over a full period; oracle for `g_min`."""
    l = m % r
    base = sum(f_periodic(j * b, r) for j in range(l + 1))
    return min(
        sum(f_periodic(x + k * b, r) for k in range(l + 1)) - base for x in range(r)
    )


def k1_condition_tabulated(point: tuple[int, int], m: int) -> Optional[bool]:
    """The explicit residue conditions; None when no clause covers m mod r.

    Clauses (any one suffices): m = 0, +-1 (mod r) always; m = -2 needs
    b = floor(r/2); m = 2 needs 3b >= r; m = 3 needs 4b >= r; m = 4 needs
    F(b) >= F(4b) and F(b) + F(2b) >= F(3b) + F(4b).
    """
    b, r = point
    l = m % r
    clauses = []
    if l in (0, 1, (r - 1) % r):
        clauses.append(True)
    if l == (r - 2) % r:
        clauses.append(b == r // 2)
    if l == 2 % r:
        clauses.append(3 * b >= r)
    if l == 3 % r:
        clauses.append(4 * b >= r)
    if l == 4 % r:
        fb, f2, f3, f4 = (f_periodic(k * b, r) for k in (1, 2, 3, 4))
        clauses.append(fb >= f4 and fb + f2 >= f3 + f4)
    if not clauses:
        return None
    return any(clauses)


def l_upper_bound_general(b: int, r: int, n: int) -> bool:
    """Whether sum_{j=1..n} F(jb) <= (r^2 - 1)/(12 r) (n + r/3), exactly;
    for r > 2 the envelope holds for every n >= 0."""
    if r <= 2:
        raise ValueError("the envelope needs r > 2")
    lhs = Basket([(b, r)]).l_neg(n)
    rhs = Fraction(r * r - 1, 12 * r) * (n + Fraction(r, 3))
    return lhs <= rhs


def monomial_count_oracle(wci: WeightedCI, upto: int) -> list[int]:
    """Brute-force coefficients by counting monomials and inclusion-exclusion.

    Counts exponent tuples by explicit recursion; only meant for small
    weights as an independent check on the series arithmetic.
    """

    def counts(weights: tuple[int, ...]) -> list[int]:
        table = [0] * (upto + 1)
        if not weights:
            table[0] = 1
            return table
        head, *rest = weights
        sub = counts(tuple(rest))
        for total in range(upto + 1):
            table[total] = sum(sub[total - k * head] for k in range(total // head + 1))
        return table

    base = counts(wci.weights)
    out = list(base)
    for mask in range(1, 1 << len(wci.degrees)):
        shift = sum(d for i, d in enumerate(wci.degrees) if mask >> i & 1)
        sign = -1 if bin(mask).count("1") % 2 else 1
        for k in range(shift, upto + 1):
            out[k] += sign * base[k - shift]
    return out


def _brute_packings(basket, legal):
    """One-step packings over every pair of expanded points, deduplicated and
    ordered by the expanded point tuple."""
    pts = list(basket)
    found = set()
    for i, j in itertools.combinations(range(len(pts)), 2):
        (b1, r1), (b2, r2) = pts[i], pts[j]
        if legal(b1, r1, b2, r2):
            rest = pts[:i] + pts[i + 1 : j] + pts[j + 1 :]
            found.add(Basket(rest + [(b1 + b2, r1 + r2)]))
    return sorted(found, key=tuple)


def brute_prime_packings(basket, min_r=0):
    return _brute_packings(
        basket, lambda b1, r1, b2, r2: abs(b1 * r2 - b2 * r1) == 1 and r1 + r2 >= min_r
    )


def general_packings(basket):
    """All one-step packings, prime or not.

    A merge whose sum pair has gcd > 1 is only legal between two equal
    points, where the multiple-of-coprime convention makes it a no-op;
    those no-ops are omitted.  Everything else with a non-coprime sum is
    not a packing move at all.
    """
    return _brute_packings(basket, lambda b1, r1, b2, r2: gcd(b1 + b2, r1 + r2) == 1)


def neighbours(fr: tuple[Fraction, ...], frac: Fraction) -> tuple[Fraction, Fraction]:
    """(upper, lower) adjacent members of a truncated S^(n) (`s_set`) around a
    non-member fraction, by bisection of the decreasing tuple; oracle for
    `canonical._neighbours`."""
    lo, hi = 0, len(fr) - 1
    # descending list: find the last index with fr[i] > frac
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if fr[mid] > frac:
            lo = mid
        else:
            hi = mid - 1
    upper = fr[lo]
    if lo + 1 >= len(fr):
        raise ValueError(f"{frac} below the truncation tail {fr[-1]}")
    return upper, fr[lo + 1]


@cache
def _s_set_members(n: int, cap: int) -> tuple[tuple[Fraction, ...], frozenset[Fraction]]:
    """`s_set(n, cap)` and its members as a set, built once per (n, cap)."""
    sset = s_set(n, cap)
    return sset, frozenset(sset)


def unpack_reference(basket: Basket, n: int) -> Basket:
    """B^(n) by splitting every point against the truncated S^(n) of `s_set`,
    its neighbours found by `neighbours`; oracle for `canonical.unpack`.

    A non-member b/r between neighbours q_hi/p_hi > q_lo/p_lo (determinant 1)
    is (r q_hi - b p_hi) copies of the lower one plus (b p_lo - r q_lo) of the
    upper one: both counts are positive and the pairs sum to (b, r).
    """
    sset, members = _s_set_members(n, max(basket.r_max(), 2))
    runs = []
    for (b, r), count in basket.counts():
        frac = Fraction(b, r)
        if frac in members:
            runs.append(((b, r), count))
            continue
        hi, lo = neighbours(sset, frac)
        (qh, ph), (ql, pl) = hi.as_integer_ratio(), lo.as_integer_ratio()
        runs.append(((ql, pl), count * (r * qh - b * ph)))
        runs.append(((qh, ph), count * (b * pl - r * ql)))
    return Basket.from_counts(runs)


def delta_from_f(basket: Basket, m: int) -> int:
    """Delta^m(B) = sum F(b m) - b m (r - b m) / (2r) over the points, from
    `f_periodic` in exact fractions; must be an integer."""
    total = sum((n * (f_periodic(b * m, r) - Fraction(b * m * (r - b * m), 2 * r))
                 for (b, r), n in basket.counts()), Fraction(0))
    if total.denominator != 1:
        raise ValueError(f"Delta^{m} of {basket.text()} is {total}, not an integer")
    return int(total)


def epsilon_n(basket: Basket, n: int) -> int:
    """Number of prime packings between stages n-1 and n of the chain.

    Evaluated as Delta^n(B^(n-1)) - Delta^n(B); stage 4 means stage 0.  Both
    the stage and Delta come from the references above, so no memo of the
    package is read.  Always a non-negative integer.
    """
    if n < 5:
        raise ValueError(f"epsilon_n needs n >= 5, got {n}")
    prev = unpack_reference(basket, n - 1 if n > 5 else 0)
    eps = delta_from_f(prev, n) - delta_from_f(basket, n)
    if eps < 0:
        raise ReplayContradiction(f"epsilon_{n} = {eps} < 0 for {basket.text()}")
    return eps


# the canonical points (b, r), 1 <= b <= r/2 and gcd(b, r) = 1, by r: an index
# r >= 25 alone breaks the 24-budget, since 25 - 1/25 > 24
CANONICAL_POINTS = tuple((b, r) for r in range(2, 25) for b in range(1, r // 2 + 1)
                         if gcd(b, r) == 1)


@cache
def budget_universe() -> dict[Basket, Fraction]:
    """Every basket with sum(r - 1/r) <= 24, the empty one included, mapped to
    its gamma = 24 - sum(r - 1/r), in the order of a depth-first walk over the
    multisets of CANONICAL_POINTS.  The cost r - 1/r is stated in Fractions
    and walked in integer units of this oracle's own lcm(2..24), not through
    `recovery.cost`; built once per process."""
    unit = lcm(*range(2, 25))  # each r divides it, so every cost below is whole
    costs = [int((r - Fraction(1, r)) * unit) for _, r in CANONICAL_POINTS]
    found: dict[Basket, Fraction] = {}

    def walk(start: int, left: int, chosen: list[tuple[int, int]]) -> None:
        found[Basket(chosen)] = Fraction(left, unit)
        for i in range(start, len(CANONICAL_POINTS)):
            if costs[i] > left:
                return  # r - 1/r rises with r
            walk(i, left - costs[i], chosen + [CANONICAL_POINTS[i]])

    walk(0, 24 * unit, [])
    return found


def _values(cs: ConstraintSet, m: int, lo: int, hi: int):
    """P_{-m} as pinned by `cs`, else every value in [lo, hi]."""
    return [cs.p_exact[m]] if m in cs.p_exact else range(lo, hi + 1)


def unpruned_heads(cs: ConstraintSet) -> Iterator[PlurigenusSequence]:
    """(P_-1, P_-2, P_-3, P_-4) over ranges, a second route to the heads of
    `search._heads`: count non-negativity and the 24-budget bound each of
    sigma, n_{1,2} and n_{1,3} on its own, and no head is checked whole."""
    p1 = cs.p_exact[1]
    n_max = BUDGET // cost(2)
    p2_hi = n_max - 10 + 5 * p1  # sigma = 10 - 5 P_-1 + P_-2
    p2_hi = min(p2_hi, cs.p_max.get(2, p2_hi))
    for p2 in _values(cs, 2, max(0, 5 * p1 - 10, cs.p_min.get(2, 0)), p2_hi):
        p3_hi = 5 - 6 * p1 + 4 * p2  # n_{1,2} = p3_hi - P_-3
        for p3 in _values(cs, 3, max(0, p3_hi - n_max), p3_hi):
            p4_hi = 4 - 2 * p1 - 2 * p2 + 3 * p3  # n_{1,3} = p4_hi - P_-4
            for p4 in _values(cs, 4, max(0, p4_hi - BUDGET // cost(3)), p4_hi):
                yield PlurigenusSequence((p1, p2, p3, p4))


# prime powers s with s - 1/s <= 24 (25 = 5^2 already exceeds the budget)
PRIME_POWERS = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23)


def prime_power_sets() -> list[tuple[int, ...]]:
    """Every non-empty set of distinct PRIME_POWERS whose total cost is at
    most BUDGET, sorted: the prime-power route to the index bound.  By
    `prime_power_reduction_holds` these sets reach every lcm the raw index
    sets reach; oracle for `indexbound._index_sets` and `max_index_report`."""
    found: list[tuple[int, ...]] = []

    def rec(idx: int, remaining: int, chosen: tuple[int, ...]) -> None:
        for i in range(idx, len(PRIME_POWERS)):
            c = cost(PRIME_POWERS[i])
            if c <= remaining:
                found.append((*chosen, PRIME_POWERS[i]))
                rec(i + 1, remaining - c, found[-1])

    rec(0, BUDGET, ())
    return sorted(found)


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


def prime_power_reduction_holds(r: int) -> bool:
    """`prime_power_parts(r)` are pairwise coprime members of PRIME_POWERS
    with product r, and splitting off the first part does not raise the
    budget (`coprime_split_inequality`; the rest is a smaller r).  Over
    r = 2..24 this splits every index set into a set of prime powers with the
    same lcm and no larger cost."""
    parts = prime_power_parts(r)
    rest = r // parts[0]
    return (prod(parts) == r and set(parts) <= set(PRIME_POWERS)
            and all(gcd(a, b) == 1 for a, b in itertools.combinations(parts, 2))
            and (rest == 1 or coprime_split_inequality(parts[0], rest)))

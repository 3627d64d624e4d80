"""Arithmetic criteria deciding when |-mK| maps to something bigger than a curve.

Three independent tools live here.

* The per-point criterion: for one orbifold point (b, r) and a degree m, the
  periodic sum G(x) = sum_{j<=l} F(x + jb) - sum_{j<=l} F(jb) with l = m mod r
  must be non-negative everywhere; its minimum over a period is attained at
  the end points -jb, j = 0..l.  This generalizes the classical residue
  conditions for m mod r in {0, +-1, +-2, 3, 4}.

* The doubling thresholds n0 and l0 read off a plurigenus sequence along
  multiples of a base degree.

* The growth thresholds: P_{-m} > r_X (-K^3) m + 1 certifies "not composed
  with a pencil" (`growth_bounds` states it once, in integers), and two
  explicit lower-bound regimes make the inequality effective (a general one
  driven by a tunable rational t, and a sharper one for Gorenstein index 840).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, lru_cache
from itertools import accumulate
from math import ceil, gcd, isqrt
from typing import NamedTuple, Optional, Sequence

from .basket import Basket, PlurigenusSequence, WeightedBasket, _residues
from .reports import require


def g_min(b: int, r: int, m: int) -> Fraction:
    """min over all integers x of G(x), by end-point reduction.

    G is periodic piecewise quadratic with negative leading coefficients,
    so the minimum sits on the end-point set {nr - jb}; it suffices to
    scan x = -jb for j = 0..(m mod r).  Scaled by 2r, G(-jb) slides a window
    of the residue table w_i = u(r - u), u = ib mod r, from i = 0..l to
    -j..l-j; w_{-i} = w_i.  The memo `_g_min_residue` holds the integer
    2r min G keyed by (b, r, m mod r); `k1_all_points` reads its sign, and
    only this function builds a Fraction.  The first call per (b, r) caches
    the whole r-entry residue table, O(r) time and memory even for a small
    l.  This package calls it only on baskets with r <= 24.
    """
    if r < 2 or m < 1 or gcd(b, r) != 1 or not 0 < 2 * b <= r:
        raise ValueError(f"need canonical (b, r) and m >= 1, got ({b},{r}), m={m}")
    return Fraction(_g_min_residue(b, r, m % r), 2 * r)


@lru_cache(maxsize=None)
def _g_min_residue(b: int, r: int, l: int) -> int:
    w = _residues(b, r)
    window = (w[j] - w[l + 1 - j] for j in range(1, l + 1))
    return min(accumulate(window, initial=0))


def k1_condition(point: tuple[int, int], m: int) -> bool:
    """True iff the local criterion holds at this point for degree m."""
    b, r = point
    return g_min(b, r, m) >= 0


def k1_all_points(basket: Basket, m: int) -> bool:
    """`k1_condition` at every point; a `Basket` holds canonical points only."""
    runs = basket.counts()
    if runs and m < 1:
        g_min(*runs[0][0], m)  # raises g_min's ValueError
    return all(_g_min_residue(b, r, m % r) >= 0 for (b, r), _ in runs)


class K2Thresholds(NamedTuple):
    n0: int
    l0: int


def k2_thresholds(values: Sequence[int]) -> Optional[K2Thresholds]:
    """(n0, l0) from P_{-m}, P_{-2m}, ... ; None when the horizon is too short.

    n0 is the least n with P_{-nm} >= 2; writing l = s n0 + t with
    0 <= t < n0, l0 is the least l >= n0 with P_{-lm} > s + 1.
    """
    n0 = next((k for k, v in enumerate(values, start=1) if v >= 2), None)
    if n0 is None:
        return None
    for l in range(n0, len(values) + 1):
        s = l // n0
        if values[l - 1] > s + 1:
            return K2Thresholds(n0, l)
    return None


NOT_PENCIL = "NotPencil"
POSSIBLY_PENCIL = "PossiblyPencil"


class PencilVerdict(NamedTuple):
    m: int
    verdict: str
    witness: Optional[str] = None


class PencilScan(NamedTuple):
    verdicts: tuple[PencilVerdict, ...]
    first_not_pencil: Optional[int]
    seq: PlurigenusSequence  # P_{-1}..P_{-horizon}
    bounds: list[int]        # `growth_bounds` for m = 0..horizon


def growth_bounds(wb: WeightedBasket, upto: int) -> list[int]:
    """r_X (-K^3) m + 1 for m = 0..upto, in integers.

    The growth criterion P_{-m} > r_X (-K^3) m + 1 certifies that |-mK| is
    not composed with a pencil.  r_X (-K^3) is the volume scaled by L = r_X,
    an integer, so every caller compares P_{-m} with these bounds exactly.
    """
    slope = wb._scaled_volume()
    return [slope * m + 1 for m in range(upto + 1)]


def non_pencil_threshold(wb: WeightedBasket, horizon: int) -> PencilScan:
    """Per-degree verdicts of P_{-m} > r_X (-K^3) m + 1, exact."""
    if wb._scaled_volume() <= 0:  # L (-K^3), of the volume's sign since L >= 1
        raise ValueError("the growth criterion needs positive volume")
    seq = wb.plurigenera(horizon)
    bounds = growth_bounds(wb, horizon)
    verdicts = tuple(
        PencilVerdict(m, NOT_PENCIL, f"P_-{m} = {p} > {bound}")
        if p > bound else PencilVerdict(m, POSSIBLY_PENCIL)
        for m, p, bound in zip(range(1, horizon + 1), seq.values, bounds[1:])
    )
    first = next((v.m for v in verdicts if v.verdict == NOT_PENCIL), None)
    return PencilScan(verdicts, first, seq, bounds)


def thm1_threshold_from_bounds(r_x: int, vol_lower: Fraction, r_max: int, t: Fraction) -> int:
    """Least m with m >= 37, m >= r_max t / 3 and m^2 >= 6 r_X + 12/(t (-K^3)),
    on one basket's r_X, -K^3 and r_max or on case-wide caps of them (an
    upper bound on r_X and r_max, a lower bound on -K^3).

    Beyond the threshold the anti-plurigenus satisfies
    P_{-m} >= r_X (-K^3) m + 2, hence |-mK| is not composed with a pencil.
    With q = 6 r_X + 12/(t (-K^3)), m^2 >= q holds iff m^2 >= ceil(q), so the
    least such m is isqrt(ceil(q) - 1) + 1; that needs q > 0, hence r_X >= 1.
    """
    t = Fraction(t)
    if not 0 < t <= 37:
        raise ValueError(f"t must lie in (0, 37], got {t}")
    if vol_lower <= 0:
        raise ValueError("need a positive volume lower bound")
    if r_x < 1:
        raise ValueError(f"r_X must be >= 1, got {r_x}")
    return max(
        37,
        ceil(r_max * t / 3),
        isqrt(ceil(6 * r_x + 12 / (t * vol_lower)) - 1) + 1,
    )


L840_SLOPE = Fraction(19907, 10080)
L840_OFFSET = Fraction(295, 72)
L840_HORIZON = 150  # the last degree of the index-840 check


def _rise_840(m: int) -> int:
    """What a unit of p1 adds to P_{-m} - 840 (-K^3) m at index 840."""
    return m * (m + 1) * (2 * m + 1) // 6 - 1680 * m


@cache
def _degrees_840() -> tuple[tuple[int, int, int], ...]:
    """(m, `_rise_840`(m), m(m+1)(2m+1)) for m = 71..L840_HORIZON, each rise
    required positive; built once per process, since no basket and no
    constant of the envelope enters them."""
    rows = []
    for m in range(71, L840_HORIZON + 1):
        require((rise := _rise_840(m)) > 0, f"840 check: margin falls with p1 at m = {m}")
        rows.append((m, rise, m * (m + 1) * (2 * m + 1)))
    return tuple(rows)


def thm2_check_840(basket: Basket) -> Optional[int]:
    """The least weight p1 under which a basket meets the index-840 growth
    regime on degrees 71..L840_HORIZON, or None when its l(-m) envelope fails.

    Requires Gorenstein index exactly 840.  The regime is the growth criterion
    P_{-m} > `growth_bounds`[m] and the envelope l(-m) <= 19907 m / 10080 + 295/72,
    compared exactly on 12 * 840 l(-m), read off P_{-m} by Riemann-Roch, times
    the denominators of L840_SLOPE and L840_OFFSET.  Both are read at p1 = 0:
    l(-m) does not depend on p1, and the growth margin rises by `_rise_840` > 0
    per unit of p1, so the regime holds exactly from the least weight on."""
    if basket.gorenstein_index() != 840:
        raise ValueError("this regime is specific to Gorenstein index 840")
    at_zero = WeightedBasket(basket, 0)
    p0, bounds = at_zero.plurigenera(L840_HORIZON).values, growth_bounds(at_zero, L840_HORIZON)
    vol_840 = at_zero._scaled_volume()
    (sn, sd), (on, od) = L840_SLOPE.as_integer_ratio(), L840_OFFSET.as_integer_ratio()
    least = 0
    for m, rise, cubic in _degrees_840():
        # the margin P_{-m} - bounds[m] gains rise per unit of p1
        least = max(least, (bounds[m] - p0[m - 1]) // rise + 1)
        # 12 * 840 l(-m) = m(m+1)(2m+1) 840(-K^3) + 12 * 840 (2m + 1 - P_{-m})
        twelve_l = cubic * vol_840 + 12 * 840 * (2 * m + 1 - p0[m - 1])
        if twelve_l * sd * od > 12 * 840 * (sn * m * od + on * sd):
            return None
    return least

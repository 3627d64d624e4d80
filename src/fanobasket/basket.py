"""Baskets of terminal cyclic quotient singularities and their exact arithmetic.

A basket is a finite multiset of pairs (b, r) with gcd(b, r) = 1 and
0 < b <= r/2, each pair encoding an orbifold point of type (1/r)(1, -1, b)
on a 3-fold.  Together with a prescribed value of the first anti-plurigenus,
a basket determines every anti-plurigenus P_{-m} through the orbifold
Riemann-Roch formula

    P_{-m} = (1/12) m (m+1) (2m+1) (-K^3) + (2m+1) - l(-m),

where l(-m) sums the periodic local corrections of the orbifold points.
Everything here is exact: all rational quantities are `fractions.Fraction`,
all outputs of the plurigenus maps are integers, and no floating point is
used anywhere.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Iterable, Iterator


class IntegralityFault(ArithmeticError):
    """An exact Riemann-Roch value that should be an integer is not.

    This signals that the weighted basket cannot come from a geometric
    3-fold; callers must see it rather than a silently rounded value.
    """


class BasketParseError(ValueError):
    """Input text does not match the basket grammar."""


def _normalize_pair(b: int, r: int) -> list[tuple[int, int]]:
    """Reduce one raw (b, r) pair to canonical coprime points.

    Reflects b > r/2 to (r-b, r), and expands a pair with gcd k into k
    copies of the reduced pair, following the {(2,4)} = {(1,2),(1,2)}
    convention.  Raises on pairs that cannot be made canonical.
    """
    if r < 2:
        raise ValueError(f"orbifold index r must be >= 2, got ({b}, {r})")
    if b <= 0:
        raise ValueError(f"orbifold weight b must be positive, got ({b}, {r})")
    b %= r
    if b == 0:
        raise ValueError(f"degenerate pair ({b}, {r}): b is a multiple of r")
    if 2 * b > r:
        b = r - b
    k = gcd(b, r)
    b, r = b // k, r // k
    if r < 2:
        raise ValueError(f"degenerate pair: reduces to ({b}, {r}) with r < 2")
    return [(b, r)] * k


_TERM_RE = re.compile(r"^(?:(\d+)x)?\((\d+),(\d+)\)$")


class Basket:
    """A multiset of orbifold points, stored sorted by (r, b).

    Equality and hashing are multiset equality; `text()` is the canonical
    serialization.  Instances are immutable.
    """

    __slots__ = ("_points",)

    def __init__(self, pairs: Iterable[tuple[int, int]] = ()) -> None:
        pts: list[tuple[int, int]] = []
        for b, r in pairs:
            pts.extend(_normalize_pair(b, r))
        pts.sort(key=lambda p: (p[1], p[0]))
        object.__setattr__(self, "_points", tuple(pts))

    @property
    def points(self) -> tuple[tuple[int, int], ...]:
        return self._points

    @staticmethod
    def parse(text: str) -> "Basket":
        """Parse the basket grammar, e.g. ``2x(1,2),3x(2,5),(1,3)``.

        Whitespace is ignored; the empty string denotes the empty basket.
        """
        compact = re.sub(r"\s+", "", text)
        if compact in ("", "{}"):
            return Basket()
        return Basket(_parse_terms(compact))

    def text(self) -> str:
        """Canonical serialization, counts collapsed, sorted by (r, b)."""
        chunks = []
        for (b, r), n in self.counts():
            chunks.append(f"({b},{r})" if n == 1 else f"{n}x({b},{r})")
        return ",".join(chunks)

    def counts(self) -> list[tuple[tuple[int, int], int]]:
        out: list[tuple[tuple[int, int], int]] = []
        for p in self._points:
            if out and out[-1][0] == p:
                out[-1] = (p, out[-1][1] + 1)
            else:
                out.append((p, 1))
        return out

    def to_json(self) -> dict:
        return {"points": [{"b": b, "r": r, "count": n} for (b, r), n in self.counts()]}

    @staticmethod
    def from_json(data: dict) -> "Basket":
        pairs = []
        for entry in data["points"]:
            pairs.extend([(entry["b"], entry["r"])] * entry.get("count", 1))
        return Basket(pairs)

    # --- multiset plumbing -------------------------------------------------

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return iter(self._points)

    def __len__(self) -> int:
        return len(self._points)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Basket) and self._points == other._points

    def __hash__(self) -> int:
        return hash(self._points)

    def __lt__(self, other: "Basket") -> bool:
        return self._points < other._points

    def __repr__(self) -> str:
        return f"Basket[{self.text() or 'empty'}]"

    def replace_pair_with(self, i: int, j: int, merged: tuple[int, int]) -> "Basket":
        """New basket with points at positions i < j replaced by `merged`."""
        pts = list(self._points)
        del pts[j]
        del pts[i]
        pts.append(merged)
        return Basket(pts)

    # --- exact invariants --------------------------------------------------

    def sigma(self) -> int:
        """sigma(B) = sum of the b_i."""
        return sum(b for b, _ in self._points)

    def sigma_prime(self) -> Fraction:
        """sigma'(B) = sum of b_i^2 / r_i, exact."""
        return sum((Fraction(b * b, r) for b, r in self._points), Fraction(0))

    def delta(self, m: int) -> int:
        """Delta^m(B): the defect between reduced and unreduced local sums.

        Always an integer; defined for m >= 2 and identically 0 at m = 2
        for canonical baskets.
        """
        if m < 2:
            raise ValueError(f"delta requires m >= 2, got {m}")
        return sum(_delta_point(b, r, m) for b, r in self._points)

    def gamma(self) -> Fraction:
        """gamma(B) = sum 1/r_i - sum r_i + 24; positive on Q-Fano baskets."""
        total = Fraction(24)
        for _, r in self._points:
            total += Fraction(1, r) - r
        return total

    def l_neg(self, n: int) -> Fraction:
        """l(-n): the periodic orbifold correction entering Riemann-Roch."""
        if n < 0:
            raise ValueError(f"l_neg requires n >= 0, got {n}")
        return sum((_l_point(b, r, n) for b, r in self._points), Fraction(0))

    def gorenstein_index(self) -> int:
        """lcm of the local indices r_i (1 for the empty basket)."""
        return lcm(*(r for _, r in self._points)) if self._points else 1

    def r_max(self) -> int:
        return max((r for _, r in self._points), default=1)


def _parse_terms(compact: str) -> list[tuple[int, int]]:
    pairs: list[tuple[int, int]] = []
    pos = 0
    while pos < len(compact):
        end = compact.find(")", pos)
        if end < 0:
            raise BasketParseError(f"unbalanced parentheses in {compact!r}")
        term = compact[pos : end + 1]
        m = _TERM_RE.match(term)
        if not m:
            raise BasketParseError(f"bad basket term {term!r}")
        count = int(m.group(1)) if m.group(1) else 1
        if count < 1:
            raise BasketParseError(f"bad multiplicity in {term!r}")
        pairs.extend([(int(m.group(2)), int(m.group(3)))] * count)
        pos = end + 1
        if pos < len(compact):
            if compact[pos] != ",":
                raise BasketParseError(f"expected ',' at {compact[pos:]!r}")
            pos += 1
            if pos == len(compact):
                raise BasketParseError("trailing comma")
    return pairs


# --- per-point kernels ------------------------------------------------------


def _delta_point(b: int, r: int, m: int) -> int:
    u = (b * m) % r
    num = u * (r - u) - b * m * (r - b * m)
    q, rem = divmod(num, 2 * r)
    assert rem == 0  # u == bm (mod r) forces divisibility by 2r
    return q


@lru_cache(maxsize=None)
def _l_point_table(b: int, r: int) -> tuple[int, ...]:
    # prefix[k] = 2r * sum_{j=1..k} F(jb), exact integers
    prefix = [0] * r
    acc = 0
    for j in range(1, r):
        u = (j * b) % r
        acc += u * (r - u)
        prefix[j] = acc
    return tuple(prefix)


def _l_point(b: int, r: int, n: int) -> Fraction:
    whole, part = divmod(n, r)
    # one full period of jb(r - jb) over a residue system sums to r(r^2-1)/6,
    # so each period contributes (r^2 - 1)/12 after dividing by 2r
    return Fraction(whole * (r * r - 1), 12) + Fraction(_l_point_table(b, r)[part], 2 * r)


def f_periodic(x: int, r: int) -> Fraction:
    """F(x) = x̄ (r - x̄) / (2r), the period-r local quadratic."""
    if r < 2:
        raise ValueError("r must be >= 2")
    u = x % r
    return Fraction(u * (r - u), 2 * r)


def local_correction(b: int, r: int, i: int) -> Fraction:
    """Local Riemann-Roch correction at a (1/r)(1,-1,b) point, local index i.

    c(i) = -i (r^2 - 1) / (12 r) + sum_{j=0}^{i-1} F(jb), with 0 <= i < r
    and the empty sum convention at i = 0.
    """
    if gcd(b, r) != 1:
        raise ValueError(f"b={b} and r={r} must be coprime")
    if not 0 <= i < r:
        raise ValueError(f"local index {i} out of range [0, {r})")
    total = -Fraction(i * (r * r - 1), 12 * r)
    for j in range(i):
        total += f_periodic(j * b, r)
    return total


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


# --- weighted baskets and plurigenera ----------------------------------------


@dataclass(frozen=True)
class PlurigenusSequence:
    """Integer sequence P_{-1}, P_{-2}, ..."""

    values: tuple[int, ...]

    def __getitem__(self, m: int) -> int:
        if not 1 <= m <= len(self.values):
            raise IndexError(f"P_{{-{m}}} not materialized (length {len(self.values)})")
        return self.values[m - 1]

    def __len__(self) -> int:
        return len(self.values)

    def has(self, m: int) -> bool:
        return 1 <= m <= len(self.values)

    def multiples_of(self, m: int) -> list[int]:
        """P_{-m}, P_{-2m}, ... as far as materialized."""
        return [self.values[k - 1] for k in range(m, len(self.values) + 1, m)]


@dataclass(frozen=True)
class WeightedBasket:
    """A basket weighted by the first anti-plurigenus P̃_{-1}."""

    basket: Basket
    p1: int

    def __post_init__(self) -> None:
        if self.p1 < 0:
            raise ValueError("p1 must be a non-negative integer")

    def volume(self) -> Fraction:
        """-K^3 = 2 P̃_{-1} + sigma - sigma' - 6, exact."""
        return 2 * self.p1 + self.basket.sigma() - self.basket.sigma_prime() - 6

    def anti_plurigenus(self, m: int) -> int:
        """P_{-m} by the closed Riemann-Roch form; exact, integer-checked."""
        if m < 1:
            raise ValueError(f"m must be >= 1, got {m}")
        value = (
            Fraction(m * (m + 1) * (2 * m + 1), 12) * self.volume()
            + (2 * m + 1)
            - self.basket.l_neg(m)
        )
        if value.denominator != 1:
            raise IntegralityFault(
                f"P_{{-{m}}}({self}) = {value} is not an integer"
            )
        return int(value)

    def anti_plurigenus_recursive(self, m: int) -> int:
        """P_{-m} by the increment recursion; must agree with the closed form."""
        if m < 1:
            raise ValueError(f"m must be >= 1, got {m}")
        return self.plurigenera(m)[m]

    def plurigenera(self, upto: int) -> PlurigenusSequence:
        """P_{-1} .. P_{-upto} via the integer increment recursion.

        The increment from m to m+1 is
        (m+1)^2 (-K^3 + sigma')/2 + 2 - (m+1) sigma / 2 - Delta^{m+1},
        and -K^3 + sigma' = 2 p1 + sigma - 6 is an integer, so the whole
        run stays in integer arithmetic.
        """
        sig = self.basket.sigma()
        a = 2 * self.p1 + sig - 6
        values = [self.p1]
        current = self.p1
        for m in range(1, upto):
            k = m + 1
            num = k * k * a - k * sig + 4 - 2 * self.basket.delta(k)
            q, rem = divmod(num, 2)
            if rem:
                raise IntegralityFault(f"non-integral increment at m={k} for {self}")
            current += q
            values.append(current)
        return PlurigenusSequence(tuple(values[:upto]))

    def gorenstein_index(self) -> int:
        return self.basket.gorenstein_index()

    def text(self) -> str:
        return f"({self.basket.text() or 'empty'}; p1={self.p1})"

    def to_json(self) -> dict:
        data = self.basket.to_json()
        data["p1"] = self.p1
        return data

    @staticmethod
    def from_json(data: dict) -> "WeightedBasket":
        return WeightedBasket(Basket.from_json(data), data["p1"])


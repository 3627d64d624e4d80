"""Baskets of terminal cyclic quotient singularities and their exact arithmetic.

A basket is a finite multiset of pairs (b, r) with gcd(b, r) = 1 and
0 < b <= r/2, each pair encoding an orbifold point of type (1/r)(1, -1, b)
on a 3-fold.  Together with a prescribed value of the first anti-plurigenus,
a basket determines every anti-plurigenus P_{-m} through the orbifold
Riemann-Roch formula

    P_{-m} = (1/12) m (m+1) (2m+1) (-K^3) + (2m+1) - l(-m),

where l(-m) sums the periodic local corrections of the orbifold points.
Everything here is exact and free of floating point.  The kernels run in
integers: each point (b, r) has one residue table w_j = u (r - u) with
u = jb mod r, and the sums over a basket are scaled by L = lcm(r_i), so that
L (-K^3), 12 L l(-m) and 2 L (P_{-m} - P_{-(m-1)}) are integers.  Short
P_{-m} tables are sums of per-point integer tables instead, which need no
scale.  A `fractions.Fraction` is built only where a rational value leaves
the API.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, chain, repeat
from math import gcd, lcm
from operator import add, mul
from typing import Iterable, Iterator


class IntegralityFault(ArithmeticError):
    """An exact Riemann-Roch value that should be an integer is not.

    This signals that the weighted basket cannot come from a geometric
    3-fold; callers must see it rather than a silently rounded value.
    """


class BasketParseError(ValueError):
    """Input text does not match the basket grammar."""


def _normalize_pair(b: int, r: int) -> tuple[tuple[int, int], int]:
    """Reduce one raw (b, r) pair to a canonical coprime point and its count.

    Reflects b > r/2 to (r-b, r), and reads a pair with gcd k as k copies of
    the reduced pair, following the {(2,4)} = {(1,2),(1,2)} convention.
    Raises on pairs that cannot be made canonical.
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
    return (b, r), k


Run = tuple[tuple[int, int], int]


def _normalize_runs(runs: Iterable[Run]) -> dict[tuple[int, int], int]:
    """Every canonical point once, with its total count."""
    counts: dict[tuple[int, int], int] = {}
    for (b, r), n in runs:
        if n < 0:
            raise ValueError(f"negative count {n} of ({b}, {r})")
        if n:
            point, k = _normalize_pair(b, r)
            counts[point] = counts.get(point, 0) + n * k
    return counts


def _sorted_runs(counts: dict[tuple[int, int], int]) -> tuple[Run, ...]:
    runs = [run for run in counts.items() if run[1]]  # zero counts drop out
    return tuple(sorted(runs, key=lambda run: (run[0][1], run[0][0])))  # by (r, b)


_TERM_RE = re.compile(r"(?:(\d+)x)?\((\d+),(\d+)\)")
# TERM ("," TERM)*, or nothing: its match is the longest readable prefix
_BASKET_RE = re.compile(rf"(?:{_TERM_RE.pattern}(?:,{_TERM_RE.pattern})*)?")


class Basket:
    """A multiset of orbifold points, stored as runs ((b, r), n) sorted by (r, b).

    Equality and hashing are multiset equality; baskets order like their
    expanded point tuples; `text()` is the canonical serialization.
    Instances are immutable in value.  The memos of r_X, r_X (-K^3) at p1 = 0, the
    text and one P_{-m} table (`WeightedBasket.plurigenera`) take no part in
    comparison, hashing or order, and the text memo holds what `text()` returns.
    """

    __slots__ = ("_runs", "_r_x", "_text", "_volume", "_table")

    def __init__(self, pairs: Iterable[tuple[int, int]] = ()) -> None:
        self._runs = _sorted_runs(_normalize_runs((pair, 1) for pair in pairs)) if pairs else ()
        # the memos; table: (p1, P_{-1}..)
        self._r_x, self._text, self._volume, self._table = None, None, None, (0, ())

    @classmethod
    def from_counts(cls, runs: Iterable[Run]) -> "Basket":
        """n copies of every ((b, r), n), normalized as in `Basket(pairs)`; zero counts dropped."""
        return cls._from_canonical(_normalize_runs(runs))

    @classmethod
    def _from_canonical(cls, counts: dict[tuple[int, int], int]) -> "Basket":
        """n copies of every (b, r): n in `counts`, trusted canonical; zero counts are dropped."""
        basket = cls()  # through __init__, so a hook on it sees every basket made
        basket._runs = _sorted_runs(counts)
        return basket

    @staticmethod
    def parse(text: str) -> "Basket":
        """Parse TERM ("," TERM)*, TERM := [COUNT "x"] "(" B "," R ")", e.g. ``2x(1,2),(2,5)``.

        Whitespace is ignored; the empty string and ``{}`` denote the empty basket.
        """
        compact = re.sub(r"\s+", "", text)
        if compact in ("", "{}"):
            return Basket()
        if not _BASKET_RE.fullmatch(compact):
            rest = compact[_BASKET_RE.match(compact).end():]
            raise BasketParseError(f"cannot read basket text from {rest!r}")
        runs: list[Run] = []
        for count, b, r in _TERM_RE.findall(compact):
            if (n := int(count or 1)) < 1:
                raise BasketParseError(f"bad multiplicity {count}x in {compact!r}")
            runs.append(((int(b), int(r)), n))
        return Basket.from_counts(runs)

    def text(self) -> str:
        """Canonical serialization, counts collapsed, sorted by (r, b)."""
        if self._text is None:
            self._text = ",".join(
                f"({b},{r})" if n == 1 else f"{n}x({b},{r})" for (b, r), n in self._runs
            )
        return self._text

    def counts(self) -> tuple[Run, ...]:
        """The runs ((b, r), n), sorted by (r, b)."""
        return self._runs

    def to_json(self) -> dict:
        return {"points": [{"b": b, "r": r, "count": n} for (b, r), n in self._runs]}

    # --- multiset plumbing -------------------------------------------------

    def __iter__(self) -> Iterator[tuple[int, int]]:
        """Every point, one per copy; for small baskets only."""
        return chain.from_iterable(repeat(point, n) for point, n in self._runs)

    def __len__(self) -> int:
        return sum(n for _, n in self._runs)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Basket) and self._runs == other._runs

    def __hash__(self) -> int:
        return hash(self._runs)

    def __lt__(self, other: "Basket") -> bool:
        """Lexicographic order of the expanded point tuples, read off the runs."""
        a, b = self._runs, other._runs
        i = j = 0
        while i < len(a) and j < len(b):
            (p, n), (q, m) = a[i], b[j]
            if p != q:
                return p < q
            if n < m:  # self moves on to its next point while other repeats p
                return i + 1 == len(a) or a[i + 1][0] < p
            if n > m:
                return j + 1 < len(b) and p < b[j + 1][0]
            i, j = i + 1, j + 1
        return j < len(b)  # a proper prefix is smaller

    def __repr__(self) -> str:
        return f"Basket[{self.text() or 'empty'}]"

    def replace_pair_with(self, i: int, j: int, merged: tuple[int, int]) -> "Basket":
        """A new basket: one point of run i and one of run j != i become `merged`."""
        counts = dict(self._runs)
        for k in (i, j):
            counts[self._runs[k][0]] -= 1
        if counts[self._runs[i][0]] < 0:
            raise ValueError(f"run {i} holds one point, so it cannot give two")
        point, k = _normalize_pair(*merged)  # the {(2,4)} convention: k copies
        counts[point] = counts.get(point, 0) + k
        return Basket._from_canonical(counts)

    # --- exact invariants --------------------------------------------------

    def sigma(self) -> int:
        """sigma(B) = sum of the b_i."""
        return sum(b * n for (b, _), n in self._runs)

    def delta(self, m: int) -> int:
        """Delta^m(B): the defect between reduced and unreduced local sums, summed
        over the points.  An integer for m >= 2, and 0 at m = 2 on canonical baskets."""
        if m < 2:
            raise ValueError(f"delta requires m >= 2, got {m}")
        return sum(n * _delta_point(b, r, m) for (b, r), n in self._runs)

    def gamma(self) -> Fraction:
        """gamma(B) = sum 1/r_i - sum r_i + 24; positive on Q-Fano baskets."""
        total = Fraction(24)
        for (_, r), n in self._runs:
            total += Fraction(n, r) - n * r
        return total

    def l_neg(self, n: int) -> Fraction:
        """l(-n): the periodic orbifold correction entering Riemann-Roch."""
        return Fraction(self._l_neg_scaled(n), 12 * self.gorenstein_index())

    def _l_neg_scaled(self, n: int) -> int:
        """12 L l(-n) as an integer, with L = `gorenstein_index()`."""
        if n < 0:
            raise ValueError(f"l_neg requires n >= 0, got {n}")
        big_l = self.gorenstein_index()
        # one full period of w_j sums to r(r^2-1)/6, so each period
        # contributes (r^2 - 1)/12 after dividing by 2r
        return sum(
            k * (n // r) * (r * r - 1) * big_l
            + 6 * k * (big_l // r) * _l_point_table(b, r)[n % r]
            for (b, r), k in self._runs
        )

    def gorenstein_index(self) -> int:
        """lcm of the local indices r_i (1 for the empty basket)."""
        if self._r_x is None:
            self._r_x = lcm(*(r for (_, r), _ in self._runs))
        return self._r_x

    def r_max(self) -> int:
        return self._runs[-1][0][1] if self._runs else 1

    def _scaled_volume_at_zero(self) -> int:
        """L (-K^3) at p1 = 0 for L = r_X: L (sigma - 6) - sum n b^2 L/r."""
        if self._volume is None:
            big_l = self.gorenstein_index()
            self._volume = big_l * (self.sigma() - 6) - sum(
                n * b * b * (big_l // r) for (b, r), n in self._runs)
        return self._volume


# --- per-point kernels ------------------------------------------------------


@lru_cache(maxsize=None)
def _residues(b: int, r: int) -> tuple[int, ...]:
    # the residue table w_j = u (r - u) = 2r F(jb), u = jb mod r, j = 0..r-1
    return tuple(u * (r - u) for u in (j * b % r for j in range(r)))


def _delta_point(b: int, r: int, m: int) -> int:
    # Delta^m of one point: (w_(m mod r) - bm (r - bm)) / 2r, an integer
    bm = b * m
    q, rem = divmod(_residues(b, r)[m % r] - bm * (r - bm), 2 * r)
    if rem:  # u == bm (mod r) forces divisibility by 2r
        raise IntegralityFault(f"Delta^{m} of ({b}, {r}) is not an integer")
    return q


@lru_cache(maxsize=None)
def _l_point_table(b: int, r: int) -> tuple[int, ...]:
    # prefix[k] = w_0 + ... + w_k = 2r * sum_{j=1..k} F(jb), exact integers
    return tuple(accumulate(_residues(b, r)))


# P_{-m} tables asked to this degree sum per-point integer tables; longer ones
# run the L-scaled recursion, whose per-degree cost does not grow with the points
POINT_HORIZON = 40


@lru_cache(maxsize=64)  # bounded: the weights come from the caller
def _point_free(p1: int) -> tuple[int, ...]:
    # P_{-m} of the empty basket at weight p1, m = 1..POINT_HORIZON at index
    # m - 1: p1 + (p1 - 3)(S2(m) - 1) + 2 (m - 1), S2(m) = m(m+1)(2m+1)/6
    return tuple(p1 + (p1 - 3) * (m * (m + 1) * (2 * m + 1) // 6 - 1) + 2 * (m - 1)
                 for m in range(1, POINT_HORIZON + 1))


@lru_cache(maxsize=None)
def _point_sums(b: int, r: int) -> tuple[int, ...]:
    # T_m = sum_{k=2..m} (k^2 b (r - b) - w_(k mod r)) / 2r, m = 1..POINT_HORIZON
    # at index m - 1: what one point (b, r) adds to P_{-m} at any weight
    w, c, two_r = _residues(b, r), b * (r - b), 2 * r
    sums, total = [0], 0
    for k in range(2, POINT_HORIZON + 1):
        q, rem = divmod(k * k * c - w[k % r], two_r)
        if rem:  # u == kb (mod r) makes every step an integer for coprime (b, r)
            raise IntegralityFault(f"non-integral step at m={k} for ({b}, {r})")
        total += q
        sums.append(total)
    return tuple(sums)


def _summed_residues(runs: tuple[Run, ...], big_l: int, upto: int) -> tuple[int, ...]:
    # c_k = sum n (L/r) w_(k mod r) over the runs, k = 0..upto, for
    # L = big_l = lcm(r_i)
    by_r: dict[int, list[int]] = {}
    for (b, r), n in runs:
        scaled = map((n * (big_l // r)).__mul__, _residues(b, r))
        by_r[r] = list(map(add, by_r[r], scaled) if r in by_r else scaled)
    sums = [0] * (upto + 1)
    for r, acc in by_r.items():  # tile each period-r table over 0..upto
        sums = list(map(add, sums, acc * (upto // r + 1)))
    return tuple(sums)


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


# --- weighted baskets and plurigenera ----------------------------------------


class Record:
    """A slotted record: repr `Name(field=value, ...)`, == and hash, all read
    off the fields its class names in `__slots__`."""

    __slots__ = ()

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._key()))
        return f"{type(self).__name__}({fields})"

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())


class PlurigenusSequence(Record):
    """Integer sequence P_{-1}, P_{-2}, ..."""

    __slots__ = ("values",)

    def __init__(self, values: tuple[int, ...]) -> None:
        self.values = values

    def __getitem__(self, m: int) -> int:
        if not 1 <= m <= len(self.values):
            raise IndexError(f"P_{{-{m}}} not materialized (length {len(self.values)})")
        return self.values[m - 1]

    def __len__(self) -> int:
        return len(self.values)

    def multiples_of(self, m: int) -> list[int]:
        """P_{-m}, P_{-2m}, ... as far as materialized."""
        return [self.values[k - 1] for k in range(m, len(self.values) + 1, m)]


class WeightedBasket(Record):
    """A basket weighted by the first anti-plurigenus P̃_{-1}."""

    __slots__ = ("basket", "p1")

    def __init__(self, basket: Basket, p1: int) -> None:
        if p1 < 0:
            raise ValueError("p1 must be a non-negative integer")
        self.basket, self.p1 = basket, p1

    def volume(self) -> Fraction:
        """-K^3 = 2 P̃_{-1} + sigma - sigma' - 6, exact."""
        return Fraction(self._scaled_volume(), self.basket.gorenstein_index())

    def _scaled_volume(self) -> int:
        """L (-K^3) = L (2 p1 + sigma - 6) - sum n b^2 L/r, for L = r_X, an integer."""
        return self.basket._scaled_volume_at_zero() + 2 * self.p1 * self.basket.gorenstein_index()

    def anti_plurigenus(self, m: int) -> int:
        """P_{-m} by the closed Riemann-Roch form; exact, integer-checked."""
        if m < 1:
            raise ValueError(f"m must be >= 1, got {m}")
        big_l = self.basket.gorenstein_index()
        # 12 L P_{-m} = m(m+1)(2m+1) L(-K^3) + 12 L (2m+1) - 12 L l(-m)
        num = (
            m * (m + 1) * (2 * m + 1) * self._scaled_volume()
            + 12 * big_l * (2 * m + 1)
            - self.basket._l_neg_scaled(m)
        )
        value, rem = divmod(num, 12 * big_l)
        if rem:
            raise IntegralityFault(
                f"P_{{-{m}}}({self}) = {Fraction(num, 12 * big_l)} is not an integer"
            )
        return value

    def plurigenera(self, upto: int) -> PlurigenusSequence:
        """P_{-1} .. P_{-upto}, read off the one table the basket keeps.

        The table holds P_{-1}.. at one weight p1; asked at another weight, it
        is rebuilt, and asked past its length, it grows.  Up to degree
        `POINT_HORIZON` (40) its new entries are sums of per-point integer
        tables, memoised once per point and shared by every basket:
        P_{-m} = p1 + (p1 - 3)(S2(m) - 1) + 2 (m - 1) + sum n T_m(b, r), with
        S2(m) = m(m+1)(2m+1)/6 and T_m(b, r) the sum over k = 2..m of
        (k^2 b (r - b) - w_(k mod r)) / 2r, w the residue table of the point.
        Past that degree a table grows from its last value, or from P_{-1},
        by the integer increment recursion
        2 (P_{-k} - P_{-(k-1)}) = k^2 (-K^3) + 4 - sum n w_(k mod r) / r,
        every term an integer once scaled by L = lcm(r_i): summing per-point
        tables to P_{-200} cost more than the recursion.  Each step of either
        route is integer-checked, and a build that faults keeps nothing new.
        """
        upto = max(upto, 0)
        weight, values = self.basket._table
        if weight != self.p1 or upto > len(values):
            if weight != self.p1:
                values = ()
            if upto <= POINT_HORIZON:
                values += self._point_summed(len(values), upto)
            else:
                values = self._recursed(values or (self.p1,), upto)
            self.basket._table = self.p1, values
        return PlurigenusSequence(values[:upto])

    def _recursed(self, values: tuple[int, ...], upto: int) -> tuple[int, ...]:
        """`values`, P_{-1}.., grown to P_{-upto} by the L-scaled recursion."""
        big_l = self.basket.gorenstein_index()
        vol = self._scaled_volume()
        corr = _summed_residues(self.basket.counts(), big_l, upto)
        two_l, four_l = 2 * big_l, 4 * big_l
        grown, current = list(values), values[-1]
        for k in range(len(values) + 1, upto + 1):
            q, rem = divmod(k * k * vol + four_l - corr[k], two_l)
            if rem:
                raise IntegralityFault(f"non-integral increment at m={k} for {self}")
            current += q
            grown.append(current)
        return tuple(grown)

    def _point_summed(self, start: int, upto: int) -> tuple[int, ...]:
        """P_{-(start+1)} .. P_{-upto} from the per-point tables, upto <= POINT_HORIZON."""
        sums = _point_free(self.p1)[start:upto]
        for (b, r), n in self.basket.counts():
            share = _point_sums(b, r)[start:upto]
            sums = map(add, sums, map(mul, share, repeat(n)) if n > 1 else share)
        return tuple(sums)

    def gorenstein_index(self) -> int:
        return self.basket.gorenstein_index()

    def text(self) -> str:
        return f"({self.basket.text() or 'empty'}; p1={self.p1})"

    def to_json(self) -> dict:
        data = self.basket.to_json()
        data["p1"] = self.p1
        return data


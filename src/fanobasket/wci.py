"""Hilbert series of weighted complete intersections, as an independent oracle.

The series of X_{d_1..d_c} in P(a_0..a_n) is prod(1 - t^d) / prod(1 - t^a);
for a family with Fano index iota = sum(a) - sum(d) >= 1 the anti-plurigenus
P_{-m} is the coefficient at degree m iota.  Fitting a weighted basket whose
Riemann-Roch output matches all provided coefficients turns the series into a
cross-check on everything upstream: the match forces the volume, which for a
general hypersurface equals d iota^3 / prod(a).
"""

from __future__ import annotations

from fractions import Fraction
from math import prod

from .basket import PlurigenusSequence, Record, WeightedBasket
from .search import candidates


class WeightedCI(Record):
    __slots__ = ("weights", "degrees")

    def __init__(self, weights: tuple[int, ...], degrees: tuple[int, ...]) -> None:
        if not weights or any(a < 1 for a in weights):
            raise ValueError("weights must be positive")
        if any(d < 1 for d in degrees):
            raise ValueError("degrees must be positive")
        self.weights, self.degrees = weights, degrees

    @property
    def fano_index(self) -> int:
        return sum(self.weights) - sum(self.degrees)

    def hypersurface_volume(self) -> Fraction:
        """prod(d) iota^3 / prod(a), the general-member anti-canonical degree."""
        return Fraction(prod(self.degrees) * self.fano_index**3, prod(self.weights))


def hilbert_coeffs(wci: WeightedCI, upto: int) -> list[int]:
    """Series coefficients c_0..c_upto of prod(1-t^d)/prod(1-t^a), exact."""
    if upto < 0:
        raise ValueError("upto must be >= 0")
    coeffs = [0] * (upto + 1)
    coeffs[0] = 1
    for d in wci.degrees:  # multiply by (1 - t^d)
        for k in range(upto, d - 1, -1):
            coeffs[k] -= coeffs[k - d]
    for a in wci.weights:  # divide by (1 - t^a)
        for k in range(a, upto + 1):
            coeffs[k] += coeffs[k - a]
    return coeffs


def anti_plurigenera_from_hilbert(wci: WeightedCI, upto_m: int) -> PlurigenusSequence:
    """P_{-1}..P_{-upto_m}, read off at degrees m * iota."""
    iota = wci.fano_index
    if iota < 1:
        raise ValueError("anti-plurigenus extraction needs Fano index >= 1")
    coeffs = hilbert_coeffs(wci, upto_m * iota)
    return PlurigenusSequence(tuple(coeffs[m * iota] for m in range(1, upto_m + 1)))


def fit_basket(p: PlurigenusSequence) -> list[WeightedBasket]:
    """The weak (gamma >= 0) `candidates` of p that Riemann-Roch maps to p, sorted.

    The candidates are the prime-packing closures of the feasible tails of
    one head (P_{-1}..P_{-4}), so the 24-budget bounds the search.  Sequences
    of length >= 8 are recommended; the longer the sequence, the tighter the
    fit.
    """
    if len(p) < 5:
        raise ValueError("need at least P_{-1}..P_{-5} to anchor a fit")
    fits = [wb for wb in candidates(p, False) if wb.plurigenera(len(p)).values == p.values]
    return sorted(fits, key=lambda w: w.basket)


# the named families realized as fixtures: general hypersurfaces and one
# codimension-two intersection, plus the twelve X_{6d} in P(1,a,b,2d,3d)
X66 = WeightedCI((1, 5, 6, 22, 33), (66,))
X42 = WeightedCI((1, 1, 6, 14, 21), (42,))
X24_30 = WeightedCI((1, 8, 9, 10, 12, 15), (24, 30))
X19 = WeightedCI((1, 3, 4, 5, 7), (19,))

X6D_PAIRS: tuple[tuple[int, int], ...] = (
    (1, 1),
    (1, 2),
    (1, 3),
    (1, 4),
    (2, 3),
    (1, 5),
    (1, 6),
    (2, 5),
    (3, 4),
    (3, 5),
    (4, 5),
    (5, 6),
)


def x6d_member(a: int, b: int) -> WeightedCI:
    d = a + b
    return WeightedCI((1, a, b, 2 * d, 3 * d), (6 * d,))

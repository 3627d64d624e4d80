"""Reference tables: the 23 baskets with P_{-1} = P_{-2} = 0, and the degree
choices driving the image-dimension analysis for the P_{-1} = 0 families.

The 23-row table is golden data (volume and P_{-3}..P_{-8} per row); the
enumeration engine re-derives it from scratch and the acceptance suite checks
both directions.  The degree tables record, per basket, the base degree m fed
into the local criterion and the resulting degree m1 at which the
anti-canonical image has dimension > 1.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple


class TableRow(NamedTuple):
    no: int
    basket: str
    volume: Fraction
    p3_to_p8: tuple[int, int, int, int, int, int]
    m_choice: int
    m1: int


P1_P2_ZERO_TABLE: tuple[TableRow, ...] = (
    TableRow(1, "2x(1,2),(1,3),(1,4),3x(2,5)", Fraction(1, 60), (0, 0, 1, 1, 1, 2), 5, 10),
    TableRow(2, "5x(1,2),2x(1,3),(1,4),(2,7)", Fraction(1, 84), (0, 1, 0, 1, 1, 2), 11, 11),
    TableRow(3, "5x(1,2),2x(1,3),(3,11)", Fraction(1, 66), (0, 1, 0, 1, 1, 2), 10, 10),
    TableRow(4, "5x(1,2),(1,3),(1,4),(3,10)", Fraction(1, 60), (0, 1, 0, 1, 1, 2), 11, 11),
    TableRow(5, "5x(1,2),(1,3),2x(2,7)", Fraction(1, 42), (0, 1, 0, 1, 2, 3), 8, 8),
    TableRow(6, "4x(1,2),2x(1,3),2x(1,4),(2,5)", Fraction(1, 30), (0, 1, 1, 2, 2, 4), 8, 8),
    TableRow(7, "3x(1,2),5x(1,3),(2,5)", Fraction(1, 30), (1, 1, 1, 3, 3, 4), 3, 6),
    TableRow(8, "2x(1,2),5x(1,3),(3,7)", Fraction(1, 21), (1, 1, 1, 3, 4, 5), 3, 6),
    TableRow(9, "(1,2),5x(1,3),(4,9)", Fraction(1, 18), (1, 1, 1, 3, 4, 5), 3, 6),
    TableRow(10, "3x(1,2),4x(1,3),(3,8)", Fraction(1, 24), (1, 1, 1, 3, 3, 5), 3, 6),
    TableRow(11, "3x(1,2),3x(1,3),(4,11)", Fraction(1, 22), (1, 1, 1, 3, 3, 5), 3, 6),
    TableRow(12, "3x(1,2),2x(1,3),(5,14)", Fraction(1, 21), (1, 1, 1, 3, 3, 5), 3, 6),
    TableRow(13, "2x(1,2),4x(1,3),2x(2,5)", Fraction(1, 15), (1, 1, 2, 4, 5, 7), 3, 6),
    TableRow(14, "(1,2),4x(1,3),(2,5),(3,7)", Fraction(17, 210), (1, 1, 2, 4, 6, 8), 3, 6),
    TableRow(15, "2x(1,2),3x(1,3),(2,5),(3,8)", Fraction(3, 40), (1, 1, 2, 4, 5, 8), 3, 6),
    TableRow(16, "2x(1,2),3x(1,3),(5,13)", Fraction(1, 13), (1, 1, 2, 4, 5, 8), 3, 6),
    TableRow(17, "(1,2),3x(1,3),3x(2,5)", Fraction(1, 10), (1, 1, 3, 5, 7, 10), 3, 6),
    TableRow(18, "4x(1,2),5x(1,3),(1,4)", Fraction(1, 12), (1, 2, 2, 5, 6, 9), 3, 6),
    TableRow(19, "4x(1,2),4x(1,3),(2,7)", Fraction(2, 21), (1, 2, 2, 5, 7, 10), 3, 6),
    TableRow(20, "4x(1,2),3x(1,3),(3,10)", Fraction(1, 10), (1, 2, 2, 5, 7, 10), 3, 6),
    TableRow(21, "3x(1,2),4x(1,3),(1,4),(2,5)", Fraction(7, 60), (1, 2, 3, 6, 8, 12), 3, 6),
    TableRow(22, "3x(1,2),7x(1,3)", Fraction(1, 6), (2, 3, 4, 9, 12, 17), 3, 6),
    TableRow(23, "2x(1,2),6x(1,3),(2,5)", Fraction(1, 5), (2, 3, 5, 10, 14, 20), 3, 6),
)

# the four open types plus the six upgraded ones; degrees 10/10/10/10, 8x4, <=6 x2
EXCEPTIONAL_TYPES: dict[str, str] = {
    "2x(1,2),(1,3),(1,4),3x(2,5)": "No.1",
    "5x(1,2),2x(1,3),(1,4),(2,7)": "No.2",
    "5x(1,2),2x(1,3),(3,11)": "No.3",
    "5x(1,2),(1,3),(1,4),(3,10)": "No.4",
    "7x(1,2),(1,5),(3,7)": "No.A",
    "6x(1,2),(1,5),(4,9)": "No.B",
    "5x(1,2),(1,5),(5,11)": "No.C",
    "4x(1,2),(1,5),(6,13)": "No.D",
    "7x(1,2),(1,5),(3,8)": "No.E",
    "5x(1,2),(1,3),(1,5),(4,9)": "No.F",
}

# base degree m per basket for the P_{-1} = 0, P_{-2} > 0 family; baskets of
# the sigma5 = 0 sub-family all use m = 3 and are not listed.
P1_ZERO_CASE2_M: dict[str, int] = {
    "9x(1,2),2x(1,5)": 5,
    "11x(1,2),(1,3),(1,5)": 4,
    "12x(1,2),(1,5)": 5,
    "12x(1,2),(1,6)": 5,
    "9x(1,2),2x(1,3),(1,5)": 4,
    "10x(1,2),(1,4),(1,5)": 4,
    "10x(1,2),(2,9)": 8,
    "10x(1,2),(1,3),(1,6)": 5,
    "10x(1,2),(1,3),(1,5)": 6,
    "9x(1,2),(1,5),(2,5)": 6,
    "8x(1,2),(1,5),(3,7)": 6,
    "11x(1,2),(1,5)": 6,
    "11x(1,2),(1,6)": 6,
    "11x(1,2),(1,7)": 6,
    "7x(1,2),3x(1,3),(1,5)": 4,
    "6x(1,2),2x(1,3),(1,5),(2,5)": 4,
    "8x(1,2),(1,3),(1,4),(1,5)": 4,
    "8x(1,2),(1,5),(2,7)": 6,
    "8x(1,2),(1,3),(2,9)": 8,
    "7x(1,2),(1,4),(1,5),(2,5)": 4,
    "8x(1,2),2x(1,3),(1,6)": 5,
    "7x(1,2),(1,3),(2,5),(1,6)": 5,
    "8x(1,2),2x(1,3),(1,5)": 6,
    "7x(1,2),(1,3),(1,5),(2,5)": 6,
    "6x(1,2),(1,5),2x(2,5)": 6,
    "6x(1,2),(1,3),(1,5),(3,7)": 6,
    "5x(1,2),(1,3),(1,5),(4,9)": 9,
    "7x(1,2),(1,5),(3,8)": 9,
    "5x(1,2),(1,5),(2,5),(3,7)": 6,
    "9x(1,2),(1,4),(1,6)": 7,
    "9x(1,2),(1,4),(1,5)": 4,
    "9x(1,2),(2,9)": 8,
    "9x(1,2),(1,3),(1,7)": 8,
    "8x(1,2),(2,5),(1,7)": 8,
    "8x(1,2),(2,5),(1,6)": 7,
    "7x(1,2),(1,6),(3,7)": 7,
    "6x(1,2),(1,6),(4,9)": 7,
    "7x(1,2),(1,5),(3,7)": 9,
    "6x(1,2),(1,5),(4,9)": 9,
    "5x(1,2),(1,5),(5,11)": 9,
    "4x(1,2),(1,5),(6,13)": 11,
}

"""When does |-mK| stop mapping to a curve?

Three tools: the per-point local criterion (reduced to end-point checks of a
periodic quadratic), the doubling thresholds n0/l0 along multiples of a base
degree, and the exact growth criterion P_-m > r_X (-K^3) m + 1.
"""

from fractions import Fraction

from fanobasket.basket import Basket, WeightedBasket
from fanobasket.pencil import (
    g_min,
    k1_condition,
    k2_thresholds,
    non_pencil_threshold,
    thm1_threshold_from_bounds,
)

print("local criterion at degree m = 3:")
for pt in [(1, 3), (2, 5), (1, 5), (2, 7)]:
    print(f"  point {pt}: g_min = {g_min(*pt, 3)}  ->  {k1_condition(pt, 3)}")

wb = WeightedBasket(Basket.parse("2x(1,2),(2,5),(3,7),(4,9)"), 0)
seq = wb.plurigenera(61)
print(f"\nindex-630 basket: -K^3 = {wb.volume()}, P_-4 = {seq[4]} (a pencil)")
print("doubling thresholds along multiples of 4:",
      k2_thresholds(seq.multiples_of(4)))
scan = non_pencil_threshold(wb, 61)
print(f"growth criterion first fires at m = {scan.first_not_pencil}: "
      f"{scan.verdicts[scan.first_not_pencil - 1].witness}")
print(f"at m = 61: {scan.verdicts[60].witness}")

print("\nuniform growth threshold with t = 8 on the same basket:",
      thm1_threshold_from_bounds(wb.gorenstein_index(), wb.volume(), wb.basket.r_max(),
                                 Fraction(8)))

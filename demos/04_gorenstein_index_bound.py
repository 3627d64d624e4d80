"""Brute-forcing the Gorenstein index bound.

The budget sum (r - 1/r) <= 24 caps everything.  An index r >= 25 alone
breaks it, and a repeated index costs budget without changing the lcm, so
the global maximum comes from a finite search over sets of distinct indices
in 2..24: 840, attained exactly by {3,5,7,8} and {2,3,5,7,8}, with nothing
between 660 and 840.
"""

from fanobasket.indexbound import (
    attainable_indices,
    max_index_given_rmax,
    max_index_report,
)

report = max_index_report()
print(f"maximum lcm under the 24-budget: {report.max_lcm}")
print("witnesses:", ", ".join("{" + ",".join(map(str, w)) + "}" for w in report.witnesses))
print(f"largest value below it: {report.second_max}")

print("\nper-r_max maxima (raw index sets):")
for r in range(14, 25):
    print(f"  largest entry {r:>2}: max lcm = {max_index_given_rmax(r)}")

print("\nwith a forced index 2 and largest entry 9, the attainable values are")
values = attainable_indices(9, must_contain=(2,))
print(" ", sorted(values))
print("  (everything is <= 360 except the isolated 630)")

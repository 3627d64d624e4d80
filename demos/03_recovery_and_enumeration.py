"""From plurigenus constraints back to baskets, and the 23-row table.

The multiplicities of the stage-0 basket are integer-linear in the first few
anti-plurigenera once the tail counts are chosen; enumerating the finitely
many feasible tails and closing under prime packings turns plurigenus
constraints into complete basket lists.  With P_-1 = P_-2 = 0 the survivors
are exactly the 23 tabulated baskets.
"""

from fanobasket.basket import PlurigenusSequence
from fanobasket.cli import render_enumeration, table_rows
from fanobasket.recovery import feasible_tails, structural_tail

ladder = PlurigenusSequence((2, 3, 4, 5, 6, 7))
print("P_-1..P_-6 = 2..7: the feasible tails are")
for data in feasible_tails(ladder):
    tail = structural_tail(data.basket0)
    print(f"  sigma5={sum(tail.values())} tail={tuple(sorted(tail.items()))}:"
          f" stage-0 basket {data.basket0.text()}")

print("\nenumerating all geometric baskets with P_-1 = P_-2 = 0:")
survivors = table_rows()  # the P_-1 = 0 replay enumerates them and checks each row
print(render_enumeration(survivors))
print(f"({len(survivors)} baskets)")

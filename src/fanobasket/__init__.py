"""Exact combinatorics of singularity baskets on (weak) Q-Fano 3-folds.

The package computes anti-plurigenera from baskets of terminal quotient
singularities by orbifold Riemann-Roch, manipulates baskets through the
packing partial order and its canonical unpacking chain, inverts the
plurigenus map, enumerates geometric baskets under exact constraints,
brute-forces the Gorenstein index bound, evaluates the non-pencil and
birationality threshold criteria, and cross-checks everything against
Hilbert series of weighted complete intersections.
"""

from .basket import (
    Basket,
    BasketParseError,
    IntegralityFault,
    PlurigenusSequence,
    WeightedBasket,
    local_correction,
)
from .canonical import (
    canonical_chain,
    dominated_baskets,
    minimal_baskets,
    prime_packings,
    s_set,
    unpack,
)
from .indexbound import max_index_given_rmax, max_index_report
from .pencil import g_min, k1_condition, k2_thresholds, non_pencil_threshold
from .recovery import feasible_tails, recover
from .reports import ReplayContradiction
from .search import (
    ConstraintSet,
    enumerate_geometric,
    is_geometric_candidate,
    replay_delta1,
)
from .birational import (
    BirationalityInputs,
    replay_birationality,
    thm_main_threshold,
)
from .wci import WeightedCI, anti_plurigenera_from_hilbert, fit_basket, hilbert_coeffs

__all__ = [
    "Basket",
    "BasketParseError",
    "BirationalityInputs",
    "ConstraintSet",
    "IntegralityFault",
    "PlurigenusSequence",
    "ReplayContradiction",
    "WeightedBasket",
    "WeightedCI",
    "anti_plurigenera_from_hilbert",
    "canonical_chain",
    "dominated_baskets",
    "enumerate_geometric",
    "feasible_tails",
    "fit_basket",
    "g_min",
    "hilbert_coeffs",
    "is_geometric_candidate",
    "k1_condition",
    "k2_thresholds",
    "local_correction",
    "max_index_given_rmax",
    "max_index_report",
    "minimal_baskets",
    "non_pencil_threshold",
    "prime_packings",
    "recover",
    "replay_birationality",
    "replay_delta1",
    "s_set",
    "thm_main_threshold",
    "unpack",
]

__version__ = "0.1.0"

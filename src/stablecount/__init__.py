"""Stable-matching combinatorics: lattices, rotations, and counting.

The package computes stable matchings and their rotation structure,
counts and enumerates stable matchings through the downset bijection,
builds instances from geometric preference models with rational
coordinates, compared exactly as integers, and generates count-preserving
instances from bipartite graphs (so counting stable matchings is as hard
as counting bipartite independent sets — and easy again in the
one-attribute model).
"""

from .core import (
    Instance,
    Matching,
    ParseError,
    Side,
    format_instance,
    format_matching,
    parse_instance,
    parse_matching,
)
from .counting import (
    MEMO_BUDGET,
    BipartiteGraph,
    SizeLimitError,
    count_downsets,
    count_independent_sets,
    count_stable_matchings,
    enumerate_downsets,
    enumerate_stable_matchings,
    format_bipartite,
    matching_from_downset,
    parse_bipartite,
    poset_from_bipartite,
)
from .gale_shapley import blocking_pairs, is_stable, propose_optimal
from .geometry import (
    AttributeSpec,
    EuclideanSpec,
    OneAttributeSpec,
    TieDetected,
    count_1attribute,
    format_geometric,
    induced_instance,
    instance_from_1attribute,
    instance_from_dot,
    instance_from_euclidean,
    parse_geometric,
)
from .reductions import (
    CyclePair,
    ReductionReport,
    build_instance,
    edge_cycles,
    gen_2euclidean,
    gen_3attribute,
    gen_partial_lists,
    read_tau,
    verify_reduction,
)
from .rotations import (
    Poset,
    Rotation,
    RotationPoset,
    find_all_rotations,
    format_rotations,
    hasse_diagram,
    hasse_dot,
    parse_rotation,
    rotation_poset,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"

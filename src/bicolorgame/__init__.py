"""Equivalence classes of edge bicolorings of graphs on orientable surfaces.

Two moves act on an edge bicoloring of a cellularly embedded graph:
switching all non-loop edges at a vertex, and switching the edges that
appear exactly once on a face boundary.  This package counts and
characterizes the resulting equivalence classes by three independent
routes (GF(2) linear algebra, a homology kernel computation, and a
brute-force orbit sweep), traces the strands of the medial graph, and
computes the Bollobás-Riordan-Tutte polynomial that ties them together.
"""

from .brt import (
    TrivariatePolynomial,
    brt_polynomial,
    medial_component_count_via_brt,
    tutte_eval,
    whitney_rank_polynomial,
)
from .embedded import (
    EmbeddedGraph,
    FaceSet,
    format_rotation_system,
    parse_rotation_system,
)
from .errors import (
    EdgeCapError,
    InternalInvariantError,
    InvalidGraphError,
    RotationParseError,
    UnsupportedError,
)
from .gf2 import GF2Matrix
from .homology import (
    HomologyMap,
    TreeCotree,
    class_count_homology,
    fundamental_dual_cycles,
    homology_image,
    strand_kernel_basis,
    strand_kernel_dim,
    tree_cotree,
)
from .medial import MedialComponents, strand_space, trace_medial
from .oracle import OrbitCensus, enumerate_classes, orbit_of
from .representatives import (
    RepresentativeSet,
    planar_representatives,
    verify_representatives,
)
from .spaces import (
    SpaceSummary,
    apply_face_move,
    apply_vertex_move,
    bicycle_space,
    bot_matrix,
    class_count_direct,
    class_exponent,
    class_signature,
    coloring_from_string,
    coloring_to_string,
    cycle_space,
    same_class,
    signature_basis,
    summarize,
)

__version__ = "0.1.0"

__all__ = [
    "EmbeddedGraph",
    "FaceSet",
    "GF2Matrix",
    "HomologyMap",
    "MedialComponents",
    "OrbitCensus",
    "RepresentativeSet",
    "SpaceSummary",
    "TreeCotree",
    "TrivariatePolynomial",
    "apply_face_move",
    "apply_vertex_move",
    "bicycle_space",
    "bot_matrix",
    "brt_polynomial",
    "class_count_direct",
    "class_count_homology",
    "class_exponent",
    "class_signature",
    "coloring_from_string",
    "coloring_to_string",
    "cycle_space",
    "enumerate_classes",
    "format_rotation_system",
    "fundamental_dual_cycles",
    "homology_image",
    "medial_component_count_via_brt",
    "orbit_of",
    "parse_rotation_system",
    "planar_representatives",
    "same_class",
    "signature_basis",
    "strand_kernel_basis",
    "strand_kernel_dim",
    "strand_space",
    "summarize",
    "trace_medial",
    "tree_cotree",
    "tutte_eval",
    "verify_representatives",
    "whitney_rank_polynomial",
    "EdgeCapError",
    "InternalInvariantError",
    "InvalidGraphError",
    "RotationParseError",
    "UnsupportedError",
    "__version__",
]

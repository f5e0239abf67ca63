"""Realizations of 4-regular planar graphs as systems of circles."""

from .coloring import GRAY, WHITE, ILGraph, TwoColoring, build_il, il_simplicity, two_color_faces
from .embedding import (
    EmbeddedGraph,
    build_embedding,
    connectivity_level,
    dual,
    medial,
    subdivide_edges,
)
from .equivalence import (
    OrientedDual,
    RealizationClass,
    classify_octahedron,
    digraph_isomorphic,
    equivalent,
    oriented_dual,
    smooth_degree_two,
)
from .geometry import (
    ArcPairConfig,
    descartes_check,
    gadget_arc_infeasibility,
    inner_mate_radius,
    nested_arc_inequality,
    outer_mate_radius,
    outer_phi_max,
    sample_arc_pair_config,
)
from .generators import (
    GadgetFragment,
    augment_octahedron,
    bigadget,
    canonical_octahedron_realization,
    cube,
    dodecahedron,
    flower,
    gadget,
    icosahedron,
    octahedron,
    prism,
    tetrahedron,
    upper_bound_family,
)
from .isomorphism import graphs_isomorphic
from .packing import Circle, Packing, Triangulation, pack, packing_residual, triangulate
from .realization import (
    Arc,
    BoundsResult,
    RealPoint,
    Realization,
    circle_count_bounds,
    extract_with_arcs,
    innermost_face_arc_check,
    realize,
    verify_realization,
)

__all__ = [name for name in dir() if not name.startswith("_")]

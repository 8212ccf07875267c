"""Reeb graphs and ruling complexity of polygons with holes.

Exact-arithmetic polygons, directional sweep Reeb graphs, the rotating
cone-coverage sweep that minimizes leaf count over all parallel
rulings, generator families with known complexity, and a brute-force
oracle for differential testing.
"""

from .complexity import ComplexityResult, max_cone_coverage, parallel_reeb_complexity
from .generators import (
    FamilyParams,
    UntangleError,
    annulus_polygon,
    comb_polygon,
    lower_bound_polygon,
    random_simple_polygon,
)
from .geometry import (
    Direction,
    DoubleCone,
    HolePlacementError,
    NonReflexVertexError,
    Point,
    Polygon,
    PolygonError,
    PolygonParseError,
    Ring,
    SelfIntersectionError,
    SlitVertexError,
    TooFewVerticesError,
    as_fraction,
    dump_polygon,
    is_reflex,
    load_polygon,
)
from .oracle import (
    EventPartition,
    OracleCapError,
    OracleResult,
    brute_force_complexity,
    build_event_partition,
)
from .reeb import (
    NonGenericDirectionError,
    ReebGraph,
    ReebNode,
    branch_witnesses,
    is_generic,
    reeb_graph,
    reeb_to_dict,
)
from .rendering import RenderSpec, render_svg

__version__ = "0.1.0"

__all__ = [
    "ComplexityResult",
    "Direction",
    "DoubleCone",
    "EventPartition",
    "FamilyParams",
    "HolePlacementError",
    "NonGenericDirectionError",
    "NonReflexVertexError",
    "OracleCapError",
    "OracleResult",
    "Point",
    "Polygon",
    "PolygonError",
    "PolygonParseError",
    "ReebGraph",
    "ReebNode",
    "RenderSpec",
    "Ring",
    "SelfIntersectionError",
    "SlitVertexError",
    "TooFewVerticesError",
    "UntangleError",
    "annulus_polygon",
    "as_fraction",
    "branch_witnesses",
    "brute_force_complexity",
    "build_event_partition",
    "comb_polygon",
    "dump_polygon",
    "is_generic",
    "is_reflex",
    "load_polygon",
    "lower_bound_polygon",
    "max_cone_coverage",
    "parallel_reeb_complexity",
    "random_simple_polygon",
    "reeb_graph",
    "reeb_to_dict",
    "render_svg",
    "__version__",
]

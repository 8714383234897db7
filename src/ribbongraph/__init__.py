"""Computing with ribbon graphs: partial duality, Euler genus, separability
structure (biseparation certificates, joins, prime factorization) and the
local moves relating low-genus partial duals."""

from .core import (
    Arrow,
    ArrowPresentation,
    End,
    InvalidGraph,
    InvariantViolation,
    Mark,
    RibbonGraph,
    RibbonGraphError,
    UnknownEdge,
    build_graph,
    canonical_form,
    delete_edges,
    disjoint_union,
    from_arrow_presentation,
    from_canonical_code,
    induced_subgraph,
    is_equivalent,
    single_vertex,
    to_arrow_presentation,
)
from .decomposition import (
    BiseparationCertificate,
    BiseparationClass,
    JoinTree,
    NotAJoinSummand,
    classify_biseparation,
    classify_join_biseparation,
    enumerate_biseparations,
    is_biseparation,
    is_join_biseparation,
    join,
    join_summand_splits,
    n_sum,
    prime_factorization,
    summand_edge_sets,
    toggle_join_summand,
    toggles_related,
)
from .duality import (
    SpectrumEntry,
    genus_polynomial,
    geometric_dual,
    partial_dual,
    spectrum,
)
from .io_text import GraphDocument, ParseError, parse, serialize, serialize_graph
from .moves import (
    MoveSearchResult,
    MoveStep,
    MoveTrace,
    binary_summand_sets,
    dual_join_summand_move,
    join_partial_dual_distributes,
    move_related,
)
from .topology import (
    BoundaryWalks,
    SurfaceStats,
    boundary_components,
    connected_components,
    euler_genus,
    is_connected,
    is_orientable,
    surface_stats,
)
from .verify import (
    Corpus,
    MarkedRibbonGraph,
    VerificationReport,
    biseparation_sequence_oracle,
    calibration_graphs,
    check_suite,
    generate,
)

__version__ = "0.1.0"

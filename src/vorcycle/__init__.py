"""Exact computation of perfect quadratic forms, their cell complex,
and the stabilizer-weighted top cycle."""

from .complexes import (
    Differential,
    VoronoiComplex,
    build_codim2,
    build_complex,
    top_cell_dimension,
)
from .cones import FacetRec, NotFullDim, PolyCone, build_cone, faces_of_codim, meets_boundary
from .enumeration import (
    BoundaryFacet,
    EquivWitness,
    PerfectFormRep,
    VoronoiGraph,
    enumerate_perfect_forms,
    is_equivalent,
    neighbor_form,
)
from .forms import (
    GroupElement,
    MinVecSet,
    NotPositiveDefinite,
    QForm,
    ZeroVector,
    act,
    is_perfect,
    minimum_and_minimal_vectors,
    rank_one,
)
from .homology import (
    TheoremReport,
    WrongGroupParity,
    canonical_cycle,
    dd_sanity,
    verify,
    verify_gl_even_vanishing,
    verify_top_cycle,
)
from .linalg import (
    SpanMismatch,
    det_sign,
    kernel_basis,
    mat_rank,
    relative_orientation,
    trace_pair,
)
from .tessellation import (
    IndexOutOfRange,
    InvariantViolation,
    TessInstance,
    check_rigidity,
    from_voronoi,
    sector_fan,
    weighted_boundary,
)

__version__ = "0.1.0"

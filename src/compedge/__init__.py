"""Exact computation and exhaustive verification for the degree n-2
squarefree ideals attached to graphs (one generator per edge, supported on
the edge's complement).

The package exports what the command line, ``analyze_graph``, ``sweep``,
``gorenstein_census`` and the acceptance criteria use; test oracles live
with the tests."""

from .betti import (
    BettiTable,
    PropertyReport,
    betti_positions_check,
    hochster_betti,
    koszul_betti,
    multigraded_koszul_betti,
    ring_properties,
)
from .classify import (
    ClassificationReport,
    ConsistencyResult,
    GraphAnalysis,
    SweepReport,
    analyze_graph,
    classify_graph,
    gorenstein_census,
    sweep,
)
from .complexes import (
    SimplicialComplex,
    facet_complex,
    find_well_ordered_cover,
    gamma_complex,
    induced_subcollection,
    stanley_reisner_ideal,
)
from .graphs import (
    Graph,
    connected_components,
    emit_graph,
    is_chordal,
    parse_graph,
    triangles,
    validate_standing_assumptions,
)
from .homology import (
    GF2,
    GF3,
    QQ,
    FieldSpec,
)
from .ideals import (
    MonomialOrderCert,
    SqfIdeal,
    alexander_dual,
    complementary_edge_ideal,
    height,
    is_linearly_related,
    lcm_graph,
    linear_quotient_order,
    minimal_primes,
)

__version__ = "0.1.0"

"""Exact polyhedral and combinatorial analysis of piecewise-linear binary
classifiers given as tropical rational functions: activation fans, 0/1-loss
level sets and their wall connectivity, decision boundaries, and the
ReLU-to-tropical conversion.  All geometry is exact rational arithmetic."""

from .classify import (
    LevelSetReport,
    chamber_path,
    count_dichotomies,
    covectors_linear,
    level_set,
    loss_of_pattern,
    loss_of_theta,
    parse_signs,
    wall_adjacent,
)
from .dual import DualEdge, decision_boundary, dual_edges, render_svg, tropical_type
from .fan import (
    ActivationPattern,
    Dataset,
    FanCone,
    cone_constraints,
    cone_of_graph,
    dataset,
    enumerate_all_cones,
    enumerate_maximal_cones,
    is_maximal_pattern,
    lineality_dim,
    pattern_of,
    polytope_vertex_of,
)
from .geometry import exact_rank, lp_feasible
from .matroids import (
    AxiomReport,
    om_axioms_check,
    pattern_axioms_check,
    pattern_compose,
)
from .relu import (
    ConversionResult,
    ReluNetwork,
    bound_m,
    net_eval,
    net_to_tropical,
    network,
    prune_terms,
)
from .tropical import (
    SignomialParams,
    TropicalRationalParams,
    eval_rational,
    eval_signomial,
    signomial,
)

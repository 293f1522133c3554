"""Enumeration, classification and sampling of uniform hypergraphs with given
degrees, through their bipartite incidence graphs."""

from .degree_model import (
    DegreeSequence,
    Thresholds,
    degree_sequence_from_json,
    new_degree_sequence,
)
from .bigraph_core import (
    BipartiteGraph,
    Classification,
    FourCycle,
    HyperProperties,
    Hypergraph,
    classify,
    dual_failed_properties,
    from_hypergraph,
    hyper_properties,
    to_hypergraph,
)
from .exact_oracle import (
    DEFAULT_MAX_SPACE,
    ClassFilter,
    OracleReport,
    Pattern,
    canonical_battery,
    count_hypergraphs,
    enumerate_bigraphs,
    full_report,
    hyper_class_profile,
    pattern_expectation,
    pattern_upper_bound,
    random_guarded_instances,
)
from .asymptotics import (
    Estimate,
    estimate_bigraph,
    estimate_linear,
    estimate_simple,
    girth6_probability,
    log_leading_term,
    mckay_upper_bound,
    sum_bounds,
    switching_ratio,
)
from .switching_engine import (
    GirthEstimate,
    LegalityVerdict,
    PairingResult,
    SwitchSampleResult,
    SwitchTuple,
    apply_forward,
    apply_reverse,
    check_forward,
    check_reverse,
    derive_degree_sequence,
    forward_candidates,
    forward_conditions,
    monte_carlo_girth,
    pairing_sample,
    reverse_conditions,
    sample_no4cycle,
)
from . import errors

__version__ = "0.1.0"

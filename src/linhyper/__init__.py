"""Enumeration, classification and sampling of uniform hypergraphs with given
degrees, through their bipartite incidence graphs.

The package loads lazily (PEP 562): ``import linhyper`` imports no
submodule, and the first use of an exported name imports the one submodule
that defines it.  So ``import linhyper.cli`` costs only what the command
uses, and numpy loads with ``sampler``, on the first sampler name used.
"""

import importlib

__version__ = "0.1.0"

# The submodule that defines each exported name; ``errors`` is exported as
# the module itself.
_SUBMODULE = {
    name: module
    for module, names in {
        "degree_model": (
            "DegreeSequence",
            "Thresholds",
            "degree_sequence_from_json",
            "new_degree_sequence",
        ),
        "bigraph_core": (
            "BipartiteGraph",
            "Classification",
            "FourCycle",
            "HyperProperties",
            "Hypergraph",
            "classify",
            "dual_failed_properties",
            "from_hypergraph",
            "hyper_properties",
            "to_hypergraph",
        ),
        "exact_oracle": (
            "DEFAULT_MAX_SPACE",
            "ClassFilter",
            "OracleReport",
            "Pattern",
            "canonical_battery",
            "count_hypergraphs",
            "enumerate_bigraphs",
            "full_report",
            "hyper_class_profile",
            "pattern_expectation",
            "pattern_upper_bound",
            "random_guarded_instances",
        ),
        "asymptotics": (
            "Estimate",
            "estimate_bigraph",
            "estimate_linear",
            "estimate_simple",
            "girth6_probability",
            "log_leading_term",
            "mckay_upper_bound",
            "sum_bounds",
            "switching_ratio",
        ),
        "switching_engine": (
            "LegalityVerdict",
            "SwitchTuple",
            "apply_forward",
            "apply_reverse",
            "check_forward",
            "check_reverse",
            "derive_degree_sequence",
            "forward_candidates",
            "forward_conditions",
            "reverse_conditions",
        ),
        "sampler": (
            "GirthEstimate",
            "PairingResult",
            "SwitchSampleResult",
            "monte_carlo_girth",
            "pairing_sample",
            "sample_no4cycle",
        ),
        "errors": ("errors",),
    }.items()
    for name in names
}

__all__ = sorted(_SUBMODULE)


def __getattr__(name: str):
    """Import the submodule that defines ``name`` and keep the value as a
    module global, so the next access skips this hook.  Any other name is an
    AttributeError, which lets ``from linhyper import <submodule>`` import
    the submodule."""
    if name not in _SUBMODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{_SUBMODULE[name]}")
    value = module if name == _SUBMODULE[name] else getattr(module, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_SUBMODULE))

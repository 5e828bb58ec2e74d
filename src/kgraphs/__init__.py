"""Finite higher-rank graphs: validation, path arithmetic, moves, graded
invariants, homology, and bridging search.

Importing the package loads none of its modules: each public name below
is imported from its module on first use (PEP 562), so a `kgraph`
command pays only for the modules it runs.
"""

from importlib import import_module as _import_module

# module -> the public names the package re-exports from it
_EXPORTS = {
    "bridging": (
        "BridgingPair",
        "CoherenceWitness",
        "Exhausted",
        "IncoherentPair",
        "NotIntertwining",
        "PolyEdge",
        "Polymorphism",
        "ShapeMismatch",
        "bridging_graph",
        "bridging_search",
        "check_flip_family",
        "coherence_check",
        "compose_poly",
        "coordinate_polymorphism",
        "extend_flip",
        "identity_polymorphism",
        "morph_apply",
        "poly_matrix",
        "polymorphism_from_matrix",
    ),
    "constructions": (
        "FIXTURE_NAMES",
        "EmptyWindow",
        "MonoidHom",
        "UnknownFixture",
        "fixture",
        "grid",
        "hom_apply",
        "hom_surjective",
        "monoid_hom",
        "pullback",
        "rose",
        "skew_product_window",
    ),
    "core": (
        "DegreeOutOfRange",
        "DimensionMismatch",
        "Edge",
        "InvalidKGraph",
        "KGraph",
        "KGraphError",
        "NotComposable",
        "Skeleton",
        "unit_degree",
        "validate_kgraph",
        "vertex_matrix",
        "zero_degree",
    ),
    "dimension": (
        "DimElement",
        "GeneratorMap",
        "RankMismatch",
        "apply_generator_map",
        "dge_add",
        "dge_eq",
        "dge_scale",
        "dge_shift",
        "dim_element",
        "generator_map",
        "generator_map_from_matrix",
        "hom_check",
        "identity_generator_map",
        "identity_map_between",
        "iso_check",
        "pointed_check",
        "positivity",
        "unit_element",
        "zero_element",
    ),
    "homology": (
        "AbelianInvariants",
        "NotStrict",
        "NotSurjective",
        "h0",
        "h0_pullback_compare",
        "h0gr_presentation",
        "rank_invariant",
        "rho_pullback_check",
    ),
    "intmat": ("rank", "smith_normal_form", "snf_diagonal"),
    "moves": (
        "IndivisibleVertex",
        "InvalidPartition",
        "NotASink",
        "ParentMap",
        "Partition",
        "check_partition",
        "ei_sinks",
        "enumerate_valid_partitions",
        "insplit",
        "insplit_maps",
        "insplit_matrices",
        "pairing_closure",
        "phi_insplit",
        "phi_sink_delete",
        "psi_insplit",
        "sink_colors",
        "sink_delete",
        "sink_delete_maps",
        "sink_delete_witnesses",
    ),
    "paths": (
        "Path",
        "compose",
        "factor",
        "make_path",
        "mce",
        "path_degree",
        "path_source",
        "paths_of_degree",
        "segment",
        "vertex_path",
    ),
    "sse": ("ExhaustedBounds", "SSEWitness", "intertwiner_check", "sse_search"),
    "textform": (
        "TextFormatError",
        "dump_kgraph",
        "load_kgraph",
        "parse_kgraph",
        "parse_kgraph_parts",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [name for names in _EXPORTS.values() for name in names]
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:
        # `kgraphs.moves` before anything imported it
        return _import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))

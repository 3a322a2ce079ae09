"""Exact toolkit for diamond-maximal tournaments, skew-conference Seidel
matrices and FF4-hypergraphs/designs.

`import diamondkit` loads no submodule: each name below is imported from
its module on first use (PEP 562), so a command pays only for the modules
it runs.  The searches are in diamondkit.search, the one module that
imports numpy; the test oracles (char_poly and the rest) are in
diamondkit.oracles, which imports search.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    **dict.fromkeys(["Tournament", "count_diamonds", "is_diamond", "random_tournament",
                     "validate"], "tournament"),
    **dict.fromkeys(["count_diamonds_spectral", "diamond_upper_bound", "is_skew_conference",
                     "kernel_sign_vector", "matches_extremal_charpoly", "sigma4_upper_bound",
                     "sigma_from_traces"], "spectral"),
    **dict.fromkeys(["delete_vertices", "extend_to_conference", "paley_tournament",
                     "star_paley"], "constructions"),
    **dict.fromkeys(["FieldTable", "gf_build"], "gf"),
    **dict.fromkeys(["Hypergraph4", "baber", "edge_count_bound", "is_3_design", "is_ff4_design",
                     "verify_ff4"], "hypergraph"),
    **dict.fromkeys(["ArcFlip", "CharPoly", "char_poly", "delete_vertices_count",
                     "design_block_counts", "diamond_delta_on_flip", "min_sum_squares",
                     "sum_principal_minors", "triple_profile", "verify_ff4_naive"], "oracles"),
}
__all__ = list(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted({*globals(), *_EXPORTS})

"""Exact toolkit for diamond-maximal tournaments, skew-conference Seidel
matrices and FF4-hypergraphs/designs."""

__version__ = "0.1.0"

from .tournament import (  # noqa: F401
    ArcFlip,
    Tournament,
    count_diamonds,
    count_diamonds_naive,
    diamond_delta_on_flip,
    is_diamond,
    random_tournament,
    validate,
)
from .spectral import (  # noqa: F401
    CharPoly,
    char_poly,
    count_diamonds_spectral,
    diamond_upper_bound,
    is_skew_conference,
    matches_extremal_charpoly,
    sigma4_upper_bound,
    sigma_from_traces,
    sum_principal_minors,
)
from .constructions import (  # noqa: F401
    delete_vertices,
    extend_to_conference,
    paley_tournament,
    star_paley,
)
from .gf import FieldTable, gf_build  # noqa: F401
from .hypergraph import (  # noqa: F401
    Hypergraph4,
    baber,
    design_block_counts,
    delete_vertices_count,
    edge_count_bound,
    is_3_design,
    is_ff4_design,
    min_sum_squares,
    triple_profile,
    verify_ff4,
    verify_ff4_naive,
)
from .search import (  # noqa: F401
    SearchResult,
    exhaustive_max_diamonds,
    local_search_max_diamonds,
    verify_five_vertex_law,
)

"""Exact toolkit for diamond-maximal tournaments, skew-conference Seidel
matrices and FF4-hypergraphs/designs.

The searches are in diamondkit.search, the one module that imports numpy;
this package does not import it, so `import diamondkit` stays numpy-free.
"""

__version__ = "0.1.0"

from .tournament import (  # noqa: F401
    ArcFlip,
    Tournament,
    count_diamonds,
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
    kernel_sign_vector,
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

"""Pattern-avoiding inversion sequences: counting, Wilf classification,
bijections, increasing trees, and exact rational series."""

from .core import (
    Pattern,
    avoids,
    contains,
    extend_avoids,
    lehmer_decode,
    lehmer_encode,
    order_isomorphic,
    ordinary_bounds,
)
from .counting import (
    binary_avoider_formula,
    count_avoiders,
    count_avoiders_n,
    count_binary_avoiders_bruteforce,
    enumerate_avoiders,
    initial_h_repeat,
    initial_non_inversion,
    initial_positive_set,
    refined_table,
    terminal_h_repeat,
    theorem31_rhs,
)
from .wilf import canonical_patterns, classify, count_vector, first_divergence
from .bijections import (
    is_3201_by_characterization,
    is_3210_by_partition,
    map_3201_to_3210,
    map_3210_to_3201,
    maxima_layers,
    second_max_values,
    weak_ltr_maxima,
)
from .trees import (
    count_trees_bounded,
    count_trees_bruteforce,
    count_trees_root_unbounded,
    iter_trees,
)
from .series import (
    RationalSeries,
    a218225_terms,
    c_coefficients,
    c_identity_holds,
    check_0021_conjecture,
    euler_numbers,
    series_Rk,
    series_Tk,
    tan_plus_sec,
)

__version__ = "0.1.0"

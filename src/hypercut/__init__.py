"""Spectral surplus machinery for max-k-cut in r-uniform multi-hypergraphs."""

import types as _types

from .errors import CapacityError, InputError, NumericError
from .experiments import (
    RECORD_COLUMNS,
    SCALING_COLUMNS,
    ExperimentRecord,
    ScalingRow,
    colored_sampling_experiment,
    fit_loglog_slope,
    records_to_csv,
    scaling_to_csv,
    surplus_scaling_study,
)
from .generators import (
    gen_complete,
    gen_random_3graph,
    gen_random_linear_3graph,
    gen_random_uniform,
)
from .hypergraph import (
    Hypergraph,
    KCut,
    cut_size,
    cut_values,
    degree_profile,
    dump_hypergraph,
    format_hypergraph,
    induced_sub,
    load_hypergraph,
    parse_hypergraph,
    random_cut_coefficient,
    stirling2,
    underlying_multigraph,
)
from .oracle import brute_force_max_kcut
from .rounding import (
    BipartitionResult,
    best_bipartition,
    gaussian_sign_round,
    local_search_1flip,
)
from .solver import (
    SamplePlan,
    preprocess_heavy,
    reduce_cut_up,
    sample_and_reduce,
    solve_3cut,
    solve_kcut,
)
from .spectral import (
    EigenDecomposition,
    SymmetricMatrix,
    eigen_decompose,
    energy,
    sdp_energy_bound,
)

__all__ = [n for n, v in globals().items() if n[0] != "_" and not isinstance(v, _types.ModuleType)]
__version__ = "0.1.0"

"""Embed spanning forests into 2-coloured complete graphs with small colour imbalance."""

from .bounds import (
    BoundReport,
    crossing_epsilon,
    fits,
    margin_bound,
    optimized_midrange_bound,
    refined_bound,
    split_parity_star_imbalance,
    universal_bound,
)
from .core import (
    BLUE,
    RED,
    CertificateError,
    ColouredCompleteGraph,
    Embedding,
    Forest,
    InvalidInputError,
    ParityError,
    PartialEmbedding,
    PreconditionError,
    embedding_to_json,
    is_balanced,
    parse_colouring,
    parse_forest,
    r_balanced_vertices,
    serialize_colouring,
    serialize_forest,
    subgraph_sum,
    swap_images,
)
from .generators import (
    ForestSpec,
    PerturbedParams,
    choose_density_ratio,
    make_forest,
    perturbed_colouring,
    random_balanced_colouring,
    split_parity_colouring,
)
from .interpolate import (
    InterpolationTrace,
    SignedPair,
    interpolate_traced,
)
from .oracle import (
    BudgetExceededError,
    SignVerdict,
    exact_min_imbalance,
    exact_sign,
)
from .solver import (
    SolveResult,
    SolverConfig,
    find_signed_pair,
    large_degree_set,
    solve,
)

__version__ = "0.1.0"

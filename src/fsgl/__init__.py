"""Learn a sparse connected graph from few observations.

The solver greedily weakens edges of a starting graph to minimize a
smoothness + log-determinant + algebraic-connectivity + sparsity
objective, either by a full scan or by a recursive spectral-cut search
over partitioned edge sets.
"""

from .bench import BenchReport, relative_error, run_benchmark
from .datagen import GroundTruth, gen_ground_truth, sample_gmm, sample_mvt
from .errors import (
    Disconnected,
    DuplicateEdge,
    FsglError,
    InsufficientEigenpairs,
    InvalidBudget,
    InvalidDof,
    MissingEdge,
    NonFiniteInput,
    NonFiniteObjective,
    TooLarge,
    ZeroReference,
)
from .graph import (
    ObservationSet,
    WeightedGraph,
    build_laplacian,
    complete_graph,
    gram,
    is_connected,
    weaken_edge,
)
from .init_graph import init_sparse_graph, initial_graph, max_similarity_tree
from .io import load_graph, load_observations, save_graph, save_observations
from .objective import objective_value
from .partition import (
    CheegerCut,
    approx_cheeger_cut,
    brute_force_cheeger,
    partition_select,
)
from .solver import SolverConfig, SolveTrace, greedy_step, run_solver
from .spectral import SpectralState, smallest_eigenpairs

__version__ = "0.1.0"

__all__ = [
    "BenchReport",
    "CheegerCut",
    "Disconnected",
    "DuplicateEdge",
    "FsglError",
    "GroundTruth",
    "InsufficientEigenpairs",
    "InvalidBudget",
    "InvalidDof",
    "MissingEdge",
    "NonFiniteInput",
    "NonFiniteObjective",
    "ObservationSet",
    "SolveTrace",
    "SolverConfig",
    "SpectralState",
    "TooLarge",
    "WeightedGraph",
    "ZeroReference",
    "approx_cheeger_cut",
    "brute_force_cheeger",
    "build_laplacian",
    "complete_graph",
    "gen_ground_truth",
    "gram",
    "greedy_step",
    "init_sparse_graph",
    "initial_graph",
    "is_connected",
    "load_graph",
    "load_observations",
    "max_similarity_tree",
    "objective_value",
    "partition_select",
    "relative_error",
    "run_benchmark",
    "run_solver",
    "sample_gmm",
    "sample_mvt",
    "save_graph",
    "save_observations",
    "smallest_eigenpairs",
    "weaken_edge",
]

"""Diffusion-map analysis for data whose similarity kernel changes over a parameter space.

The library builds per-parameter diffusion operators, compares points and
whole graphs across parameters through spectral distance formulas, rotates
every parameter's embedding into a common coordinate system, and supports
second-level (graph-of-graphs and historical) embeddings. A CLI named
``dynamap`` wraps the pipelines.
"""

from .datasets import (
    CubeFamily,
    TorusSpec,
    pinched_torus_family,
    sample_torus,
    synthetic_cube_family,
)
from .distances import (
    diffusion_distance,
    diffusion_distance_map,
    diffusion_distance_matrix,
    direct_diffusion_distance,
    direct_global_distance,
    global_diffusion_distance,
    global_distance_matrix,
    gram_matrix,
    subgraph_diffusion_distance,
)
from .embeddings import (
    canonical_subgraph_basis,
    common_embedding,
    diffusion_map,
    reference_subgraph_basis,
    subgraph_rotation,
    truncation_residuals,
)
from .exceptions import (
    CalibrationError,
    ConnectivityError,
    CorrespondenceError,
    DegeneracyError,
    DynamapError,
    InputError,
    NumericalError,
)
from .kernels import (
    KernelMatrix,
    PointCloud,
    calibrated_diffusion_matrix,
    gaussian_kernel,
)
from .metagraph import (
    EXPONENTIAL,
    INNER_PRODUCT,
    MEDIAN,
    HistoricalGraph,
    MetaGraph,
    historical_embedding,
    historical_kernel,
    meta_embedding,
    meta_kernel,
)
from .operators import (
    DiffusionMatrix,
    SpectralDecomposition,
    diffusion_matrix,
    kernel_power_row,
    spectral_decomposition,
    truncate,
)
from .sampling import ConvergenceReport, RateEstimate, convergence_study

__version__ = "0.1.0"

__all__ = [
    "CalibrationError",
    "ConnectivityError",
    "ConvergenceReport",
    "CorrespondenceError",
    "CubeFamily",
    "DegeneracyError",
    "DiffusionMatrix",
    "DynamapError",
    "EXPONENTIAL",
    "HistoricalGraph",
    "INNER_PRODUCT",
    "InputError",
    "KernelMatrix",
    "MEDIAN",
    "MetaGraph",
    "NumericalError",
    "PointCloud",
    "RateEstimate",
    "SpectralDecomposition",
    "TorusSpec",
    "calibrated_diffusion_matrix",
    "canonical_subgraph_basis",
    "common_embedding",
    "convergence_study",
    "diffusion_distance",
    "diffusion_distance_map",
    "diffusion_distance_matrix",
    "diffusion_map",
    "diffusion_matrix",
    "direct_diffusion_distance",
    "direct_global_distance",
    "gaussian_kernel",
    "global_diffusion_distance",
    "global_distance_matrix",
    "gram_matrix",
    "historical_embedding",
    "historical_kernel",
    "kernel_power_row",
    "meta_embedding",
    "meta_kernel",
    "pinched_torus_family",
    "reference_subgraph_basis",
    "sample_torus",
    "spectral_decomposition",
    "subgraph_diffusion_distance",
    "subgraph_rotation",
    "synthetic_cube_family",
    "truncate",
    "truncation_residuals",
]

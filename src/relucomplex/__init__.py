"""relucomplex: exact polyhedral complexes of ReLU networks via edge subdivision.

A fully-connected ReLU network is piecewise affine on a polyhedral complex.
This package extracts that complex exactly on a bounded domain by processing
one neuron at a time: vertices are evaluated, edges whose endpoint signs
disagree are split at the interpolated zero crossing, and new edges across
2-faces are recovered combinatorially from sign-vector perturbation. Higher
cells, region counts, level-set boundaries, metrics, and validation oracles
build on the resulting 1-skeleton.
"""

__version__ = "0.1.0"

from .model import (
    LayerSpec,
    MlpSpec,
    ModelFormatError,
    NeuronRef,
    NeuronSchedule,
    PreactivationTrace,
    batch_preactivation,
    classify_neurons_on_boundary,
    diamond_model,
    forward_trace,
    load_model,
    prune_stably_negative,
    random_model,
    save_model,
)
from .skeleton import (
    Domain,
    Skeleton,
    SkeletonError,
    check_invariants,
    compact,
    init_hypercube,
    init_simplex,
)
from .subdivide import (
    IterationStats,
    PairingError,
    extract_complex,
    pair_splitting_faces,
    prune_future,
    subdivide_layer,
    subdivide_once,
)
from .poset import (
    CellSet,
    build_parent_cells,
    cellsets_from_skeleton,
    count_cells,
    euler_characteristic,
    region_signatures,
)
from .geometry import (
    BoundaryMesh,
    EmptyBoundaryError,
    FaceAssemblyError,
    ShapeMetrics,
    area_perimeter_2d,
    assemble_faces,
    boundary_subcomplex,
    compactness,
    distance_histogram,
    export_csv,
    export_obj,
    export_svg,
)
from .validate import (
    MidpointReport,
    ResidualReport,
    ScalingReport,
    midpoint_check,
    oracle_single_layer_vertices,
    residuals,
    sampled_region_oracle,
    scaling_report,
)

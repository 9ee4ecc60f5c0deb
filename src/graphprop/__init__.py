"""Graph-propagation completion of multi-acquisition tensors.

Missing mode-m fibers are recovered by diffusing the observed fibers over
a unified k-nearest-neighbour graph built from every acquisition, together
with error-bound diagnostics, total-variation and low-rank baselines,
synthetic data generators, metrics, and an experiment harness.
"""

from .baselines import gtvm_inpaint, halrtc_complete
from .bounds import (
    BoundReport,
    GtvmBound,
    compute_phi,
    compute_psi,
    evaluate_bounds,
    graphprop_bound,
    gtvm_bound,
    spectral_norm,
)
from .datagen import (
    OverlapSpec,
    SynthSpec,
    generate_acquisitions,
    orthonormal_rows,
    partial_overlap_masks,
    sample_observation_sets,
    smooth_raster_pair,
    two_block_graph,
)
from .graph import (
    EdgeSet,
    GraphBlocks,
    ObservationSet,
    SparseGraph,
    build_graph,
    knn_edges,
    load_edge_list,
    partition_blocks,
    save_edge_list,
    union_edges,
)
from .metrics import ErrorField, accuracy, mae, mpsnr, mse, rmse
from .propagation import (
    CompletionResult,
    SolverStats,
    graphprop,
    solve_steady_state,
)
from .tensor import (
    DenseTensor,
    FiberMatrix,
    load_fibers,
    load_tensor,
    matricize,
    node_ids,
    refold,
    save_fibers,
    save_tensor,
)

__version__ = "0.1.0"

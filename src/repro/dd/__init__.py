"""Edge-weighted decision diagrams for quantum states and operators.

The data structure of the paper's Section IV: quantum states compressed
into DAGs with canonical complex edge weights.  Key entry points:

* :class:`~repro.dd.package.DDPackage` — owns all tables and provides the
  recursive operations,
* :class:`~repro.dd.vector_dd.VectorDD` — a user-facing state handle,
* :class:`~repro.dd.apply.GateApplier` — applies circuit operations,
* :mod:`~repro.dd.measure` — downstream/upstream probability traversals
  and projective collapse,
* :class:`~repro.dd.normalization.NormalizationScheme` — LEFTMOST vs the
  paper's L2 scheme.
"""

from .apply import GateApplier, apply_operation
from .approximation import (
    DEFAULT_PRUNE_INTERVAL,
    ApproximationConfig,
    ApproximationResult,
    Approximator,
    edge_contributions,
    prune_low_contribution,
    prune_to_node_budget,
)
from .complex_table import DEFAULT_TOLERANCE, ComplexTable
from .compute_table import ComputeTable
from .density import (
    DensityMatrixDD,
    apply_local_map,
    apply_superoperator,
    diagonal_edge,
    matrix_adjoint,
    matrix_trace,
    outer_product,
)
from .dot import to_dot
from .matrix_dd import OperationDDCache, circuit_dd, identity_dd, operation_dd
from .measure import (
    collapse,
    downstream_probabilities,
    measure_all_collapse,
    qubit_probability,
    upstream_probabilities,
)
from .node import TERMINAL, Edge, Node, is_terminal
from .normalization import NormalizationScheme, normalize_weights
from .observables import PauliObservable, PauliString, expectation_value
from .package import DDPackage
from .reorder import (
    DEFAULT_SIFT_BUDGET,
    ReorderConfig,
    SiftResult,
    invert_permutation,
    is_identity_permutation,
    sift,
    swap_adjacent,
    unpermute_counts,
    unpermute_index,
    unpermute_samples,
)
from .serialize import load_state, save_state, state_from_dict, state_to_dict
from .stats import (
    BYTES_PER_AMPLITUDE,
    BYTES_PER_NODE,
    RepresentationSize,
    dd_bytes,
    size_log2,
    vector_bytes,
)
from .unique_table import UniqueTable
from .vector_dd import VectorDD

__all__ = [
    "DDPackage",
    "VectorDD",
    "GateApplier",
    "apply_operation",
    "NormalizationScheme",
    "normalize_weights",
    "ComplexTable",
    "ComputeTable",
    "UniqueTable",
    "DEFAULT_TOLERANCE",
    "Edge",
    "Node",
    "TERMINAL",
    "is_terminal",
    "identity_dd",
    "operation_dd",
    "circuit_dd",
    "OperationDDCache",
    "DensityMatrixDD",
    "matrix_adjoint",
    "matrix_trace",
    "outer_product",
    "diagonal_edge",
    "apply_superoperator",
    "apply_local_map",
    "downstream_probabilities",
    "upstream_probabilities",
    "qubit_probability",
    "collapse",
    "measure_all_collapse",
    "to_dot",
    "DEFAULT_PRUNE_INTERVAL",
    "ApproximationConfig",
    "ApproximationResult",
    "Approximator",
    "edge_contributions",
    "prune_low_contribution",
    "prune_to_node_budget",
    "DEFAULT_SIFT_BUDGET",
    "ReorderConfig",
    "SiftResult",
    "sift",
    "swap_adjacent",
    "is_identity_permutation",
    "invert_permutation",
    "unpermute_index",
    "unpermute_samples",
    "unpermute_counts",
    "PauliString",
    "PauliObservable",
    "expectation_value",
    "save_state",
    "load_state",
    "state_to_dict",
    "state_from_dict",
    "RepresentationSize",
    "vector_bytes",
    "dd_bytes",
    "size_log2",
    "BYTES_PER_AMPLITUDE",
    "BYTES_PER_NODE",
]

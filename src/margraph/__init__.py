"""Large-margin graphical models for binary multi-label prediction.

Train directed (per-node decomposed) or undirected (jointly coupled) models
with hinge loss, run exact branch-and-bound MAP inference on both (with a
provable state budget on directed ones), and evaluate with the standard
multi-label measures.
"""

from .data import Dataset, Instance
from .errors import (
    CapabilityError,
    DataError,
    GraphError,
    MargraphError,
    ModelFormatError,
)
from .graphs import (
    DIRECTED,
    UNDIRECTED,
    Clique,
    Cliques,
    GraphSpec,
    build_chain_graph,
    build_full_graph,
    build_independent_graph,
)
from .inference import (
    STATUS_BUDGET,
    STATUS_FALLBACK,
    STATUS_OPTIMAL,
    BBConfig,
    InferenceResult,
    bb_infer,
    bb_infer_chunk,
    exhaustive_infer,
    exhaustive_infer_chunk,
)
from .metrics import MetricReport, evaluate, per_label_f_scores
from .model import (
    HINGE_LOG_OFFSET,
    LossBreakdown,
    WeightVector,
    batch_scorer,
    bm_log_likelihood,
    compile_scorer,
    joint_loss,
    log_prob_table,
    margins,
    node_margin,
    sbn_log_likelihood,
    surrogate_bound_check,
)
from .ordering import OrderStrategy, make_order_strategy
from .synth import SynthConfig, planted_model, sample_bm, sample_sbn
from .training import (
    DualState,
    SolveReport,
    TrainConfig,
    TrainResult,
    dual_objective,
    duality_gap,
    mean_joint_loss,
    primal_objective,
    train_lmbm,
    train_lmsbn,
)

__version__ = "0.1.0"

__all__ = [
    "Dataset",
    "Instance",
    "MargraphError",
    "GraphError",
    "DataError",
    "ModelFormatError",
    "CapabilityError",
    "DIRECTED",
    "UNDIRECTED",
    "Clique",
    "Cliques",
    "GraphSpec",
    "build_independent_graph",
    "build_chain_graph",
    "build_full_graph",
    "WeightVector",
    "LossBreakdown",
    "HINGE_LOG_OFFSET",
    "compile_scorer",
    "batch_scorer",
    "node_margin",
    "margins",
    "joint_loss",
    "sbn_log_likelihood",
    "bm_log_likelihood",
    "log_prob_table",
    "surrogate_bound_check",
    "TrainConfig",
    "TrainResult",
    "SolveReport",
    "DualState",
    "train_lmsbn",
    "train_lmbm",
    "mean_joint_loss",
    "primal_objective",
    "dual_objective",
    "duality_gap",
    "BBConfig",
    "InferenceResult",
    "STATUS_OPTIMAL",
    "STATUS_BUDGET",
    "STATUS_FALLBACK",
    "bb_infer",
    "bb_infer_chunk",
    "exhaustive_infer",
    "exhaustive_infer_chunk",
    "OrderStrategy",
    "make_order_strategy",
    "MetricReport",
    "evaluate",
    "per_label_f_scores",
    "SynthConfig",
    "sample_sbn",
    "sample_bm",
    "planted_model",
    "__version__",
]

"""Training-free out-of-distribution scoring over embedding KNN graphs."""

from .baselines import cosine_scores, manifold_score
from .graph import BlockAdjacency, NodePartition, build_adjacency, normalize
from .metrics import EvalReport, auroc, evaluate, fpr_at_tpr
from .prompts import PrototypeSet
from .propagation import (
    PropagationConfig,
    propagate,
    run_gsp,
    select_pseudo_prompts,
)
from .store import (
    EmbeddingMatrix,
    NpyFormatError,
    load_unit_matrix,
    load_vector,
    save_matrix,
    save_vector,
    unit_rows,
)
from .synth import (
    SynthDataset,
    SynthSpec,
    blob_benchmark_spec,
    bridge_benchmark_spec,
    generate,
)

__version__ = "0.1.0"

__all__ = [
    "BlockAdjacency", "EmbeddingMatrix", "EvalReport", "NodePartition",
    "NpyFormatError", "PropagationConfig", "PrototypeSet", "SynthDataset",
    "SynthSpec", "auroc", "blob_benchmark_spec", "bridge_benchmark_spec",
    "build_adjacency", "cosine_scores", "evaluate", "fpr_at_tpr", "generate",
    "load_unit_matrix", "load_vector", "manifold_score", "normalize", "propagate",
    "run_gsp", "save_matrix", "save_vector", "select_pseudo_prompts", "unit_rows",
]

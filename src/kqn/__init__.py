"""Knowledge tracing with dot-product knowledge-state queries.

A recurrent encoder turns a student's response history into a knowledge
state; a perceptron embeds skills on the positive-orthant unit sphere; the
sigmoid of their dot product predicts the next response. The package adds
the skill-similarity analysis suite (distances, clustering, ARI, Mantel,
dimensionality sensitivity, heatmaps), an LSTM baseline with a hybrid
variant, training with grid search, synthetic data, and a CLI.
"""

__version__ = "0.1.0"

from .analysis import (
    DistanceMatrix,
    Dendrogram,
    Heatmap,
    MantelResult,
    SensitivityReport,
    ari,
    flat_clusters,
    hcluster,
    heatmap_matrix,
    mantel,
    odds_ratio_identity,
    pairwise_distances,
    sensitivity_stats,
)
from .checkpoint import (
    export_skill_vectors,
    load_checkpoint,
    load_skill_vectors,
    save_checkpoint,
)
from .data import (
    Dataset,
    ResponseSequence,
    SyntheticSpec,
    generate_synthetic,
    load_dataset,
    parse_triplets,
    relabel_skills,
    save_dataset,
    serialize_triplets,
)
from .dkt import DktConfig, DktModel
from .metrics import auc_scores
from .model import (
    BatchForward,
    KqnModel,
    ModelConfig,
    batch_arrays,
    encode_skill_table,
    forward_batch,
)
from .training import (
    GridSpec,
    TrainConfig,
    evaluate,
    grid_search,
    split_data,
    train,
)

__all__ = [
    "__version__",
    "DistanceMatrix",
    "Dendrogram",
    "Heatmap",
    "MantelResult",
    "SensitivityReport",
    "ari",
    "flat_clusters",
    "hcluster",
    "heatmap_matrix",
    "mantel",
    "odds_ratio_identity",
    "pairwise_distances",
    "sensitivity_stats",
    "export_skill_vectors",
    "load_checkpoint",
    "load_skill_vectors",
    "save_checkpoint",
    "Dataset",
    "ResponseSequence",
    "SyntheticSpec",
    "generate_synthetic",
    "load_dataset",
    "parse_triplets",
    "relabel_skills",
    "save_dataset",
    "serialize_triplets",
    "DktConfig",
    "DktModel",
    "auc_scores",
    "BatchForward",
    "KqnModel",
    "ModelConfig",
    "batch_arrays",
    "encode_skill_table",
    "forward_batch",
    "GridSpec",
    "TrainConfig",
    "evaluate",
    "grid_search",
    "split_data",
    "train",
]

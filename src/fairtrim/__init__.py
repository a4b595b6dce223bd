"""fairtrim: find and remove bias-inducing training points from tabular data.

A trained classifier is probed with synthetic pairs of near-identical
applicants that differ in a sensitive attribute; training rows are ranked by
how much they push the model toward treating such pairs differently
(influence functions), and the worst offenders are removed chunk by chunk
until the model stops improving.
"""

from .data import (
    Dataset,
    FeatureSchema,
    SplitSpec,
    drop_sensitive,
    load_dataset,
    load_schema,
    split,
)
from .debias import DebiasConfig, DebiasReport, debias_data, drop_first, sort_dataset
from .errors import FairtrimError
from .experiment import ExperimentResult, GridSpec, emit_reports, run_grid, summarize_reports
from .fairness import (
    SimilarityConfig,
    estimate_discrim,
    statistical_parity_difference,
)
from .influence import (
    InfluenceRanking,
    InfluenceSet,
    SolverConfig,
    rank_by_influence,
)
from .model import (
    Hyperparameters,
    Model,
    load_model,
    predict_batch,
    save_model,
    train,
)

__version__ = "0.1.0"

__all__ = [
    "Dataset",
    "DebiasConfig",
    "DebiasReport",
    "ExperimentResult",
    "FairtrimError",
    "FeatureSchema",
    "GridSpec",
    "Hyperparameters",
    "InfluenceRanking",
    "InfluenceSet",
    "Model",
    "SimilarityConfig",
    "SolverConfig",
    "SplitSpec",
    "debias_data",
    "drop_first",
    "drop_sensitive",
    "emit_reports",
    "estimate_discrim",
    "load_dataset",
    "load_model",
    "load_schema",
    "predict_batch",
    "rank_by_influence",
    "run_grid",
    "save_model",
    "sort_dataset",
    "split",
    "statistical_parity_difference",
    "summarize_reports",
    "train",
    "__version__",
]

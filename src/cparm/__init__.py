"""Central-point / association-rule feature selection for network flow data.

The pipeline partitions a training set into equal row segments, computes the
mode of every attribute within each segment, mines pairwise association
rules over those central points, ranks features by rule importance, and
feeds the selected subset to three decision engines (EM clustering, Naive
Bayes, logistic regression) evaluated by accuracy and false alarm rate.
"""

__version__ = "0.1.0"

from .dataset import (
    AttributeSchema,
    Dataset,
    SynthManifest,
    load_csv,
    split,
    synth_dataset,
    write_csv,
)
from .central_points import (
    CentralPoint,
    CentralPointsTable,
    central_points,
    partition_count,
    partition_index,
)
from .arm import (
    Item,
    Rule,
    Transaction,
    Transactions,
    build_transactions,
    generate_rules,
    run_threshold_sweep,
    select_features,
)
from .metrics import ConfusionMatrix, MetricsReport, compute_metrics, confusion
from .pipeline import (
    EvaluationReport,
    PipelineConfig,
    SourceFiles,
    SourceSplit,
    SourceSynthetic,
    emit_report,
    run_pipeline,
)

__all__ = [
    "__version__",
    "AttributeSchema",
    "Dataset",
    "SynthManifest",
    "load_csv",
    "split",
    "synth_dataset",
    "write_csv",
    "CentralPoint",
    "CentralPointsTable",
    "central_points",
    "partition_count",
    "partition_index",
    "Item",
    "Rule",
    "Transaction",
    "Transactions",
    "build_transactions",
    "generate_rules",
    "run_threshold_sweep",
    "select_features",
    "ConfusionMatrix",
    "MetricsReport",
    "compute_metrics",
    "confusion",
    "EvaluationReport",
    "PipelineConfig",
    "SourceFiles",
    "SourceSplit",
    "SourceSynthetic",
    "emit_report",
    "run_pipeline",
]

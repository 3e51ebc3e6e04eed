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
    SplitSpec,
    SynthManifest,
    infer_schema,
    load_csv,
    split,
    synth_dataset,
    write_csv,
)
from .central_points import (
    CentralPoint,
    CentralPointsTable,
    PartitionPlan,
    central_points,
    make_plan,
    partition_count,
)
from .arm import (
    FeatureRanking,
    Item,
    Rule,
    Transaction,
    build_transactions,
    confidence,
    generate_rules,
    run_threshold_sweep,
    select_features,
    support,
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
    "SplitSpec",
    "SynthManifest",
    "infer_schema",
    "load_csv",
    "split",
    "synth_dataset",
    "write_csv",
    "CentralPoint",
    "CentralPointsTable",
    "PartitionPlan",
    "central_points",
    "make_plan",
    "partition_count",
    "FeatureRanking",
    "Item",
    "Rule",
    "Transaction",
    "build_transactions",
    "confidence",
    "generate_rules",
    "run_threshold_sweep",
    "select_features",
    "support",
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

"""Central-point / association-rule feature selection for network flow data.

The pipeline partitions a training set into equal row segments, computes the
mode of every attribute within each segment, mines pairwise association
rules over those central points, ranks features by rule importance, and
feeds the selected subset to three decision engines (EM clustering, Naive
Bayes, logistic regression) evaluated by accuracy and false alarm rate.

The package holds the library's entry points; every stage function is
imported from the module that defines it, such as ``cparm.arm``.
"""

__version__ = "0.1.0"

from .dataset import synth_dataset
from .pipeline import (
    PipelineConfig,
    SourceFiles,
    SourceSplit,
    SourceSynthetic,
    emit_report,
    run_pipeline,
)

__all__ = [
    "__version__",
    "PipelineConfig",
    "SourceFiles",
    "SourceSplit",
    "SourceSynthetic",
    "emit_report",
    "run_pipeline",
    "synth_dataset",
]

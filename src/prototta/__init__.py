"""Prototype-guided test-time adaptation on a synthetic corruption benchmark.

The package splits into six layers:

- ``autodiff``: a small reverse-mode tape over numpy arrays
- ``model``: the prototype classifier (backbone, similarity mapping, head)
- ``adapt``: test-time adaptation methods and the streaming loop
- ``metrics``: activation records plus accuracy/interpretability statistics
- ``harness``: synthetic data, corruptions, and source training
- ``bench`` / ``cli``: benchmark plans, report files, and the ``ptta`` tool
"""

from __future__ import annotations

from .adapt import (
    AdaptationReport,
    SampleBlock,
    StepRecord,
    TTAConfig,
    adapt_batch,
    geometric_filter,
    hybrid_loss,
    iter_batches,
    prototta_loss,
    run_stream,
    tent_loss,
)
from .bench import (
    BenchmarkPlan,
    BenchmarkResult,
    CorrelationReport,
    correlate_scores,
    export_boards,
    method_presets,
    run_ablation,
    run_benchmark,
)
from .errors import (
    ConfigError,
    ContractError,
    DegenerateInputError,
    DomainError,
    EmptyReliableSetError,
    FormatError,
    InsufficientDataError,
    MeasurementError,
    PttaError,
    ShapeError,
    TrainingError,
)
from .harness import (
    CorruptionSpec,
    Dataset,
    SyntheticTaskSpec,
    corrupt,
    evaluate,
    generate_dataset,
    load_dataset,
    save_dataset,
    train_source_model,
)
from .metrics import (
    ActivationRecord,
    dump_records,
    load_records,
    load_scores,
    pac,
    pca_w,
    pearson,
    prediction_stability,
    relative_speed,
    selection_rate,
    spearman,
)
from .model import (
    BackboneConfig,
    MappingScheme,
    ModelConfig,
    PrototypeModel,
    load_model,
    model_forward,
    prototype_contributions,
    save_model,
)

__all__ = [
    "ActivationRecord",
    "AdaptationReport",
    "BackboneConfig",
    "BenchmarkPlan",
    "BenchmarkResult",
    "ConfigError",
    "ContractError",
    "CorrelationReport",
    "CorruptionSpec",
    "Dataset",
    "DegenerateInputError",
    "DomainError",
    "EmptyReliableSetError",
    "FormatError",
    "InsufficientDataError",
    "MappingScheme",
    "MeasurementError",
    "ModelConfig",
    "PrototypeModel",
    "PttaError",
    "SampleBlock",
    "ShapeError",
    "StepRecord",
    "SyntheticTaskSpec",
    "TTAConfig",
    "TrainingError",
    "adapt_batch",
    "correlate_scores",
    "corrupt",
    "dump_records",
    "evaluate",
    "export_boards",
    "generate_dataset",
    "geometric_filter",
    "hybrid_loss",
    "iter_batches",
    "load_dataset",
    "load_model",
    "load_records",
    "load_scores",
    "method_presets",
    "model_forward",
    "pac",
    "pca_w",
    "pearson",
    "prediction_stability",
    "prototta_loss",
    "prototype_contributions",
    "relative_speed",
    "run_ablation",
    "run_benchmark",
    "run_stream",
    "save_dataset",
    "save_model",
    "selection_rate",
    "spearman",
    "tent_loss",
    "train_source_model",
]

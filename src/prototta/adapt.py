"""Test-time adaptation: reliable-set filtering, losses, optimizer, streams.

The core loop is predict-then-adapt: each batch's reported predictions come
from the forward pass made before the parameter update, mirroring how the
methods are usually evaluated. Only the configured adaptable parameter
subset ever changes; prototypes and head weights stay frozen and this is
asserted after every stream.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import repeat
from typing import Iterable, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, ContractError, EmptyReliableSetError
from .metrics import ActivationRecord
from .model import (
    EPS_CLAMP,
    AGGREGATIONS,
    PARAM_MODES,
    BatchOutputs,
    JsonConfig,
    MappingScheme,
    PrototypeModel,
    check_domain,
    frozen_prototypes,
    kernel_range,
    model_forward,
)

METHODS = ("unadapted", "tent", "prototta", "prototta_plus")
TARGET_SCOPES = ("target_only", "all_prototypes")
WEIGHTINGS = ("none", "importance_only", "confidence_only", "both")

_PROB_FLOOR = 1e-300
# prototta_plus's (prototype entropy, logit entropy) mix
HYBRID_WEIGHTS = (0.7, 0.3)
# Adam's moment decays and denominator floor
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass(frozen=True)
class TTAConfig(JsonConfig):
    """Everything one adaptation run needs, serializable as canonical JSON."""

    method: str = "prototta"
    tau_sim: float = 0.6
    use_entropy_constraint: bool = False
    entropy_cap: float | None = None  # None resolves to 0.5 * ln(num_classes)
    param_mode: str = "norm_plus_addons"
    consensus: str | None = None  # aggregation override, None keeps the model's
    target_scope: str = "target_only"
    weighting: str = "both"
    lr: float = 1e-3

    def __post_init__(self):
        super().__post_init__()
        if self.method not in METHODS:
            raise ConfigError(f"method must be one of {METHODS}, got {self.method!r}")
        if not 0.0 < self.tau_sim < 1.0:
            raise ConfigError(f"tau_sim must be in (0, 1), got {self.tau_sim}")
        if self.param_mode not in PARAM_MODES:
            raise ConfigError(f"param_mode must be one of {PARAM_MODES}, got {self.param_mode!r}")
        if self.consensus is not None and self.consensus not in AGGREGATIONS:
            raise ConfigError(f"consensus must be one of {AGGREGATIONS}, got {self.consensus!r}")
        if self.target_scope not in TARGET_SCOPES:
            raise ConfigError(f"target_scope must be one of {TARGET_SCOPES}, got {self.target_scope!r}")
        if self.weighting not in WEIGHTINGS:
            raise ConfigError(f"weighting must be one of {WEIGHTINGS}, got {self.weighting!r}")
        if self.lr <= 0:
            raise ConfigError(f"lr must be positive, got {self.lr}")
        if self.entropy_cap is not None and self.entropy_cap <= 0:
            raise ConfigError(f"entropy_cap must be positive, got {self.entropy_cap}")

    def resolved_entropy_cap(self, num_classes: int) -> float:
        if self.entropy_cap is not None:
            return self.entropy_cap
        return 0.5 * math.log(num_classes)


@dataclass
class ReliableSet:
    """Batch subset passing the geometric filter, with per-sample loss inputs."""

    indices: np.ndarray  # selected sample positions within the batch
    confidences: np.ndarray  # max class probability per selected sample
    target_sets: np.ndarray  # row i: ascending prototype indices of selected sample i

    def __len__(self) -> int:
        return len(self.indices)


@dataclass
class OptimizerState:
    m: list[np.ndarray]
    v: list[np.ndarray]
    t: int = 0


def init_optimizer(params: Sequence[Tensor]) -> OptimizerState:
    return OptimizerState(
        m=[np.zeros_like(p.data) for p in params],
        v=[np.zeros_like(p.data) for p in params],
    )


@dataclass
class StepRecord:
    """One batch's outcome: what was predicted, what was updated, how long."""

    index: int
    size: int
    loss: float | None
    selected: int
    skipped: bool
    accuracy: float  # fraction correct vs ground truth
    clean_agreement: float  # fraction matching the clean model's prediction
    duration_s: float


@dataclass
class SampleBlock:
    """One batch's per-sample outputs; row i belongs to the batch's i-th sample.

    A block owns its arrays: it shares no memory with another block or with the
    forward that made them. In a block of a stream that does not adapt, the clean
    and adapted fields are the same arrays, as they come from one forward.
    """

    clean_activations: np.ndarray  # n x P aggregated similarities of the clean reference
    adapted_activations: np.ndarray  # n x P of the adapting model, before its update
    clean_predictions: np.ndarray  # n
    adapted_predictions: np.ndarray  # n
    labels: np.ndarray  # n ground-truth classes, -1 where the stream has none
    mapping: MappingScheme  # the adapting model's

    @cached_property
    def log_inverse_range(self) -> tuple[float, float] | None:
        """The (min, max) log-inverse kernel value of ``adapted_activations``, which every row's mapped
        values are normalized over, taken on first read; None under another mapping, which needs no range."""
        return kernel_range(self.adapted_activations) if self.mapping.kind == "log_inverse_distance" else None


def block_records(blocks: Sequence[SampleBlock]) -> list[ActivationRecord]:
    """One record per row of the blocks, numbered from 0; its arrays are row views, and the rows of a
    block share its ``mapping`` and ``log_inverse_range``."""
    records: list[ActivationRecord] = []
    for b in blocks:
        base = len(records)
        records.extend(
            map(
                ActivationRecord,
                range(base, base + len(b.labels)),
                b.clean_activations,
                b.adapted_activations,
                b.clean_predictions.tolist(),
                b.adapted_predictions.tolist(),
                b.labels.tolist(),
                repeat(b.mapping),
                repeat(b.log_inverse_range),
            )
        )
    return records


@dataclass
class AdaptationReport:
    method: str
    records: list[StepRecord] = field(default_factory=list)
    sample_blocks: list[SampleBlock] = field(default_factory=list)

    @cached_property
    def sample_records(self) -> list[ActivationRecord]:
        """``block_records`` of every batch, built on first access once the stream is done."""
        return block_records(self.sample_blocks)

    @property
    def total_samples(self) -> int:
        return sum(r.size for r in self.records)

    @property
    def selected_samples(self) -> int:
        return sum(r.selected for r in self.records)

    @property
    def accuracy(self) -> float:
        n = self.total_samples
        if n == 0:
            return float("nan")
        return sum(r.accuracy * r.size for r in self.records) / n

    @property
    def batch_durations(self) -> list[float]:
        return [r.duration_s for r in self.records]


def binary_entropy(s: Tensor) -> Tensor:
    """Elementwise -s ln s - (1-s) ln(1-s) of s clamped to [eps, 1-eps], as one recorded op.

    Maximal ln 2 at s = 0.5; the gradient is zero at and beyond the clamp bounds.
    """
    s = ad.as_tensor(s)
    check_domain(s.data, (s.data >= 0.0) & (s.data <= 1.0), "binary entropy needs values in [0, 1]")
    lo, hi = EPS_CLAMP, 1.0 - EPS_CLAMP
    c = np.clip(s.data, lo, hi)
    rest = 1.0 - c
    log_c, log_rest = np.log(c), np.log(rest)
    value = (c * log_c) * -1.0 - rest * log_rest
    return ad.unary(s, value, lambda g: g * (log_rest - log_c) * ((s.data > lo) & (s.data < hi)))


def shannon_entropy_rows(probs: np.ndarray) -> np.ndarray:
    return _prediction_entropy(Tensor(probs)).data


def geometric_filter(outputs: BatchOutputs, cfg: TTAConfig, class_of: np.ndarray) -> ReliableSet:
    """Select samples whose best mapped similarity clears tau_sim.

    Optionally also requires the prediction distribution's Shannon entropy
    to stay under the configured cap. Runs on detached values; an empty
    result is valid and means the caller should skip the update.
    """
    mapped = outputs.mapped_sims.data
    keep = mapped.max(axis=1) > cfg.tau_sim
    if cfg.use_entropy_constraint:
        cap = cfg.resolved_entropy_cap(outputs.probs.shape[1])
        keep &= shannon_entropy_rows(outputs.probs.data) < cap
    indices = np.flatnonzero(keep)
    if cfg.target_scope == "all_prototypes":
        target_sets = np.tile(np.arange(len(class_of)), (len(indices), 1))
    else:
        owned = np.stack([np.flatnonzero(class_of == c) for c in range(outputs.probs.shape[1])])
        target_sets = owned[outputs.pseudo_labels[indices]]
    return ReliableSet(indices=indices, confidences=outputs.confidences[indices].copy(), target_sets=target_sets)


def _loss_coefficients(outputs: BatchOutputs, rel: ReliableSet, head: Tensor, cfg: TTAConfig) -> np.ndarray:
    """Constant per-(sample, prototype) weights c_i * w_p over the reliable set."""
    targets = rel.target_sets
    w = np.full(targets.shape, 1.0 / targets.shape[1])
    if cfg.weighting in ("importance_only", "both"):
        importance = np.abs(head.data[outputs.pseudo_labels[rel.indices][:, None], targets])
        total = importance.sum(axis=1, keepdims=True)
        np.divide(importance, total, out=w, where=total > 0)
    if cfg.weighting in ("confidence_only", "both"):
        w *= rel.confidences[:, None]
    coeff = np.zeros(outputs.mapped_sims.shape)
    coeff[rel.indices[:, None], targets] = w
    return coeff / len(rel)


def prototta_loss(outputs: BatchOutputs, rel: ReliableSet, head: Tensor, cfg: TTAConfig) -> Tensor:
    """Confidence- and importance-weighted binary entropy of mapped similarities.

    Averages over the reliable set only; weights are treated as constants so
    gradients flow purely through the mapped similarities.
    """
    if len(rel) == 0:
        raise EmptyReliableSetError("reliable set is empty; skip the update instead")
    coeff = _loss_coefficients(outputs, rel, head, cfg)
    return ad.reduce_sum(ad.mul(Tensor(coeff), binary_entropy(outputs.mapped_sims)))


def _prediction_entropy(probs: Tensor) -> Tensor:
    """Shannon entropy of each row of the prediction distribution, on the tape."""
    p = ad.clamp(probs, _PROB_FLOOR, 1.0)
    return ad.scale(ad.reduce_sum(ad.mul(p, ad.log(p)), axis=1), -1.0)


def tent_loss(outputs: BatchOutputs) -> Tensor:
    """Mean Shannon entropy of the prediction distribution over the batch."""
    return ad.reduce_mean(_prediction_entropy(outputs.probs))


def hybrid_loss(outputs: BatchOutputs, rel: ReliableSet, head: Tensor, cfg: TTAConfig) -> Tensor:
    """Prototype entropy plus logit entropy, both restricted to the reliable set."""
    w_proto, w_logit = HYBRID_WEIGHTS
    proto_term = prototta_loss(outputs, rel, head, cfg)  # raises on an empty set
    mask = np.zeros(outputs.probs.shape[0])
    mask[rel.indices] = 1.0 / len(rel)
    logit_term = ad.reduce_sum(ad.mul(Tensor(mask), _prediction_entropy(outputs.probs)))
    return ad.add(ad.scale(proto_term, w_proto), ad.scale(logit_term, w_logit))


def adam_step(params: Sequence[Tensor], grads: Sequence[np.ndarray], state: OptimizerState, cfg: TTAConfig) -> None:
    """One bias-corrected Adam update at ``cfg.lr``, in place; a None gradient is refused."""
    if not (len(params) == len(grads) == len(state.m) == len(state.v)):
        raise ContractError("params, grads, and optimizer state lengths disagree")
    if any(g is None for g in grads):
        raise ContractError("a parameter has no gradient; set it trainable before adapting")
    state.t += 1
    bc1 = 1.0 - ADAM_BETA1 ** state.t
    bc2 = 1.0 - ADAM_BETA2 ** state.t
    for p, g, m, v in zip(params, grads, state.m, state.v):
        if g.shape != p.data.shape or m.shape != p.data.shape:
            raise ContractError(f"gradient shape {g.shape} does not match parameter {p.data.shape}")
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        p.data -= cfg.lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)


def _apply_consensus(model: PrototypeModel, cfg: TTAConfig) -> PrototypeModel:
    if cfg.consensus is None or cfg.consensus == model.config.aggregation:
        return model
    k = model.config.agg_k if cfg.consensus == "topk_mean" else None
    return model.copy(replace(model.config, aggregation=cfg.consensus, agg_k=k))


def adapt_batch(
    model: PrototypeModel,
    batch: tuple[np.ndarray, np.ndarray | None],
    cfg: TTAConfig,
    state: OptimizerState | None,
    index: int = 0,
    clean_predictions: np.ndarray | None = None,
) -> tuple[BatchOutputs, StepRecord]:
    """Predict on one batch and, if the method and filter allow, update once.

    Returns the pre-update outputs; the parameter update (at most one Adam
    step) happens after predictions are taken. A step is skipped when it has
    no loss: method=unadapted, or an empty reliable set. A skipped step leaves
    every parameter bit-identical. An unadapted step is its own clean
    reference, so its ``clean_agreement`` is 1 unless ``clean_predictions``
    names another.
    """
    x, y = batch
    start = time.perf_counter()
    loss, selected = None, 0
    if cfg.method == "unadapted":
        outputs = model_forward(model, x, use_batch_stats=False)
        if clean_predictions is None:
            clean_predictions = outputs.pseudo_labels
    else:
        if state is None:
            raise ContractError("adaptation requires optimizer state")
        params = [p for _, p in model.adaptable_params(cfg.param_mode)]
        tape = ad.Tape()
        with tape:
            outputs = model_forward(model, x, use_batch_stats=True)
            if cfg.method == "tent":
                loss, selected = tent_loss(outputs), len(x)
            else:
                rel = geometric_filter(outputs, cfg, model.class_of)
                selected = len(rel)
                if selected:
                    loss_fn = hybrid_loss if cfg.method == "prototta_plus" else prototta_loss
                    loss = loss_fn(outputs, rel, model.head, cfg)
        if loss is not None:
            ad.backward(tape, loss)
            adam_step(params, [p.grad for p in params], state, cfg)
        tape.clear()
    duration = time.perf_counter() - start
    preds = outputs.pseudo_labels
    record = StepRecord(
        index=index,
        size=len(x),
        loss=None if loss is None else loss.item(),
        selected=selected,
        skipped=loss is None,
        accuracy=float(np.mean(preds == y)) if y is not None else float("nan"),
        clean_agreement=float(np.mean(preds == clean_predictions)) if clean_predictions is not None else float("nan"),
        duration_s=duration,
    )
    return outputs, record


def iter_batches(x: np.ndarray, y: np.ndarray | None, size: int) -> Iterable[tuple[np.ndarray, np.ndarray | None]]:
    for start in range(0, len(x), size):
        xb = x[start : start + size]
        yb = y[start : start + size] if y is not None else None
        yield xb, yb


def run_stream(
    model: PrototypeModel,
    batches: Iterable[tuple[np.ndarray, np.ndarray | None]],
    cfg: TTAConfig,
    collect_samples: bool = True,
) -> AdaptationReport:
    """Drive adaptation across a batch stream and collect the full report.

    Every batch takes one path: the clean reference, one ``adapt_batch`` step,
    its record and its sample block. A frozen copy of the incoming model
    provides the clean reference predictions and activations (computed
    outside the timed region). An unadapted model never changes, so it runs
    no clean forward: each step is its own reference, and its sample block
    holds one copy of its outputs as both clean and adapted fields.
    The prototype constants of every frozen forward are computed once, at
    the start of the stream, and shared by the adapting model and its clean
    copy (``model.frozen_prototypes``). Prototypes and head weights are
    verified unchanged at the end.

    A batch that raises ends the stream with its exception. Every parameter
    is then frozen again (``requires_grad`` off, no gradient), no prototype
    constants stay pinned, and a model adapted in place keeps the updates of
    the batches before the failing one; under a consensus override the stream
    adapts a copy, and the caller's model is left as it was. An unadapted
    stream leaves ``requires_grad`` and gradients as it found them.
    """
    work = _apply_consensus(model, cfg)
    adapting = cfg.method != "unadapted"
    clean = work.copy() if adapting else None
    proto_before = work.prototypes.data.copy()
    head_before = work.head.data.copy()
    report = AdaptationReport(method=cfg.method)
    with frozen_prototypes(*([work, clean] if adapting else [work])):
        state = None
        if adapting:
            work.set_trainable(work.adaptable_param_names(cfg.param_mode))
            state = init_optimizer([p for _, p in work.adaptable_params(cfg.param_mode)])
        try:
            for index, (x, y) in enumerate(batches):
                clean_out = model_forward(clean, x, use_batch_stats=False) if adapting else None
                reference = clean_out.pseudo_labels if adapting else None
                outputs, record = adapt_batch(work, (x, y), cfg, state, index=index, clean_predictions=reference)
                report.records.append(record)
                if collect_samples:
                    # a copy of each output, so no block shares memory with another or with the forward;
                    # without a clean forward, the clean fields are the adapted arrays
                    sims, preds = outputs.agg_sims.data.copy(), outputs.pseudo_labels.copy()
                    clean_sims, clean_preds = (
                        (clean_out.agg_sims.data.copy(), clean_out.pseudo_labels.copy()) if adapting else (sims, preds)
                    )
                    labels = np.full(len(x), -1, dtype=np.int64) if y is None else np.array(y, dtype=np.int64)
                    report.sample_blocks.append(
                        SampleBlock(clean_sims, sims, clean_preds, preds, labels, work.config.mapping)
                    )
        finally:
            if adapting:
                work.set_trainable([])
    if not np.array_equal(work.prototypes.data, proto_before) or not np.array_equal(
        work.head.data, head_before
    ):
        raise ContractError("frozen parameters changed during adaptation")
    # propagate adapted state back to the caller's model object
    if work is not model:
        model.load_snapshot(work.state_snapshot())
    return report

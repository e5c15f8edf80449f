"""Test-time adaptation: reliable-set filtering, losses, optimizer, streams.

The core loop is predict-then-adapt: each batch's reported predictions come
from the forward pass made before the parameter update, mirroring how the
methods are usually evaluated. Only the configured adaptable parameter
subset ever changes; prototypes and head weights stay frozen and this is
asserted after every stream.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass, field, replace
from numbers import Real
from typing import Iterable, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, ContractError, DomainError, EmptyReliableSetError
from .metrics import ActivationRecord
from .model import (
    EPS_CLAMP,
    AGGREGATIONS,
    PARAM_MODES,
    BatchOutputs,
    PrototypeModel,
    canonical_dumps,
    model_forward,
)

METHODS = ("unadapted", "tent", "prototta", "prototta_plus")
TARGET_SCOPES = ("target_only", "all_prototypes")
WEIGHTINGS = ("none", "importance_only", "confidence_only", "both")

_PROB_FLOOR = 1e-300


class JsonConfig:
    """Strict loading of a config dataclass: anything but a JSON object with
    known keys whose values the constructor accepts is a ConfigError."""

    LABEL = "config"

    @classmethod
    def from_dict(cls, d: dict):
        if not isinstance(d, dict):
            raise ConfigError(f"{cls.LABEL} must be a JSON object, got {type(d).__name__}")
        extra = set(d) - set(cls.__dataclass_fields__)
        if extra:
            raise ConfigError(f"unknown {cls.LABEL} keys: {sorted(extra)}")
        try:
            return cls(**d)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"invalid {cls.LABEL}: {exc}") from None

    @classmethod
    def from_json(cls, text: str):
        try:
            d = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid {cls.LABEL} JSON: {exc}") from None
        return cls.from_dict(d)

    @staticmethod
    def _require(kind: type, label: str, value) -> None:
        """ConfigError unless ``value`` is a ``kind``; a bool counts only as a
        bool, and a ``Real`` must be finite."""
        ok = isinstance(value, kind) and (kind is bool or not isinstance(value, bool))
        if not ok or (kind is Real and not math.isfinite(value)):
            raise ConfigError(f"{label} must be {'finite real' if kind is Real else kind.__name__}, got {value!r}")


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
    hybrid_weights: tuple[float, float] = (0.7, 0.3)
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    batch_size: int = 128
    episodic: bool = False

    def __post_init__(self):
        for name in ("use_entropy_constraint", "episodic"):
            self._require(bool, name, getattr(self, name))
        self._require(int, "batch_size", self.batch_size)
        reals = [(name, getattr(self, name)) for name in ("tau_sim", "lr", "beta1", "beta2", "adam_eps")]
        reals += [("hybrid_weights", w) for w in self.hybrid_weights]
        if self.entropy_cap is not None:
            reals.append(("entropy_cap", self.entropy_cap))
        for name, value in reals:
            self._require(Real, name, value)
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
        object.__setattr__(self, "hybrid_weights", tuple(float(w) for w in self.hybrid_weights))
        if len(self.hybrid_weights) != 2 or abs(sum(self.hybrid_weights) - 1.0) > 1e-9:
            raise ConfigError(f"hybrid_weights must be two values summing to 1, got {self.hybrid_weights}")
        if self.lr <= 0 or self.adam_eps <= 0:
            raise ConfigError(f"lr and adam_eps must be positive, got {self.lr} and {self.adam_eps}")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ConfigError(f"beta1 and beta2 must be in [0, 1), got {self.beta1} and {self.beta2}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be positive, got {self.batch_size}")
        if self.entropy_cap is not None and self.entropy_cap <= 0:
            raise ConfigError(f"entropy_cap must be positive, got {self.entropy_cap}")

    def resolved_entropy_cap(self, num_classes: int) -> float:
        if self.entropy_cap is not None:
            return self.entropy_cap
        return 0.5 * math.log(num_classes)

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return canonical_dumps(self.to_dict())


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
class AdaptationReport:
    method: str
    records: list[StepRecord] = field(default_factory=list)
    sample_records: list[ActivationRecord] = field(default_factory=list)

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
    def batch_accuracies(self) -> list[float]:
        return [r.accuracy for r in self.records]

    @property
    def batch_durations(self) -> list[float]:
        return [r.duration_s for r in self.records]


def binary_entropy(s: Tensor) -> Tensor:
    """Elementwise -s ln s - (1-s) ln(1-s); maximal ln 2 at s = 0.5."""
    s = ad.as_tensor(s)
    if (s.data < 0.0).any() or (s.data > 1.0).any():
        bad = float(s.data.reshape(-1)[np.argmax(np.abs(s.data - 0.5))])
        raise DomainError(f"binary entropy needs values in [0, 1], got {bad}")
    s = ad.clamp(s, EPS_CLAMP, 1.0 - EPS_CLAMP)
    one_minus = ad.sub(1.0, s)
    return ad.sub(ad.scale(ad.mul(s, ad.log(s)), -1.0), ad.mul(one_minus, ad.log(one_minus)))


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
    w_proto, w_logit = cfg.hybrid_weights
    proto_term = prototta_loss(outputs, rel, head, cfg)  # raises on an empty set
    mask = np.zeros(outputs.probs.shape[0])
    mask[rel.indices] = 1.0 / len(rel)
    logit_term = ad.reduce_sum(ad.mul(Tensor(mask), _prediction_entropy(outputs.probs)))
    return ad.add(ad.scale(proto_term, w_proto), ad.scale(logit_term, w_logit))


def adam_step(params: Sequence[Tensor], grads: Sequence[np.ndarray], state: OptimizerState, cfg: TTAConfig) -> None:
    """One bias-corrected Adam update, in place; a None gradient is refused."""
    if not (len(params) == len(grads) == len(state.m) == len(state.v)):
        raise ContractError("params, grads, and optimizer state lengths disagree")
    if any(g is None for g in grads):
        raise ContractError("a parameter has no gradient; set it trainable before adapting")
    state.t += 1
    bc1 = 1.0 - cfg.beta1 ** state.t
    bc2 = 1.0 - cfg.beta2 ** state.t
    for p, g, m, v in zip(params, grads, state.m, state.v):
        if g.shape != p.data.shape or m.shape != p.data.shape:
            raise ContractError(f"gradient shape {g.shape} does not match parameter {p.data.shape}")
        m *= cfg.beta1
        m += (1.0 - cfg.beta1) * g
        v *= cfg.beta2
        v += (1.0 - cfg.beta2) * g * g
        p.data -= cfg.lr * (m / bc1) / (np.sqrt(v / bc2) + cfg.adam_eps)


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
    step) happens after predictions are taken. method=unadapted and an
    empty reliable set both leave every parameter bit-identical.
    """
    x, y = batch
    n = len(x)
    adapting = cfg.method != "unadapted"
    start = time.perf_counter()
    loss_value: float | None = None
    selected = 0
    skipped = not adapting
    if not adapting:
        outputs = model_forward(model, x, use_batch_stats=False)
    else:
        if state is None:
            raise ContractError("adaptation requires optimizer state")
        params = [p for _, p in model.adaptable_params(cfg.param_mode)]
        tape = ad.Tape()
        with tape:
            outputs = model_forward(model, x, use_batch_stats=True)
            if cfg.method == "tent":
                loss = tent_loss(outputs)
                selected = n
            else:
                rel = geometric_filter(outputs, cfg, model.class_of)
                selected = len(rel)
                if selected == 0:
                    loss = None
                else:
                    loss_fn = hybrid_loss if cfg.method == "prototta_plus" else prototta_loss
                    loss = loss_fn(outputs, rel, model.head, cfg)
        if loss is None:
            skipped = True
        else:
            ad.backward(tape, loss)
            adam_step(params, [p.grad for p in params], state, cfg)
            loss_value = loss.item()
        tape.clear()
    duration = time.perf_counter() - start
    preds = outputs.pseudo_labels
    accuracy = float(np.mean(preds == y)) if y is not None else float("nan")
    agreement = (
        float(np.mean(preds == clean_predictions)) if clean_predictions is not None else float("nan")
    )
    record = StepRecord(
        index=index,
        size=n,
        loss=loss_value,
        selected=selected,
        skipped=skipped,
        accuracy=accuracy,
        clean_agreement=agreement,
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

    A frozen copy of the incoming model provides the clean reference
    predictions and activations (computed outside the timed region); an
    unadapted model never changes, so its own outputs are the reference.
    Episodic mode restores the model to its initial snapshot and starts a
    fresh optimizer before every batch; prototypes and head weights are
    verified unchanged at the end.
    """
    work = _apply_consensus(model, cfg)
    adapting = cfg.method != "unadapted"
    clean = work.copy() if adapting else None
    proto_before = work.prototypes.data.copy()
    head_before = work.head.data.copy()
    if adapting:
        work.set_trainable(work.adaptable_param_names(cfg.param_mode))
        params = [p for _, p in work.adaptable_params(cfg.param_mode)]
        state = init_optimizer(params)
    else:
        state = None
    snapshot = work.state_snapshot() if cfg.episodic else None
    report = AdaptationReport(method=cfg.method)
    sample_base = 0
    for index, (x, y) in enumerate(batches):
        if cfg.episodic:
            work.load_snapshot(snapshot)
            if adapting:
                state = init_optimizer(params)
        if adapting:
            clean_out = model_forward(clean, x, use_batch_stats=False)
            outputs, record = adapt_batch(
                work, (x, y), cfg, state, index=index, clean_predictions=clean_out.pseudo_labels
            )
        else:
            outputs, record = adapt_batch(work, (x, y), cfg, state, index=index)
            clean_out = outputs
            record.clean_agreement = 1.0
        report.records.append(record)
        if collect_samples:
            for j in range(len(x)):
                report.sample_records.append(
                    ActivationRecord(
                        sample_id=sample_base + j,
                        clean_activations=clean_out.agg_sims.data[j].copy(),
                        adapted_activations=outputs.agg_sims.data[j].copy(),
                        clean_prediction=int(clean_out.pseudo_labels[j]),
                        adapted_prediction=int(outputs.pseudo_labels[j]),
                        ground_truth=int(y[j]) if y is not None else -1,
                        mapped_activations=outputs.mapped_sims.data[j].copy(),
                    )
                )
        sample_base += len(x)
    if not np.array_equal(work.prototypes.data, proto_before) or not np.array_equal(
        work.head.data, head_before
    ):
        raise ContractError("frozen parameters changed during adaptation")
    if adapting:
        work.set_trainable([])
    # propagate adapted state back to the caller's model object
    if work is not model:
        model.load_snapshot(work.state_snapshot())
    return report

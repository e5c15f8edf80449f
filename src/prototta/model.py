"""Prototype classifier: MLP backbone, sub-prototype bank, mapped similarities.

Classification scores an input by cosine similarity between its feature
vector and every sub-prototype, aggregates sub-prototype scores into one
activation per prototype, and feeds those activations through a linear
head. Similarities are additionally mapped into [0, 1] for the adaptation
loss. The adaptable parameter subsets (norm parameters, attention biases,
mixing layer) are resolved by name; prototypes and head weights are never
adaptable.
"""

from __future__ import annotations

import json
import math
import os
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field, fields
from functools import cached_property
from numbers import Real
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, DomainError, FormatError, ShapeError

EPS_CLAMP = 1e-7

MODEL_MAGIC = b"PTTA1"

NORM_KINDS = ("layer_norm", "batch_norm")
MAPPING_KINDS = ("linear", "temp_sigmoid", "log_inverse_distance")
AGGREGATIONS = ("max", "mean", "topk_mean")
PARAM_MODES = ("norm_only", "norm_plus_addons", "all_adaptive")

_DOMAIN_TOL = 1e-6


def canonical_dumps(obj, default=None) -> str:
    """Serialize with sorted keys and no whitespace so equal objects give equal bytes."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), default=default)


def check_type(kind: type, label: str, value) -> None:
    """ConfigError unless ``value`` is a ``kind``; a bool counts only as a
    bool, and a ``Real`` must be finite, as a float (an int too large for one is not)."""
    ok = isinstance(value, kind) and (kind is bool or not isinstance(value, bool))
    if ok and kind is Real:
        try:
            ok = math.isfinite(value)
        except OverflowError:
            ok = False
    if not ok:
        raise ConfigError(f"{label} must be {'finite real' if kind is Real else kind.__name__}, got {value!r}")


class JsonConfig:
    """Base of the frozen config dataclasses. Construction checks each scalar
    field against its annotation (``int``, ``bool``, ``str`` or ``float``, each
    optionally ``| None``); subclasses call this ``__post_init__`` first. Loading
    accepts only a JSON object with known keys whose values the constructor
    accepts; anything else is a ConfigError."""

    SCALARS = {"int": int, "bool": bool, "str": str, "float": Real}

    def __post_init__(self):
        for f in fields(self):
            kind, _, optional = f.type.partition(" | ")
            value = getattr(self, f.name)
            if kind in self.SCALARS and not (optional == "None" and value is None):
                check_type(self.SCALARS[kind], f.name, value)

    @classmethod
    def from_dict(cls, d: dict):
        if not isinstance(d, dict):
            raise ConfigError(f"{cls.__name__} must be a JSON object, got {type(d).__name__}")
        extra = set(d) - set(cls.__dataclass_fields__)
        if extra:
            raise ConfigError(f"unknown {cls.__name__} keys: {sorted(extra)}")
        try:
            return cls(**d)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"invalid {cls.__name__}: {exc}") from None

    @classmethod
    def from_json(cls, text: str):
        try:
            d = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid {cls.__name__} JSON: {exc}") from None
        return cls.from_dict(d)

    def to_dict(self) -> dict:
        return json.loads(self.to_json())

    def to_json(self) -> str:
        # a nested config is written as an object, a corruption spec as its str
        shallow = {f.name: getattr(self, f.name) for f in fields(self)}
        return canonical_dumps(shallow, default=lambda v: v.to_dict() if isinstance(v, JsonConfig) else str(v))


@dataclass(frozen=True)
class BackboneConfig(JsonConfig):
    """Shape of the feature extractor: linear -> norm -> bias -> tanh per layer."""

    input_dim: int = 32
    hidden_dims: tuple[int, ...] = (64,)
    norm_kind: str = "layer_norm"
    has_attention_bias: bool = True
    has_onexone: bool = False

    def __post_init__(self):
        super().__post_init__()
        if self.input_dim < 1:
            raise ConfigError(f"input_dim must be positive, got {self.input_dim}")
        object.__setattr__(self, "hidden_dims", tuple(self.hidden_dims))
        for d in self.hidden_dims:
            check_type(int, "hidden_dims", d)
        if not self.hidden_dims or any(d < 1 for d in self.hidden_dims):
            raise ConfigError(f"need at least one positive hidden dim, got {self.hidden_dims}")
        if self.norm_kind not in NORM_KINDS:
            raise ConfigError(f"norm_kind must be one of {NORM_KINDS}, got {self.norm_kind!r}")

    @property
    def feature_dim(self) -> int:
        return self.hidden_dims[-1]


@dataclass(frozen=True)
class MappingScheme(JsonConfig):
    """How raw similarities become s-bar values in [eps, 1-eps]."""

    kind: str = "log_inverse_distance"
    temperature: float = 5.0

    def __post_init__(self):
        super().__post_init__()
        if self.kind not in MAPPING_KINDS:
            raise ConfigError(f"mapping kind must be one of {MAPPING_KINDS}, got {self.kind!r}")
        if self.temperature <= 0:
            raise ConfigError(f"temperature must be positive, got {self.temperature}")


@dataclass(frozen=True)
class ModelConfig(JsonConfig):
    backbone: BackboneConfig = field(default_factory=BackboneConfig)
    num_classes: int = 5
    protos_per_class: int = 10
    sub_prototypes: int = 4
    aggregation: str = "topk_mean"
    agg_k: int | None = None
    mapping: MappingScheme = field(default_factory=MappingScheme)

    def __post_init__(self):
        super().__post_init__()
        # a backbone or mapping given as its JSON form loads strictly
        for name, kind in (("backbone", BackboneConfig), ("mapping", MappingScheme)):
            if not isinstance(getattr(self, name), kind):
                object.__setattr__(self, name, kind.from_dict(getattr(self, name)))
        if self.num_classes < 2:
            raise ConfigError(f"need at least 2 classes, got {self.num_classes}")
        if self.protos_per_class < 1 or self.sub_prototypes < 1:
            raise ConfigError("need at least one prototype per class and one sub-prototype")
        if self.aggregation not in AGGREGATIONS:
            raise ConfigError(f"aggregation must be one of {AGGREGATIONS}, got {self.aggregation!r}")
        if self.agg_k is None and self.aggregation == "topk_mean":
            # halfway between max and mean pooling
            object.__setattr__(self, "agg_k", math.ceil(self.sub_prototypes / 2))
        if self.agg_k is not None and not 1 <= self.agg_k <= self.sub_prototypes:
            raise ConfigError(f"agg_k must be in [1, {self.sub_prototypes}], got {self.agg_k}")

    @property
    def num_prototypes(self) -> int:
        return self.num_classes * self.protos_per_class


@dataclass
class BatchOutputs:
    """Everything one forward pass produces, gradients attached where live."""

    features: Tensor  # n x D
    agg_sims: Tensor  # n x P
    logits: Tensor  # n x C
    probs: Tensor  # n x C
    pseudo_labels: np.ndarray  # n, argmax class per sample
    confidences: np.ndarray  # n, max class probability per sample
    mapping: MappingScheme

    @cached_property
    def mapped_sims(self) -> Tensor:
        """n x P s-bar values in [eps, 1-eps], mapped from agg_sims on first read and recorded
        on the tape active then; later reads return the same tensor."""
        return map_activations(self.agg_sims, self.mapping)


class PrototypeModel:
    """Backbone + prototype bank + head with named parameter tensors.

    Parameter names follow a fixed order (backbone layers, mixing layer,
    prototypes, head); serialization and the adaptable-subset resolution
    both key off that order.
    """

    def __init__(self, config: ModelConfig, seed: int = 0):
        self.config = config
        self.class_of = np.repeat(np.arange(config.num_classes), config.protos_per_class)
        self.params: dict[str, Tensor] = {}
        # batch_norm evaluation statistics, per layer index
        self.running_stats: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        # the frozen prototypes' constants while ``frozen_prototypes`` pins them
        self._bank: _PrototypeBank | None = None
        self._init_params(np.random.default_rng(seed))

    def _init_params(self, rng: np.random.Generator) -> None:
        cfg = self.config
        bb = cfg.backbone
        d_in = bb.input_dim
        for i, d_out in enumerate(bb.hidden_dims):
            self.params[f"backbone.{i}.weight"] = Tensor(
                rng.normal(0.0, 1.0 / math.sqrt(d_in), size=(d_in, d_out))
            )
            self.params[f"backbone.{i}.norm.gamma"] = Tensor(np.ones(d_out))
            self.params[f"backbone.{i}.norm.beta"] = Tensor(np.zeros(d_out))
            if bb.has_attention_bias:
                self.params[f"backbone.{i}.attn_bias"] = Tensor(np.zeros(d_out))
            if bb.norm_kind == "batch_norm":
                self.running_stats[i] = (np.zeros(d_out), np.ones(d_out))
            d_in = d_out
        if bb.has_onexone:
            d = bb.feature_dim
            mix = np.eye(d) + rng.normal(0.0, 0.01, size=(d, d))
            self.params["backbone.mix.weight"] = Tensor(mix)
        protos = rng.normal(size=(cfg.num_prototypes, cfg.sub_prototypes, bb.feature_dim))
        protos /= np.linalg.norm(protos, axis=-1, keepdims=True)
        self.params["prototypes"] = Tensor(protos)
        # own-class positive, cross-class mildly negative
        head = np.full((cfg.num_classes, cfg.num_prototypes), -0.5)
        head[self.class_of, np.arange(cfg.num_prototypes)] = 1.0
        self.params["head.weight"] = Tensor(head)

    @property
    def prototypes(self) -> Tensor:
        return self.params["prototypes"]

    @property
    def head(self) -> Tensor:
        return self.params["head.weight"]

    def param_names(self) -> list[str]:
        return list(self.params)

    def adaptable_param_names(self, mode: str) -> list[str]:
        """Resolve a parameter-subset mode to concrete names, in model order."""
        if mode not in PARAM_MODES:
            raise ConfigError(f"param mode must be one of {PARAM_MODES}, got {mode!r}")
        names = []
        for name in self.params:
            if name in ("prototypes", "head.weight"):
                continue
            is_norm = ".norm." in name
            is_addon = name.endswith("attn_bias") or name == "backbone.mix.weight"
            if mode == "norm_only" and is_norm:
                names.append(name)
            elif mode == "norm_plus_addons" and (is_norm or is_addon):
                names.append(name)
            elif mode == "all_adaptive":
                names.append(name)
        return names

    def adaptable_params(self, mode: str) -> list[tuple[str, Tensor]]:
        return [(n, self.params[n]) for n in self.adaptable_param_names(mode)]

    def set_trainable(self, names) -> None:
        wanted = set(names)
        unknown = wanted - set(self.params)
        if unknown:
            raise ConfigError(f"unknown parameter names: {sorted(unknown)}")
        for name, t in self.params.items():
            t.requires_grad = name in wanted
            t.grad = None

    def state_snapshot(self) -> dict[str, np.ndarray]:
        return {name: t.data.copy() for name, t in self.params.items()}

    def load_snapshot(self, snap: dict[str, np.ndarray]) -> None:
        for name, t in self.params.items():
            t.data = snap[name].copy()
            t.grad = None

    def copy(self, config: ModelConfig | None = None) -> "PrototypeModel":
        """A detached clone, optionally under another config with the same tensors."""
        clone = PrototypeModel(self.config if config is None else config, seed=0)
        clone.load_snapshot(self.state_snapshot())
        clone.running_stats = {
            i: (m.copy(), v.copy()) for i, (m, v) in self.running_stats.items()
        }
        return clone


def check_domain(values: np.ndarray, inside: np.ndarray, what: str) -> None:
    """A DomainError naming the first value where the mask ``inside`` is false.

    Build ``inside`` from comparisons that NaN fails, such as ``values >= lo``.
    """
    if not inside.all():
        raise DomainError(f"{what}, got {float(values.reshape(-1)[np.argmin(inside)])}")


def _log_inverse(d: np.ndarray) -> np.ndarray:
    """ln((d+1)/(d+1e-4)) of finite, non-negative distances."""
    check_domain(d, (d >= -_DOMAIN_TOL) & (d < np.inf), "distance outside [0, inf)")
    return np.log((d + 1.0) / (d + 1e-4))


def _log_inverse_slope(d: np.ndarray) -> np.ndarray:
    """The derivative of ``_log_inverse`` in d."""
    return 1.0 / (d + 1.0) - 1.0 / (d + 1e-4)


def log_inverse_kernel(d: Tensor | np.ndarray | float) -> Tensor:
    """Log-inverse distance response before normalization: ln((d+1)/(d+1e-4))."""
    d = ad.as_tensor(d)
    return ad.unary(d, _log_inverse(d.data), lambda g: g * _log_inverse_slope(d.data))


def map_similarity(raw: Tensor, scheme: MappingScheme) -> Tensor:
    """Map raw similarities (or distances) into clamped [eps, 1-eps] scores, as one recorded op.

    linear and temp_sigmoid read ``raw`` as cosine-like values in [-1, 1];
    log_inverse_distance reads it as non-negative distances, applies the
    log-inverse kernel, then min-max normalizes over the whole block. The
    gradient is zero at and beyond the clamp bounds; the block's min and max
    pass theirs to their first occurrence. A block whose kernel values span at
    most 1e-12 maps to 0.5 with zero gradient.
    """
    raw = ad.as_tensor(raw)
    r = raw.data
    lo, hi = EPS_CLAMP, 1.0 - EPS_CLAMP
    if scheme.kind == "log_inverse_distance":
        s = _log_inverse(r)
        s_min, s_max = s.min(), s.max()
        span = s_max - s_min
        if span <= 1e-12:
            # all distances equal: no ordering information, call everything 0.5
            return ad.unary(raw, np.full(r.shape, 0.5), np.zeros_like)
        shifted = s - s_min
        mapped = shifted / span

        def inner(g: np.ndarray) -> np.ndarray:
            # through (s - min) / (max - min), the min and max at their first occurrence, then the kernel
            gs = g / span
            g_max = (-g * shifted / (span * span)).sum()
            g_min = -(g_max + gs.sum())
            gs.flat[np.argmax(s)] += g_max
            gs.flat[np.argmin(s)] += g_min
            return gs * _log_inverse_slope(r)

    else:
        check_domain(r, (r >= -1.0 - _DOMAIN_TOL) & (r <= 1.0 + _DOMAIN_TOL), "similarity outside [-1, 1]")
        if scheme.kind == "linear":
            mapped = (r + 1.0) * 0.5

            def inner(g: np.ndarray) -> np.ndarray:
                return g * 0.5

        else:
            temperature = float(scheme.temperature)
            z = r * temperature
            # split by sign so neither tail overflows
            pos = z >= 0
            mapped = np.empty_like(z)
            mapped[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
            ez = np.exp(z[~pos])
            mapped[~pos] = ez / (1.0 + ez)

            def inner(g: np.ndarray) -> np.ndarray:
                return g * mapped * (1.0 - mapped) * temperature

    return ad.unary(raw, np.clip(mapped, lo, hi), lambda g: inner(g * ((mapped > lo) & (mapped < hi))))


def map_activations(agg_sims: Tensor, scheme: MappingScheme) -> Tensor:
    """An n x P block of aggregated cosines as s-bar values; the log-inverse range is the block's own."""
    if scheme.kind == "log_inverse_distance":
        # squared euclidean distance between unit vectors: 2 * (1 - cos)
        return map_similarity(ad.scale(ad.sub(1.0, agg_sims), 2.0), scheme)
    return map_similarity(agg_sims, scheme)


def _backbone_layer(model: PrototypeModel, i: int, h: Tensor, use_batch_stats: bool) -> tuple[Tensor, np.ndarray]:
    """Layer ``i`` as linear -> norm -> bias -> tanh, one recorded op; returns (output, pre-norm)."""
    norm = -1 if model.config.backbone.norm_kind == "layer_norm" else 0 if use_batch_stats else model.running_stats[i]
    w, gamma, beta = (model.params[f"backbone.{i}.{name}"] for name in ("weight", "norm.gamma", "norm.beta"))
    return ad.norm_tanh(h, w, gamma, beta, model.params.get(f"backbone.{i}.attn_bias"), norm)


def backbone_features(model: PrototypeModel, x: Tensor, use_batch_stats: bool = True) -> Tensor:
    h = x
    for i in range(len(model.config.backbone.hidden_dims)):
        h, _ = _backbone_layer(model, i, h, use_batch_stats)
    mix = model.params.get("backbone.mix.weight")
    if mix is not None:
        h = ad.matmul(h, mix)
    return h


def update_running_stats(model: PrototypeModel, x: np.ndarray) -> None:
    """Recompute batch_norm evaluation statistics from a reference set.

    Walks the backbone layer by layer with current parameters and batch
    statistics, storing each pre-norm activation's mean and variance over
    the whole set. No-op for layer_norm backbones.
    """
    bb = model.config.backbone
    if bb.norm_kind != "batch_norm":
        return
    h = ad.as_tensor(x)
    for i in range(len(bb.hidden_dims)):
        h, z = _backbone_layer(model, i, h, use_batch_stats=True)
        model.running_stats[i] = (z.mean(axis=0), z.var(axis=0))


def _consensus_k(config: ModelConfig) -> int:
    """Sub-prototype similarities averaged per prototype."""
    return {"max": 1, "mean": config.sub_prototypes, "topk_mean": config.agg_k}[config.aggregation]


class _PrototypeBank:
    """What frozen forwards need of one prototype array: the P*K sub-prototypes as unit rows, and
    each prototype's centre c_p, the mean of its K unit sub-prototypes (P x d). A zero-norm
    sub-prototype is a DegenerateInputError naming its row."""

    def __init__(self, prototypes: np.ndarray):
        P, K, d = prototypes.shape
        self.unit, _ = ad._unit(prototypes.reshape(P * K, d), "b")
        self.centres = self.unit.reshape(P, K, d).mean(axis=1)


@contextmanager
def frozen_prototypes(*models: PrototypeModel):
    """Pin one bank of the first model's prototypes on every model for the span of the block.

    Their frozen forwards then take the prototype constants from it instead of
    recomputing them. The models must hold those prototype values unchanged
    while pinned. The bank is built before anything is pinned and unpinned on
    exit, also when the block raises.
    """
    bank = _PrototypeBank(models[0].prototypes.data)
    for m in models:
        m._bank = bank
    try:
        yield
    finally:
        for m in models:
            m._bank = None


def model_forward(model: PrototypeModel, x: Tensor | np.ndarray, use_batch_stats: bool = True) -> BatchOutputs:
    """Full forward pass: features, similarities, predictions.

    Runs on the active tape, so gradients flow from any loss built on the
    outputs back to whichever parameters currently require gradients. The
    mapped scores are computed only when ``mapped_sims`` is first read.
    batch_norm backbones use current-batch statistics unless
    ``use_batch_stats`` is off, which switches to stored running statistics.
    With frozen prototypes, the prototype constants come from the bank that
    ``frozen_prototypes`` pinned, or from one built for this call.
    """
    x = ad.as_tensor(x)
    if x.data.ndim != 2 or x.shape[1] != model.config.backbone.input_dim or x.shape[0] == 0:
        raise ShapeError(
            f"expected n x {model.config.backbone.input_dim} input with n >= 1, got {x.shape}"
        )
    if not np.isfinite(x.data).all():
        raise DomainError("input contains non-finite values")
    features = backbone_features(model, x, use_batch_stats)
    n = x.shape[0]
    P, K, d = model.prototypes.shape
    k = _consensus_k(model.config)
    if model.prototypes.requires_grad:
        raw_sims = ad.cosine_similarity(features, ad.reshape(model.prototypes, (P * K, d)))
        agg_sims = ad.topk_mean(ad.reshape(raw_sims, (n, P, K)), k)
    else:
        bank = model._bank or _PrototypeBank(model.prototypes.data)
        if k == K:
            # the mean of K cosines is the unit feature row dotted with c_p: one n x P product,
            # and a c_p of zero norm (antipodal sub-prototypes, say) gives 0
            agg_sims = ad.matmul(ad.unit_rows(features), bank.centres.T)
        else:
            agg_sims = ad.topk_mean(ad.reshape(ad._cosine(features, bank.unit), (n, P, K)), k)
    logits = ad.matmul(agg_sims, ad.transpose(model.head))
    probs = ad.softmax(logits)
    pseudo_labels = np.argmax(probs.data, axis=1)
    confidences = probs.data[np.arange(n), pseudo_labels].copy()
    return BatchOutputs(
        features=features,
        agg_sims=agg_sims,
        logits=logits,
        probs=probs,
        pseudo_labels=pseudo_labels,
        confidences=confidences,
        mapping=model.config.mapping,
    )


def prototype_contributions(activations: np.ndarray, head: np.ndarray, cls) -> np.ndarray:
    """Activation times |head weight| toward ``cls``: one class, or one per row of an n x P block."""
    cls = np.asarray(cls)
    if ((cls < 0) | (cls >= head.shape[0])).any():
        raise ConfigError(f"class {cls} out of range for {head.shape[0]} classes")
    return activations * np.abs(head)[cls]


# ---------------------------------------------------------------------------
# persistence


def check_output(path, directory: bool = False) -> None:
    """A ConfigError naming ``path`` unless a file (with ``directory``, a directory) can be made there.

    An existing ``path`` must be of that kind, and the nearest of its parents
    that exists must be a directory, so the missing ones can be made.
    """
    path = Path(path)
    existing = next(p for p in (path, *path.parents) if p.exists())
    if existing == path:
        if path.is_dir() != directory:
            raise ConfigError(f"output {path} {'is not' if directory else 'is'} a directory")
    elif not existing.is_dir():
        raise ConfigError(f"output {path}: {existing} is not a directory")


def write_file(path, data: str | bytes) -> None:
    """Write ``data`` (text as UTF-8) to ``path``, overwriting an existing file in place.

    The file is written over and then cut to the new length, never truncated
    to zero first: on an ext4 root mounted with ``discard``, 256 overwrites of
    a 1.2 kB file took 12-63 ms after a truncate to zero and 2-4 ms in place
    (likely the flush that ext4 starts on close after such a truncate).
    This gains only when ``path`` already exists, as on a rerun into an
    existing output directory; a new file costs the same as a truncating open.
    Nothing is fsynced, so a crash during the write can leave a file that
    mixes old and new bytes. Saved models and datasets, which a torn write
    could corrupt without changing their length, are renamed into place by
    ``_write_container`` instead.
    """
    if isinstance(data, str):
        data = data.encode("utf-8")
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view) :]
        os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def _write_container(path, magic: bytes, header: dict, blocks: list[np.ndarray]) -> None:
    """Write a new file beside ``path``, making its missing parents, and rename it over ``path``.

    A saved model or dataset of one config has the same length on every save,
    so an in-place overwrite torn by a crash could mix old and new parameters
    and still pass every check in ``_read_container``; the rename leaves
    either the old file or the whole new one in place.
    """
    check_output(path)
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    payload = canonical_dumps(header).encode("utf-8")
    arrays = [np.ascontiguousarray(block, dtype="<f8").tobytes() for block in blocks]
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        write_file(tmp, b"".join([magic, len(payload).to_bytes(8, "little"), payload, *arrays]))
        os.replace(tmp, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def _read_container(path, magic: bytes) -> tuple[dict, memoryview]:
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < len(magic) + 8:
        raise FormatError(f"{path}: file too short for a valid container")
    if raw[: len(magic)] != magic:
        raise FormatError(f"{path}: bad magic {raw[:len(magic)]!r}, expected {magic!r}")
    hlen = int.from_bytes(raw[len(magic) : len(magic) + 8], "little")
    start = len(magic) + 8
    if len(raw) < start + hlen:
        raise FormatError(f"{path}: truncated header")
    try:
        header = json.loads(raw[start : start + hlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"{path}: corrupt header: {exc}") from None
    return header, memoryview(raw)[start + hlen :]


@contextmanager
def _header_fields(path):
    """Turn a missing or ill-typed header field or config into a FormatError."""
    try:
        yield
    except KeyError as exc:
        raise FormatError(f"{path}: header missing field {exc}") from None
    except (TypeError, ValueError, IndexError, ConfigError) as exc:
        raise FormatError(f"{path}: malformed header: {exc}") from None


def _header_config(cls: type[JsonConfig], d):
    """Load a header config strictly and as saved, so no field can take its default."""
    config = cls.from_dict(d)
    if canonical_dumps(d) != config.to_json():
        raise ConfigError(f"{cls.__name__} is not in saved form, which would be {config.to_json()}")
    return config


def _read_blocks(body: memoryview, shapes: list[tuple[int, ...]], path) -> list[np.ndarray]:
    blocks = []
    offset = 0
    for shape in shapes:
        count = int(np.prod(shape)) if shape else 1
        nbytes = count * 8
        if offset + nbytes > len(body):
            raise FormatError(f"{path}: truncated tensor data")
        arr = np.frombuffer(body, dtype="<f8", count=count, offset=offset)
        if not np.isfinite(arr).all():
            raise FormatError(f"{path}: tensor {len(blocks)} holds non-finite values")
        blocks.append(arr.astype(np.float64).reshape(shape))
        offset += nbytes
    if offset != len(body):
        raise FormatError(f"{path}: {len(body) - offset} trailing bytes")
    return blocks


def save_model(model: PrototypeModel, path) -> None:
    names = model.param_names()
    stat_layers = sorted(model.running_stats)
    header = {
        "config": model.config.to_dict(),
        "class_of": model.class_of.tolist(),
        "tensors": [[name, list(model.params[name].shape)] for name in names],
        "running_stat_layers": stat_layers,
    }
    blocks = [model.params[name].data for name in names]
    for i in stat_layers:
        mean, var = model.running_stats[i]
        blocks.extend([mean, var])
    _write_container(path, MODEL_MAGIC, header, blocks)


def load_model(path) -> PrototypeModel:
    header, body = _read_container(path, MODEL_MAGIC)
    with _header_fields(path):
        config = _header_config(ModelConfig, header["config"])
        names = [name for name, _ in header["tensors"]]
        shapes = [tuple(shape) for _, shape in header["tensors"]]
        stat_layers = header["running_stat_layers"]
        model = PrototypeModel(config, seed=0)
        if header["class_of"] != model.class_of.tolist():
            raise FormatError(f"{path}: stored class_of disagrees with the config")
        expected = model.param_names()
        if names != expected:
            raise FormatError(f"{path}: tensor manifest does not match config")
        for name, shape in zip(expected, shapes):
            if shape != model.params[name].shape:
                raise FormatError(f"{path}: {name} has shape {shape}, expected {model.params[name].shape}")
        if stat_layers != sorted(model.running_stats):
            raise FormatError(f"{path}: running statistics of layers {stat_layers} do not match config")
        stat_shapes = [stat.shape for i in stat_layers for stat in model.running_stats[i]]
        # a dimension that equals an int but is not one, such as 32.0, fails here, still as a header fault
        blocks = _read_blocks(body, shapes + stat_shapes, path)
    for name, block in zip(expected, blocks[: len(expected)]):
        model.params[name].data = block.copy()
    rest = blocks[len(expected) :]
    for j, i in enumerate(stat_layers):
        model.running_stats[i] = (rest[2 * j].copy(), rest[2 * j + 1].copy())
    return model

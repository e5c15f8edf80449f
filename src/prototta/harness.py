"""Synthetic benchmark plumbing: data generation, corruptions, source training.

The task is a Gaussian-cluster classification problem over plain vectors.
Corruptions are vector analogues of the usual image corruption families,
each with a pinned five-level severity table, so that severity 5 knocks a
well-trained source model well below its clean accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .adapt import iter_batches
from .autodiff import Tensor
from .errors import ConfigError, FormatError, InsufficientDataError, TrainingError
from .model import (
    BackboneConfig,
    JsonConfig,
    ModelConfig,
    PrototypeModel,
    _header_config,
    _header_fields,
    _read_blocks,
    _read_container,
    _write_container,
    check_type,
    frozen_prototypes,
    model_forward,
    update_running_stats,
)

DATASET_MAGIC = b"PTTD1"

CORRUPTION_KINDS = (
    "gaussian_noise",
    "impulse_noise",
    "brightness_shift",
    "contrast_scale",
    "block_pixelate",
)

# per-kind parameter at severities 1..5
SEVERITY_TABLES = {
    "gaussian_noise": (0.05, 0.1, 0.2, 0.35, 0.5),  # additive sigma
    "impulse_noise": (0.02, 0.05, 0.1, 0.2, 0.3),  # replaced fraction
    "brightness_shift": (0.1, 0.2, 0.4, 0.6, 0.8),  # constant offset
    "contrast_scale": (0.8, 0.6, 0.45, 0.3, 0.2),  # deviation factor
    "block_pixelate": (2, 2, 4, 4, 8),  # averaging block length
}

TRAIN_LR = 0.01
TRAIN_BATCH_SIZE = 128
TRAIN_PULL_WEIGHT = 0.1

# family grouping used by the markdown report
CORRUPTION_GROUPS = {
    "gaussian_noise": "Noise",
    "impulse_noise": "Noise",
    "brightness_shift": "Weather",
    "contrast_scale": "Digital",
    "block_pixelate": "Digital",
}


@dataclass(frozen=True)
class CorruptionSpec:
    kind: str
    severity: int

    def __post_init__(self):
        check_type(str, "corruption kind", self.kind)
        check_type(int, "corruption severity", self.severity)
        if self.kind not in CORRUPTION_KINDS:
            raise ConfigError(f"unknown corruption {self.kind!r}; choose from {CORRUPTION_KINDS}")
        if not 1 <= self.severity <= 5:
            raise ConfigError(f"severity must be 1..5, got {self.severity}")

    @property
    def parameter(self) -> float:
        return SEVERITY_TABLES[self.kind][self.severity - 1]

    @classmethod
    def parse(cls, text: str) -> "CorruptionSpec":
        kind, sep, sev = str(text).partition(":")
        if not sep:
            raise ConfigError(f"corruption spec must look like kind:severity, got {text!r}")
        try:
            return cls(kind.strip(), int(sev))
        except ValueError:
            raise ConfigError(f"bad severity in corruption spec {text!r}") from None

    def __str__(self) -> str:
        return f"{self.kind}:{self.severity}"


def corrupt(x: np.ndarray, spec: CorruptionSpec, seed: int = 0) -> np.ndarray:
    """Apply one corruption to an n x d batch; deterministic per seed."""
    x = np.asarray(x, dtype=np.float64)
    rng = np.random.default_rng(seed)
    p = spec.parameter
    if spec.kind == "gaussian_noise":
        return x + rng.normal(0.0, p, size=x.shape)
    if spec.kind == "impulse_noise":
        peak = np.abs(x).max(initial=0.0)
        mask = rng.random(x.shape) < p
        spikes = peak * (2.0 * rng.integers(0, 2, size=x.shape) - 1.0)
        return np.where(mask, spikes, x)
    if spec.kind == "brightness_shift":
        return x + p
    if spec.kind == "contrast_scale":
        mean = x.mean(axis=-1, keepdims=True)
        return mean + p * (x - mean)
    # block_pixelate: average consecutive coordinate blocks
    block = int(p)
    out = x.copy()
    d = x.shape[-1]
    for start in range(0, d, block):
        stop = min(start + block, d)
        out[..., start:stop] = x[..., start:stop].mean(axis=-1, keepdims=True)
    return out


@dataclass(frozen=True)
class SyntheticTaskSpec(JsonConfig):
    num_classes: int = 5
    input_dim: int = 32
    clusters_per_class: int = 1
    cluster_spread: float = 0.02
    samples_per_split: tuple[int, int] = (2000, 20480)
    seed: int = 0

    def __post_init__(self):
        super().__post_init__()
        if self.num_classes < 2:
            raise ConfigError(f"need at least 2 classes, got {self.num_classes}")
        if not 0 < self.cluster_spread < np.inf:
            raise ConfigError(f"cluster_spread must be finite and positive, got {self.cluster_spread}")
        if self.clusters_per_class < 1 or self.input_dim < 1:
            raise ConfigError("clusters_per_class and input_dim must be positive")
        if self.seed < 0:
            raise ConfigError(f"seed must be at least 0, got {self.seed}")
        object.__setattr__(self, "samples_per_split", tuple(self.samples_per_split))
        for n in self.samples_per_split:
            check_type(int, "samples_per_split", n)
        if len(self.samples_per_split) != 2 or any(n < 1 for n in self.samples_per_split):
            raise ConfigError(f"need two positive split sizes, got {self.samples_per_split}")


@dataclass
class Dataset:
    spec: SyntheticTaskSpec
    train_x: np.ndarray
    train_y: np.ndarray
    test_x: np.ndarray
    test_y: np.ndarray
    centers: np.ndarray  # num_classes x clusters_per_class x input_dim


def _draw_split(rng: np.random.Generator, spec: SyntheticTaskSpec, centers: np.ndarray, n: int):
    # cycle classes for +-1 balance, then shuffle the order
    labels = np.arange(n) % spec.num_classes
    rng.shuffle(labels)
    clusters = rng.integers(0, spec.clusters_per_class, size=n)
    x = centers[labels, clusters] + rng.normal(0.0, spec.cluster_spread, size=(n, spec.input_dim))
    return x, labels.astype(np.int64)


def generate_dataset(spec: SyntheticTaskSpec) -> Dataset:
    """Unit-norm random cluster centers with Gaussian samples around them."""
    rng = np.random.default_rng(spec.seed)
    centers = rng.normal(size=(spec.num_classes, spec.clusters_per_class, spec.input_dim))
    centers /= np.linalg.norm(centers, axis=-1, keepdims=True)
    n_train, n_test = spec.samples_per_split
    train_x, train_y = _draw_split(rng, spec, centers, n_train)
    test_x, test_y = _draw_split(rng, spec, centers, n_test)
    return Dataset(spec=spec, train_x=train_x, train_y=train_y, test_x=test_x, test_y=test_y, centers=centers)


def save_dataset(dataset: Dataset, path) -> None:
    header = {
        "spec": dataset.spec.to_dict(),
        "shapes": {
            "train_x": list(dataset.train_x.shape),
            "test_x": list(dataset.test_x.shape),
            "centers": list(dataset.centers.shape),
        },
    }
    blocks = [
        dataset.train_x,
        dataset.train_y.astype(np.float64),
        dataset.test_x,
        dataset.test_y.astype(np.float64),
        dataset.centers,
    ]
    _write_container(path, DATASET_MAGIC, header, blocks)


def load_dataset(path) -> Dataset:
    header, body = _read_container(path, DATASET_MAGIC)
    with _header_fields(path):
        spec = _header_config(SyntheticTaskSpec, header["spec"])
        tx, ex, cs = (tuple(header["shapes"][key]) for key in ("train_x", "test_x", "centers"))
        centers = (spec.num_classes, spec.clusters_per_class, spec.input_dim)
        if tx[1:] != centers[2:] or ex[1:] != centers[2:] or cs != centers:
            raise FormatError(f"{path}: need x {centers[2]} wide and centers {centers}, got {tx}, {ex} and {cs}")
        if tx[0] < 1 or ex[0] < 1:
            raise FormatError(f"{path}: need at least one train and one test row, got {tx[0]} and {ex[0]}")
        blocks = _read_blocks(body, [tx, (tx[0],), ex, (ex[0],), cs], path)
        for y in blocks[1], blocks[3]:
            if not ((y == np.floor(y)) & (y >= 0) & (y < spec.num_classes)).all():
                raise FormatError(f"{path}: labels must be whole numbers in [0, {spec.num_classes})")
    return Dataset(
        spec=spec,
        train_x=blocks[0],
        train_y=blocks[1].astype(np.int64),
        test_x=blocks[2],
        test_y=blocks[3].astype(np.int64),
        centers=blocks[4],
    )


def evaluate(model: PrototypeModel, x: np.ndarray, y: np.ndarray) -> float:
    """Plain accuracy with evaluation-mode statistics, no adaptation, in batches of 512.

    The prototype constants are computed once for all batches; an empty set is refused.
    """
    if len(x) == 0:
        raise InsufficientDataError("need at least one sample to evaluate")
    correct = 0
    with frozen_prototypes(model):
        for xb, yb in iter_batches(x, y, 512):
            out = model_forward(model, xb, use_batch_stats=False)
            correct += int((out.pseudo_labels == yb).sum())
    return correct / len(x)


def _cross_entropy(probs: Tensor, labels: np.ndarray) -> Tensor:
    n, num_classes = probs.shape
    onehot = np.zeros((n, num_classes))
    onehot[np.arange(n), labels] = -1.0 / n
    return ad.reduce_sum(ad.mul(Tensor(onehot), ad.log(ad.clamp(probs, 1e-12, 1.0))))


def _prototype_pull(model: PrototypeModel, features: Tensor, labels: np.ndarray) -> Tensor:
    """Mean squared distance from each sub-prototype to its nearest same-class feature.

    Nearest-neighbour selection is done on detached values; gradients flow
    into both the prototypes and the features. For a fixed sub-prototype p,
    |f - p|^2 ranks the candidate features f as |f|^2 - 2 p.f does, so each
    class's search is one Gram product of its rows with its candidates. Exact
    ties (duplicated features) go to the lowest batch index, as ``argmin``
    takes the first; features whose distances differ only at rounding level
    may rank either way. The rows of a class with no feature in the batch add
    0. The targets are a one-hot matmul rather than a row gather: its backward
    ``pick.T @ g`` sums each feature's gradient in BLAS order, while a gather's
    scatter-add would sum it in another order and change the trained bits.
    """
    protos = model.prototypes
    num_protos, k, d = protos.shape
    flat = ad.reshape(protos, (num_protos * k, d))
    feats = features.data
    sq = (feats * feats).sum(axis=1)
    row_class = np.repeat(model.class_of, k)
    pick = np.zeros((num_protos * k, feats.shape[0]))
    for c in np.unique(labels):
        candidates = np.flatnonzero(labels == c)
        rows = np.flatnonzero(row_class == c)
        score = sq[candidates] - 2.0 * (flat.data[rows] @ feats[candidates].T)
        pick[rows, candidates[np.argmin(score, axis=1)]] = 1.0
    targets = ad.matmul(Tensor(pick), features)
    mask = (pick.sum(axis=1) > 0).astype(np.float64)[:, None]
    diff = ad.mul(Tensor(mask), ad.sub(flat, targets))
    return ad.reduce_mean(ad.mul(diff, diff))


def check_model_fits(config: ModelConfig, spec: SyntheticTaskSpec) -> None:
    """A ConfigError unless the model takes the dataset's input width and has its class count."""
    if config.backbone.input_dim != spec.input_dim:
        raise ConfigError(f"model input_dim {config.backbone.input_dim} != dataset {spec.input_dim}")
    if config.num_classes != spec.num_classes:
        raise ConfigError(f"model num_classes {config.num_classes} != dataset {spec.num_classes}")


def train_source_model(
    dataset: Dataset,
    config: ModelConfig | None = None,
    epochs: int = 30,
    seed: int = 0,
) -> tuple[PrototypeModel, dict]:
    """Jointly train backbone, prototypes, and head on the clean train split.

    Cross-entropy plus ``TRAIN_PULL_WEIGHT`` times a prototype-pull term that drags
    each sub-prototype toward its nearest same-class feature, by Adam at ``TRAIN_LR``
    on shuffled minibatches of ``TRAIN_BATCH_SIZE``. Deterministic per seed. With no
    config, the default model takes the dataset's class count and input width.
    Returns the model and a stats dict with the final (at 0 epochs, initial) clean test accuracy.
    """
    # imported per call, so a replaced ``adapt.adam_step`` (a timing hook) is the one used
    from .adapt import TTAConfig, adam_step, init_optimizer

    if epochs < 0 or seed < 0:
        raise ConfigError(f"need epochs >= 0 and seed >= 0, got epochs {epochs}, seed {seed}")
    if config is None:
        config = ModelConfig(BackboneConfig(input_dim=dataset.spec.input_dim), num_classes=dataset.spec.num_classes)
    check_model_fits(config, dataset.spec)
    model = PrototypeModel(config, seed=seed)
    names = model.param_names()
    model.set_trainable(names)
    params = [model.params[name] for name in names]
    opt = init_optimizer(params)
    opt_cfg = TTAConfig(lr=TRAIN_LR)
    rng = np.random.default_rng(seed)
    last_loss = float("nan")
    for epoch in range(epochs):
        order = rng.permutation(len(dataset.train_x))
        for xb, yb in iter_batches(dataset.train_x[order], dataset.train_y[order], TRAIN_BATCH_SIZE):
            tape = ad.Tape()
            with tape:
                out = model_forward(model, xb, use_batch_stats=True)
                loss = ad.add(
                    _cross_entropy(out.probs, yb),
                    ad.scale(_prototype_pull(model, out.features, yb), TRAIN_PULL_WEIGHT),
                )
            if not np.isfinite(loss.data).all():
                raise TrainingError(f"loss diverged at epoch {epoch}")
            ad.backward(tape, loss)
            adam_step(params, [p.grad for p in params], opt, opt_cfg)
            tape.clear()
            last_loss = loss.item()
    model.set_trainable([])
    update_running_stats(model, dataset.train_x)
    accuracy = evaluate(model, dataset.test_x, dataset.test_y)
    return model, {"epochs": epochs, "final_loss": last_loss, "clean_accuracy": accuracy}

"""Synthetic benchmark plumbing: data generation, corruptions, source training.

The task is a Gaussian-cluster classification problem over plain vectors.
Corruptions are vector analogues of the usual image corruption families,
each with a pinned five-level severity table, so that severity 5 knocks a
well-trained source model well below its clean accuracy.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from . import autodiff as ad
from .adapt import iter_batches
from .autodiff import Tensor
from .errors import ConfigError, TrainingError
from .model import (
    BackboneConfig,
    ModelConfig,
    PrototypeModel,
    _header_fields,
    _read_blocks,
    _read_container,
    _write_container,
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


def corruption_strength(kind: str, severity: int) -> float:
    """Monotone-increasing severity scale, comparable within a kind.

    contrast_scale's raw parameter shrinks as corruption grows, so strength
    is reported as 1 - factor there; all other kinds use the raw parameter.
    """
    param = SEVERITY_TABLES[kind][severity - 1]
    return 1.0 - param if kind == "contrast_scale" else float(param)


def corrupt(x: np.ndarray, spec: CorruptionSpec, seed: int = 0) -> np.ndarray:
    """Apply one corruption to an n x d batch; deterministic per seed."""
    x = np.asarray(x, dtype=np.float64)
    rng = np.random.default_rng(seed)
    p = spec.parameter
    if spec.kind == "gaussian_noise":
        return x + rng.normal(0.0, p, size=x.shape)
    if spec.kind == "impulse_noise":
        peak = np.abs(x).max()
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
class SyntheticTaskSpec:
    num_classes: int = 5
    input_dim: int = 32
    clusters_per_class: int = 1
    cluster_spread: float = 0.02
    samples_per_split: tuple[int, int] = (2000, 20480)
    seed: int = 0

    def __post_init__(self):
        if self.num_classes < 2:
            raise ConfigError(f"need at least 2 classes, got {self.num_classes}")
        if self.cluster_spread <= 0:
            raise ConfigError(f"cluster_spread must be positive, got {self.cluster_spread}")
        if self.clusters_per_class < 1 or self.input_dim < 1:
            raise ConfigError("clusters_per_class and input_dim must be positive")
        object.__setattr__(self, "samples_per_split", tuple(int(n) for n in self.samples_per_split))
        if any(n < 1 for n in self.samples_per_split):
            raise ConfigError(f"split sizes must be positive, got {self.samples_per_split}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "SyntheticTaskSpec":
        return cls(
            num_classes=int(d["num_classes"]),
            input_dim=int(d["input_dim"]),
            clusters_per_class=int(d["clusters_per_class"]),
            cluster_spread=float(d["cluster_spread"]),
            samples_per_split=tuple(d["samples_per_split"]),
            seed=int(d["seed"]),
        )


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
        spec = SyntheticTaskSpec.from_dict(header["spec"])
        tx, ex, cs = (tuple(header["shapes"][key]) for key in ("train_x", "test_x", "centers"))
        blocks = _read_blocks(body, [tx, (tx[0],), ex, (ex[0],), cs], path)
    return Dataset(
        spec=spec,
        train_x=blocks[0],
        train_y=blocks[1].astype(np.int64),
        test_x=blocks[2],
        test_y=blocks[3].astype(np.int64),
        centers=blocks[4],
    )


def evaluate(model: PrototypeModel, x: np.ndarray, y: np.ndarray, batch_size: int = 512) -> float:
    """Plain accuracy with evaluation-mode statistics, no adaptation."""
    correct = 0
    for xb, yb in iter_batches(x, y, batch_size):
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
    into both the prototypes and the features.
    """
    protos = model.prototypes
    num_protos, k, d = protos.shape
    flat = ad.reshape(protos, (num_protos * k, d))
    feats = features.data
    row_class = np.repeat(model.class_of, k)
    pick = np.zeros((num_protos * k, feats.shape[0]))
    for c in np.unique(labels):
        candidates = np.flatnonzero(labels == c)
        rows = np.flatnonzero(row_class == c)
        diffs = feats[candidates][None, :, :] - flat.data[rows][:, None, :]
        nearest = candidates[np.argmin((diffs * diffs).sum(axis=2), axis=1)]
        pick[rows, nearest] = 1.0
    targets = ad.matmul(Tensor(pick), features)
    mask = (pick.sum(axis=1) > 0).astype(np.float64)[:, None]
    diff = ad.mul(Tensor(mask), ad.sub(flat, targets))
    return ad.reduce_mean(ad.mul(diff, diff))


def train_source_model(
    dataset: Dataset,
    config: ModelConfig | None = None,
    epochs: int = 30,
    seed: int = 0,
    lr: float = 0.01,
    batch_size: int = 128,
    pull_coeff: float = 0.1,
) -> tuple[PrototypeModel, dict]:
    """Jointly train backbone, prototypes, and head on the clean train split.

    Cross-entropy plus a small prototype-pull term that drags each
    sub-prototype toward its nearest same-class feature. Deterministic per
    seed. With no config, the default model takes the dataset's class count
    and input width. Returns the model and a stats dict including the final
    clean test accuracy.
    """
    from .adapt import TTAConfig, adam_step, init_optimizer

    if epochs < 0 or batch_size < 1:
        raise ConfigError(f"need epochs >= 0 and batch_size >= 1, got {epochs} and {batch_size}")
    if config is None:
        config = ModelConfig(BackboneConfig(input_dim=dataset.spec.input_dim), num_classes=dataset.spec.num_classes)
    if config.backbone.input_dim != dataset.spec.input_dim:
        raise ConfigError(
            f"model input_dim {config.backbone.input_dim} != dataset {dataset.spec.input_dim}"
        )
    if config.num_classes != dataset.spec.num_classes:
        raise ConfigError(
            f"model num_classes {config.num_classes} != dataset {dataset.spec.num_classes}"
        )
    model = PrototypeModel(config, seed=seed)
    if epochs == 0:
        update_running_stats(model, dataset.train_x)
        return model, {"epochs": 0, "final_loss": float("nan"), "clean_accuracy": float("nan")}
    names = model.param_names()
    model.set_trainable(names)
    params = [model.params[name] for name in names]
    opt = init_optimizer(params)
    opt_cfg = TTAConfig(lr=lr)
    rng = np.random.default_rng(seed)
    last_loss = float("nan")
    for epoch in range(epochs):
        order = rng.permutation(len(dataset.train_x))
        for xb, yb in iter_batches(dataset.train_x[order], dataset.train_y[order], batch_size):
            tape = ad.Tape()
            with tape:
                out = model_forward(model, xb, use_batch_stats=True)
                loss = ad.add(
                    _cross_entropy(out.probs, yb),
                    ad.scale(_prototype_pull(model, out.features, yb), pull_coeff),
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

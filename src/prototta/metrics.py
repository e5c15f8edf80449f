"""Interpretability, efficiency, and correlation metrics.

All functions are pure and numpy-only: they consume detached activation
records or report objects produced by the adaptation drivers. Summary
statistics use population standard deviation (ddof=0) throughout.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    ConfigError,
    DegenerateInputError,
    DomainError,
    FormatError,
    InsufficientDataError,
    MeasurementError,
    ShapeError,
)
from .model import check_type, prototype_contributions, write_file


_RECORD_INTS = ("sample_id", "clean_prediction", "adapted_prediction", "ground_truth")
_RECORD_ARRAYS = ("clean_activations", "adapted_activations", "mapped_activations")
# prototypes per sample that PCA-W scores: the bench's pca_w column and every board
PCA_W_K = 5


@dataclass
class ActivationRecord:
    """One sample's prototype activations under clean and adapted weights."""

    sample_id: int
    clean_activations: np.ndarray  # length P
    adapted_activations: np.ndarray  # length P
    clean_prediction: int
    adapted_prediction: int
    ground_truth: int
    mapped_activations: np.ndarray | None = None  # adapted s-bar values, length P

    def to_json(self) -> str:
        obj = {
            "sample_id": self.sample_id,
            "clean_activations": self.clean_activations.tolist(),
            "adapted_activations": self.adapted_activations.tolist(),
            "clean_prediction": self.clean_prediction,
            "adapted_prediction": self.adapted_prediction,
            "ground_truth": self.ground_truth,
        }
        if self.mapped_activations is not None:
            obj["mapped_activations"] = self.mapped_activations.tolist()
        return json.dumps(obj, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, line: str) -> "ActivationRecord":
        """Parse one records line strictly: the ids, predictions and label are
        non-negative ints (not bools or floats), but for the label -1 of an
        unlabeled sample, and the activations, of which ``mapped_activations``
        may be left out, non-empty finite number lists of one length; anything
        else is a FormatError."""
        try:
            obj = json.loads(line)
            check_type(dict, "record", obj)
            for key in (*_RECORD_INTS, "clean_activations", "adapted_activations"):
                if key not in obj:
                    raise ConfigError(f"missing field {key!r}")
            for key in _RECORD_INTS:
                check_index(key, obj[key])
            arrays = {key: _activations(key, obj[key]) for key in _RECORD_ARRAYS if key in obj}
            if len({len(a) for a in arrays.values()}) != 1:
                raise ConfigError(f"activation lists differ in length: {[len(a) for a in arrays.values()]}")
        except (ValueError, ConfigError) as exc:
            raise FormatError(f"bad activation record: {exc}") from None
        return cls(**{key: obj[key] for key in _RECORD_INTS}, **arrays)


def check_index(key: str, value) -> None:
    """A ConfigError unless ``value`` is a non-negative int, or the ``ground_truth`` -1 of an unlabeled sample."""
    check_type(int, key, value)
    if value < 0 and (key, value) != ("ground_truth", -1):
        unlabeled = " or -1 (unlabeled)" if key == "ground_truth" else ""
        raise ConfigError(f"{key} must be non-negative{unlabeled}, got {value}")


def _activations(key: str, value) -> np.ndarray:
    """A non-empty list of finite JSON numbers (no bools) as a float64 vector."""
    check_type(list, key, value)
    if not value or not set(map(type, value)) <= {int, float}:
        raise ConfigError(f"{key} must be a non-empty list of numbers")
    try:
        arr = np.asarray(value, dtype=np.float64)
    except OverflowError:
        raise ConfigError(f"{key} holds a number too large for a float") from None
    if not np.isfinite(arr).all():
        raise ConfigError(f"{key} must be finite")
    return arr


def dump_records(records: Iterable[ActivationRecord], path) -> None:
    write_file(path, "".join(rec.to_json() + "\n" for rec in records))


def load_records(path) -> list[ActivationRecord]:
    """Records from a ``.jsonl`` file; a bad line is a FormatError naming ``path:line``."""
    out = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if line:
                    try:
                        out.append(ActivationRecord.from_json(line))
                    except FormatError as exc:
                        raise FormatError(f"{path}:{lineno}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text: {exc}") from None
    return out


def mean_std(values) -> tuple[float, float]:
    """Mean and population standard deviation (ddof=0) of the values."""
    arr = np.asarray(values, dtype=np.float64)
    return float(arr.mean()), float(arr.std())


@dataclass
class MetricSummary:
    mean: float
    std: float
    values: np.ndarray = field(repr=False)
    excluded: int = 0  # samples counted but left unscored


def pac(clean: np.ndarray, adapted: np.ndarray) -> MetricSummary:
    """Mean cosine between each row's clean and adapted activation vectors (n x P each, all finite)."""
    clean = np.asarray(clean, dtype=np.float64)
    adapted = np.asarray(adapted, dtype=np.float64)
    if len(clean) == 0:
        raise InsufficientDataError("need at least one sample")
    if clean.ndim != 2 or clean.shape != adapted.shape:
        raise ShapeError(f"expected two n x P activation blocks of one shape, got {clean.shape} and {adapted.shape}")
    _check_finite_rows(clean, adapted)
    # each 1xP @ Px1 product is the BLAS dot that ``x @ y`` and np.linalg.norm take on one row
    na = np.sqrt((clean[:, None] @ clean[..., None])[:, 0, 0])
    nb = np.sqrt((adapted[:, None] @ adapted[..., None])[:, 0, 0])
    bad = np.flatnonzero((na <= 0) | (nb <= 0))
    if len(bad):
        raise DegenerateInputError(f"zero-norm activation vector in row {bad[0]}")
    values = (clean[:, None] @ adapted[..., None])[:, 0, 0] / (na * nb)
    return MetricSummary(*mean_std(values), values=values)


def _check_finite_rows(*blocks: np.ndarray) -> None:
    """A DomainError naming the first row that holds a NaN or infinity in any of the n x P ``blocks``."""
    bad = np.flatnonzero(~np.all([np.isfinite(block).all(axis=1) for block in blocks], axis=0))
    if len(bad):
        raise DomainError(f"non-finite activation in row {bad[0]}")


def _top_indices(scores: np.ndarray, k: int) -> np.ndarray:
    """The k largest entries of each row of an n x P block, largest first, as k first-maximum
    ``argmax`` rounds: ties go to the lowest index, so for scores free of NaN and -inf this is
    ``argsort(-scores, kind="stable")[:, :k]``. A NaN counts as largest."""
    left = np.array(scores, dtype=np.float64)
    rows = np.arange(len(left))
    top = np.empty((len(left), k), dtype=np.intp)
    for j in range(k):
        top[:, j] = np.argmax(left, axis=1)
        left[rows, top[:, j]] = -np.inf
    return top


def pca_w(
    agg_sims: np.ndarray,
    head: np.ndarray,
    class_of: np.ndarray,
    ground_truths: np.ndarray,
    k: int = PCA_W_K,
) -> MetricSummary:
    """Contribution share of the true class among each sample's top-k activated prototypes.

    Per sample, the k most activated prototypes are weighted by their
    contribution toward the ground-truth class (activation times absolute
    head weight); the score is the weight fraction owned by that class.
    Samples whose top-k contribution mass is not positive are excluded and
    counted rather than scored. ``ground_truths`` holds one class in [0, C)
    per sample; every activation must be finite.
    """
    agg_sims = np.asarray(agg_sims, dtype=np.float64)
    if agg_sims.ndim != 2:
        raise ShapeError(f"expected n x P activations, got {agg_sims.shape}")
    _check_finite_rows(agg_sims)
    n, num_protos = agg_sims.shape
    if not 1 <= k <= num_protos:
        raise ShapeError(f"k must be in [1, {num_protos}], got {k}")
    head = np.asarray(head, dtype=np.float64)
    y = np.asarray(ground_truths)
    if y.shape != (n,):
        raise ShapeError(f"expected {n} ground truths, got shape {y.shape}")
    if not np.issubdtype(y.dtype, np.integer) or ((y < 0) | (y >= len(head))).any():
        raise DomainError(f"ground truths must be integer classes in [0, {len(head)})")
    top = _top_indices(agg_sims, k)
    contrib = np.take_along_axis(prototype_contributions(agg_sims, head, y), top, axis=1)
    values, scored = _owned_share(contrib, np.asarray(class_of)[top] == y[:, None])
    if not scored.any():
        raise InsufficientDataError("every sample had non-positive contribution mass")
    return MetricSummary(*mean_std(values), values=values, excluded=int(n - scored.sum()))


def _owned_share(contrib: np.ndarray, owned: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ``owned`` share of each row's mass, leaving out rows of non-positive mass, and the mask of rows kept.
    Unowned entries are zeroed, which for rows of 8 or more sums in another order than the owned alone (ULPs)."""
    total = contrib.sum(axis=-1)
    own = np.where(owned, contrib, 0.0).sum(axis=-1)
    scored = ~(total <= 0)
    return own[scored] / total[scored], scored


def prediction_stability(clean_predictions: np.ndarray, adapted_predictions: np.ndarray) -> float:
    """Percentage of samples whose adapted prediction matches the clean one."""
    clean_predictions = np.asarray(clean_predictions)
    adapted_predictions = np.asarray(adapted_predictions)
    if len(clean_predictions) == 0:
        raise InsufficientDataError("need at least one sample")
    if clean_predictions.ndim != 1 or clean_predictions.shape != adapted_predictions.shape:
        raise ShapeError(
            f"expected two prediction vectors of one length, got {clean_predictions.shape} and {adapted_predictions.shape}"
        )
    agree = int(np.count_nonzero(clean_predictions == adapted_predictions))
    return 100.0 * agree / len(clean_predictions)


def selection_rate(report) -> float:
    """Percentage of streamed samples that participated in an update."""
    total = report.total_samples
    if total == 0:
        raise InsufficientDataError("report covers no samples")
    return 100.0 * report.selected_samples / total


def _median_throughput(report) -> float:
    records = report.records
    if not records:
        raise InsufficientDataError("report covers no batches")
    timed = records[1:] if len(records) > 1 else records  # first batch is warm-up
    rates = []
    for rec in timed:
        if rec.duration_s <= 0:
            raise MeasurementError(f"non-positive duration for batch {rec.index}")
        rates.append(rec.size / rec.duration_s)
    return float(np.median(rates))


def relative_speed(throughput: float, base_throughput: float) -> float:
    """A throughput as a percentage of a base throughput.

    The ratio is taken before scaling, so equal throughputs give exactly 100.0.
    """
    return 100.0 * (throughput / base_throughput)


def pearson(x: Sequence[float], y: Sequence[float]) -> float:
    """Product-moment correlation; undefined when either input has zero variance."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ShapeError(f"need equal-length 1-D inputs, got {x.shape} and {y.shape}")
    if len(x) < 3:
        raise InsufficientDataError(f"need at least 3 pairs, got {len(x)}")
    dx = x - x.mean()
    dy = y - y.mean()
    sx = float(np.sqrt((dx * dx).sum()))
    sy = float(np.sqrt((dy * dy).sum()))
    if sx == 0.0 or sy == 0.0:
        raise DegenerateInputError("zero variance makes the correlation undefined")
    return float((dx * dy).sum() / (sx * sy))


def rankdata_average(x: Sequence[float]) -> np.ndarray:
    """Ranks starting at 1; tied values share the average of their positions."""
    x = np.asarray(x, dtype=np.float64)
    order = np.argsort(x, kind="mergesort")
    _, first, counts = np.unique(x[order], return_index=True, return_counts=True, equal_nan=False)
    ranks = np.empty(len(x))
    ranks[order] = np.repeat(first + 0.5 * (counts - 1) + 1.0, counts)
    return ranks


def spearman(x: Sequence[float], y: Sequence[float]) -> float:
    """Rank correlation: pearson on average ranks."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ShapeError(f"need equal-length 1-D inputs, got {x.shape} and {y.shape}")
    return pearson(rankdata_average(x), rankdata_average(y))


def load_scores(path) -> dict[int, float]:
    """Read a `sample_id,score` CSV into a dict keyed by sample id; every row
    must hold exactly those two fields, every score be finite and every
    sample id appear once."""
    import csv

    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise FormatError(f"{path}: empty scores file") from None
            if [h.strip() for h in header] != ["sample_id", "score"]:
                raise FormatError(f"{path}: expected header 'sample_id,score', got {header}")
            scores = {}
            for row_num, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != 2:
                    raise FormatError(f"{path}:{row_num}: bad row {row}: expected 2 fields, got {len(row)}")
                try:
                    sid, score = int(row[0]), float(row[1])
                except ValueError as exc:
                    raise FormatError(f"{path}:{row_num}: bad row {row}: {exc}") from None
                if sid in scores:
                    raise FormatError(f"{path}:{row_num}: repeated sample_id {sid}")
                if not np.isfinite(score):
                    raise FormatError(f"{path}:{row_num}: non-finite score {row[1]!r}")
                scores[sid] = score
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text: {exc}") from None
    return scores

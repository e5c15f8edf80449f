"""Interpretability, efficiency, and correlation metrics.

All functions are pure and numpy-only: they consume detached activation
records or report objects produced by the adaptation drivers. Summary
statistics use population standard deviation (ddof=0) throughout.
"""

from __future__ import annotations

import json
from contextlib import suppress
from dataclasses import dataclass, field
from itertools import accumulate, chain
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    ConfigError,
    ContractError,
    DegenerateInputError,
    DomainError,
    FormatError,
    InsufficientDataError,
    MeasurementError,
    ShapeError,
)
from .autodiff import Tensor
from .model import MappingScheme, check_type, map_activations, prototype_contributions, write_file


_RECORD_INTS = ("sample_id", "clean_prediction", "adapted_prediction", "ground_truth")
_RECORD_ARRAYS = ("clean_activations", "adapted_activations")
# a records line's fields in the order a line's checks take them; the clean pair and the range may be left out
_RECORD_FIELDS = (*_RECORD_INTS, *_RECORD_ARRAYS, "log_inverse_range")
_CLEAN_PAIR = frozenset({"clean_activations", "clean_prediction"})
_ADAPTED_FIELDS = frozenset({"sample_id", "adapted_prediction", "ground_truth", "adapted_activations"})
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
    mapping: MappingScheme | None = None  # the adapting model's; None for a record read from a file
    log_inverse_range: tuple[float, float] | None = None  # the (min, max) kernel value of the sample's batch

    @property
    def mapped_activations(self) -> np.ndarray | None:
        """The adapted s-bar values, length P, as the batch's forward maps them: the adapted activations
        through ``map_activations`` over the record's range; None without a mapping. Never written."""
        if self.mapping is None:
            return None
        return map_activations(Tensor(self.adapted_activations), self.mapping, self.log_inverse_range).data

    def to_json(self) -> str:
        """The record's line: what ``json.dumps(obj, sort_keys=True, separators=(",", ":"))`` gives for its
        dict of ints, float64 activation lists and log-inverse range, filled into a fixed layout instead of
        built as a dict.

        A line holds only what cannot be derived. The clean activations and prediction are written only where
        they differ from the adapted ones (the activations bitwise, so ``-0.0`` and ``0.0`` differ). Mapped
        activations are never written: they follow from the adapted activations and the range. Floats are
        written by ``float.__repr__``, as the encoder writes them. An id, prediction or label that is not an
        int, or a non-finite activation or range value, which JSON cannot hold, is a DomainError naming the
        sample and the field.
        """
        for key in _RECORD_INTS:
            if type(getattr(self, key)) is not int:
                raise DomainError(f"record {self.sample_id!r}: {key} must be int, got {getattr(self, key)!r}")
        clean = np.asarray(self.clean_activations, dtype=np.float64)
        adapted = np.asarray(self.adapted_activations, dtype=np.float64)
        clean_text = range_text = ""
        same = clean.shape == adapted.shape and clean.tobytes() == adapted.tobytes()
        if not same or self.clean_prediction != self.adapted_prediction:
            clean_text = _CLEAN_TEXT % (self._floats_text("clean_activations", clean), self.clean_prediction)
        if self.log_inverse_range is not None:
            range_text = _RANGE_TEXT % self._floats_text("log_inverse_range", self.log_inverse_range)
        return _RECORD_TEXT % (
            self._floats_text("adapted_activations", adapted),
            self.adapted_prediction,
            clean_text,
            self.ground_truth,
            range_text,
            self.sample_id,
        )

    def _floats_text(self, key: str, values) -> str:
        # tolist gives Python floats, whose list repr is their JSON array with a space after each comma
        text = repr(np.asarray(values, dtype=np.float64).tolist()).replace(" ", "")
        if "n" in text:  # float.__repr__ writes an n only in nan and inf
            raise DomainError(f"record {self.sample_id}: {key} holds a non-finite value")
        return text


# a records line: the keys in sorted order, the clean pair's and the range's members where they are written
_RECORD_TEXT = '{"adapted_activations":%s,"adapted_prediction":%d,%s"ground_truth":%d,%s"sample_id":%d}'
_CLEAN_TEXT = '"clean_activations":%s,"clean_prediction":%d,'
_RANGE_TEXT = '"log_inverse_range":%s,'


def check_index(key: str, value) -> None:
    """A ConfigError unless ``value`` is a non-negative int, or the ``ground_truth`` -1 of an unlabeled sample."""
    check_type(int, key, value)
    if value < 0 and (key, value) != ("ground_truth", -1):
        unlabeled = " or -1 (unlabeled)" if key == "ground_truth" else ""
        raise ConfigError(f"{key} must be non-negative{unlabeled}, got {value}")


def _check_activations(key: str, value) -> None:
    """A ConfigError unless ``value`` is a non-empty list of JSON numbers (no bools) that are finite as float64."""
    check_type(list, key, value)
    if not value or not set(map(type, value)) <= {int, float}:
        raise ConfigError(f"{key} must be a non-empty list of numbers")
    try:
        arr = np.asarray(value, dtype=np.float64)
    except OverflowError:
        raise ConfigError(f"{key} holds a number too large for a float") from None
    if not np.isfinite(arr).all():
        raise ConfigError(f"{key} must be finite")


def _check_line(obj, required: frozenset) -> None:
    """A ConfigError with the first failing check of one parsed records line. The line is a dict that holds
    ``required``, and the clean pair whole or not at all. Its ids, predictions and label are non-negative
    ints (not bools or floats), but for the label -1 of an unlabeled sample. Its activations pass
    ``_check_activations`` and have one length. Its log-inverse range is two finite numbers, the first at
    most the second as written."""
    check_type(dict, "record", obj)
    if not obj.keys().isdisjoint(_CLEAN_PAIR):
        required |= _CLEAN_PAIR
    for key in _RECORD_FIELDS:
        if key in required and key not in obj:
            raise ConfigError(f"missing field {key!r}")
    for key in _RECORD_INTS:
        if key in obj:
            check_index(key, obj[key])
    for key in _RECORD_ARRAYS:
        if key in obj:
            _check_activations(key, obj[key])
    lengths = [len(obj[key]) for key in _RECORD_ARRAYS if key in obj]
    if len(set(lengths)) != 1:
        raise ConfigError(f"activation lists differ in length: {lengths}")
    if "log_inverse_range" in obj:
        lo_hi = obj["log_inverse_range"]
        _check_activations("log_inverse_range", lo_hi)
        if len(lo_hi) != 2 or not lo_hi[0] <= lo_hi[1]:
            raise ConfigError(f"log_inverse_range must be [lo, hi] with lo <= hi, got {lo_hi}")


def _activation_column(values: list) -> list[np.ndarray] | None:
    """``values`` as float64 row views of one array if each passes ``_check_activations`` (one type check,
    ``np.array`` and ``np.isfinite`` for them all), else None."""
    if all(type(v) is list and v for v in values):
        flat = list(chain.from_iterable(values))
        if set(map(type, flat)) <= {int, float}:
            with suppress(OverflowError):
                array = np.array(flat, dtype=np.float64)
                if np.isfinite(array).all():
                    ends = accumulate(map(len, values))
                    return [array[end - len(v) : end] for v, end in zip(values, ends)]
    return None


def _records(objs: list, required: frozenset) -> list[ActivationRecord] | None:
    """The records of parsed lines if every line passes ``_check_line``, else None. Each check runs once
    per column; a line without the clean pair takes its adapted fields as its clean ones."""
    if set(map(type, objs)) - {dict} or not all(
        obj.keys() >= required and (obj.keys() >= _CLEAN_PAIR or obj.keys().isdisjoint(_CLEAN_PAIR)) for obj in objs
    ):
        return None
    for key in _RECORD_INTS:
        values = [obj[key] for obj in objs if key in obj]
        if set(map(type, values)) - {int} or min(values, default=0) < (-1 if key == "ground_truth" else 0):
            return None
    paired = [i for i, obj in enumerate(objs) if "clean_activations" in obj]
    ranged = [i for i, obj in enumerate(objs) if "log_inverse_range" in obj]
    adapted = _activation_column([obj["adapted_activations"] for obj in objs])
    clean = _activation_column([objs[i]["clean_activations"] for i in paired])
    ranges = [objs[i]["log_inverse_range"] for i in ranged]
    if (
        adapted is None
        or clean is None
        or any(len(row) != len(adapted[i]) for i, row in zip(paired, clean))
        or not all(type(v) is list and len(v) == 2 for v in ranges)
        or _activation_column(ranges) is None
        or not all(lo <= hi for lo, hi in ranges)  # as written: two ints past 2**53 may meet as floats
    ):
        return None
    clean_rows = dict(zip(paired, clean))
    range_of = dict(zip(ranged, [(float(lo), float(hi)) for lo, hi in ranges]))
    return [
        ActivationRecord(
            obj["sample_id"],
            clean_rows.get(i, adapted[i]),
            adapted[i],
            obj.get("clean_prediction", obj["adapted_prediction"]),
            obj["adapted_prediction"],
            obj["ground_truth"],
            log_inverse_range=range_of.get(i),
        )
        for i, obj in enumerate(objs)
    ]


def dump_records(records: Iterable[ActivationRecord], path) -> None:
    """Write each record's ``to_json`` line. Every line is made, and so checked, before ``path`` is opened."""
    write_file(path, "".join([f"{rec.to_json()}\n" for rec in records]))


def load_records(path, require_range: bool = False) -> list[ActivationRecord]:
    """Records from a ``.jsonl`` file, where ``require_range`` asks every line for its log-inverse range;
    blank lines are passed over. The lines are checked once per column (``_records``). Only a file that
    fails there is checked line by line (``_check_line``), so that a bad line is a FormatError naming
    ``path:line`` and its first failing check."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            numbered = [(n, line) for n, line in enumerate(map(str.strip, fh), start=1) if line]
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text: {exc}") from None
    required = _ADAPTED_FIELDS | ({"log_inverse_range"} if require_range else set())
    try:
        objs = [json.loads(line) for _, line in numbered]
    except ValueError:  # a line that is not JSON
        objs = None
    records = None if objs is None else _records(objs, required)
    if records is not None:
        return records
    for n, line in numbered:
        try:
            _check_line(json.loads(line), required)
        except (ValueError, ConfigError) as exc:
            raise FormatError(f"{path}:{n}: bad activation record: {exc}") from None
    raise ContractError(f"{path}: the column checks refused records that every line check passes")


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

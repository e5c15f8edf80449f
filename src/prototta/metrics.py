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
        """The record's line: what ``json.dumps(obj, sort_keys=True, separators=(",", ":"))`` gives for its
        dict of ints and float64 activation lists, filled into a fixed layout instead of built as a dict.

        Floats are written by ``float.__repr__``, as the encoder writes them. Clean and adapted
        activations that are bitwise equal (so ``-0.0`` and ``0.0`` differ) are formatted once. An id,
        prediction or label that is not an int, or a non-finite activation, which JSON cannot hold,
        is a DomainError naming the sample and the field.
        """
        for key in _RECORD_INTS:
            if type(getattr(self, key)) is not int:
                raise DomainError(f"record {self.sample_id!r}: {key} must be int, got {getattr(self, key)!r}")
        clean = np.asarray(self.clean_activations, dtype=np.float64)
        adapted = np.asarray(self.adapted_activations, dtype=np.float64)
        clean_text = self._floats_text("clean_activations", clean)
        if adapted.shape == clean.shape and adapted.tobytes() == clean.tobytes():
            adapted_text = clean_text
        else:
            adapted_text = self._floats_text("adapted_activations", adapted)
        mapped_text = ""
        if self.mapped_activations is not None:
            mapped_text = f'"mapped_activations":{self._floats_text("mapped_activations", self.mapped_activations)},'
        return _RECORD_TEXT % (
            adapted_text,
            self.adapted_prediction,
            clean_text,
            self.clean_prediction,
            self.ground_truth,
            mapped_text,
            self.sample_id,
        )

    def _floats_text(self, key: str, values) -> str:
        # tolist gives Python floats, whose list repr is their JSON array with a space after each comma
        text = repr(np.asarray(values, dtype=np.float64).tolist()).replace(" ", "")
        if "n" in text:  # float.__repr__ writes an n only in nan and inf
            raise DomainError(f"record {self.sample_id}: {key} holds a non-finite value")
        return text


# a records line: the keys in sorted order, and before "sample_id" the mapped activations' member or nothing
_RECORD_TEXT = (
    '{"adapted_activations":%s,"adapted_prediction":%d,"clean_activations":%s,"clean_prediction":%d,'
    '"ground_truth":%d,%s"sample_id":%d}'
)
_REQUIRED_FIELDS = (*_RECORD_INTS, "clean_activations", "adapted_activations")
_REQUIRED_SET = frozenset(_REQUIRED_FIELDS)


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


def _check_fields(obj: dict) -> None:
    for key in _REQUIRED_FIELDS:
        if key not in obj:
            raise ConfigError(f"missing field {key!r}")


def _check_lengths(obj: dict) -> None:
    lengths = [len(obj[key]) for key in _RECORD_ARRAYS if key in obj]
    if len(set(lengths)) != 1:
        raise ConfigError(f"activation lists differ in length: {lengths}")


class _BadLine(Exception):
    """A bad records line, by its index among the lines parsed, with its first failing check as the message."""

    def __init__(self, index: int, problem: str):
        super().__init__(problem)
        self.index = index


def _first_failure(check, values) -> _BadLine | None:
    """The first of ``values`` that ``check`` raises a ConfigError for, or None."""
    for i, value in enumerate(values):
        try:
            check(value)
        except ConfigError as exc:
            return _BadLine(i, str(exc))
    return None


def _activation_column(key: str, values: list) -> tuple[_BadLine | None, list[np.ndarray]]:
    """``values`` as float64 rows of one array, checked as ``_check_activations`` checks each (one type
    check, ``np.array`` and ``np.isfinite`` for them all), or the first value it refuses."""
    if all(type(v) is list and v for v in values):
        flat = list(chain.from_iterable(values))
        if set(map(type, flat)) <= {int, float}:
            with suppress(OverflowError):
                array = np.array(flat, dtype=np.float64)
                if np.isfinite(array).all():
                    ends = accumulate(map(len, values))
                    return None, [array[end - len(v) : end] for v, end in zip(values, ends)]
    return _first_failure(lambda value: _check_activations(key, value), values), []


def _parse_records(lines: Sequence[str]) -> list[ActivationRecord]:
    """The records of JSON ``lines``, checked strictly, each check once per column: the ids, predictions and
    label are non-negative ints (not bools or floats), but for the label -1 of an unlabeled sample, and the
    activations, of which ``mapped_activations`` may be left out, non-empty finite number lists of one length.

    A column that fails a check is searched for its first bad line. Each check sees only the lines before
    the first bad line found so far, and the checks run in the order one line's would, so the ``_BadLine``
    raised is the first bad line with its first failing check.
    """
    objs, bad = [], None
    for i, line in enumerate(lines):
        try:
            objs.append(json.loads(line))
        except ValueError as exc:
            bad = _BadLine(i, str(exc))
            break

    def good() -> list:
        return objs[: bad.index] if bad else objs

    if set(map(type, good())) - {dict}:
        bad = _first_failure(lambda obj: check_type(dict, "record", obj), good()) or bad
    if not all(obj.keys() >= _REQUIRED_SET for obj in good()):
        bad = _first_failure(_check_fields, good()) or bad
    for key in _RECORD_INTS:
        values = [obj[key] for obj in good()]
        if set(map(type, values)) - {int} or min(values, default=0) < (-1 if key == "ground_truth" else 0):
            bad = _first_failure(lambda value: check_index(key, value), values) or bad
    rows = {}
    for key in _RECORD_ARRAYS:
        numbers = [i for i, obj in enumerate(good()) if key in obj]
        found, column = _activation_column(key, [objs[i][key] for i in numbers])
        if found:
            bad = _BadLine(numbers[found.index], str(found))
        rows[key] = dict(zip(numbers, column))
    # a line without mapped activations counts its clean length for them
    lengths = [[len(obj.get(key, obj["clean_activations"])) for obj in good()] for key in _RECORD_ARRAYS]
    if not lengths[0] == lengths[1] == lengths[2]:
        bad = _first_failure(_check_lengths, good()) or bad
    if bad:
        raise bad
    clean, adapted, mapped = (rows[key] for key in _RECORD_ARRAYS)
    return [
        ActivationRecord(
            obj["sample_id"],
            clean[i],
            adapted[i],
            obj["clean_prediction"],
            obj["adapted_prediction"],
            obj["ground_truth"],
            mapped.get(i),
        )
        for i, obj in enumerate(objs)
    ]


def dump_records(records: Iterable[ActivationRecord], path) -> None:
    """Write each record's ``to_json`` line. Every line is made, and so checked, before ``path`` is opened."""
    write_file(path, "".join([f"{rec.to_json()}\n" for rec in records]))


def load_records(path) -> list[ActivationRecord]:
    """Records from a ``.jsonl`` file, checked as ``_parse_records`` says once every line is read;
    blank lines are passed over, and a bad line is a FormatError naming ``path:line``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            numbered = [(n, line) for n, line in enumerate(map(str.strip, fh), start=1) if line]
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text: {exc}") from None
    try:
        return _parse_records([line for _, line in numbered])
    except _BadLine as exc:
        raise FormatError(f"{path}:{numbered[exc.index][0]}: bad activation record: {exc}") from None


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

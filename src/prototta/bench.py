"""Benchmark orchestration: plans, method presets, report tables, boards.

A benchmark plan names a saved model, a saved dataset, a set of corruptions,
and a set of named method configurations. Every (method x corruption x seed)
cell runs on a fresh model copy over an identically corrupted, identically
shuffled stream, so method columns are directly comparable. All randomness
is derived from the cell coordinates, which makes every report file except
``efficiency.csv`` byte-identical across reruns; ``efficiency.csv`` holds
timed speeds, which vary only from run to run.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import re
from dataclasses import dataclass, field, replace
from numbers import Real
from operator import attrgetter
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .adapt import TARGET_SCOPES, WEIGHTINGS, StepRecord, TTAConfig, block_records, iter_batches, run_stream
from .autodiff import Tensor
from .errors import ConfigError, DegenerateInputError, FormatError, InsufficientDataError
from .harness import (
    CORRUPTION_GROUPS,
    CORRUPTION_KINDS,
    CorruptionSpec,
    Dataset,
    check_model_fits,
    corrupt,
    load_dataset,
)
from .metrics import (
    PCA_W_K,
    ActivationRecord,
    _median_throughput,
    _owned_share,
    _top_indices,
    check_index,
    dump_records,
    load_scores,
    mean_std,
    pac,
    pca_w,
    pearson,
    prediction_stability,
    relative_speed,
    selection_rate,
    spearman,
)
from .model import (
    _DOMAIN_TOL,
    AGGREGATIONS,
    PARAM_MODES,
    JsonConfig,
    PrototypeModel,
    check_output,
    check_type,
    load_model,
    map_activations,
    prototype_contributions,
    write_file,
)

DEFAULT_CORRUPTIONS = tuple(CorruptionSpec(kind, 5) for kind in CORRUPTION_KINDS)
# every ablation axis but "filter" names the TTAConfig field it varies, over these values
ABLATION_FIELDS = dict(param_mode=PARAM_MODES, consensus=AGGREGATIONS, target_scope=TARGET_SCOPES, weighting=WEIGHTINGS)
ABLATION_AXES = ("filter", *ABLATION_FIELDS)
# samples per stream batch, the same for every method so method columns see the same samples
STREAM_BATCH_SIZE = 128
# (column label, CellResult attribute) of each interpretability.csv metric, in column order
INTERP_METRICS = (
    ("pac", "pac_mean"),
    ("pca_w", "pca_w_mean"),
    ("stability", "stability"),
    ("selection_rate", "selection_rate"),
)
# the report files every run writes in its output directory, besides efficiency.csv and records/
REPORT_FILES = ("accuracy_raw.csv", "accuracy_batches.csv", "accuracy.csv", "accuracy.md", "interpretability.csv")


def method_presets() -> dict[str, TTAConfig]:
    """The four benchmark methods with their tuned configurations.

    The prototype-guided methods use the relative (min-max) similarity
    mapping of the default model together with mean sub-prototype consensus
    and the entropy cap; these were the settings that recover accuracy on
    the synthetic benchmark instead of drifting. Tent adapts only the
    normalization affine parameters, its canonical form.
    """
    return {
        "unadapted": TTAConfig(method="unadapted"),
        "tent": TTAConfig(method="tent", param_mode="norm_only", lr=1e-3),
        "prototta": TTAConfig(
            method="prototta",
            param_mode="all_adaptive",
            tau_sim=0.65,
            use_entropy_constraint=True,
            consensus="mean",
            lr=1.5e-3,
        ),
        "prototta_plus": TTAConfig(
            method="prototta_plus",
            tau_sim=0.65,
            use_entropy_constraint=True,
            consensus="mean",
            lr=1e-4,
        ),
    }


def _check_method_name(name) -> None:
    """A ConfigError unless ``name`` is a string keeping its files in their directory and its report rows on one line."""
    check_type(str, "method name", name)
    if "/" in name or any(c < "\x20" or c == "\x7f" for c in name):
        raise ConfigError(f"method name must not contain '/' or NUL or another control character, got {name!r}")


def derive_seed(*parts) -> int:
    """Stable 63-bit seed from arbitrary string-able parts."""
    digest = hashlib.sha256("\x1f".join(str(p) for p in parts).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little") & (2**63 - 1)


@dataclass(frozen=True)
class BenchmarkPlan(JsonConfig):
    model_path: str
    dataset_path: str
    output_dir: str
    corruptions: tuple[CorruptionSpec, ...] = DEFAULT_CORRUPTIONS
    methods: tuple[tuple[str, TTAConfig], ...] = ()
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)
    num_batches: int = 64
    record_batches: int = 4

    def __post_init__(self):
        super().__post_init__()
        methods = self.methods or method_presets()
        if isinstance(methods, dict):
            methods = methods.items()
        object.__setattr__(
            self,
            "methods",
            tuple((name, cfg if isinstance(cfg, TTAConfig) else TTAConfig.from_dict(cfg)) for name, cfg in methods),
        )
        object.__setattr__(
            self,
            "corruptions",
            tuple(
                c if isinstance(c, CorruptionSpec) else CorruptionSpec.parse(c)
                for c in self.corruptions
            ),
        )
        for key in ("model_path", "dataset_path", "output_dir"):
            if "\x00" in getattr(self, key):
                raise ConfigError(f"{key} must not contain NUL, got {getattr(self, key)!r}")
        object.__setattr__(self, "seeds", tuple(self.seeds))
        for seed in self.seeds:
            check_type(int, "seed", seed)
        if not self.corruptions:
            raise ConfigError("plan needs at least one corruption")
        names = [name for name, _ in self.methods]
        for name in names:
            _check_method_name(name)
        listed = {"method names": names, "corruptions": [str(c) for c in self.corruptions], "seeds": list(self.seeds)}
        for label, values in listed.items():
            if len(set(values)) != len(values):
                raise ConfigError(f"{label} must be unique, got {values}")
        if not self.seeds:
            raise ConfigError("plan needs at least one seed")
        for key in ("num_batches", "record_batches"):
            if getattr(self, key) < 1:
                raise ConfigError(f"{key} must be positive, got {getattr(self, key)}")

    @property
    def method_map(self) -> dict[str, TTAConfig]:
        return dict(self.methods)


@dataclass
class CellResult:
    """Everything one (method x corruption x seed) run contributes to reports."""

    method: str
    corruption: str
    seed: int
    accuracy: float  # percent
    selection_rate: float  # percent
    throughput: float  # samples per second, median over non-warm-up batches
    pac_mean: float
    pca_w_mean: float
    stability: float
    batches: list[StepRecord]
    records: list[ActivationRecord] = field(default_factory=list)


@dataclass
class BenchmarkResult:
    plan: BenchmarkPlan
    cells: list[CellResult]
    paths: dict[str, Path]


def _run_cell(
    model: PrototypeModel,
    dataset: Dataset,
    cor: CorruptionSpec,
    name: str,
    cfg: TTAConfig,
    seed: int,
    plan: BenchmarkPlan,
    keep_records: bool,
) -> CellResult:
    stream_x = corrupt(dataset.test_x, cor, seed=derive_seed("corrupt", str(cor), seed))
    order = np.random.default_rng(derive_seed("order", str(cor), seed)).permutation(len(stream_x))
    take = min(len(order), plan.num_batches * STREAM_BATCH_SIZE)
    stream_x, stream_y = stream_x[order[:take]], dataset.test_y[order[:take]]
    work = model.copy()
    report = run_stream(work, iter_batches(stream_x, stream_y, STREAM_BATCH_SIZE), cfg)
    # only the arrays the metrics read are joined
    joined: dict[tuple[int, ...], np.ndarray] = {}

    def join(key: str) -> np.ndarray:
        """The blocks' ``key`` arrays end to end, joined once for every field that holds the same arrays
        (an unadapted stream's clean and adapted fields)."""
        arrays = [getattr(b, key) for b in report.sample_blocks]
        ids = tuple(map(id, arrays))
        if ids not in joined:
            joined[ids] = np.concatenate(arrays)
        return joined[ids]

    clean, adapted, clean_pred, adapted_pred, labels = map(
        join, ("clean_activations", "adapted_activations", "clean_predictions", "adapted_predictions", "labels")
    )
    cell = CellResult(
        method=name,
        corruption=str(cor),
        seed=seed,
        accuracy=100.0 * report.accuracy,
        selection_rate=selection_rate(report),
        throughput=_median_throughput(report),
        batches=report.records,
        pac_mean=pac(clean, adapted).mean,
        pca_w_mean=pca_w(adapted, model.head.data, model.class_of, labels).mean,
        stability=prediction_stability(clean_pred, adapted_pred),
    )
    if keep_records:
        # all batches but the last are full: these are the first record_batches * STREAM_BATCH_SIZE samples
        cell.records = block_records(report.sample_blocks[: plan.record_batches])
    return cell


def _check_plan_files(plan: BenchmarkPlan) -> None:
    for label, path in (("model", plan.model_path), ("dataset", plan.dataset_path)):
        if not Path(path).is_file():
            raise ConfigError(f"{label} file not found: {path}")


def _remove_stale(directory: Path, pattern: str, keep: set[Path]) -> None:
    """Remove each file (not a directory) in ``directory`` whose whole name matches ``pattern``, unless in ``keep``."""
    for path in directory.iterdir():
        if re.fullmatch(pattern, path.name) and path not in keep and path.is_file():
            path.unlink()


def _records_path(out: Path, method: str, corruption: str) -> Path:
    return out / "records" / f"{method}_{corruption.replace(':', '_')}.jsonl"


def _check_outputs(plan: BenchmarkPlan) -> None:
    """A ConfigError naming the first path this plan's run could not write, so it fails before any cell runs:
    the output directory, the report files, ``records`` and each method and corruption's records file."""
    out = Path(plan.output_dir)
    check_output(out, directory=True)
    names = [*REPORT_FILES, *(["efficiency.csv"] if "unadapted" in plan.method_map else [])]
    for name in names:
        check_output(out / name)
    check_output(out / "records", directory=True)
    for method, _ in plan.methods:
        for cor in plan.corruptions:
            check_output(_records_path(out, method, str(cor)))


def _dump_cell_records(plan: BenchmarkPlan, cells: list[CellResult], out: Path) -> None:
    """Per-sample record dumps: every table row has a first-seed records file.

    Records files of the plan's methods that this run did not write are removed.
    A records file is ``<method>_<kind>_<severity>.jsonl``; the kind must be a
    corruption kind, so the method ``prototta`` never claims ``prototta_plus``'s files.
    """
    rec_dir = out / "records"
    rec_dir.mkdir(parents=True, exist_ok=True)
    written = set()
    for c in cells:
        if c.records:
            path = _records_path(out, c.method, c.corruption)
            dump_records(c.records, path)
            written.add(path)
    methods = "|".join(re.escape(name) for name, _ in plan.methods)
    kinds = "|".join(map(re.escape, CORRUPTION_KINDS))
    _remove_stale(rec_dir, rf"({methods})_({kinds})_[0-9]+\.jsonl", written)


def _write_csv(path: Path, header: list[str], rows: list[Sequence]) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([repr(v) if isinstance(v, float) else v for v in row] for row in rows)
    write_file(path, buf.getvalue())


def _accuracy_markdown(plan: BenchmarkPlan, rows: list[list]) -> str:
    """Markdown view of ``accuracy.csv``'s rows, grouped by corruption family, methods as rows."""
    groups: dict[str, list[str]] = {}
    for c in plan.corruptions:
        groups.setdefault(CORRUPTION_GROUPS[c.kind], []).append(str(c))
    columns = [(gname, cor) for gname, cors in groups.items() for cor in cors]
    header = ["Method"] + [f"{gname}: {cor}" for gname, cor in columns] + ["Total"]
    lines = ["# Accuracy (%) by corruption", ""]
    lines.append("| " + " | ".join(header) + " |")
    lines.append("|" + "---|" * len(header))
    cells = {(name, cor): f"{m:.2f} ± {s:.2f}" for name, cor, m, s in rows}
    for name, _ in plan.methods:
        row = [name.replace("|", r"\|")] + [cells[name, cor] for _, cor in columns] + [cells[name, "TOTAL"]]
        lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines) + "\n"


def _load_plan_inputs(
    plan: BenchmarkPlan,
    model: PrototypeModel | None,
    dataset: Dataset | None,
) -> tuple[PrototypeModel, Dataset]:
    if model is None or dataset is None:
        _check_plan_files(plan)
        model = load_model(plan.model_path) if model is None else model
        dataset = load_dataset(plan.dataset_path) if dataset is None else dataset
    _check_k(model, PCA_W_K)
    check_model_fits(model.config, dataset.spec)
    if len(dataset.test_x) == 0:
        raise ConfigError("the dataset has no test rows to benchmark on")
    return model, dataset


def _group_cells(cells: list[CellResult]) -> dict[tuple[str, str], list[CellResult]]:
    """The cells of each (method, corruption) pair, in plan seed order."""
    groups: dict[tuple[str, str], list[CellResult]] = {}
    for c in cells:
        groups.setdefault((c.method, c.corruption), []).append(c)
    return groups


def _run_cells(plan: BenchmarkPlan, model: PrototypeModel, dataset: Dataset) -> list[CellResult]:
    """Every plan cell, run in turn on the calling thread in plan order: by corruption, then method, then seed."""
    return [
        _run_cell(model, dataset, cor, name, cfg, seed, plan, keep_records=seed == plan.seeds[0])
        for cor in plan.corruptions
        for name, cfg in plan.methods
        for seed in plan.seeds
    ]


def run_benchmark(
    plan: BenchmarkPlan,
    model: PrototypeModel | None = None,
    dataset: Dataset | None = None,
) -> BenchmarkResult:
    """Run every cell of the plan and emit the report files.

    Passing model/dataset objects skips loading from the plan paths (used by
    tests); otherwise both files must exist, and every path the run will write
    must be free to write, before any work starts. Every report file is
    written but ``efficiency.csv``, which needs an ``unadapted`` method; an
    ``efficiency.csv`` and plan methods' records files that an
    earlier run left in the output directory and this run did not write are
    removed afterwards.
    """
    model, dataset = _load_plan_inputs(plan, model, dataset)
    _check_outputs(plan)
    cells = _run_cells(plan, model, dataset)

    out = Path(plan.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths: dict[str, Path] = {}

    by_mc = _group_cells(cells)
    corruptions = [str(c) for c in plan.corruptions]

    def table(name: str, header: list[str], columns: list[Callable[[CellResult], float]]) -> list[list]:
        """Write ``<name>.csv``: per method and plan corruption, each per-cell value column's mean and std
        over seeds, then a ``TOTAL`` row of each column's mean and std over the corruption means."""
        rows = []
        for method, _ in plan.methods:
            stats = [[mean_std([value(c) for c in by_mc[method, cor]]) for value in columns] for cor in corruptions]
            stats.append([mean_std([mean for mean, _ in column]) for column in zip(*stats)])
            rows += [[method, cor, *(v for pair in row for v in pair)] for cor, row in zip([*corruptions, "TOTAL"], stats)]
        paths[name] = out / f"{name}.csv"
        _write_csv(paths[name], ["method", "corruption", *header], rows)
        return rows

    raw_rows = [[c.method, c.corruption, c.seed, c.accuracy] for c in cells]
    paths["accuracy_raw"] = out / "accuracy_raw.csv"
    _write_csv(paths["accuracy_raw"], ["method", "corruption", "seed", "accuracy"], raw_rows)
    batch_rows = [
        [c.method, c.corruption, c.seed, r.index, r.size, 100.0 * r.accuracy, r.selected, r.loss, r.clean_agreement]
        for c in cells for r in c.batches
    ]
    paths["accuracy_batches"] = out / "accuracy_batches.csv"
    _write_csv(
        paths["accuracy_batches"],
        ["method", "corruption", "seed", "batch", "size", "accuracy", "selected", "loss", "clean_agreement"],
        batch_rows,
    )
    rows = table("accuracy", ["mean", "std"], [attrgetter("accuracy")])
    paths["accuracy_md"] = out / "accuracy.md"
    write_file(paths["accuracy_md"], _accuracy_markdown(plan, rows))
    header = [f"{label}_{stat}" for label, _ in INTERP_METRICS for stat in ("mean", "std")]
    table("interpretability", header, [attrgetter(attr) for _, attr in INTERP_METRICS])

    paths["records"] = out / "records"
    _dump_cell_records(plan, cells, out)

    if "unadapted" in plan.method_map:
        base = {(c.corruption, c.seed): c.throughput for c in cells if c.method == "unadapted"}
        speed = [lambda c: relative_speed(c.throughput, base[c.corruption, c.seed])]
        table("efficiency", ["relative_speed_mean", "relative_speed_std"], speed)
    _remove_stale(out, r"efficiency\.csv", set(paths.values()))
    return BenchmarkResult(plan=plan, cells=cells, paths=paths)


def _ablation_variants(base: TTAConfig, axis: str) -> list[tuple[str, TTAConfig]]:
    if axis == "filter":
        return [
            ("with_filter", base),
            ("no_filter", replace(base, tau_sim=1e-6, use_entropy_constraint=False)),
        ]
    if axis in ABLATION_FIELDS:
        return [(value, replace(base, **{axis: value})) for value in ABLATION_FIELDS[axis]]
    raise ConfigError(f"unknown ablation axis {axis!r}; choose from {ABLATION_AXES}")


def run_ablation(
    plan: BenchmarkPlan,
    axis: str,
    model: PrototypeModel | None = None,
    dataset: Dataset | None = None,
) -> BenchmarkResult:
    """Benchmark the plan's prototta config cloned across one axis, reporting into ``<output_dir>/ablation_<axis>``."""
    methods = plan.method_map
    if "prototta" not in methods:
        raise ConfigError("ablation needs a method named 'prototta' in the plan")
    variants = _ablation_variants(methods["prototta"], axis)
    out = Path(plan.output_dir) / f"ablation_{axis}"
    return run_benchmark(replace(plan, methods=variants, output_dir=str(out)), model, dataset)


def _check_k(model: PrototypeModel, k: int) -> None:
    """A ConfigError unless ``k`` lies in [1, P] for the model's P prototypes."""
    P = len(model.class_of)
    if not 1 <= k <= P:
        raise ConfigError(f"k must be at most the model's {P} prototypes and at least 1, got {k}")


_BOARD_TEXT = (
    '{\n  "ground_truth": %d,\n  "method": %s,\n  "predicted_class": %d,\n'
    '  "prototypes": [\n%s\n  ],\n  "sample_id": %d\n}\n'
)
_BOARD_PROTOTYPE_TEXT = (
    '    {\n      "contribution": %r,\n      "mapped_similarity": %r,\n      "owning_class": %d,\n'
    '      "prototype_id": %d,\n      "raw_similarity": %r\n    }'
)


def render_boards(records: Sequence[ActivationRecord], model: PrototypeModel, k: int, method: str) -> list[str]:
    """Each record's board: its top-k contributing prototypes under its adapted prediction, as JSON text.

    The text is what ``json.dumps(board, indent=2, sort_keys=True) + "\\n"`` gives,
    filled into a fixed layout instead of run through the pure-Python indenting
    encoder; floats are written by ``float.__repr__``, as the encoder writes them.
    The contributions of all records are one n x P product and their top-k k ``argmax`` rounds.
    Each entry's mapped similarity is its raw one through the model's ``map_activations``, under a
    log-inverse mapping over the record's ``log_inverse_range``, in one call for the records that share one.
    A record that no board can be built from (under a log-inverse mapping, one without a range of two finite
    numbers, the first at most the second), with a non-finite contribution to any prototype, or whose board
    would hold a non-finite similarity (which JSON cannot) or a raw similarity outside [-1, 1], is a
    FormatError naming it.
    """
    _check_k(model, k)
    P, C = len(model.class_of), model.head.shape[0]
    mapping = model.config.mapping
    by_range: dict[tuple[float, float] | None, list[int]] = {}  # the records of each range, by index
    for i, record in enumerate(records):
        if len(record.adapted_activations) != P:
            raise FormatError(
                f"record {record.sample_id}: activation length {len(record.adapted_activations)}"
                f" does not match the model's {P} prototypes"
            )
        key = None
        if mapping.kind == "log_inverse_distance":
            if record.log_inverse_range is None:
                raise FormatError(
                    f"record {record.sample_id}: missing log_inverse_range, which a {mapping.kind} model maps over"
                )
            key = tuple(record.log_inverse_range)
            if key not in by_range and not (len(key) == 2 and np.isfinite(key).all() and key[0] <= key[1]):
                raise FormatError(
                    f"record {record.sample_id}: log_inverse_range must be two finite numbers lo <= hi, got {key}"
                )
        if not 0 <= record.adapted_prediction < C:
            raise FormatError(
                f"record {record.sample_id}: predicted class {record.adapted_prediction}"
                f" is out of range for the model's {C} classes"
            )
        if not -1 <= record.ground_truth < C:
            raise FormatError(
                f"record {record.sample_id}: ground truth {record.ground_truth}"
                f" is out of range for the model's {C} classes"
            )
        by_range.setdefault(key, []).append(i)
    if not records:
        return []
    raw = np.stack([r.adapted_activations for r in records], dtype=np.float64)
    contributions = prototype_contributions(raw, model.head.data, [r.adapted_prediction for r in records])
    top = _top_indices(contributions, k)
    top_raw, top_contributions = (np.take_along_axis(a, top, axis=1) for a in (raw, contributions))
    bad = np.flatnonzero(~(np.isfinite(contributions).all(axis=1) & np.isfinite(top_raw).all(axis=1)))
    if len(bad):
        raise FormatError(f"board of sample {records[bad[0]].sample_id}: non-finite contribution or similarity")
    # the widest cosines every mapping's domain check takes
    bad = np.flatnonzero((np.abs(top_raw) > 1.0 + _DOMAIN_TOL / 2).any(axis=1))
    if len(bad):
        raise FormatError(f"board of sample {records[bad[0]].sample_id}: raw similarity outside [-1, 1]")
    top_mapped = np.empty_like(top_raw)
    for key, rows in by_range.items():
        top_mapped[rows] = map_activations(Tensor(top_raw[rows]), mapping, key).data
    # n x k x 3: the contribution, mapped and raw similarity of each board entry, in layout order
    values = np.stack([top_contributions, top_mapped, top_raw], axis=-1)
    name = json.dumps(method)
    # tolist gives Python ints and floats, so %r is float.__repr__
    return [
        _BOARD_TEXT
        % (
            record.ground_truth,
            name,
            record.adapted_prediction,
            ",\n".join(_BOARD_PROTOTYPE_TEXT % (c, m, owner, p, r) for (c, m, r), owner, p in zip(*entries)),
            record.sample_id,
        )
        for record, *entries in zip(records, values.tolist(), model.class_of[top].tolist(), top.tolist())
    ]


def export_boards(
    records: list[ActivationRecord],
    model: PrototypeModel,
    k: int,
    method: str,
    out_dir,
) -> list[Path]:
    """Write one board per record, all built (and so checked) before ``out_dir`` is made.

    A sample id repeated in ``records`` is a FormatError. Boards of ``method``
    left in ``out_dir`` by an earlier export and not rewritten now are removed,
    so the directory holds exactly this export's boards of ``method``.
    """
    _check_method_name(method)
    check_output(out_dir, directory=True)
    records = sorted(records, key=lambda r: r.sample_id)
    for prev, rec in zip(records, records[1:]):
        if prev.sample_id == rec.sample_id:
            raise FormatError(f"repeated sample_id {rec.sample_id} in the records")
    texts = render_boards(records, model, k, method)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for record, text in zip(records, texts):
        path = out / f"{method}_{record.sample_id:06d}.json"
        write_file(path, text)
        written.append(path)
    _remove_stale(out, rf"{re.escape(method)}_[0-9]+\.json", set(written))
    return written


def board_sample_pca_w(board: dict) -> float:
    """Eq.-7-style ratio over the prototypes stored in one board: its top-k, already in descending order."""
    contributions = np.asarray([[p["contribution"] for p in board["prototypes"]]], dtype=np.float64)
    classes = np.asarray([[p["owning_class"] for p in board["prototypes"]]])
    share, scored = _owned_share(contributions, classes == board["ground_truth"])
    if not scored[0]:
        raise DegenerateInputError("top contribution mass is not positive")
    return float(share[0])


def _read_board(path: Path) -> dict:
    """A board file with the fields ``correlate_scores`` reads; anything else is a FormatError."""
    try:
        board = json.loads(path.read_text(encoding="utf-8"))
        check_type(dict, "board", board)
        for key in ("sample_id", "ground_truth"):
            check_index(key, board.get(key))
        check_type(str, "method", board.get("method"))
        check_type(list, "prototypes", board.get("prototypes"))
        if not board["prototypes"]:
            raise ConfigError("prototypes must not be empty")
        for proto in board["prototypes"]:
            check_type(dict, "prototype", proto)
            check_type(Real, "contribution", proto.get("contribution"))
            check_index("owning_class", proto.get("owning_class"))
    except (json.JSONDecodeError, UnicodeDecodeError, ConfigError) as exc:
        raise FormatError(f"{path}: malformed board: {exc}") from None
    return board


@dataclass
class CorrelationReport:
    rows: list[list]  # scope, n, pearson, spearman
    warnings: list[str]


def correlate_scores(boards_dir, scores_path, out_path=None) -> CorrelationReport:
    """Join per-board interpretability ratios with external per-sample scores.

    The rows are the pooled correlation, then one per method with at least 3 matches. A row whose ratios
    or scores have zero variance is skipped with a warning, so every row may be; ``out_path`` then holds
    the header alone."""
    boards_dir = Path(boards_dir)
    if not boards_dir.is_dir():
        raise ConfigError(f"boards directory not found: {boards_dir}")
    if out_path is not None:
        check_output(out_path)
    board_files = sorted(path for path in boards_dir.glob("*.json") if path.is_file())
    if not board_files:
        raise InsufficientDataError(f"no board files in {boards_dir}")
    scores = load_scores(scores_path)
    per_method: dict[str, list[tuple[float, float]]] = {}
    warnings: list[str] = []
    seen_ids = set()
    for path in board_files:
        board = _read_board(path)
        sid = board["sample_id"]
        seen_ids.add(sid)
        if sid not in scores:
            warnings.append(f"no external score for sample {sid} ({path.name})")
            continue
        if board["ground_truth"] == -1:
            warnings.append(f"sample {sid} is unlabeled ({path.name}), skipped")
            continue
        try:
            ratio = board_sample_pca_w(board)
        except DegenerateInputError as exc:
            warnings.append(f"sample {sid}: {exc} ({path.name}), skipped")
            continue
        per_method.setdefault(board["method"], []).append((ratio, scores[sid]))
    for sid in sorted(set(scores) - seen_ids):
        warnings.append(f"score for sample {sid} has no board")
    pooled = [pair for pairs in per_method.values() for pair in pairs]
    if len(pooled) < 3:
        raise InsufficientDataError(f"need at least 3 matched samples, got {len(pooled)}")
    rows: list[list] = []

    def add_row(scope: str, label: str, pairs: list[tuple[float, float]]) -> None:
        """Append the row of ``pairs``, or where either side has zero variance, warn under ``label`` and skip it."""
        xs = [a for a, _ in pairs]
        ys = [b for _, b in pairs]
        try:
            rows.append([scope, len(pairs), pearson(xs, ys), spearman(xs, ys)])
        except DegenerateInputError as exc:
            warnings.append(f"{label}: {exc}, skipped")

    add_row("pooled", "pooled", pooled)
    for name in sorted(per_method):
        if len(per_method[name]) < 3:
            warnings.append(f"method {name}: only {len(per_method[name])} matches, skipped")
            continue
        add_row(name, f"method {name}", per_method[name])
    if out_path is not None:
        out_path = Path(out_path)
        out_path.parent.mkdir(parents=True, exist_ok=True)
        _write_csv(out_path, ["scope", "n", "pearson", "spearman"], rows)
    return CorrelationReport(rows=rows, warnings=warnings)

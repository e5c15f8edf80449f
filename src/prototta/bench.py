"""Benchmark orchestration: plans, method presets, report tables, boards.

A benchmark plan names a saved model, a saved dataset, a set of corruptions,
and a set of named method configurations. Every (method x corruption x seed)
cell runs on a fresh model copy over an identically corrupted, identically
shuffled stream, so method columns are directly comparable. All randomness
is derived from the cell coordinates, which makes every report file except
``efficiency.csv`` byte-identical across reruns and thread counts;
``efficiency.csv`` holds timed speeds, which vary from run to run and with
``PTTA_THREADS``.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, astuple, dataclass, field, fields, replace
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .adapt import TARGET_SCOPES, WEIGHTINGS, JsonConfig, TTAConfig, iter_batches, run_stream
from .errors import ConfigError, DegenerateInputError, FormatError, InsufficientDataError
from .harness import (
    CORRUPTION_GROUPS,
    CORRUPTION_KINDS,
    CorruptionSpec,
    Dataset,
    corrupt,
    load_dataset,
)
from .metrics import (
    ActivationRecord,
    _median_throughput,
    _top_indices,
    dump_records,
    load_scores,
    mean_std,
    pac,
    pca_w,
    pearson,
    prediction_stability,
    sample_pca_w,
    selection_rate,
    spearman,
)
from .model import AGGREGATIONS, PARAM_MODES, PrototypeModel, canonical_dumps, load_model

DEFAULT_CORRUPTIONS = tuple(CorruptionSpec(kind, 5) for kind in CORRUPTION_KINDS)
METRIC_CHOICES = ("accuracy", "interpretability", "efficiency")
ABLATION_AXES = ("filter", "param_mode", "consensus", "target_scope", "weighting")
# (column label, CellResult attribute) of each interpretability.csv metric, in column order
INTERP_METRICS = (
    ("pac", "pac_mean"),
    ("pca_w", "pca_w_mean"),
    ("stability", "stability"),
    ("selection_rate", "selection_rate"),
)


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


def derive_seed(*parts) -> int:
    """Stable 63-bit seed from arbitrary string-able parts."""
    digest = hashlib.sha256("\x1f".join(str(p) for p in parts).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little") & (2**63 - 1)


@dataclass(frozen=True)
class BenchmarkPlan(JsonConfig):
    LABEL = "plan"

    model_path: str
    dataset_path: str
    output_dir: str
    corruptions: tuple[CorruptionSpec, ...] = DEFAULT_CORRUPTIONS
    methods: tuple[tuple[str, TTAConfig], ...] = ()
    metrics: tuple[str, ...] = METRIC_CHOICES
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)
    num_batches: int = 64
    board_k: int = 5
    record_batches: int = 4

    def __post_init__(self):
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
        object.__setattr__(self, "metrics", tuple(self.metrics))
        object.__setattr__(self, "seeds", tuple(self.seeds))
        for seed in self.seeds:
            self._require(int, "seed", seed)
        for name in ("num_batches", "board_k", "record_batches"):
            self._require(int, name, getattr(self, name))
        for name in ("model_path", "dataset_path", "output_dir"):
            self._require(str, name, getattr(self, name))
        if not self.corruptions:
            raise ConfigError("plan needs at least one corruption")
        names = [name for name, _ in self.methods]
        for name in names:
            self._require(str, "method name", name)
        if len(set(names)) != len(names):
            raise ConfigError(f"method names must be unique, got {names}")
        if len(set(self.corruptions)) != len(self.corruptions):
            raise ConfigError(f"corruptions must be unique, got {[str(c) for c in self.corruptions]}")
        unknown = set(self.metrics) - set(METRIC_CHOICES)
        if unknown:
            raise ConfigError(f"unknown metrics {sorted(unknown)}; choose from {METRIC_CHOICES}")
        if not self.seeds:
            raise ConfigError("plan needs at least one seed")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError(f"seeds must be unique, got {list(self.seeds)}")
        if self.num_batches < 1:
            raise ConfigError(f"num_batches must be positive, got {self.num_batches}")
        if self.board_k < 1:
            raise ConfigError(f"board_k must be positive, got {self.board_k}")
        if self.record_batches < 1:
            raise ConfigError(f"record_batches must be positive, got {self.record_batches}")

    @property
    def method_map(self) -> dict[str, TTAConfig]:
        return dict(self.methods)

    def to_dict(self) -> dict:
        return {**asdict(self), "corruptions": [str(c) for c in self.corruptions]}

    def to_json(self) -> str:
        return canonical_dumps(self.to_dict())


@dataclass
class CellResult:
    """Everything one (method x corruption x seed) run contributes to reports."""

    method: str
    corruption: str
    seed: int
    accuracy: float  # percent
    selection_rate: float  # percent
    throughput: float  # samples per second, median over non-warm-up batches
    pac_mean: float = float("nan")
    pca_w_mean: float = float("nan")
    stability: float = float("nan")
    batch_sizes: list[int] = field(default_factory=list)
    batch_accuracies: list[float] = field(default_factory=list)
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
    want_interp: bool,
    keep_records: bool,
) -> CellResult:
    stream_x = corrupt(dataset.test_x, cor, seed=derive_seed("corrupt", str(cor), seed))
    order = np.random.default_rng(derive_seed("order", str(cor), seed)).permutation(len(stream_x))
    take = min(len(order), plan.num_batches * cfg.batch_size)
    stream_x, stream_y = stream_x[order[:take]], dataset.test_y[order[:take]]
    work = model.copy()
    report = run_stream(
        work,
        iter_batches(stream_x, stream_y, cfg.batch_size),
        cfg,
        collect_samples=want_interp or keep_records,
    )
    cell = CellResult(
        method=name,
        corruption=str(cor),
        seed=seed,
        accuracy=100.0 * report.accuracy,
        selection_rate=selection_rate(report),
        throughput=_median_throughput(report),
        batch_sizes=[r.size for r in report.records],
        batch_accuracies=[100.0 * a for a in report.batch_accuracies],
    )
    if want_interp:
        recs = report.sample_records
        cell.pac_mean = pac(recs).mean
        cell.pca_w_mean = pca_w(
            np.stack([r.adapted_activations for r in recs]),
            model.head.data,
            model.class_of,
            np.asarray([r.ground_truth for r in recs]),
            k=plan.board_k,
        ).mean
        cell.stability = prediction_stability(recs)
    if keep_records:
        cell.records = report.sample_records[: plan.record_batches * cfg.batch_size]
    return cell


def _check_plan_files(plan: BenchmarkPlan) -> None:
    for label, path in (("model", plan.model_path), ("dataset", plan.dataset_path)):
        if not Path(path).is_file():
            raise ConfigError(f"{label} file not found: {path}")


def _dump_cell_records(cells: list[CellResult], out: Path) -> Path:
    """Per-sample record dumps: every table row has a first-seed records file."""
    rec_dir = out / "records"
    rec_dir.mkdir(parents=True, exist_ok=True)
    for c in cells:
        if c.records:
            name = f"{c.method}_{c.corruption.replace(':', '_')}.jsonl"
            dump_records(c.records, rec_dir / name)
    return rec_dir


def _write_csv(path: Path, header: list[str], rows: list[Sequence]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(v) if isinstance(v, float) else v for v in row])


def _summary(plan: BenchmarkPlan, values: Callable[[str], list[float]]) -> list[tuple[str, float, float]]:
    """``(corruption, mean, std)`` over seeds per plan corruption, then ``TOTAL`` over those means.

    ``values(corruption)`` gives the per-seed values of one corruption.
    """
    rows = [(str(c), *mean_std(values(str(c)))) for c in plan.corruptions]
    return rows + [("TOTAL", *mean_std([mean for _, mean, _ in rows]))]


def _accuracy_markdown(plan: BenchmarkPlan, summaries: dict[str, list[tuple[str, float, float]]]) -> str:
    """Markdown table grouped by corruption family, methods as rows."""
    groups: dict[str, list[str]] = {}
    for c in plan.corruptions:
        groups.setdefault(CORRUPTION_GROUPS[c.kind], []).append(str(c))
    columns = [(gname, cor) for gname, cors in groups.items() for cor in cors]
    header = ["Method"] + [f"{gname}: {cor}" for gname, cor in columns] + ["Total"]
    lines = ["# Accuracy (%) by corruption", ""]
    lines.append("| " + " | ".join(header) + " |")
    lines.append("|" + "---|" * len(header))
    for name, summary in summaries.items():
        cells = {cor: f"{m:.2f} ± {s:.2f}" for cor, m, s in summary}
        row = [name] + [cells[cor] for _, cor in columns] + [cells["TOTAL"]]
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
    return model, dataset


def _group_cells(cells: list[CellResult]) -> dict[tuple[str, str], list[CellResult]]:
    """The cells of each (method, corruption) pair, in plan seed order."""
    groups: dict[tuple[str, str], list[CellResult]] = {}
    for c in cells:
        groups.setdefault((c.method, c.corruption), []).append(c)
    return groups


def _thread_count() -> int:
    """Worker threads from ``PTTA_THREADS``, defaulting to one per CPU."""
    workers = os.environ.get("PTTA_THREADS", "")
    if not workers.strip():
        return os.cpu_count() or 1
    try:
        return int(workers)
    except ValueError:
        raise ConfigError(f"PTTA_THREADS must be an integer, got {workers!r}") from None


def _run_cells(plan: BenchmarkPlan, model: PrototypeModel, dataset: Dataset) -> list[CellResult]:
    """Run all plan cells, possibly in parallel; result order is job order."""
    want_interp = "interpretability" in plan.metrics
    first_seed = plan.seeds[0]
    jobs = [
        (cor, name, cfg, seed)
        for cor in plan.corruptions
        for name, cfg in plan.methods
        for seed in plan.seeds
    ]

    def work(job):
        cor, name, cfg, seed = job
        return _run_cell(
            model, dataset, cor, name, cfg, seed, plan, want_interp, keep_records=seed == first_seed
        )

    max_workers = max(1, min(_thread_count(), len(jobs)))
    if max_workers == 1:
        return [work(job) for job in jobs]
    with ThreadPoolExecutor(max_workers=max_workers) as pool:
        return list(pool.map(work, jobs))


def run_benchmark(
    plan: BenchmarkPlan,
    model: PrototypeModel | None = None,
    dataset: Dataset | None = None,
) -> BenchmarkResult:
    """Run every cell of the plan and emit the report files.

    Passing model/dataset objects skips loading from the plan paths (used by
    tests); otherwise both files must exist before any work starts.
    """
    model, dataset = _load_plan_inputs(plan, model, dataset)
    want_interp = "interpretability" in plan.metrics
    cells = _run_cells(plan, model, dataset)

    out = Path(plan.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths: dict[str, Path] = {}

    by_mc = _group_cells(cells)

    if "accuracy" in plan.metrics:
        raw_rows = [[c.method, c.corruption, c.seed, c.accuracy] for c in cells]
        paths["accuracy_raw"] = out / "accuracy_raw.csv"
        _write_csv(paths["accuracy_raw"], ["method", "corruption", "seed", "accuracy"], raw_rows)
        batch_rows = [
            [c.method, c.corruption, c.seed, i, size, acc]
            for c in cells
            for i, (size, acc) in enumerate(zip(c.batch_sizes, c.batch_accuracies))
        ]
        paths["accuracy_batches"] = out / "accuracy_batches.csv"
        _write_csv(
            paths["accuracy_batches"],
            ["method", "corruption", "seed", "batch", "size", "accuracy"],
            batch_rows,
        )
        summaries = {
            name: _summary(plan, lambda cor: [c.accuracy for c in by_mc[(name, cor)]])
            for name, _ in plan.methods
        }
        paths["accuracy"] = out / "accuracy.csv"
        _write_csv(
            paths["accuracy"],
            ["method", "corruption", "mean", "std"],
            [[name, *row] for name, summary in summaries.items() for row in summary],
        )
        paths["accuracy_md"] = out / "accuracy.md"
        paths["accuracy_md"].write_text(_accuracy_markdown(plan, summaries), encoding="utf-8")

    if want_interp:
        rows = []
        for name, _ in plan.methods:
            columns = [
                _summary(plan, lambda cor: [getattr(c, attr) for c in by_mc[(name, cor)]])
                for _, attr in INTERP_METRICS
            ]
            for per_metric in zip(*columns):
                rows.append([name, per_metric[0][0]] + [v for _, m, s in per_metric for v in (m, s)])
        paths["interpretability"] = out / "interpretability.csv"
        header = [f"{label}_{stat}" for label, _ in INTERP_METRICS for stat in ("mean", "std")]
        _write_csv(paths["interpretability"], ["method", "corruption"] + header, rows)

    paths["records"] = _dump_cell_records(cells, out)

    if "efficiency" in plan.metrics and "unadapted" in plan.method_map:

        def relative_speeds(name: str, cor: str) -> list[float]:
            pairs = zip(by_mc[(name, cor)], by_mc[("unadapted", cor)])
            return [100.0 * (c.throughput / base.throughput) for c, base in pairs]

        rows = [
            [name, *row]
            for name, _ in plan.methods
            for row in _summary(plan, lambda cor: relative_speeds(name, cor))
        ]
        paths["efficiency"] = out / "efficiency.csv"
        _write_csv(paths["efficiency"], ["method", "corruption", "relative_speed_mean", "relative_speed_std"], rows)

    return BenchmarkResult(plan=plan, cells=cells, paths=paths)


@dataclass
class AblationRow:
    axis: str
    setting: str
    mean: float
    std: float
    min: float
    max: float


def _ablation_variants(base: TTAConfig, axis: str) -> list[tuple[str, TTAConfig]]:
    if axis == "filter":
        return [
            ("with_filter", base),
            ("no_filter", replace(base, tau_sim=1e-6, use_entropy_constraint=False)),
        ]
    if axis == "param_mode":
        return [(mode, replace(base, param_mode=mode)) for mode in PARAM_MODES]
    if axis == "consensus":
        return [(agg, replace(base, consensus=agg)) for agg in AGGREGATIONS]
    if axis == "target_scope":
        return [(scope, replace(base, target_scope=scope)) for scope in TARGET_SCOPES]
    if axis == "weighting":
        return [(w, replace(base, weighting=w)) for w in WEIGHTINGS]
    raise ConfigError(f"unknown ablation axis {axis!r}; choose from {ABLATION_AXES}")


def run_ablation(
    plan: BenchmarkPlan,
    axis: str,
    model: PrototypeModel | None = None,
    dataset: Dataset | None = None,
) -> list[AblationRow]:
    """Clone the plan's prototta config across one axis and compare."""
    methods = plan.method_map
    if "prototta" not in methods:
        raise ConfigError("ablation needs a method named 'prototta' in the plan")
    variants = _ablation_variants(methods["prototta"], axis)
    sub_plan = replace(plan, methods=tuple(variants), metrics=("accuracy",))
    model, dataset = _load_plan_inputs(sub_plan, model, dataset)
    cells = _run_cells(sub_plan, model, dataset)
    by_mc = _group_cells(cells)
    rows = []
    for setting, _ in variants:
        *per_cor, (_, mean, std) = _summary(plan, lambda cor: [c.accuracy for c in by_mc[(setting, cor)]])
        cor_means = [m for _, m, _ in per_cor]
        rows.append(AblationRow(axis, setting, mean, std, min(cor_means), max(cor_means)))
    out = Path(plan.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / f"ablation_{axis}.csv", [f.name for f in fields(AblationRow)], [astuple(r) for r in rows])
    _dump_cell_records(cells, out)
    return rows


def build_board(record: ActivationRecord, model: PrototypeModel, k: int, method: str) -> dict:
    """One sample's top-k contributing prototypes under its adapted prediction."""
    if k < 1:
        raise ConfigError(f"board k must be at least 1, got {k}")
    P = len(model.class_of)
    if len(record.adapted_activations) != P:
        raise FormatError(
            f"record {record.sample_id}: activation length {len(record.adapted_activations)}"
            f" does not match the model's {P} prototypes"
        )
    if record.mapped_activations is None:
        raise FormatError(f"record {record.sample_id}: missing mapped activations")
    weights = np.abs(model.head.data[record.adapted_prediction])
    contributions = record.adapted_activations * weights
    top = _top_indices(contributions, k)
    return {
        "sample_id": record.sample_id,
        "method": method,
        "predicted_class": record.adapted_prediction,
        "ground_truth": record.ground_truth,
        "prototypes": [
            {
                "prototype_id": int(p),
                "owning_class": int(model.class_of[p]),
                "contribution": float(contributions[p]),
                "raw_similarity": float(record.adapted_activations[p]),
                "mapped_similarity": float(record.mapped_activations[p]),
            }
            for p in top
        ],
    }


def export_boards(
    records: list[ActivationRecord],
    model: PrototypeModel,
    k: int,
    method: str,
    out_dir,
) -> list[Path]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for record in sorted(records, key=lambda r: r.sample_id):
        board = build_board(record, model, k, method)
        path = out / f"{method}_{record.sample_id:06d}.json"
        path.write_text(json.dumps(board, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        written.append(path)
    return written


def board_sample_pca_w(board: dict) -> float:
    """Eq.-7-style ratio over the prototypes stored in one board."""
    contributions = np.asarray([p["contribution"] for p in board["prototypes"]], dtype=np.float64)
    classes = np.asarray([p["owning_class"] for p in board["prototypes"]])
    return sample_pca_w(contributions, classes, board["ground_truth"], top_set_size=len(contributions))


@dataclass
class CorrelationReport:
    rows: list[list]  # scope, n, pearson, spearman
    warnings: list[str]


def correlate_scores(boards_dir, scores_path, out_path=None) -> CorrelationReport:
    """Join per-board interpretability ratios with external per-sample scores."""
    boards_dir = Path(boards_dir)
    if not boards_dir.is_dir():
        raise ConfigError(f"boards directory not found: {boards_dir}")
    board_files = sorted(boards_dir.glob("*.json"))
    if not board_files:
        raise InsufficientDataError(f"no board files in {boards_dir}")
    scores = load_scores(scores_path)
    per_method: dict[str, list[tuple[float, float]]] = {}
    warnings: list[str] = []
    seen_ids = set()
    for path in board_files:
        try:
            board = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise FormatError(f"{path}: invalid board JSON: {exc}") from None
        sid = int(board["sample_id"])
        seen_ids.add(sid)
        if sid not in scores:
            warnings.append(f"no external score for sample {sid} ({path.name})")
            continue
        per_method.setdefault(board["method"], []).append(
            (board_sample_pca_w(board), scores[sid])
        )
    for sid in sorted(set(scores) - seen_ids):
        warnings.append(f"score for sample {sid} has no board")
    pooled = [pair for pairs in per_method.values() for pair in pairs]
    if len(pooled) < 3:
        raise InsufficientDataError(f"need at least 3 matched samples, got {len(pooled)}")
    rows: list[list] = []

    def corr_row(scope: str, pairs: list[tuple[float, float]]) -> list:
        xs = [a for a, _ in pairs]
        ys = [b for _, b in pairs]
        return [scope, len(pairs), pearson(xs, ys), spearman(xs, ys)]

    rows.append(corr_row("pooled", pooled))
    for name in sorted(per_method):
        if len(per_method[name]) < 3:
            warnings.append(f"method {name}: only {len(per_method[name])} matches, skipped")
            continue
        try:
            rows.append(corr_row(name, per_method[name]))
        except DegenerateInputError as exc:
            warnings.append(f"method {name}: {exc}, skipped")
    if out_path is not None:
        _write_csv(Path(out_path), ["scope", "n", "pearson", "spearman"], rows)
    return CorrelationReport(rows=rows, warnings=warnings)

"""The benchmark's three workloads and the per-layer spans around them.

Each workload has a set-up (timed as ``setup_s``), a round (one whole unit
of user work, timed as ``wall_s``), and checks on what a round produced.
Sizes are fixed here so that every run does the same rounds; only
``--seed`` changes the inputs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import reference
from tracing import Tracer

from prototta import adapt, autodiff, bench, cli, harness
from prototta import model as pmodel
from prototta.errors import PttaError

BATCH = 128
SEVERITY = 5
PRESETS = ("unadapted", "tent", "prototta", "prototta_plus")
CORRUPTIONS = harness.CORRUPTION_KINDS

# Every workload uses the clusters of the default synthetic task, and the
# adapt and report set-ups train their source model with a fixed seed;
# --seed picks the corruption noise and the stream order (and the training
# seed of the train workload). Redrawing the clusters or the source model
# per seed moved pooled accuracy between 67 % and 82 % and, through the
# number of skipped updates, the run time with it.
TASK_SEED = harness.SyntheticTaskSpec().seed
SOURCE_SEED = 0
SOURCE_TRAIN_SAMPLES = 1024
SOURCE_EPOCHS = 2
# One cell at a time: on 2 CPUs a second pool thread made a report round
# slower (4.7-7.2 s against 3.9-5.8 s) and its batch p90 unsteady (10-25 ms
# against 3.1-4.1 ms), because the cells contend for the interpreter lock.
REPORT_THREADS = 1

ADAPT_BATCHES_PER_CORRUPTION = 6
TRAIN_EPOCHS = 3
REPORT_SEEDS = 3
REPORT_BATCHES = 16
REPORT_RECORD_BATCHES = 2
REPORT_TEST_SAMPLES = 4096
# Corruptions whose boards are correlated: unadapted accuracy is far below
# 100 % on them, so their board ratios are never all equal (see CHANGES.md).
CORRELATED = ("gaussian_noise", "impulse_noise", "brightness_shift")


@dataclass
class Round:
    """What one round did; ``wall`` covers only the calls into the program."""

    wall: float = 0.0
    samples: int = 0
    correct: float = 0.0
    graded: int = 0
    batch_s: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    streams: list[tuple[str, int, float, float]] = field(default_factory=list)  # method, samples, seconds, correct
    selected: int = 0
    adapting_samples: int = 0
    skipped_batches: int = 0


def _stream_stats(rnd: Round, method: str, report, seconds: float) -> None:
    correct = sum(r.accuracy * r.size for r in report.records)
    rnd.samples += report.total_samples
    rnd.correct += correct
    rnd.graded += report.total_samples
    rnd.batch_s.extend(report.batch_durations)
    rnd.streams.append((method, report.total_samples, seconds, correct))
    if method != "unadapted":
        rnd.selected += report.selected_samples
        rnd.adapting_samples += report.total_samples
        rnd.skipped_batches += sum(r.skipped for r in report.records)


# ---------------------------------------------------------------------------
# adapt: continual adaptation through the five corruptions back to back


class AdaptWorkload:
    """Each preset adapts one stream through all severity-5 corruptions in
    turn, without a reset, starting from the same source model."""

    name = "adapt"
    setup_repeats = 3

    def __init__(self, seed: int, out: Path):
        self.seed = seed
        self.presets = bench.method_presets()
        self.first: dict[str, tuple] = {}

    def setup(self) -> None:
        per = ADAPT_BATCHES_PER_CORRUPTION * BATCH
        spec = harness.SyntheticTaskSpec(samples_per_split=(SOURCE_TRAIN_SAMPLES, per * len(CORRUPTIONS)), seed=TASK_SEED)
        data = harness.generate_dataset(spec)
        self.model, _ = harness.train_source_model(data, epochs=SOURCE_EPOCHS, seed=SOURCE_SEED)
        order = np.random.default_rng(self.seed).permutation(len(data.test_y))
        parts = [
            harness.corrupt(data.test_x[order[i * per : (i + 1) * per]], harness.CorruptionSpec(kind, SEVERITY), seed=self.seed * 100 + i)
            for i, kind in enumerate(CORRUPTIONS)
        ]
        self.x = np.concatenate(parts)
        self.y = data.test_y[order]

    def round(self) -> tuple[Round, dict]:
        rnd = Round()
        reports = {}
        for name in PRESETS:
            work = self.model.copy()
            rnd.attempted += 1
            start = time.perf_counter()
            try:
                report = adapt.run_stream(work, adapt.iter_batches(self.x, self.y, BATCH), self.presets[name])
            except PttaError:
                rnd.failed += 1
                continue
            seconds = time.perf_counter() - start
            rnd.wall += seconds
            _stream_stats(rnd, name, report, seconds)
            reports[name] = (report, work)
        return rnd, reports

    def inspect(self, reports: dict) -> list[str]:
        """Full checks on the first round; later rounds must repeat it exactly."""
        problems = []
        for name, (report, work) in reports.items():
            summary = [(r.selected, r.skipped, r.loss, r.accuracy) for r in report.records]
            if name in self.first:
                if summary != self.first[name]:
                    problems.append(f"{name}: a repeated stream gave different losses or selections")
                continue
            self.first[name] = summary
            problems += self._check_stream(name, report, work)
        return problems

    def _check_stream(self, name: str, report, work) -> list[str]:
        cfg = self.presets[name]
        head = self.model.head.data
        problems = checks.frozen_problems(name, self.model.prototypes.data, head, work)
        problems += checks.loss_problems(name, report)
        problems += checks.selected_problems(name, report, cfg, head)
        recs = report.sample_records
        act, logits = reference.forward(self.model, self.x, aggregation=cfg.consensus)
        clean = np.stack([r.clean_activations for r in recs])
        problems += checks.activation_problems(f"{name} clean", clean, act)
        problems += checks.prediction_problems(f"{name} clean", logits, [r.clean_prediction for r in recs])
        if name == "unadapted":
            adapted = np.stack([r.adapted_activations for r in recs])
            problems += checks.activation_problems(name, adapted, act)
            problems += checks.prediction_problems(name, logits, [r.adapted_prediction for r in recs])
        preds = np.asarray([r.adapted_prediction for r in recs])
        for rec in report.records:
            lo = rec.index * BATCH
            want = float(np.mean(preds[lo : lo + rec.size] == self.y[lo : lo + rec.size]))
            if rec.accuracy != want:
                problems.append(f"{name} batch {rec.index}: accuracy {rec.accuracy}, predictions give {want}")
        return problems

    def final_checks(self) -> list[str]:
        """Finite-difference probe of the gradient handed to Adam, per adapting preset."""
        problems = []
        probe_x, probe_y = self.x[: 4 * BATCH], self.y[: 4 * BATCH]
        for i, name in enumerate(PRESETS[1:]):
            result = checks.gradient_probe(
                adapt, pmodel.model_forward, self.model.copy(), adapt.iter_batches(probe_x, probe_y, BATCH),
                self.presets[name], seed=self.seed * 10 + i,
            )
            if result is None:
                problems.append(f"{name}: no update after the first batch to probe")
            else:
                problems += checks.directional_problems(name, *result)
        return problems


# ---------------------------------------------------------------------------
# train: source training on the default synthetic task


class _StepTimer:
    """Times training steps: from the training forward to the end of Adam."""

    def __init__(self):
        self.durations: list[float] = []
        self._start = None
        self._forward, self._adam = harness.model_forward, adapt.adam_step

    def install(self) -> None:
        timer = self

        def forward(model, x, use_batch_stats=True):
            if use_batch_stats:
                timer._start = time.perf_counter()
            return timer._forward(model, x, use_batch_stats=use_batch_stats)

        def adam_step(params, grads, state, cfg):
            timer._adam(params, grads, state, cfg)
            timer.durations.append(time.perf_counter() - timer._start)

        harness.model_forward, adapt.adam_step = forward, adam_step


class TrainWorkload:
    name = "train"
    setup_repeats = 7

    def __init__(self, seed: int, out: Path):
        self.seed = seed
        self.timer = _StepTimer()
        self.timer.install()
        self.first = None

    def setup(self) -> None:
        self.data = harness.generate_dataset(harness.SyntheticTaskSpec())

    def round(self) -> tuple[Round, tuple]:
        rnd = Round(attempted=1)
        self.timer.durations = []
        start = time.perf_counter()
        try:
            model, stats = harness.train_source_model(self.data, epochs=TRAIN_EPOCHS, seed=self.seed)
        except PttaError:
            rnd.failed = 1
            return rnd, None
        rnd.wall = time.perf_counter() - start
        rnd.samples = TRAIN_EPOCHS * len(self.data.train_x)
        rnd.batch_s = self.timer.durations
        rnd.correct = stats["clean_accuracy"] * len(self.data.test_y)
        rnd.graded = len(self.data.test_y)
        return rnd, (model, stats)

    def inspect(self, result) -> list[str]:
        if result is None:
            return []
        model, stats = result
        snapshot = model.state_snapshot()
        if self.first is not None:
            same = all(np.array_equal(snapshot[k], v) for k, v in self.first.items())
            return [] if same else ["training with the same seed gave different parameters"]
        self.first = snapshot
        problems = []
        if not np.isfinite(stats["final_loss"]):
            problems.append(f"final training loss {stats['final_loss']}")
        _, logits = reference.forward(model, self.data.test_x)
        preds = logits.argmax(axis=1)
        ties = np.sort(logits, axis=1)
        near = int((ties[:, -1] - ties[:, -2] <= reference.TIE_GAP).sum())
        correct = int((preds == self.data.test_y).sum())
        reported = stats["clean_accuracy"] * len(preds)
        if abs(reported - correct) > near + 1e-6:
            problems.append(f"clean accuracy {stats['clean_accuracy']}, reference forward gives {correct / len(preds)}")
        if correct < 0.9 * len(preds):
            problems.append(f"source model reaches only {correct / len(preds):.3f} clean accuracy")
        return problems

    def final_checks(self) -> list[str]:
        return []


# ---------------------------------------------------------------------------
# report: the interpretability pipeline through the ptta command


def _digest(paths) -> str:
    h = hashlib.sha256()
    for path in sorted(paths):
        h.update(str(path.name).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


class ReportWorkload:
    """``ptta bench`` (unadapted, all corruptions, several seeds, records on),
    then ``ptta boards`` on every records file and ``ptta correlate``."""

    name = "report"
    setup_repeats = 3

    def __init__(self, seed: int, out: Path):
        self.seed = seed
        self.out = out
        self.threads = min(REPORT_THREADS, usable_cpus())
        os.environ["PTTA_THREADS"] = str(self.threads)
        self.plan_seeds = [seed * 10 + i for i in range(REPORT_SEEDS)]
        self.first_digest = None
        self._streams: list = []
        run_stream = bench.run_stream

        def hooked(*args, **kwargs):
            start = time.perf_counter()
            report = run_stream(*args, **kwargs)
            self._streams.append((args[2].method, report, time.perf_counter() - start))
            return report

        bench.run_stream = hooked

    def setup(self) -> None:
        inputs = self.out / "inputs"
        inputs.mkdir(parents=True, exist_ok=True)
        spec = harness.SyntheticTaskSpec(samples_per_split=(SOURCE_TRAIN_SAMPLES, REPORT_TEST_SAMPLES), seed=TASK_SEED)
        self.data = harness.generate_dataset(spec)
        self.model, _ = harness.train_source_model(self.data, epochs=SOURCE_EPOCHS, seed=SOURCE_SEED)
        self.model_path, self.data_path = inputs / "model.json", inputs / "data.npz"
        pmodel.save_model(self.model, self.model_path)
        harness.save_dataset(self.data, self.data_path)
        rng = np.random.default_rng(self.seed)
        self.scores = {i: float(rng.normal()) for i in range(REPORT_RECORD_BATCHES * BATCH)}
        self.scores_path = inputs / "scores.csv"
        with open(self.scores_path, "w", encoding="utf-8") as fh:
            fh.write("sample_id,score\n")
            fh.writelines(f"{i},{s!r}\n" for i, s in self.scores.items())

    def _commands(self) -> list[list[str]]:
        reports, boards, corr = self.out / "reports", self.out / "boards", self.out / "correlations"
        cmds = [[
            "bench", "--model", str(self.model_path), "--data", str(self.data_path), "--out-dir", str(reports),
            "--methods", "unadapted", "--corruptions", *[f"{k}:{SEVERITY}" for k in CORRUPTIONS],
            "--seeds", *map(str, self.plan_seeds), "--num-batches", str(REPORT_BATCHES),
            "--record-batches", str(REPORT_RECORD_BATCHES),
        ]]
        for kind in CORRUPTIONS:
            cmds.append([
                "boards", "--records", str(reports / "records" / f"unadapted_{kind}_{SEVERITY}.jsonl"),
                "--model", str(self.model_path), "--out", str(boards / kind), "--method", "unadapted",
            ])
        corr.mkdir(parents=True, exist_ok=True)
        for kind in CORRELATED:
            cmds.append(["correlate", "--boards", str(boards / kind), "--scores", str(self.scores_path), "--out", str(corr / f"{kind}.csv")])
        return cmds

    def round(self) -> tuple[Round, None]:
        rnd = Round()
        self._streams = []
        cmds = self._commands()
        sink = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            for argv in cmds:
                rnd.attempted += 1
                if cli.main(argv) != 0:
                    rnd.failed += 1
        rnd.wall = time.perf_counter() - start
        if rnd.failed:
            print(sink.getvalue(), file=sys.stderr)
        for method, report, seconds in self._streams:
            _stream_stats(rnd, method, report, seconds)
        return rnd, None

    def _deterministic_files(self) -> list[Path]:
        reports = self.out / "reports"
        names = ["accuracy.csv", "accuracy_raw.csv", "accuracy_batches.csv", "accuracy.md", "interpretability.csv"]
        return (
            [reports / n for n in names]
            + sorted((reports / "records").glob("*.jsonl"))
            + sorted((self.out / "boards").rglob("*.json"))
            + sorted((self.out / "correlations").glob("*.csv"))
        )

    def inspect(self, _result) -> list[str]:
        digest = _digest(self._deterministic_files())
        if self.first_digest is not None:
            return [] if digest == self.first_digest else ["report files differ between identical rounds"]
        self.first_digest = digest
        return self._audit()

    def _audit(self) -> list[str]:
        reports = self.out / "reports"
        raw = checks.read_csv(reports / "accuracy_raw.csv")
        batches = checks.read_csv(reports / "accuracy_batches.csv")
        problems = checks.audit_accuracy(raw, checks.read_csv(reports / "accuracy.csv"))
        problems += checks.audit_raw_from_batches(batches, raw)
        problems += checks.audit_unadapted(
            checks.read_csv(reports / "interpretability.csv"), checks.read_csv(reports / "efficiency.csv")
        )
        records = {kind: self._records(kind) for kind in CORRUPTIONS}
        problems += self._check_against_reference(batches, records)
        head, class_of = self.model.head.data, self.model.class_of
        for kind in CORRUPTIONS:
            activations = {r["sample_id"]: np.asarray(r["adapted_activations"]) for r in records[kind]}
            boards = {}
            for path in sorted((self.out / "boards" / kind).glob("*.json")):
                board = json.loads(path.read_text(encoding="utf-8"))
                sid = board["sample_id"]
                problems += checks.audit_board(f"{kind}/{path.name}", board, head, class_of, activations[sid])
                boards[sid] = board
            if len(boards) != REPORT_RECORD_BATCHES * BATCH:
                problems.append(f"{kind}: {len(boards)} boards for {REPORT_RECORD_BATCHES * BATCH} records")
            if kind in CORRELATED:
                pairs = [(checks.board_ratio(b), self.scores[sid]) for sid, b in boards.items()]
                rows = checks.read_csv(self.out / "correlations" / f"{kind}.csv")
                problems += checks.audit_correlations(rows, {"pooled": pairs, "unadapted": pairs})
        return problems

    def _records(self, kind: str) -> list[dict]:
        path = self.out / "reports" / "records" / f"unadapted_{kind}_{SEVERITY}.jsonl"
        return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]

    def _check_against_reference(self, batch_rows: list[dict], records: dict[str, list[dict]]) -> list[str]:
        """Per-batch accuracies and records of every cell against the reference."""
        problems = []
        acc = {}
        for row in batch_rows:
            acc[(row["corruption"], int(row["seed"]), int(row["batch"]))] = float(row["accuracy"])
        take = REPORT_BATCHES * BATCH
        for kind in CORRUPTIONS:
            cor = harness.CorruptionSpec(kind, SEVERITY)
            for s in self.plan_seeds:
                x = harness.corrupt(self.data.test_x, cor, seed=bench.derive_seed("corrupt", str(cor), s))
                order = np.random.default_rng(bench.derive_seed("order", str(cor), s)).permutation(len(x))[:take]
                x, y = x[order], self.data.test_y[order]
                act, logits = reference.forward(self.model, x)
                preds = logits.argmax(axis=1)
                for b in range(REPORT_BATCHES):
                    sl = slice(b * BATCH, (b + 1) * BATCH)
                    want = 100.0 * float(np.mean(preds[sl] == y[sl]))
                    got = acc.get((str(cor), s, b))
                    if got is None or not checks.close(got, want):
                        problems.append(f"{cor} seed {s} batch {b}: accuracy {got}, reference {want}")
                if s != self.plan_seeds[0]:
                    continue
                recs = records[kind]
                n = len(recs)
                problems += checks.activation_problems(
                    f"{cor} records", np.asarray([r["adapted_activations"] for r in recs]), act[:n]
                )
                problems += checks.prediction_problems(
                    f"{cor} records", logits[:n], [r["adapted_prediction"] for r in recs]
                )
        return problems

    def final_checks(self) -> list[str]:
        return []


def usable_cpus() -> int:
    return len(os.sched_getaffinity(0))


def peak_rss_mb() -> float:
    """High-water resident set of this process, in MiB (Linux reports KiB)."""
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


WORKLOADS = {w.name: w for w in (AdaptWorkload, TrainWorkload, ReportWorkload)}


# ---------------------------------------------------------------------------
# traced rounds


def install_spans(t: Tracer) -> None:
    """Wrap the module attributes through which the layers call each other."""

    def forward_bucket(parent, args, kwargs):
        if parent == "adapt.stream":
            return "model.clean_forward"
        if parent == "harness.evaluate":
            return "harness.evaluate"
        return "model.forward"

    def count(name, amount=lambda result, args: 1):
        def after(result, args, kwargs):
            t.counts[name] += amount(result, args)

        return after

    for mod in (adapt, harness):
        t.wrap(mod, "model_forward", forward_bucket, count("model.forward_calls"))
    t.wrap(autodiff, "cosine_similarity", "autodiff.cosine_fwd")
    t.wrap(autodiff, "topk_mean", "autodiff.topk_mean_fwd")

    def after_backward(result, args, kwargs):
        t.counts["autodiff.backward_calls"] += 1
        t.counts["autodiff.tape_ops"] += len(args[0])

    t.wrap(autodiff, "backward", "autodiff.backward", after_backward)
    t.wrap(adapt, "adam_step", "adapt.adam")
    t.wrap(adapt, "adapt_batch", "adapt.batch")
    t.wrap(adapt, "geometric_filter", "adapt.filter")
    for fn in ("tent_loss", "prototta_loss", "hybrid_loss"):
        t.wrap(adapt, fn, "adapt.loss")
    t.wrap(adapt, "run_stream", "adapt.stream")
    t.wrap(bench, "run_stream", "adapt.stream")
    t.wrap(harness, "train_source_model", "harness.train")
    t.wrap(harness, "evaluate", "harness.evaluate")
    t.wrap(bench, "corrupt", "harness.corrupt")
    t.wrap(bench, "pac", "metrics.pac")
    t.wrap(bench, "pca_w", "metrics.pca_w")

    def after_dump(result, args, kwargs):
        t.counts["metrics.records_written"] += len(args[0])
        t.counts["metrics.records_bytes"] += os.path.getsize(args[1])

    t.wrap(bench, "dump_records", "metrics.dump_records", after_dump)
    t.wrap(cli, "load_records", "metrics.load_records")
    t.wrap(cli, "run_benchmark", "bench.run")
    t.wrap(bench, "_run_cells", "bench.pool_wait")
    t.wrap(bench, "_run_cell", "bench.cell", count("bench.cells"))
    t.wrap(cli, "export_boards", "bench.boards", count("bench.boards_written", lambda result, args: len(result)))
    t.wrap(cli, "correlate_scores", "bench.correlate")
    for mod in (cli, bench):
        t.wrap(mod, "load_model", "cli.load")
        t.wrap(mod, "load_dataset", "cli.load")
    t.wrap(cli, "main", "cli.main")


# per-layer self-time metric -> the span buckets it sums
SELF_TIME_METRICS = {
    "autodiff.backward_s": ("autodiff.backward",),
    "autodiff.cosine_fwd_s": ("autodiff.cosine_fwd",),
    "autodiff.topk_mean_fwd_s": ("autodiff.topk_mean_fwd",),
    "model.forward_s": ("model.forward",),
    "model.clean_forward_s": ("model.clean_forward",),
    "adapt.batch_s": ("adapt.batch",),
    "adapt.filter_s": ("adapt.filter",),
    "adapt.loss_s": ("adapt.loss",),
    "adapt.adam_s": ("adapt.adam",),
    "adapt.stream_self_s": ("adapt.stream",),
    "harness.train_self_s": ("harness.train",),
    "harness.evaluate_s": ("harness.evaluate",),
    "harness.corrupt_s": ("harness.corrupt",),
    "metrics.pac_s": ("metrics.pac",),
    "metrics.pca_w_s": ("metrics.pca_w",),
    "metrics.dump_records_s": ("metrics.dump_records",),
    "metrics.load_records_s": ("metrics.load_records",),
    "bench.self_s": ("bench.run", "bench.pool_wait", "bench.cell"),
    "bench.boards_s": ("bench.boards",),
    "bench.correlate_s": ("bench.correlate",),
    "cli.load_s": ("cli.load",),
    "cli.self_s": ("cli.main",),
    "workload.self_s": ("workload",),
}

COUNT_METRICS = (
    "autodiff.backward_calls",
    "model.forward_calls",
    "metrics.records_written",
    "bench.cells",
    "bench.boards_written",
)


@dataclass
class TraceSum:
    """Per-round sums over the traced rounds of a run."""

    rounds: int = 0
    wall: float = 0.0
    self_time: dict = field(default_factory=dict)
    clean_forward_total: float = 0.0
    counts: dict = field(default_factory=dict)
    tape_ops: float = 0.0
    bench_run: float = 0.0
    cell_time: float = 0.0
    pool_time: float = 0.0

    def add(self, t: Tracer, wall: float) -> None:
        self_time, under = t.attribute(inclusive_of=("model.clean_forward",))
        self.rounds += 1
        self.wall += wall
        for bucket, seconds in self_time.items():
            self.self_time[bucket] = self.self_time.get(bucket, 0.0) + seconds
        self.clean_forward_total += under["model.clean_forward"]
        for name, value in t.counts.items():
            self.counts[name] = self.counts.get(name, 0) + value
        self.bench_run += t.inclusive["bench.run"]
        self.cell_time += t.inclusive["bench.cell"]
        self.pool_time += t.inclusive["bench.pool_wait"]


def traced_round(workload) -> tuple[Round, object, Tracer, float]:
    tracer = Tracer()
    install_spans(tracer)
    try:
        start = time.perf_counter()
        with tracer.span("workload"):
            rnd, result = workload.round()
        wall = time.perf_counter() - start
    finally:
        tracer.uninstall()
    return rnd, result, tracer, wall


def per_layer_metrics(workload, trace: TraceSum, untraced: list[Round], traced: list[Round]) -> dict:
    n = max(trace.rounds, 1)
    out = {}
    for name, buckets in SELF_TIME_METRICS.items():
        out[name] = (sum(trace.self_time.get(b, 0.0) for b in buckets) / n, "s")
    self_sum = sum(v for v, _ in out.values())
    for name in COUNT_METRICS:
        out[name] = (trace.counts.get(name, 0) / n, "count")
    out["metrics.records_bytes"] = (trace.counts.get("metrics.records_bytes", 0) / n, "B")
    calls = trace.counts.get("autodiff.backward_calls", 0)
    out["autodiff.tape_ops"] = (trace.counts.get("autodiff.tape_ops", 0) / calls if calls else 0.0, "count")
    out["model.clean_forward_total_s"] = (trace.clean_forward_total / n, "s")
    out["bench.run_s"] = (trace.bench_run / n, "s")
    workers = getattr(workload, "threads", 1)
    out["bench.pool_busy_ratio"] = (trace.cell_time / (trace.pool_time * workers) if trace.pool_time else 0.0, "ratio")

    both = untraced + traced
    adapting = sum(r.adapting_samples for r in both)
    out["adapt.selected_ratio"] = (sum(r.selected for r in both) / adapting if adapting else 0.0, "ratio")
    out["adapt.skipped_batches"] = (statistics.median(r.skipped_batches for r in both), "count")
    for preset in PRESETS:
        runs = [s for r in untraced for s in r.streams if s[0] == preset]
        samples = sum(s[1] for s in runs)
        seconds = sum(s[2] for s in runs)
        out[f"adapt.{preset}.samples_per_s"] = (samples / seconds if seconds else 0.0, "samples/s")
        out[f"adapt.{preset}.accuracy_pct"] = (100.0 * sum(s[3] for s in runs) / samples if samples else 0.0, "%")

    traced_wall = trace.wall / n
    untraced_wall = statistics.mean(r.wall for r in untraced)
    traced_calls = statistics.mean(r.wall for r in traced)
    out["trace.wall_s"] = (traced_wall, "s")
    out["trace.self_sum_ratio"] = (self_sum / traced_wall, "ratio")
    out["trace.overhead_pct"] = (100.0 * (traced_calls / untraced_wall - 1.0), "%")
    return out


def end_to_end_metrics(setup_times: list[float], rounds: list[Round]) -> dict:
    wall = statistics.median(r.wall for r in rounds)
    samples = statistics.median(r.samples for r in rounds)
    batch_ms = [1000.0 * s for r in rounds for s in r.batch_s]
    q = statistics.quantiles(batch_ms, n=10, method="inclusive")
    graded = sum(r.graded for r in rounds)
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (wall, "s"),
        "samples_per_s": (samples / wall, "samples/s"),
        "batch_p50_ms": (statistics.median(batch_ms), "ms"),
        "batch_p90_ms": (q[8], "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "accuracy_pct": (100.0 * sum(r.correct for r in rounds) / graded if graded else 0.0, "%"),
    }

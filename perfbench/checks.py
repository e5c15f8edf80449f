"""Correctness checks on what the workloads produce.

Every check returns a list of problems (empty means it passed). The checks
compare against the plain-NumPy reference forward or against properties the
method and the report files must have; none compares against stored output.
"""

from __future__ import annotations

import csv
import math

import numpy as np

import reference

REL_TOL = 1e-9


def close(a: float, b: float, rel: float = REL_TOL, abs_tol: float = 1e-12) -> bool:
    return math.isclose(float(a), float(b), rel_tol=rel, abs_tol=abs_tol)


def read_csv(path) -> list[dict[str, str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


# ---------------------------------------------------------------------------
# reference forward


def activation_problems(label: str, got: np.ndarray, want: np.ndarray) -> list[str]:
    if got.shape != want.shape:
        return [f"{label}: activations have shape {got.shape}, reference {want.shape}"]
    worst = float(np.max(np.abs(got - want), initial=0.0))
    if not np.allclose(got, want, rtol=1e-9, atol=1e-12):
        return [f"{label}: activations differ from the reference by up to {worst:.3g}"]
    return []


def prediction_problems(label: str, logits: np.ndarray, predictions: np.ndarray) -> list[str]:
    bad = reference.prediction_mismatches(logits, predictions)
    if len(bad):
        return [f"{label}: {len(bad)} predictions differ from the reference (first at sample {bad[0]})"]
    return []


# ---------------------------------------------------------------------------
# adaptation properties


def _softmax_entropy(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    p = np.exp(z)
    p /= p.sum(axis=1, keepdims=True)
    return -(p * np.log(np.clip(p, 1e-300, 1.0))).sum(axis=1)


def selected_problems(label: str, report, cfg, head: np.ndarray) -> list[str]:
    """Each batch's ``selected`` equals the filter rule recomputed from records.

    The rule keeps a sample when its largest mapped similarity exceeds
    ``tau_sim`` and, with the entropy constraint, when the entropy of the
    head's softmax over its activations stays under the cap. Samples within
    1e-9 of the cap may go either way.
    """
    problems = []
    start = 0
    num_classes = head.shape[0]
    cap = cfg.entropy_cap if cfg.entropy_cap is not None else 0.5 * math.log(num_classes)
    for rec in report.records:
        samples = report.sample_records[start : start + rec.size]
        start += rec.size
        if cfg.method == "unadapted":
            low = high = 0
        elif cfg.method == "tent":
            low = high = rec.size
        else:
            mapped = np.stack([s.mapped_activations for s in samples])
            keep = mapped.max(axis=1) > cfg.tau_sim
            if cfg.use_entropy_constraint:
                entropy = _softmax_entropy(np.stack([s.adapted_activations for s in samples]) @ head.T)
                low = int((keep & (entropy < cap - 1e-9)).sum())
                high = int((keep & (entropy < cap + 1e-9)).sum())
            else:
                low = high = int(keep.sum())
        if not low <= rec.selected <= high:
            problems.append(f"{label} batch {rec.index}: selected {rec.selected}, rule gives {low}")
    if start != len(report.sample_records):
        problems.append(f"{label}: {len(report.sample_records)} sample records for {start} streamed samples")
    return problems


def frozen_problems(label: str, protos: np.ndarray, head: np.ndarray, model) -> list[str]:
    problems = []
    if not np.array_equal(model.prototypes.data, protos):
        problems.append(f"{label}: prototypes changed")
    if not np.array_equal(model.head.data, head):
        problems.append(f"{label}: head weights changed")
    return problems


def loss_problems(label: str, report) -> list[str]:
    return [
        f"{label} batch {r.index}: loss {r.loss} after an update"
        for r in report.records
        if not r.skipped and (r.loss is None or not math.isfinite(r.loss))
    ]


def directional_problems(label: str, analytic: float, numeric: float, rel: float = 1e-4) -> list[str]:
    if math.isclose(analytic, numeric, rel_tol=rel, abs_tol=1e-9):
        return []
    return [f"{label}: gradient along a random direction is {analytic:.9g}, finite difference {numeric:.9g}"]


def gradient_probe(adapt, model_forward, model, batches, cfg, seed: int, eps: float = 1e-5):
    """Directional derivative of the loss at the first Adam step after batch 0.

    Runs ``adapt.run_stream`` with ``adapt.adapt_batch`` and ``adapt.adam_step``
    hooked. At the probed step it returns ``(g . v, (L(p + eps v) - L(p - eps
    v)) / (2 eps))`` for a random unit direction ``v`` over the parameters
    handed to Adam, with the reliable set held fixed as the method does.
    Returns None when no step was taken after batch 0.
    """
    seen: dict = {}
    run_batch, run_adam = adapt.adapt_batch, adapt.adam_step

    def batch_hook(work, batch, step_cfg, state, index=0, clean_predictions=None):
        seen["model"], seen["x"], seen["index"] = work, batch[0], index
        return run_batch(work, batch, step_cfg, state, index=index, clean_predictions=clean_predictions)

    def adam_hook(params, grads, state, step_cfg):
        if "result" not in seen and seen["index"] >= 1:
            seen["result"] = _directional(adapt, model_forward, seen["model"], seen["x"], params, grads, step_cfg, seed, eps)
        return run_adam(params, grads, state, step_cfg)

    adapt.adapt_batch, adapt.adam_step = batch_hook, adam_hook
    try:
        adapt.run_stream(model, batches, cfg, collect_samples=False)
    finally:
        adapt.adapt_batch, adapt.adam_step = run_batch, run_adam
    return seen.get("result")


def _directional(adapt, model_forward, work, x, params, grads, cfg, seed, eps):
    rel = None
    if cfg.method != "tent":
        rel = adapt.geometric_filter(model_forward(work, x, use_batch_stats=True), cfg, work.class_of)

    def loss_now() -> float:
        out = model_forward(work, x, use_batch_stats=True)
        if cfg.method == "tent":
            return adapt.tent_loss(out).item()
        loss_fn = adapt.hybrid_loss if cfg.method == "prototta_plus" else adapt.prototta_loss
        return loss_fn(out, rel, work.head, cfg).item()

    rng = np.random.default_rng(seed)
    dirs = [rng.normal(size=p.data.shape) for p in params]
    norm = math.sqrt(sum(float((d * d).sum()) for d in dirs))
    dirs = [d / norm for d in dirs]
    saved = [p.data.copy() for p in params]
    values = []
    for sign in (1.0, -1.0):
        for p, d, s in zip(params, dirs, saved):
            p.data[...] = s + sign * eps * d
        values.append(loss_now())
    for p, s in zip(params, saved):
        p.data[...] = s
    analytic = sum(float((g * d).sum()) for g, d in zip(grads, dirs))
    return analytic, (values[0] - values[1]) / (2.0 * eps)


# ---------------------------------------------------------------------------
# report audits


def _mean_std(values: list[float]) -> tuple[float, float]:
    mean = sum(values) / len(values)
    return mean, math.sqrt(sum((v - mean) ** 2 for v in values) / len(values))


def audit_accuracy(raw_rows: list[dict], agg_rows: list[dict]) -> list[str]:
    """accuracy.csv is the mean and population std over seeds of accuracy_raw.csv,
    plus a TOTAL row over the per-corruption means."""
    by_cell: dict[tuple[str, str], list[float]] = {}
    for row in raw_rows:
        by_cell.setdefault((row["method"], row["corruption"]), []).append(float(row["accuracy"]))
    expected = {}
    per_method: dict[str, list[float]] = {}
    for (method, cor), values in by_cell.items():
        expected[(method, cor)] = _mean_std(values)
        per_method.setdefault(method, []).append(expected[(method, cor)][0])
    for method, means in per_method.items():
        expected[(method, "TOTAL")] = _mean_std(means)
    problems = []
    seen = set()
    for row in agg_rows:
        key = (row["method"], row["corruption"])
        seen.add(key)
        if key not in expected:
            problems.append(f"accuracy.csv: row {key} has no cells in accuracy_raw.csv")
            continue
        mean, std = expected[key]
        if not (close(row["mean"], mean) and close(row["std"], std, abs_tol=1e-9)):
            problems.append(f"accuracy.csv {key}: {row['mean']} ± {row['std']}, raw cells give {mean!r} ± {std!r}")
    for key in sorted(set(expected) - seen):
        problems.append(f"accuracy.csv: missing row {key}")
    return problems


def audit_raw_from_batches(batch_rows: list[dict], raw_rows: list[dict]) -> list[str]:
    """Each accuracy_raw.csv cell is the size-weighted mean of its batches."""
    sums: dict[tuple[str, str, str], list[float]] = {}
    for row in batch_rows:
        acc = sums.setdefault((row["method"], row["corruption"], row["seed"]), [0.0, 0.0])
        size = float(row["size"])
        acc[0] += size * float(row["accuracy"])
        acc[1] += size
    problems = []
    for row in raw_rows:
        key = (row["method"], row["corruption"], row["seed"])
        if key not in sums:
            problems.append(f"accuracy_raw.csv {key}: no batches in accuracy_batches.csv")
            continue
        weighted, size = sums[key]
        if not close(row["accuracy"], weighted / size):
            problems.append(f"accuracy_raw.csv {key}: {row['accuracy']}, batches give {weighted / size!r}")
    if len(raw_rows) != len(sums):
        problems.append(f"accuracy_raw.csv has {len(raw_rows)} cells, accuracy_batches.csv {len(sums)}")
    return problems


def audit_unadapted(interp_rows: list[dict], eff_rows: list[dict], method: str = "unadapted") -> list[str]:
    """A model that never adapts keeps its activations (PAC 1), its predictions
    (stability 100) and its speed relative to itself (100)."""
    problems = []
    interp = [r for r in interp_rows if r["method"] == method]
    eff = [r for r in eff_rows if r["method"] == method]
    if not interp or not eff:
        problems.append(f"no {method} rows in interpretability.csv or efficiency.csv")
    for row in interp:
        if not close(row["pac_mean"], 1.0, abs_tol=1e-12):
            problems.append(f"interpretability.csv {row['corruption']}: {method} PAC {row['pac_mean']}")
        if float(row["stability_mean"]) != 100.0:
            problems.append(f"interpretability.csv {row['corruption']}: {method} stability {row['stability_mean']}")
    for row in eff:
        if float(row["relative_speed_mean"]) != 100.0:
            problems.append(f"efficiency.csv {row['corruption']}: {method} relative speed {row['relative_speed_mean']}")
    return problems


def audit_board(name: str, board: dict, head: np.ndarray, class_of: np.ndarray, activations: np.ndarray) -> list[str]:
    """Contribution = activation x |head weight| of the predicted class, in
    descending order, with each prototype's owning class; the board holds the
    top contributions over all of the sample's recorded ``activations``."""
    problems = []
    cls = board["predicted_class"]
    ids = [entry["prototype_id"] for entry in board["prototypes"]]
    top = np.argsort(-(activations * np.abs(head[cls])), kind="stable")[: len(ids)]
    if ids != top.tolist():
        problems.append(f"{name}: prototypes {ids}, the top contributions are {top.tolist()}")
    contributions = []
    for entry in board["prototypes"]:
        pid = entry["prototype_id"]
        want = entry["raw_similarity"] * abs(float(head[cls, pid]))
        if not close(entry["contribution"], want):
            problems.append(f"{name}: prototype {pid} contribution {entry['contribution']!r}, expected {want!r}")
        if entry["owning_class"] != int(class_of[pid]):
            problems.append(f"{name}: prototype {pid} owned by {entry['owning_class']}, model says {class_of[pid]}")
        contributions.append(entry["contribution"])
    if any(b > a for a, b in zip(contributions, contributions[1:])):
        problems.append(f"{name}: contributions are not in descending order")
    return problems


def board_ratio(board: dict) -> float:
    """Share of a board's contribution owned by the sample's true class."""
    total = sum(p["contribution"] for p in board["prototypes"])
    own = sum(p["contribution"] for p in board["prototypes"] if p["owning_class"] == board["ground_truth"])
    return own / total


def audit_correlations(rows: list[dict], pairs: dict[str, list[tuple[float, float]]]) -> list[str]:
    """Pearson and Spearman of each row match scipy.stats on the same pairs."""
    from scipy import stats

    problems = []
    if {r["scope"] for r in rows} != set(pairs):
        problems.append(f"correlation scopes {sorted(r['scope'] for r in rows)}, expected {sorted(pairs)}")
    for row in rows:
        scope = row["scope"]
        if scope not in pairs:
            continue
        xs, ys = zip(*pairs[scope])
        if int(row["n"]) != len(xs):
            problems.append(f"correlation {scope}: n {row['n']}, expected {len(xs)}")
            continue
        want_r = stats.pearsonr(xs, ys).statistic
        want_rho = stats.spearmanr(xs, ys).statistic
        if not close(row["pearson"], want_r, abs_tol=1e-10):
            problems.append(f"correlation {scope}: pearson {row['pearson']}, scipy {want_r!r}")
        if not close(row["spearman"], want_rho, abs_tol=1e-10):
            problems.append(f"correlation {scope}: spearman {row['spearman']}, scipy {want_rho!r}")
    return problems

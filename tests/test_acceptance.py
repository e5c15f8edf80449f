"""Ten headline guarantees, one pass/fail line each.

Everything runs on a fixed synthetic task (five well-separated classes in
32 dimensions) with a source model trained once per session; streams are
rebuilt from pinned seeds so every number here is reproducible bit for bit.
"""

from __future__ import annotations

import math
import time
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import finite_difference_grad
from prototta import autodiff as ad
from prototta.adapt import (
    AdaptationReport,
    StepRecord,
    TTAConfig,
    adapt_batch,
    binary_entropy,
    geometric_filter,
    init_optimizer,
    iter_batches,
    prototta_loss,
    run_stream,
    shannon_entropy_rows,
    tent_loss,
)
from prototta.autodiff import Tensor, topk_mean
from prototta.bench import BenchmarkPlan, board_sample_pca_w, method_presets, run_benchmark
from prototta.harness import (
    CorruptionSpec,
    SyntheticTaskSpec,
    corrupt,
    generate_dataset,
    save_dataset,
    train_source_model,
)
from prototta.metrics import (
    ActivationRecord,
    pac,
    pca_w,
    pearson,
    prediction_stability,
    selection_rate,
    spearman,
)
from prototta.model import (
    EPS_CLAMP,
    BackboneConfig,
    MappingScheme,
    ModelConfig,
    PrototypeModel,
    log_inverse_kernel,
    map_similarity,
    model_forward,
    save_model,
)

BATCH = 128


@pytest.fixture(scope="module")
def task():
    """Synthetic dataset plus a source model trained to (near-)perfect clean accuracy."""
    start = time.monotonic()
    dataset = generate_dataset(SyntheticTaskSpec())
    model, stats = train_source_model(dataset, epochs=30, seed=0)
    return {
        "dataset": dataset,
        "model": model,
        "stats": stats,
        "setup_s": time.monotonic() - start,
    }


def corrupted_stream(dataset, seed: int, num_batches: int, impulse_fraction: float = 0.0):
    """Severity-5 gaussian stream; optionally a fraction is swapped for impulse spikes."""
    x = corrupt(dataset.test_x, CorruptionSpec("gaussian_noise", 5), seed=1000 + seed)
    if impulse_fraction:
        heavy = np.random.default_rng(3000 + seed).random(len(x)) < impulse_fraction
        spikes = corrupt(dataset.test_x, CorruptionSpec("impulse_noise", 5), seed=4000 + seed)
        x = np.where(heavy[:, None], spikes, x)
    order = np.random.default_rng(2000 + seed).permutation(len(x))[: num_batches * BATCH]
    return x[order], dataset.test_y[order]


@pytest.fixture(scope="module")
def recovery(task):
    """All four methods across five 64-batch corrupted streams, timed end to end."""
    start = time.monotonic()
    presets = method_presets()
    per_seed = {name: [] for name in presets}
    prototta_curves = []
    for seed in range(5):
        x, y = corrupted_stream(task["dataset"], seed, num_batches=64)
        for name, cfg in presets.items():
            report = run_stream(
                task["model"].copy(), iter_batches(x, y, BATCH), cfg, collect_samples=False
            )
            per_seed[name].append(100.0 * report.accuracy)
            if name == "prototta":
                prototta_curves.append([100.0 * r.accuracy for r in report.records])
    return {
        "means": {name: float(np.mean(v)) for name, v in per_seed.items()},
        "per_seed": per_seed,
        "prototta_curves": prototta_curves,
        "runtime_s": task["setup_s"] + (time.monotonic() - start),
    }


def test_01_adaptation_loss_gradient_matches_finite_differences(unit_cosines):
    config = ModelConfig(
        backbone=BackboneConfig(input_dim=8, hidden_dims=(16,), has_onexone=True),
        num_classes=3,
        protos_per_class=2,
        sub_prototypes=2,
    )
    cfg = TTAConfig(method="prototta", param_mode="all_adaptive", tau_sim=0.3)
    start = time.monotonic()
    worst = 0.0
    for seed in range(5):
        rng = np.random.default_rng(seed)
        model = PrototypeModel(config, seed=seed)
        x = rng.normal(size=(32, 8))
        base = model_forward(model, x, use_batch_stats=True)
        rel = geometric_filter(base, cfg, model.class_of)
        assert len(rel) > 0
        # central differences need a locally smooth point: no near-ties in the
        # top-1 sub-prototype choice and no near-flips of any pseudo-label
        raw_sorted = np.sort(unit_cosines(base.features.data, model.prototypes.data), axis=-1)
        assert (raw_sorted[..., -1] - raw_sorted[..., -2]).min() > 5e-4
        prob_sorted = np.sort(base.probs.data, axis=-1)
        assert (prob_sorted[:, -1] - prob_sorted[:, -2])[rel.indices].min() > 5e-4

        names = model.adaptable_param_names("all_adaptive")
        model.set_trainable(names)
        tape = ad.Tape()
        with tape:
            loss = prototta_loss(model_forward(model, x, use_batch_stats=True), rel, model.head, cfg)
        ad.backward(tape, loss)
        analytic = {name: model.params[name].grad.copy() for name in names}
        tape.clear()
        model.set_trainable([])

        def loss_value(_perturbed):
            out = model_forward(model, x, use_batch_stats=True)
            return float(prototta_loss(out, rel, model.head, cfg).data)

        for name in names:
            fd = finite_difference_grad(loss_value, model.params[name]).data
            err = np.abs(analytic[name] - fd) / np.maximum(np.abs(fd), 1e-6)
            worst = max(worst, float(err.max()))
    assert worst < 1e-4
    assert time.monotonic() - start < 30.0


def test_02_entropy_identities_hold_at_reference_points():
    values = binary_entropy(Tensor(np.array([0.5, EPS_CLAMP, 1.0 - EPS_CLAMP]))).data
    assert values[0] == pytest.approx(math.log(2.0), abs=1e-12)
    assert values[1] < 2e-6
    assert values[2] < 2e-6
    for c in (2, 5, 17):
        uniform = ad.softmax(Tensor(np.zeros((4, c))))
        assert tent_loss(SimpleNamespace(probs=uniform)).item() == pytest.approx(
            math.log(c), abs=1e-12
        )
        assert shannon_entropy_rows(np.full((1, c), 1.0 / c))[0] == pytest.approx(
            math.log(c), abs=1e-12
        )


def test_03_similarity_mappings_hit_reference_points():
    linear = map_similarity(Tensor(np.array([[-1.0, 0.0, 1.0]])), MappingScheme(kind="linear"))
    assert linear.data[0] == pytest.approx([EPS_CLAMP, 0.5, 1.0 - EPS_CLAMP], abs=1e-12)
    sig = map_similarity(
        Tensor(np.array([[0.0, 0.4]])), MappingScheme(kind="temp_sigmoid", temperature=5.0)
    )
    assert sig.data[0, 0] == pytest.approx(0.5, abs=1e-12)
    direct = math.log((0.0 + 1.0) / (0.0 + 1e-4))
    assert log_inverse_kernel(0.0).item() == pytest.approx(direct, abs=1e-9)
    assert log_inverse_kernel(0.0).item() == pytest.approx(math.log(1e4), abs=1e-9)


def test_04_topk_consensus_is_exact_at_max_and_mean_extremes():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        k_total = int(rng.integers(2, 9))
        v = Tensor(rng.normal(size=(1, k_total)))
        assert topk_mean(v, 1).data[0] == v.data.max()
        assert topk_mean(v, k_total).data[0] == v.data.mean()


def record_pac(records):
    """``pac`` of the records' stacked clean and adapted activations."""
    return pac(np.stack([r.clean_activations for r in records]), np.stack([r.adapted_activations for r in records]))


def record_stability(records):
    """``prediction_stability`` of the records' clean and adapted predictions."""
    return prediction_stability([r.clean_prediction for r in records], [r.adapted_prediction for r in records])


def brute_pearson(x, y):
    n = len(x)
    mx, my = math.fsum(x) / n, math.fsum(y) / n
    cov = math.fsum((a - mx) * (b - my) for a, b in zip(x, y))
    vx = math.fsum((a - mx) ** 2 for a in x)
    vy = math.fsum((b - my) ** 2 for b in y)
    return cov / math.sqrt(vx * vy)


def brute_ranks(x):
    return [
        sum(1 for other in x if other < v) + (sum(1 for other in x if other == v) + 1) / 2.0
        for v in x
    ]


def brute_top_share(scores, weights, owned, k):
    top = sorted(range(len(scores)), key=lambda j: (-scores[j], j))[:k]
    total = math.fsum(scores[j] * weights[j] for j in top)
    own = math.fsum(scores[j] * weights[j] for j in top if owned[j])
    return own / total


def test_05_metrics_match_brute_force_oracles():
    rng = np.random.default_rng(11)
    n, dim, classes, protos = 20, 10, 4, 12
    class_of = np.repeat(np.arange(classes), protos // classes)
    head = rng.normal(size=(classes, protos))
    agg = rng.uniform(0.1, 1.0, size=(n, protos))
    truths = rng.integers(0, classes, size=n)
    records = []
    for i in range(n):
        clean = rng.normal(size=dim) + 2.0
        records.append(
            ActivationRecord(
                sample_id=i,
                clean_activations=clean,
                adapted_activations=clean + rng.normal(0, 0.3, size=dim),
                clean_prediction=int(rng.integers(0, classes)),
                adapted_prediction=int(rng.integers(0, classes)),
                ground_truth=int(truths[i]),
            )
        )

    expected_pac = math.fsum(
        math.fsum(a * b for a, b in zip(r.clean_activations, r.adapted_activations))
        / (
            math.sqrt(math.fsum(a * a for a in r.clean_activations))
            * math.sqrt(math.fsum(b * b for b in r.adapted_activations))
        )
        for r in records
    ) / len(records)
    assert record_pac(records).mean == pytest.approx(expected_pac, abs=1e-9)

    result = pca_w(agg, head, class_of, truths, k=5)
    expected_vals = [
        brute_top_share(agg[i], np.abs(head[truths[i]]), class_of == truths[i], k=5)
        for i in range(n)
    ]
    assert result.excluded == 0
    assert result.values == pytest.approx(expected_vals, abs=1e-9)
    assert result.mean == pytest.approx(math.fsum(expected_vals) / n, abs=1e-9)

    contributions = rng.uniform(0.05, 1.0, size=protos)
    top5 = sorted(range(protos), key=lambda j: (-contributions[j], j))[:5]
    board = {
        "ground_truth": 2,
        "prototypes": [{"contribution": float(contributions[j]), "owning_class": int(class_of[j])} for j in top5],
    }
    assert board_sample_pca_w(board) == pytest.approx(
        brute_top_share(contributions, np.ones(protos), class_of == 2, k=5), abs=1e-9
    )

    expected_stability = 100.0 * sum(
        1 for r in records if r.adapted_prediction == r.clean_prediction
    ) / len(records)
    assert record_stability(records) == pytest.approx(expected_stability, abs=1e-9)

    steps = [
        StepRecord(index=i, size=32, loss=0.1, selected=int(s), skipped=False,
                   accuracy=0.5, clean_agreement=1.0, duration_s=0.01)
        for i, s in enumerate((32, 11, 0, 20))
    ]
    report = AdaptationReport(method="prototta", records=steps)
    assert selection_rate(report) == pytest.approx(100.0 * 63 / 128, abs=1e-9)

    x = np.round(rng.normal(size=n), 1)  # duplicates exercise tie-averaged ranks
    y = 0.7 * x + rng.normal(0, 0.5, size=n)
    assert pearson(x, y) == pytest.approx(brute_pearson(x, y), abs=1e-9)
    assert spearman(x, y) == pytest.approx(brute_pearson(brute_ranks(x), brute_ranks(y)), abs=1e-9)

    # identity fixtures: self-comparison pins every score to its maximum
    same = [
        replace(r, adapted_activations=r.clean_activations, adapted_prediction=r.clean_prediction)
        for r in records
    ]
    assert record_pac(same).mean == pytest.approx(1.0, abs=1e-12)
    assert record_stability(same) == 100.0
    assert spearman(x, x) == pytest.approx(1.0, abs=1e-12)


def test_06_prototype_adaptation_recovers_corrupted_accuracy(task, recovery):
    clean = 100.0 * task["stats"]["clean_accuracy"]
    means = recovery["means"]
    assert clean >= 90.0
    assert clean - means["unadapted"] >= 15.0
    assert means["prototta"] >= means["unadapted"] + 2.0
    assert means["prototta_plus"] >= max(means["unadapted"], means["tent"]) - 0.5
    assert recovery["runtime_s"] < 180.0


def test_07_geometric_filter_helps_on_spike_contaminated_streams(task):
    with_filter = method_presets()["prototta"]
    no_filter = replace(with_filter, tau_sim=1e-6, use_entropy_constraint=False)
    accuracies = {"with": [], "without": []}
    for seed in range(5):
        x, y = corrupted_stream(task["dataset"], seed, num_batches=40, impulse_fraction=0.3)
        for key, cfg in (("with", with_filter), ("without", no_filter)):
            report = run_stream(
                task["model"].copy(), iter_batches(x, y, BATCH), cfg, collect_samples=False
            )
            accuracies[key].append(100.0 * report.accuracy)
    assert float(np.mean(accuracies["with"])) >= float(np.mean(accuracies["without"]))


def test_08_continual_adaptation_shows_no_downward_accuracy_trend(recovery):
    for curve in recovery["prototta_curves"]:
        window = np.asarray(curve[:40])
        slope = np.polyfit(np.arange(len(window)), window, 1)[0]
        assert slope >= -0.1


def test_09_skipped_updates_and_protected_tensors_stay_bit_identical(task):
    dataset, source = task["dataset"], task["model"]
    x, y = dataset.test_x[:BATCH], dataset.test_y[:BATCH]

    model = source.copy()
    before = model.state_snapshot()
    _, record = adapt_batch(model, (x, y), TTAConfig(method="unadapted"), None)
    assert record.skipped and record.selected == 0
    assert all(np.array_equal(model.params[k].data, v) for k, v in before.items())

    # an entropy cap below any achievable value empties the reliable set
    cfg = replace(method_presets()["prototta"], entropy_cap=1e-12)
    model = source.copy()
    model.set_trainable(model.adaptable_param_names(cfg.param_mode))
    state = init_optimizer([p for _, p in model.adaptable_params(cfg.param_mode)])
    _, record = adapt_batch(model, (x, y), cfg, state)
    assert record.skipped and record.selected == 0 and record.loss is None
    assert all(np.array_equal(model.params[k].data, v) for k, v in before.items())

    presets = method_presets()
    corrupted, truth = corrupted_stream(dataset, 0, num_batches=4)
    for name in ("tent", "prototta", "prototta_plus"):
        adapted = source.copy()
        report = run_stream(
            adapted, iter_batches(corrupted, truth, BATCH), presets[name], collect_samples=False
        )
        assert report.selected_samples > 0
        assert np.array_equal(adapted.prototypes.data, source.prototypes.data)
        assert np.array_equal(adapted.head.data, source.head.data)
        changed = [
            k for k in before
            if k not in ("prototypes", "head.weight")
            and not np.array_equal(adapted.params[k].data, before[k])
        ]
        assert changed, name


def test_10_benchmark_reports_are_byte_identical_across_runs(task, tmp_path, monkeypatch):
    model_path = tmp_path / "model.json"
    data_path = tmp_path / "data.npz"
    save_model(task["model"], model_path)
    save_dataset(task["dataset"], data_path)
    presets = method_presets()
    outputs = {}
    for label, threads in (("first", "2"), ("second", "1")):
        plan = BenchmarkPlan(
            model_path=str(model_path),
            dataset_path=str(data_path),
            output_dir=str(tmp_path / label),
            corruptions=("gaussian_noise:5", "contrast_scale:3"),
            methods=(("unadapted", presets["unadapted"]), ("prototta", presets["prototta"])),
            seeds=(0, 1),
            num_batches=2,
            record_batches=1,
        )
        monkeypatch.setenv("PTTA_THREADS", threads)
        run_benchmark(plan)
        outputs[label] = {
            name: (tmp_path / label / name).read_bytes()
            for name in ("accuracy.csv", "accuracy_raw.csv", "accuracy_batches.csv", "interpretability.csv")
        }
    assert outputs["first"] == outputs["second"]

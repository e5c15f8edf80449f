"""Each benchmark check passes on the program's real output and fails on a
deliberately wrong copy of it.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import copy
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import reference  # noqa: E402

from prototta import adapt, bench, harness  # noqa: E402
from prototta import model as pmodel  # noqa: E402
from prototta.metrics import load_records  # noqa: E402

HERE = Path(__file__).resolve().parent


@pytest.fixture(scope="module")
def source():
    data = harness.generate_dataset(harness.SyntheticTaskSpec(samples_per_split=(512, 512), seed=3))
    model, _ = harness.train_source_model(data, epochs=2, seed=3)
    x = harness.corrupt(data.test_x, harness.CorruptionSpec("gaussian_noise", 5), seed=4)
    return model, x, data


@pytest.fixture(scope="module")
def streams(source):
    model, x, data = source
    presets = bench.method_presets()
    out = {}
    for name in ("unadapted", "tent", "prototta"):
        work = model.copy()
        out[name] = (adapt.run_stream(work, adapt.iter_batches(x, data.test_y, 128), presets[name]), work, presets[name])
    return out


@pytest.fixture(scope="module")
def report_dir(source, tmp_path_factory):
    model, _, data = source
    root = tmp_path_factory.mktemp("report")
    plan = bench.BenchmarkPlan(
        model_path="", dataset_path="", output_dir=str(root / "reports"),
        corruptions=("gaussian_noise:5", "impulse_noise:5"),
        methods=(("unadapted", bench.method_presets()["unadapted"]),),
        seeds=(0, 1), num_batches=2, record_batches=1,
    )
    bench.run_benchmark(plan, model=model, dataset=data)
    records = load_records(root / "reports" / "records" / "unadapted_gaussian_noise_5.jsonl")
    bench.export_boards(records, model, k=5, method="unadapted", out_dir=root / "boards")
    rng = np.random.default_rng(0)
    scores = {r.sample_id: float(rng.normal()) for r in records}
    (root / "scores.csv").write_text(
        "sample_id,score\n" + "".join(f"{i},{s!r}\n" for i, s in scores.items()), encoding="utf-8"
    )
    bench.correlate_scores(root / "boards", root / "scores.csv", out_path=root / "corr.csv")
    return root, scores


def _config_variants():
    small = pmodel.BackboneConfig(input_dim=8, hidden_dims=(16, 12), has_onexone=True)
    yield pmodel.ModelConfig(backbone=small, num_classes=3, protos_per_class=2, sub_prototypes=3)
    yield pmodel.ModelConfig(
        backbone=replace(small, norm_kind="batch_norm", has_attention_bias=False),
        num_classes=3, protos_per_class=2, sub_prototypes=4, aggregation="max",
    )


@pytest.mark.parametrize("config", list(_config_variants()))
def test_reference_forward_matches_program_and_flags_wrong_output(config):
    model = pmodel.PrototypeModel(config, seed=1)
    x = np.random.default_rng(2).normal(size=(40, 8))
    pmodel.update_running_stats(model, x)
    out = pmodel.model_forward(model, x, use_batch_stats=False)
    act, logits = reference.forward(model, x)
    assert checks.activation_problems("ok", out.agg_sims.data, act) == []
    assert checks.prediction_problems("ok", logits, out.pseudo_labels) == []
    assert checks.activation_problems("bad", out.agg_sims.data + 1e-6, act)
    wrong = out.pseudo_labels.copy()
    wrong[0] = (wrong[0] + 1) % config.num_classes
    assert checks.prediction_problems("bad", logits, wrong)


def test_reference_consensus_override_matches_program(source):
    model, x, _ = source
    clone = pmodel.PrototypeModel(replace(model.config, aggregation="mean", agg_k=None), seed=0)
    clone.load_snapshot(model.state_snapshot())
    act, _ = reference.forward(model, x, aggregation="mean")
    assert checks.activation_problems("mean", pmodel.model_forward(clone, x, use_batch_stats=False).agg_sims.data, act) == []


def test_selected_count_check(streams):
    for name, (report, work, cfg) in streams.items():
        assert checks.selected_problems(name, report, cfg, work.head.data) == []
    report, work, cfg = streams["prototta"]
    bad = copy.copy(report)
    bad.records = [replace(r, selected=r.selected + 1) if r.index == 1 else r for r in report.records]
    assert checks.selected_problems("bad", bad, cfg, work.head.data)


def test_frozen_tensor_check(source, streams):
    model = source[0]
    report, work, _ = streams["prototta"]
    assert checks.frozen_problems("ok", model.prototypes.data, model.head.data, work) == []
    moved = work.copy()
    moved.prototypes.data[0, 0, 0] += 1e-12
    assert checks.frozen_problems("bad", model.prototypes.data, model.head.data, moved)


def test_finite_loss_check(streams):
    report = streams["tent"][0]
    assert checks.loss_problems("ok", report) == []
    bad = copy.copy(report)
    bad.records = [replace(report.records[0], loss=math.nan, skipped=False)] + report.records[1:]
    assert checks.loss_problems("bad", bad)


@pytest.mark.parametrize("name", ["tent", "prototta", "prototta_plus"])
def test_gradient_probe_agrees_with_finite_differences(source, name):
    model, x, data = source
    result = checks.gradient_probe(
        adapt, pmodel.model_forward, model.copy(), adapt.iter_batches(x, data.test_y, 128),
        bench.method_presets()[name], seed=0,
    )
    assert result is not None
    analytic, numeric = result
    assert checks.directional_problems(name, analytic, numeric) == []
    assert checks.directional_problems(name, analytic * 1.001, numeric)


def test_accuracy_tables_audit(report_dir):
    reports = report_dir[0] / "reports"
    raw = checks.read_csv(reports / "accuracy_raw.csv")
    agg = checks.read_csv(reports / "accuracy.csv")
    batches = checks.read_csv(reports / "accuracy_batches.csv")
    assert checks.audit_accuracy(raw, agg) == []
    assert checks.audit_raw_from_batches(batches, raw) == []
    wrong_agg = [dict(r, mean=repr(float(r["mean"]) + 0.01)) if i == 0 else r for i, r in enumerate(agg)]
    assert checks.audit_accuracy(raw, wrong_agg)
    wrong_batches = [dict(r, accuracy=repr(float(r["accuracy"]) + 1.0)) if i == 0 else r for i, r in enumerate(batches)]
    assert checks.audit_raw_from_batches(wrong_batches, raw)


def test_unadapted_identities_audit(report_dir):
    reports = report_dir[0] / "reports"
    interp = checks.read_csv(reports / "interpretability.csv")
    eff = checks.read_csv(reports / "efficiency.csv")
    assert checks.audit_unadapted(interp, eff) == []
    assert checks.audit_unadapted([dict(r, pac_mean="0.999") for r in interp], eff)
    assert checks.audit_unadapted([dict(r, stability_mean="99.5") for r in interp], eff)
    assert checks.audit_unadapted(interp, [dict(r, relative_speed_mean="101.0") for r in eff])


def test_board_audit(source, report_dir):
    head, class_of = source[0].head.data, source[0].class_of
    records = {r.sample_id: r.adapted_activations for r in load_records(report_dir[0] / "reports" / "records" / "unadapted_gaussian_noise_5.jsonl")}
    paths = sorted((report_dir[0] / "boards").glob("*.json"))
    assert paths
    for path in paths:
        board = json.loads(path.read_text(encoding="utf-8"))
        assert checks.audit_board(path.name, board, head, class_of, records[board["sample_id"]]) == []
    board = json.loads(paths[0].read_text(encoding="utf-8"))
    acts = records[board["sample_id"]]
    inflated = copy.deepcopy(board)
    inflated["prototypes"][1]["contribution"] *= 1.01
    assert checks.audit_board("bad", inflated, head, class_of, acts)
    swapped = copy.deepcopy(board)
    swapped["prototypes"][0], swapped["prototypes"][1] = swapped["prototypes"][1], swapped["prototypes"][0]
    assert checks.audit_board("bad", swapped, head, class_of, acts)
    missed = acts.copy()
    missed[np.argmin(acts)] = 10.0
    assert checks.audit_board("bad", board, head, class_of, missed)


def test_correlation_audit(report_dir):
    root, scores = report_dir
    boards = [json.loads(p.read_text(encoding="utf-8")) for p in sorted((root / "boards").glob("*.json"))]
    pairs = [(checks.board_ratio(b), scores[b["sample_id"]]) for b in boards]
    rows = checks.read_csv(root / "corr.csv")
    expected = {"pooled": pairs, "unadapted": pairs}
    assert checks.audit_correlations(rows, expected) == []
    assert checks.audit_correlations([dict(r, pearson=repr(float(r["pearson"]) + 1e-6)) for r in rows], expected)
    assert checks.audit_correlations([dict(r, spearman=repr(float(r["spearman"]) - 1e-6)) for r in rows], expected)


def test_benchmark_json_names_every_printed_metric():
    spec_path = HERE.parent / "BENCHMARK.json"
    if not spec_path.is_file():
        pytest.skip("BENCHMARK.json is not next to the benchmark")
    import workloads

    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    rnd = workloads.Round(wall=1.0, samples=10, correct=5, graded=10, batch_s=[0.01] * 10)
    e2e = workloads.end_to_end_metrics([0.5], [rnd])
    assert {(m["name"], m["unit"]) for m in spec["end_to_end"]} == {(k, u) for k, (_, u) in e2e.items()}
    layer = workloads.per_layer_metrics(None, workloads.TraceSum(rounds=1, wall=1.0), [rnd], [rnd])
    assert {(m["name"], m["unit"]) for m in spec["per_layer"]} == {(k, u) for k, (_, u) in layer.items()}

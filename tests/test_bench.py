"""Benchmark orchestration, report files, boards, correlations, CLI verbs."""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np
import pytest

from prototta.adapt import TTAConfig, iter_batches, run_stream
from prototta.bench import (
    BenchmarkPlan,
    board_sample_pca_w,
    build_board,
    correlate_scores,
    derive_seed,
    export_boards,
    method_presets,
    run_ablation,
    run_benchmark,
)
from prototta.cli import main
from prototta.errors import ConfigError, DegenerateInputError, FormatError, InsufficientDataError
from prototta.harness import CorruptionSpec, corrupt, evaluate
from prototta.metrics import ActivationRecord, load_records, pearson
from prototta.model import load_model, model_forward, prototype_contributions


@pytest.fixture()
def plan_kwargs(saved_files, tmp_path):
    presets = method_presets()
    return dict(
        model_path=str(saved_files["model"]),
        dataset_path=str(saved_files["dataset"]),
        output_dir=str(tmp_path / "out"),
        corruptions=("gaussian_noise:5", "brightness_shift:3"),
        methods=(("unadapted", presets["unadapted"]), ("prototta", presets["prototta"])),
        seeds=(0, 1),
        num_batches=3,
        record_batches=1,
    )


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


class TestPlan:
    def test_json_round_trip_preserves_method_order(self, plan_kwargs):
        plan = BenchmarkPlan(**plan_kwargs)
        again = BenchmarkPlan.from_json(plan.to_json())
        assert again == plan
        assert [name for name, _ in again.methods] == ["unadapted", "prototta"]

    def test_validation_errors(self, plan_kwargs):
        with pytest.raises(ConfigError):
            BenchmarkPlan(**{**plan_kwargs, "corruptions": ()})
        with pytest.raises(ConfigError):
            BenchmarkPlan(
                **{
                    **plan_kwargs,
                    "methods": (("a", TTAConfig()), ("a", TTAConfig(method="tent"))),
                }
            )
        with pytest.raises(ConfigError, match="corruptions must be unique"):
            BenchmarkPlan(**{**plan_kwargs, "corruptions": ("gaussian_noise:5", "gaussian_noise:5")})
        with pytest.raises(ConfigError, match="corruptions must be unique"):
            BenchmarkPlan(
                **{**plan_kwargs, "corruptions": (CorruptionSpec("brightness_shift", 3), "brightness_shift:3")}
            )
        with pytest.raises(ConfigError):
            BenchmarkPlan(**{**plan_kwargs, "metrics": ("accuracy", "latency")})
        with pytest.raises(ConfigError):
            BenchmarkPlan(**{**plan_kwargs, "seeds": ()})
        with pytest.raises(ConfigError, match="seeds must be unique"):
            BenchmarkPlan(**{**plan_kwargs, "seeds": (0, 1, 0)})
        with pytest.raises(ConfigError):
            BenchmarkPlan(**{**plan_kwargs, "num_batches": 0})
        with pytest.raises(ConfigError):
            BenchmarkPlan.from_dict({**BenchmarkPlan(**plan_kwargs).to_dict(), "extra": 1})

    def test_default_methods_are_the_presets(self, plan_kwargs):
        plan = BenchmarkPlan(**{k: v for k, v in plan_kwargs.items() if k != "methods"})
        assert [name for name, _ in plan.methods] == [
            "unadapted",
            "tent",
            "prototta",
            "prototta_plus",
        ]

    def test_derive_seed_is_stable_and_distinct(self):
        assert derive_seed("corrupt", "gaussian_noise:5", 0) == derive_seed(
            "corrupt", "gaussian_noise:5", 0
        )
        seeds = {derive_seed("corrupt", kind, s) for kind in ("a", "b") for s in range(50)}
        assert len(seeds) == 100

    def test_missing_files_rejected_before_work(self, plan_kwargs):
        plan = BenchmarkPlan(**{**plan_kwargs, "model_path": "nope.ptta"})
        with pytest.raises(ConfigError, match="nope.ptta"):
            run_benchmark(plan)


class TestRunBenchmark:
    def test_emits_all_report_files(self, plan_kwargs):
        result = run_benchmark(BenchmarkPlan(**plan_kwargs))
        out = Path(plan_kwargs["output_dir"])
        for name in (
            "accuracy.csv",
            "accuracy_raw.csv",
            "accuracy_batches.csv",
            "accuracy.md",
            "interpretability.csv",
            "efficiency.csv",
        ):
            assert (out / name).is_file(), name
        assert len(result.cells) == 2 * 2 * 2

    def test_every_method_row_has_a_records_file(self, plan_kwargs):
        run_benchmark(BenchmarkPlan(**{**plan_kwargs, "metrics": ("accuracy",)}))
        out = Path(plan_kwargs["output_dir"])
        _, rows = read_csv(out / "accuracy.csv")
        for method in {row[0] for row in rows}:
            matches = list((out / "records").glob(f"{method}_*.jsonl"))
            assert matches, method

    def test_records_capped_by_record_batches(self, plan_kwargs):
        run_benchmark(BenchmarkPlan(**plan_kwargs))
        records = load_records(
            Path(plan_kwargs["output_dir"]) / "records" / "prototta_gaussian_noise_5.jsonl"
        )
        assert len(records) == plan_kwargs["record_batches"] * 128

    def test_totals_recomputable_from_raw_csv(self, plan_kwargs):
        run_benchmark(BenchmarkPlan(**plan_kwargs))
        out = Path(plan_kwargs["output_dir"])
        _, raw = read_csv(out / "accuracy_raw.csv")
        _, agg = read_csv(out / "accuracy.csv")
        per_cell = {}
        for method, corruption, _seed, accuracy in raw:
            per_cell.setdefault((method, corruption), []).append(float(accuracy))
        for method, corruption, mean, std in agg:
            if corruption == "TOTAL":
                cor_means = [np.mean(v) for (m, _), v in per_cell.items() if m == method]
                assert float(mean) == pytest.approx(np.mean(cor_means), abs=1e-12)
                assert float(std) == pytest.approx(np.std(cor_means), abs=1e-12)
            else:
                vals = per_cell[(method, corruption)]
                assert float(mean) == pytest.approx(np.mean(vals), abs=1e-12)
                assert float(std) == pytest.approx(np.std(vals), abs=1e-12)

    def test_markdown_cells_match_csv_means_by_column(self, plan_kwargs):
        # plan order interleaves families, so the markdown columns are regrouped
        corruptions = ("contrast_scale:5", "gaussian_noise:5", "block_pixelate:5")
        run_benchmark(
            BenchmarkPlan(**{**plan_kwargs, "corruptions": corruptions, "metrics": ("accuracy",)})
        )
        out = Path(plan_kwargs["output_dir"])
        _, agg = read_csv(out / "accuracy.csv")
        expected = {
            (method, cor): f"{float(mean):.2f} ± {float(std):.2f}" for method, cor, mean, std in agg
        }
        lines = (out / "accuracy.md").read_text(encoding="utf-8").splitlines()
        header = [h.strip() for h in lines[2].strip("|").split("|")]
        columns = [h.split(": ", 1)[1] for h in header[1:-1]] + ["TOTAL"]
        assert sorted(columns[:-1]) == sorted(corruptions)
        rows = [[c.strip() for c in line.strip("|").split("|")] for line in lines[4:]]
        assert [row[0] for row in rows] == ["unadapted", "prototta"]
        for method, *cells in rows:
            assert cells == [expected[(method, cor)] for cor in columns]

    def test_cells_recomputable_from_batch_audit(self, plan_kwargs):
        run_benchmark(BenchmarkPlan(**plan_kwargs))
        out = Path(plan_kwargs["output_dir"])
        _, raw = read_csv(out / "accuracy_raw.csv")
        _, batches = read_csv(out / "accuracy_batches.csv")
        grouped = {}
        for method, corruption, seed, _b, size, accuracy in batches:
            grouped.setdefault((method, corruption, seed), []).append(
                (int(size), float(accuracy))
            )
        for method, corruption, seed, accuracy in raw:
            parts = grouped[(method, corruption, seed)]
            correct = sum(size * acc / 100.0 for size, acc in parts)
            total = sum(size for size, _ in parts)
            assert float(accuracy) == pytest.approx(100.0 * correct / total, abs=1e-9)

    def test_unadapted_accuracy_equals_direct_evaluation(self, plan_kwargs, tiny_model, tiny_dataset):
        plan = BenchmarkPlan(
            **{
                **plan_kwargs,
                "methods": (("unadapted", method_presets()["unadapted"]),),
                "corruptions": ("gaussian_noise:5",),
                "seeds": (0,),
            }
        )
        result = run_benchmark(plan)
        cell = result.cells[0]
        cor = CorruptionSpec("gaussian_noise", 5)
        x = corrupt(tiny_dataset.test_x, cor, seed=derive_seed("corrupt", str(cor), 0))
        order = np.random.default_rng(derive_seed("order", str(cor), 0)).permutation(len(x))
        take = order[: plan.num_batches * 128]
        expected = evaluate(tiny_model, x[take], tiny_dataset.test_y[take])
        assert cell.accuracy == pytest.approx(100.0 * expected, abs=1e-12)
        assert cell.selection_rate == 0.0

    def test_single_seed_gives_zero_std(self, plan_kwargs):
        plan = BenchmarkPlan(**{**plan_kwargs, "seeds": (0,), "metrics": ("accuracy",)})
        run_benchmark(plan)
        _, agg = read_csv(Path(plan_kwargs["output_dir"]) / "accuracy.csv")
        for _method, corruption, _mean, std in agg:
            if corruption != "TOTAL":
                assert float(std) == 0.0

    def test_distinct_seeds_give_nonnegative_std(self, plan_kwargs):
        run_benchmark(BenchmarkPlan(**{**plan_kwargs, "metrics": ("accuracy",)}))
        _, agg = read_csv(Path(plan_kwargs["output_dir"]) / "accuracy.csv")
        assert all(float(std) >= 0.0 for *_rest, std in agg)

    def test_byte_identical_across_thread_counts(self, plan_kwargs, tmp_path, monkeypatch):
        plan1 = BenchmarkPlan(**{**plan_kwargs, "output_dir": str(tmp_path / "a")})
        plan2 = BenchmarkPlan(**{**plan_kwargs, "output_dir": str(tmp_path / "b")})
        monkeypatch.setenv("PTTA_THREADS", "4")
        run_benchmark(plan1)
        monkeypatch.setenv("PTTA_THREADS", "1")
        run_benchmark(plan2)
        for name in ("accuracy.csv", "accuracy_raw.csv", "accuracy_batches.csv", "interpretability.csv", "accuracy.md"):
            a = (tmp_path / "a" / name).read_bytes()
            b = (tmp_path / "b" / name).read_bytes()
            assert a == b, name

    def test_metric_selection_controls_outputs(self, plan_kwargs):
        run_benchmark(BenchmarkPlan(**{**plan_kwargs, "metrics": ("accuracy",)}))
        out = Path(plan_kwargs["output_dir"])
        assert (out / "accuracy.csv").is_file()
        assert not (out / "interpretability.csv").exists()
        assert not (out / "efficiency.csv").exists()


class TestRunAblation:
    def test_filter_axis_has_two_rows(self, plan_kwargs):
        rows = run_ablation(BenchmarkPlan(**plan_kwargs), "filter")
        assert [r.setting for r in rows] == ["with_filter", "no_filter"]
        path = Path(plan_kwargs["output_dir"]) / "ablation_filter.csv"
        header, body = read_csv(path)
        assert header == ["axis", "setting", "mean", "std", "min", "max"]
        assert len(body) == 2

    def test_consensus_axis_rows(self, plan_kwargs):
        rows = run_ablation(BenchmarkPlan(**plan_kwargs), "consensus")
        assert {r.setting for r in rows} == {"max", "mean", "topk_mean"}

    def test_rows_match_single_config_runs(self, plan_kwargs, tmp_path):
        plan = BenchmarkPlan(**plan_kwargs)
        rows = run_ablation(plan, "param_mode")
        base = plan.method_map["prototta"]
        from dataclasses import replace

        for row in rows:
            single = BenchmarkPlan(
                **{
                    **plan_kwargs,
                    "output_dir": str(tmp_path / f"single_{row.setting}"),
                    "methods": ((row.setting, replace(base, param_mode=row.setting)),),
                    "metrics": ("accuracy",),
                }
            )
            result = run_benchmark(single)
            per_cor = {}
            for cell in result.cells:
                per_cor.setdefault(cell.corruption, []).append(cell.accuracy)
            means = [np.mean(v) for v in per_cor.values()]
            assert row.mean == pytest.approx(np.mean(means), abs=1e-12)
            assert row.min == pytest.approx(np.min(means), abs=1e-12)

    def test_requires_a_prototta_method(self, plan_kwargs):
        plan = BenchmarkPlan(
            **{**plan_kwargs, "methods": (("unadapted", method_presets()["unadapted"]),)}
        )
        with pytest.raises(ConfigError, match="prototta"):
            run_ablation(plan, "filter")

    def test_unknown_axis_rejected(self, plan_kwargs):
        with pytest.raises(ConfigError, match="axis"):
            run_ablation(BenchmarkPlan(**plan_kwargs), "learning_rate")


def stream_records(model, dataset, rng, n=96):
    idx = rng.permutation(len(dataset.test_x))[:n]
    x = dataset.test_x[idx] + rng.normal(0, 0.3, (n, dataset.test_x.shape[1]))
    report = run_stream(
        model.copy(), iter_batches(x, dataset.test_y[idx], 48), TTAConfig(method="unadapted")
    )
    return report.sample_records


class TestBoards:
    def test_board_schema_and_sorting(self, tiny_model, tiny_dataset, rng, tmp_path):
        records = stream_records(tiny_model, tiny_dataset, rng)
        paths = export_boards(records[:10], tiny_model, k=5, method="prototta", out_dir=tmp_path)
        assert len(paths) == 10
        board = json.loads(paths[0].read_text())
        assert set(board) == {"sample_id", "method", "predicted_class", "ground_truth", "prototypes"}
        assert len(board["prototypes"]) == 5
        contributions = [p["contribution"] for p in board["prototypes"]]
        assert contributions == sorted(contributions, reverse=True)
        assert all(
            set(p) == {"prototype_id", "owning_class", "contribution", "raw_similarity", "mapped_similarity"}
            for p in board["prototypes"]
        )

    def test_k_one_board_has_single_entry(self, tiny_model, tiny_dataset, rng, tmp_path):
        records = stream_records(tiny_model, tiny_dataset, rng)
        paths = export_boards(records[:1], tiny_model, k=1, method="m", out_dir=tmp_path)
        board = json.loads(paths[0].read_text())
        assert len(board["prototypes"]) == 1

    def test_k_below_one_rejected(self, tiny_model, tiny_dataset, rng):
        record = stream_records(tiny_model, tiny_dataset, rng)[0]
        for k in (0, -2):
            with pytest.raises(ConfigError, match="at least 1"):
                build_board(record, tiny_model, k=k, method="m")

    def test_contributions_match_model_computation(self, tiny_model, tiny_dataset, rng):
        x = tiny_dataset.test_x[:4]
        out = model_forward(tiny_model, x, use_batch_stats=False)
        i = 2
        record = ActivationRecord(
            sample_id=0,
            clean_activations=out.agg_sims.data[i].copy(),
            adapted_activations=out.agg_sims.data[i].copy(),
            clean_prediction=int(out.pseudo_labels[i]),
            adapted_prediction=int(out.pseudo_labels[i]),
            ground_truth=int(tiny_dataset.test_y[i]),
            mapped_activations=out.mapped_sims.data[i].copy(),
        )
        board = build_board(record, tiny_model, k=5, method="m")
        expected = prototype_contributions(out, tiny_model.head, int(out.pseudo_labels[i]))[i]
        for entry in board["prototypes"]:
            assert entry["contribution"] == pytest.approx(
                expected[entry["prototype_id"]], abs=1e-12
            )
            assert entry["owning_class"] == int(tiny_model.class_of[entry["prototype_id"]])

    def test_wrong_length_record_rejected(self, tiny_model):
        bad = ActivationRecord(
            sample_id=7,
            clean_activations=np.ones(3),
            adapted_activations=np.ones(3),
            clean_prediction=0,
            adapted_prediction=0,
            ground_truth=0,
            mapped_activations=np.ones(3),
        )
        with pytest.raises(FormatError, match="record 7"):
            build_board(bad, tiny_model, k=2, method="m")

    def test_missing_mapped_activations_rejected(self, tiny_model, tiny_dataset, rng):
        record = stream_records(tiny_model, tiny_dataset, rng)[0]
        record.mapped_activations = None
        with pytest.raises(FormatError, match="mapped"):
            build_board(record, tiny_model, k=2, method="m")


class TestCorrelateScores:
    @pytest.fixture()
    def boards_dir(self, tiny_model, tiny_dataset, rng, tmp_path):
        records = stream_records(tiny_model, tiny_dataset, rng)
        out = tmp_path / "boards"
        export_boards(records[:12], tiny_model, k=5, method="prototta", out_dir=out)
        return out

    @staticmethod
    def write_scores(path, pairs):
        path.write_text("sample_id,score\n" + "".join(f"{i},{v}\n" for i, v in pairs))

    def test_identical_scores_give_perfect_correlation(self, boards_dir, tmp_path):
        pairs = [
            (b["sample_id"], board_sample_pca_w(b))
            for b in map(json.loads, (p.read_text() for p in sorted(boards_dir.glob("*.json"))))
        ]
        scores = tmp_path / "scores.csv"
        self.write_scores(scores, pairs)
        report = correlate_scores(boards_dir, scores, tmp_path / "correlations.csv")
        by_scope = {row[0]: row for row in report.rows}
        assert by_scope["pooled"][2] == pytest.approx(1.0, abs=1e-9)
        assert by_scope["prototta"][3] == pytest.approx(1.0, abs=1e-9)
        header, body = read_csv(tmp_path / "correlations.csv")
        assert header == ["scope", "n", "pearson", "spearman"]
        assert len(body) == 2

    def test_join_matches_hand_computation(self, boards_dir, tmp_path, rng):
        boards = [json.loads(p.read_text()) for p in sorted(boards_dir.glob("*.json"))]
        noise = rng.normal(0, 0.1, len(boards))
        pairs = [(b["sample_id"], board_sample_pca_w(b) + e) for b, e in zip(boards, noise)]
        scores = tmp_path / "scores.csv"
        self.write_scores(scores, pairs)
        report = correlate_scores(boards_dir, scores)
        expected = pearson([board_sample_pca_w(b) for b in boards], [v for _, v in pairs])
        assert report.rows[0][2] == pytest.approx(expected, abs=1e-9)

    def test_unmatched_ids_warned(self, boards_dir, tmp_path):
        boards = [json.loads(p.read_text()) for p in sorted(boards_dir.glob("*.json"))]
        pairs = [(b["sample_id"], 0.5 + 0.01 * i) for i, b in enumerate(boards[:-2])]
        pairs.append((99999, 0.4))  # score with no board
        scores = tmp_path / "scores.csv"
        self.write_scores(scores, pairs)
        report = correlate_scores(boards_dir, scores)
        text = "\n".join(report.warnings)
        assert "99999" in text
        assert "no external score" in text

    def test_too_few_matches_rejected(self, boards_dir, tmp_path):
        scores = tmp_path / "scores.csv"
        self.write_scores(scores, [(0, 0.5), (1, 0.6)])
        with pytest.raises(InsufficientDataError):
            correlate_scores(boards_dir, scores)

    def test_constant_scores_are_degenerate(self, boards_dir, tmp_path):
        boards = [json.loads(p.read_text()) for p in sorted(boards_dir.glob("*.json"))]
        scores = tmp_path / "scores.csv"
        self.write_scores(scores, [(b["sample_id"], 0.5) for b in boards])
        with pytest.raises(DegenerateInputError):
            correlate_scores(boards_dir, scores)

    def test_constant_method_row_skipped_with_warning(self, tmp_path):
        boards_dir = tmp_path / "boards"
        boards_dir.mkdir()
        for sid in range(8):
            # "varied" owns a varying share of its top contributions; "constant" owns all of it
            method, other = ("varied", 1) if sid < 4 else ("constant", 0)
            board = {
                "sample_id": sid,
                "method": method,
                "predicted_class": 0,
                "ground_truth": 0,
                "prototypes": [
                    {"prototype_id": 0, "owning_class": 0, "contribution": 1.0},
                    {"prototype_id": 1, "owning_class": other, "contribution": 0.1 * (sid + 1)},
                ],
            }
            (boards_dir / f"{method}_{sid:06d}.json").write_text(json.dumps(board))
        scores = tmp_path / "scores.csv"
        self.write_scores(scores, [(sid, 0.1 * sid * sid) for sid in range(8)])
        report = correlate_scores(boards_dir, scores, tmp_path / "correlations.csv")
        assert [row[0] for row in report.rows] == ["pooled", "varied"]
        assert any("constant" in w and "skipped" in w for w in report.warnings)
        _, body = read_csv(tmp_path / "correlations.csv")
        assert [row[0] for row in body] == ["pooled", "varied"]

    def test_missing_boards_dir_rejected(self, tmp_path):
        scores = tmp_path / "scores.csv"
        self.write_scores(scores, [(0, 0.5)])
        with pytest.raises(ConfigError):
            correlate_scores(tmp_path / "nowhere", scores)


class TestCli:
    def test_full_workflow(self, tmp_path, capsys):
        data = tmp_path / "data.pttd"
        model = tmp_path / "model.ptta"
        assert main(["gen-data", "--out", str(data), "--train-samples", "300", "--test-samples", "1536"]) == 0
        assert main(["train", "--data", str(data), "--out", str(model), "--epochs", "2"]) == 0
        assert (
            main(
                [
                    "bench",
                    "--model", str(model),
                    "--data", str(data),
                    "--out-dir", str(tmp_path / "reports"),
                    "--corruptions", "gaussian_noise:5",
                    "--methods", "unadapted", "prototta",
                    "--seeds", "0",
                    "--num-batches", "2",
                    "--record-batches", "1",
                ]
            )
            == 0
        )
        assert (tmp_path / "reports" / "accuracy.csv").is_file()
        assert (
            main(
                [
                    "boards",
                    "--records", str(tmp_path / "reports" / "records" / "prototta_gaussian_noise_5.jsonl"),
                    "--model", str(model),
                    "--out", str(tmp_path / "boards"),
                    "--method", "prototta",
                    "--limit", "8",
                ]
            )
            == 0
        )
        boards = sorted((tmp_path / "boards").glob("*.json"))
        assert len(boards) == 8
        rows = ["sample_id,score"]
        for p in boards:
            b = json.loads(p.read_text())
            rows.append(f"{b['sample_id']},{board_sample_pca_w(b)}")
        (tmp_path / "scores.csv").write_text("\n".join(rows) + "\n")
        assert (
            main(
                [
                    "correlate",
                    "--boards", str(tmp_path / "boards"),
                    "--scores", str(tmp_path / "scores.csv"),
                    "--out", str(tmp_path / "correlations.csv"),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "pooled" in out

    def test_ablate_verb(self, saved_files, tmp_path):
        code = main(
            [
                "ablate",
                "--model", str(saved_files["model"]),
                "--data", str(saved_files["dataset"]),
                "--out-dir", str(tmp_path / "reports"),
                "--corruptions", "gaussian_noise:5",
                "--seeds", "0",
                "--num-batches", "2",
                "--axis", "filter",
            ]
        )
        assert code == 0
        assert (tmp_path / "reports" / "ablation_filter.csv").is_file()

    def test_plan_file_round_trip(self, saved_files, tmp_path):
        plan = BenchmarkPlan(
            model_path=str(saved_files["model"]),
            dataset_path=str(saved_files["dataset"]),
            output_dir=str(tmp_path / "reports"),
            corruptions=("brightness_shift:1",),
            methods=(("unadapted", method_presets()["unadapted"]),),
            seeds=(0,),
            num_batches=2,
        )
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(plan.to_json())
        assert main(["bench", "--plan", str(plan_path)]) == 0
        assert (tmp_path / "reports" / "accuracy.csv").is_file()

    @pytest.mark.parametrize(
        "argv",
        [
            ["bench", "--plan", "missing_plan.json"],
            ["bench", "--model", "m.ptta", "--data", "d.pttd", "--out-dir", "o"],
            ["train", "--data", "missing.pttd", "--out", "m.ptta"],
            ["correlate", "--boards", "nowhere", "--scores", "nowhere.csv"],
        ],
        ids=["missing-plan", "missing-model", "missing-data", "missing-scores"],
    )
    def test_config_errors_exit_2(self, argv, capsys):
        assert main(argv) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "change",
        [
            {"num_batches": "4"},
            {"seeds": ["a"]},
            {"methods": [["x", {"lr": "a"}]]},
            {"methods": [["x", {"beta1": "a"}]]},
            {"corruptions": [5]},
            None,
            {"methods": [["x", {"episodic": "no"}]]},
            {"methods": [["x", {"use_entropy_constraint": "false"}]]},
            {"methods": [["x", {"batch_size": 1.5}]]},
            {"num_batches": 1.5},
            {"record_batches": 1.5},
            {"board_k": 1.5},
            {"seeds": [1.7]},
            {"seeds": [True]},
            {"methods": [["x", {"lr": True}]]},
            {"methods": [["x", {"lr": math.nan}]]},
            {"methods": [["x", {"lr": math.inf}]]},
            {"methods": [["x", {"entropy_cap": math.nan}]]},
            {"methods": [["x", {"beta1": False}]]},
            {"methods": [["x", {"adam_eps": True}]]},
            {"model_path": 5},
            {"dataset_path": 6},
            {"output_dir": 7},
            {"methods": [[5, {"method": "unadapted"}]]},
        ],
        ids=[
            "num-batches-string", "seed-string", "lr-string", "beta1-string", "corruption-int", "plan-list",
            "episodic-string", "entropy-constraint-string", "batch-size-float", "num-batches-float",
            "record-batches-float", "board-k-float", "seed-float", "seed-bool", "lr-bool", "lr-nan", "lr-inf",
            "entropy-cap-nan", "beta1-bool", "adam-eps-bool", "model-path-int", "dataset-path-int",
            "output-dir-int", "method-name-int",
        ],
    )
    def test_ill_typed_plan_exits_2(self, saved_files, tmp_path, capsys, change):
        plan = {
            "model_path": str(saved_files["model"]),
            "dataset_path": str(saved_files["dataset"]),
            "output_dir": str(tmp_path / "reports"),
            "corruptions": ["gaussian_noise:5"],
            "seeds": [0],
            "num_batches": 1,
        }
        plan_path = tmp_path / "plan.json"
        # None stands for a plan that is a JSON list instead of an object
        plan_path.write_text(json.dumps([1, 2] if change is None else {**plan, **change}))
        assert main(["bench", "--plan", str(plan_path)]) == 2
        err = capsys.readouterr().err
        assert "error:" in err
        if change is None:
            assert "must be a JSON object" in err
        assert not (tmp_path / "reports").exists()

    def test_train_takes_task_shape_from_dataset(self, tmp_path):
        data = tmp_path / "data.pttd"
        model = tmp_path / "model.ptta"
        gen = ["gen-data", "--out", str(data), "--classes", "3", "--dim", "16"]
        assert main([*gen, "--train-samples", "60", "--test-samples", "30"]) == 0
        assert main(["train", "--data", str(data), "--out", str(model), "--epochs", "1"]) == 0
        config = load_model(model).config
        assert (config.num_classes, config.backbone.input_dim) == (3, 16)

    @pytest.mark.parametrize(
        "flags",
        [["--batch-size", "0"], ["--batch-size", "-4"], ["--epochs", "-3"]],
        ids=["batch-size-zero", "batch-size-negative", "epochs-negative"],
    )
    def test_bad_training_sizes_exit_2(self, saved_files, tmp_path, capsys, flags):
        model = tmp_path / "model.ptta"
        assert main(["train", "--data", str(saved_files["dataset"]), "--out", str(model), *flags]) == 2
        assert "error:" in capsys.readouterr().err
        assert not model.exists()

    def test_bad_corruption_string_exits_2(self, saved_files, tmp_path, capsys):
        code = main(
            [
                "bench",
                "--model", str(saved_files["model"]),
                "--data", str(saved_files["dataset"]),
                "--out-dir", str(tmp_path / "reports"),
                "--corruptions", "fog:3",
            ]
        )
        assert code == 2

    def test_repeated_corruption_exits_2(self, saved_files, tmp_path, capsys):
        code = main(
            [
                "bench",
                "--model", str(saved_files["model"]),
                "--data", str(saved_files["dataset"]),
                "--out-dir", str(tmp_path / "reports"),
                "--corruptions", "gaussian_noise:5", "gaussian_noise:5",
                "--methods", "unadapted",
                "--seeds", "0",
                "--num-batches", "1",
            ]
        )
        assert code == 2
        assert "corruptions must be unique" in capsys.readouterr().err
        assert not (tmp_path / "reports").exists()

    def test_non_integer_thread_count_exits_2(self, saved_files, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("PTTA_THREADS", "two")
        code = main(
            [
                "bench",
                "--model", str(saved_files["model"]),
                "--data", str(saved_files["dataset"]),
                "--out-dir", str(tmp_path / "reports"),
                "--corruptions", "gaussian_noise:5",
                "--methods", "unadapted",
                "--seeds", "0",
                "--num-batches", "1",
            ]
        )
        assert code == 2
        assert "PTTA_THREADS" in capsys.readouterr().err

    def test_runtime_errors_exit_3(self, tiny_model, tiny_dataset, rng, tmp_path, capsys):
        records = stream_records(tiny_model, tiny_dataset, rng)
        boards = tmp_path / "boards"
        export_boards(records[:5], tiny_model, k=3, method="m", out_dir=boards)
        scores = tmp_path / "scores.csv"
        ids = [json.loads(p.read_text())["sample_id"] for p in sorted(boards.glob("*.json"))]
        scores.write_text("sample_id,score\n" + "".join(f"{i},0.5\n" for i in ids))
        code = main(["correlate", "--boards", str(boards), "--scores", str(scores)])
        assert code == 3

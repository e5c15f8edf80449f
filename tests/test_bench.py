"""Benchmark orchestration, report files, boards, correlations, CLI verbs."""

from __future__ import annotations

import csv
import json
import math
import re
import threading
from dataclasses import replace
from operator import attrgetter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prototta.adapt import TTAConfig, iter_batches, run_stream
from prototta.bench import (
    INTERP_METRICS,
    REPORT_FILES,
    STREAM_BATCH_SIZE,
    BenchmarkPlan,
    _run_cell,
    board_sample_pca_w,
    correlate_scores,
    derive_seed,
    export_boards,
    method_presets,
    render_boards,
    run_ablation,
    run_benchmark,
)
from prototta.cli import main
from prototta.errors import ConfigError, DegenerateInputError, FormatError, InsufficientDataError
from prototta.harness import (
    CorruptionSpec,
    SyntheticTaskSpec,
    corrupt,
    evaluate,
    generate_dataset,
    load_dataset,
    save_dataset,
)
from prototta.metrics import (
    PCA_W_K,
    ActivationRecord,
    dump_records,
    load_records,
    mean_std,
    pac,
    pca_w,
    pearson,
    prediction_stability,
    relative_speed,
)
from prototta.model import (
    BackboneConfig,
    ModelConfig,
    PrototypeModel,
    load_model,
    model_forward,
    prototype_contributions,
    save_model,
)


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

    def test_validation_errors(self, plan_kwargs, tmp_path, capsys):
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
        # a plan saved while plans had a metrics selector is refused by name
        old_plan = {**BenchmarkPlan(**plan_kwargs).to_dict(), "metrics": ["accuracy"]}
        with pytest.raises(ConfigError, match="metrics"):
            BenchmarkPlan.from_dict(old_plan)
        (tmp_path / "old_plan.json").write_text(json.dumps(old_plan), encoding="utf-8")
        assert main(["bench", "--plan", str(tmp_path / "old_plan.json")]) == 2
        assert "metrics" in capsys.readouterr().err
        with pytest.raises(ConfigError):
            BenchmarkPlan(**{**plan_kwargs, "seeds": ()})
        with pytest.raises(ConfigError, match="seeds must be unique"):
            BenchmarkPlan(**{**plan_kwargs, "seeds": (0, 1, 0)})
        with pytest.raises(ConfigError):
            BenchmarkPlan(**{**plan_kwargs, "num_batches": 0})
        with pytest.raises(ConfigError):
            BenchmarkPlan.from_dict({**BenchmarkPlan(**plan_kwargs).to_dict(), "extra": 1})
        # a plan saved while plans had their own PCA-W k is refused by name
        with pytest.raises(ConfigError, match="board_k"):
            BenchmarkPlan.from_dict({**BenchmarkPlan(**plan_kwargs).to_dict(), "board_k": 5})

    @pytest.mark.parametrize("name", ["../../up", "a/b", "nul\0"], ids=["parent", "subdirectory", "nul"])
    def test_method_name_leaving_the_records_directory_rejected(self, plan_kwargs, tmp_path, capsys, name):
        with pytest.raises(ConfigError, match="method name must not contain '/' or NUL"):
            BenchmarkPlan(**{**plan_kwargs, "methods": ((name, TTAConfig(method="unadapted")),)})
        plan = {**BenchmarkPlan(**plan_kwargs).to_dict(), "methods": [[name, {"method": "unadapted"}]]}
        (tmp_path / "plan.json").write_text(json.dumps(plan), encoding="utf-8")
        assert main(["bench", "--plan", str(tmp_path / "plan.json")]) == 2
        assert "method name must not contain '/' or NUL" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["plan.json"]

    @pytest.mark.parametrize("char", ["\n", "\t", "\x1b", "\x7f"], ids=["newline", "tab", "escape", "delete"])
    def test_method_name_with_control_character_exits_2(
        self, plan_kwargs, saved_files, tiny_model, tiny_dataset, rng, tmp_path, capsys, char
    ):
        # a newline would split the method's accuracy.md row and put a line break in its records file name
        name = f"te{char}nt"
        with pytest.raises(ConfigError, match="control character"):
            BenchmarkPlan(**{**plan_kwargs, "methods": ((name, TTAConfig(method="tent")),)})
        plan = {**BenchmarkPlan(**plan_kwargs).to_dict(), "methods": [[name, {"method": "tent"}]]}
        (tmp_path / "plan.json").write_text(json.dumps(plan), encoding="utf-8")
        assert main(["bench", "--plan", str(tmp_path / "plan.json")]) == 2
        assert "control character" in capsys.readouterr().err
        dump_records(stream_records(tiny_model, tiny_dataset, rng)[:4], tmp_path / "records.jsonl")
        argv = ["boards", "--records", str(tmp_path / "records.jsonl"), "--model", str(saved_files["model"])]
        assert main([*argv, "--method", name, "--out", str(tmp_path / "run" / "boards")]) == 2
        assert "control character" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["plan.json", "records.jsonl"]

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
    def test_a_dataset_without_test_rows_is_refused_before_any_cell(self, plan_kwargs, tiny_model, tiny_dataset, monkeypatch):
        empty = replace(tiny_dataset, test_x=tiny_dataset.test_x[:0], test_y=tiny_dataset.test_y[:0])
        monkeypatch.setattr("prototta.bench._run_cell", lambda *args, **kwargs: pytest.fail("a cell ran"))
        with pytest.raises(ConfigError, match="no test rows"):
            run_benchmark(BenchmarkPlan(**plan_kwargs), tiny_model, empty)
        assert not Path(plan_kwargs["output_dir"]).exists()

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

    def test_writes_exactly_the_checked_paths(self, plan_kwargs):
        run_benchmark(BenchmarkPlan(**plan_kwargs))
        out = Path(plan_kwargs["output_dir"])
        assert sorted(p.name for p in out.iterdir()) == sorted([*REPORT_FILES, "efficiency.csv", "records"])
        methods, corruptions = [m for m, _ in plan_kwargs["methods"]], plan_kwargs["corruptions"]
        records = [f"{m}_{c.replace(':', '_')}.jsonl" for m in methods for c in corruptions]
        assert sorted(p.name for p in (out / "records").iterdir()) == sorted(records)

    def test_every_method_row_has_a_records_file(self, plan_kwargs):
        run_benchmark(BenchmarkPlan(**plan_kwargs))
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
        run_benchmark(BenchmarkPlan(**{**plan_kwargs, "corruptions": corruptions}))
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
        for method, corruption, seed, _b, size, accuracy, _selected, _loss, _agreement in batches:
            grouped.setdefault((method, corruption, seed), []).append(
                (int(size), float(accuracy))
            )
        for method, corruption, seed, accuracy in raw:
            parts = grouped[(method, corruption, seed)]
            correct = sum(size * acc / 100.0 for size, acc in parts)
            total = sum(size for size, _ in parts)
            assert float(accuracy) == pytest.approx(100.0 * correct / total, abs=1e-9)

    def test_batch_dynamics_match_step_records(self, plan_kwargs):
        result = run_benchmark(BenchmarkPlan(**plan_kwargs))
        _, rows = read_csv(result.paths["accuracy_batches"])
        assert len(rows) == sum(len(c.batches) for c in result.cells)
        for cell in result.cells:
            got = [row[6:] for row in rows if row[:3] == [cell.method, cell.corruption, str(cell.seed)]]
            want = [
                [str(r.selected), "" if r.loss is None else repr(r.loss), repr(r.clean_agreement)] for r in cell.batches
            ]
            assert got == want
            if cell.method == "unadapted":
                assert {(loss, agreement) for _, loss, agreement in got} == {("", "1.0")}
        assert any(row[7] for row in rows if row[0] == "prototta")

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
        plan = BenchmarkPlan(**{**plan_kwargs, "seeds": (0,)})
        run_benchmark(plan)
        _, agg = read_csv(Path(plan_kwargs["output_dir"]) / "accuracy.csv")
        for _method, corruption, _mean, std in agg:
            if corruption != "TOTAL":
                assert float(std) == 0.0

    def test_distinct_seeds_give_nonnegative_std(self, plan_kwargs):
        run_benchmark(BenchmarkPlan(**plan_kwargs))
        _, agg = read_csv(Path(plan_kwargs["output_dir"]) / "accuracy.csv")
        assert all(float(std) >= 0.0 for *_rest, std in agg)

    def test_byte_identical_across_runs(self, plan_kwargs, tmp_path):
        plan1 = BenchmarkPlan(**{**plan_kwargs, "output_dir": str(tmp_path / "a")})
        plan2 = BenchmarkPlan(**{**plan_kwargs, "output_dir": str(tmp_path / "b")})
        run_benchmark(plan1)
        run_benchmark(plan2)
        records = [sorted(p.name for p in (tmp_path / side / "records").glob("*.jsonl")) for side in "ab"]
        assert records[0] and records[0] == records[1]
        records = [f"records/{name}" for name in records[0]]
        for name in ("accuracy.csv", "accuracy_raw.csv", "accuracy_batches.csv", "interpretability.csv", "accuracy.md", *records):
            a = (tmp_path / "a" / name).read_bytes()
            b = (tmp_path / "b" / name).read_bytes()
            assert a == b, name

    def test_cells_run_in_plan_order_on_the_calling_thread(self, plan_kwargs, monkeypatch):
        monkeypatch.delenv("PTTA_THREADS", raising=False)
        calls = []

        def logged(model, dataset, cor, name, cfg, seed, *args, **kwargs):
            calls.append((str(cor), name, seed, threading.get_ident()))
            return _run_cell(model, dataset, cor, name, cfg, seed, *args, **kwargs)

        monkeypatch.setattr("prototta.bench._run_cell", logged)
        plan = BenchmarkPlan(**plan_kwargs)
        result = run_benchmark(plan)
        expected = [
            (str(cor), name, seed, threading.get_ident())
            for cor in plan.corruptions
            for name, _ in plan.methods
            for seed in plan.seeds
        ]
        assert len(expected) == 8 and calls == expected
        assert [(c.corruption, c.method, c.seed) for c in result.cells] == [call[:3] for call in expected]

    def test_a_cell_maps_only_the_batches_it_records(self, plan_kwargs, tiny_model, tiny_dataset, monkeypatch):
        from prototta import model as pmodel

        calls = []
        mapping = pmodel.map_similarity

        def counting(raw, scheme):
            calls.append(raw.shape)
            return mapping(raw, scheme)

        monkeypatch.setattr(pmodel, "map_similarity", counting)
        plan = BenchmarkPlan(**{**plan_kwargs, "num_batches": 16, "record_batches": 2})
        assert len(tiny_dataset.test_x) == 16 * STREAM_BATCH_SIZE
        cell = _run_cell(
            tiny_model, tiny_dataset, CorruptionSpec("gaussian_noise", 5), "unadapted",
            method_presets()["unadapted"], 0, plan, keep_records=True,
        )
        assert len(cell.batches) == 16 and len(cell.records) == 2 * STREAM_BATCH_SIZE
        assert calls == [(STREAM_BATCH_SIZE, tiny_model.config.num_prototypes)] * 2

    def test_an_unadapted_cell_joins_each_output_once(self, plan_kwargs, tiny_model, tiny_dataset, monkeypatch):
        seen = {}

        def recording(metric):
            def recorded(clean, adapted):
                seen[metric.__name__] = clean, adapted
                return metric(clean, adapted)

            return recorded

        monkeypatch.setattr("prototta.bench.pac", recording(pac))
        monkeypatch.setattr("prototta.bench.prediction_stability", recording(prediction_stability))
        plan = BenchmarkPlan(**plan_kwargs)
        for method in ("unadapted", "prototta"):
            cell = _run_cell(
                tiny_model, tiny_dataset, CorruptionSpec("gaussian_noise", 5), method,
                method_presets()[method], 0, plan, keep_records=False,
            )
            assert sorted(seen) == ["pac", "prediction_stability"]
            assert all((clean is adapted) == (method == "unadapted") for clean, adapted in seen.values())
            # the values of two separately joined arrays
            (clean, adapted), (clean_pred, adapted_pred) = seen.pop("pac"), seen.pop("prediction_stability")
            assert cell.pac_mean == pac(clean.copy(), adapted.copy()).mean
            assert cell.stability == prediction_stability(clean_pred.copy(), adapted_pred.copy())
            assert len(clean_pred) == plan.num_batches * STREAM_BATCH_SIZE
        assert cell.stability < 100.0  # the adapting cell's two arrays differ

    def test_summary_tables_are_seed_statistics_of_the_cells(self, plan_kwargs):
        # seeds out of plan order: every row is over the plan's seeds, and speeds pair cells of one seed
        plan = BenchmarkPlan(**{**plan_kwargs, "seeds": (1, 0)})
        result = run_benchmark(plan)
        cells = {(c.method, c.corruption, c.seed): c for c in result.cells}

        def speed(c):
            return relative_speed(c.throughput, cells["unadapted", c.corruption, c.seed].throughput)

        tables = {"interpretability": [attrgetter(attr) for _, attr in INTERP_METRICS], "efficiency": [speed]}
        for name, columns in tables.items():
            _, rows = read_csv(result.paths[name])
            want = []
            for method, _ in plan.methods:
                per_cor = {
                    str(cor): [mean_std([col(cells[method, str(cor), s]) for s in plan.seeds]) for col in columns]
                    for cor in plan.corruptions
                }
                per_cor["TOTAL"] = [mean_std([stats[i][0] for stats in per_cor.values()]) for i in range(len(columns))]
                want += [[method, cor, *(repr(v) for ms in stats for v in ms)] for cor, stats in per_cor.items()]
            assert rows == want, name
        _, rows = read_csv(result.paths["efficiency"])
        assert {tuple(row[2:]) for row in rows if row[0] == "unadapted"} == {("100.0", "0.0")}

    def test_markdown_escapes_pipes_in_method_names(self, plan_kwargs):
        presets = method_presets()
        methods = (("unadapted", presets["unadapted"]), ("tent|lr", presets["tent"]))
        result = run_benchmark(BenchmarkPlan(**{**plan_kwargs, "methods": methods, "seeds": (0,)}))
        out = Path(plan_kwargs["output_dir"])
        lines = (out / "accuracy.md").read_text(encoding="utf-8").splitlines()[2:]
        widths = {len(re.split(r"(?<!\\)\|", line)) for line in lines}
        assert len(widths) == 1, lines
        assert lines[-1].startswith("| tent\\|lr | ")
        _, rows = read_csv(result.paths["accuracy"])
        assert [row[0] for row in rows if row[1] == "TOTAL"] == ["unadapted", "tent|lr"]
        assert (out / "records" / "tent|lr_gaussian_noise_5.jsonl").is_file()

    def test_interpretability_matches_record_definitions_for_every_preset(self, plan_kwargs, monkeypatch):
        reports = {}

        def recording_stream(model, batches, cfg, **kwargs):
            reports[cfg.method] = run_stream(model, batches, cfg, **kwargs)
            return reports[cfg.method]

        monkeypatch.setattr("prototta.bench.run_stream", recording_stream)
        presets = tuple(method_presets().items())
        plan = BenchmarkPlan(**{**plan_kwargs, "methods": presets, "corruptions": ("gaussian_noise:5",), "seeds": (0,)})
        cells = run_benchmark(plan).cells
        model = load_model(plan.model_path)
        assert sorted(c.method for c in cells) == sorted(reports) == sorted(dict(presets))
        for cell in cells:
            recs = reports[cell.method].sample_records
            assert len(recs) == plan.num_batches * 128
            cosines = [
                float(r.clean_activations @ r.adapted_activations)
                / (np.linalg.norm(r.clean_activations) * np.linalg.norm(r.adapted_activations))
                for r in recs
            ]
            assert cell.pac_mean == float(np.mean(cosines)), cell.method
            want_pca_w = pca_w(
                np.stack([r.adapted_activations for r in recs]),
                model.head.data,
                model.class_of,
                np.asarray([r.ground_truth for r in recs]),
                k=PCA_W_K,
            )
            assert cell.pca_w_mean == want_pca_w.mean, cell.method
            agree = sum(1 for r in recs if r.adapted_prediction == r.clean_prediction)
            assert cell.stability == 100.0 * agree / len(recs), cell.method
            kept = recs[: plan.record_batches * 128]
            assert [r.sample_id for r in cell.records] == [r.sample_id for r in kept]
            for got, want in zip(cell.records, kept):
                assert np.array_equal(got.clean_activations, want.clean_activations)
                assert np.array_equal(got.adapted_activations, want.adapted_activations)
                assert np.array_equal(got.mapped_activations, want.mapped_activations)
                assert (got.clean_prediction, got.adapted_prediction, got.ground_truth) == (
                    want.clean_prediction, want.adapted_prediction, want.ground_truth
                )


class TestRunAblation:
    def test_filter_axis_has_two_rows(self, plan_kwargs):
        result = run_ablation(BenchmarkPlan(**plan_kwargs), "filter")
        assert [name for name, _ in result.plan.methods] == ["with_filter", "no_filter"]
        out = Path(plan_kwargs["output_dir"])
        _, body = read_csv(out / "ablation_filter" / "accuracy.csv")
        assert [row[0] for row in body] == ["with_filter"] * 3 + ["no_filter"] * 3
        assert not (out / "ablation_filter.csv").exists()

    def test_consensus_axis_rows(self, plan_kwargs):
        result = run_ablation(BenchmarkPlan(**plan_kwargs), "consensus")
        assert {name for name, _ in result.plan.methods} == {"max", "mean", "topk_mean"}

    def test_rows_match_single_config_runs(self, plan_kwargs, tmp_path):
        plan = BenchmarkPlan(**plan_kwargs)
        _, rows = read_csv(run_ablation(plan, "param_mode").paths["accuracy"])
        base = plan.method_map["prototta"]
        settings = sorted({row[0] for row in rows})
        assert len(settings) > 1
        for setting in settings:
            single = BenchmarkPlan(
                **{
                    **plan_kwargs,
                    "output_dir": str(tmp_path / f"single_{setting}"),
                    "methods": ((setting, replace(base, param_mode=setting)),),
                }
            )
            _, want = read_csv(run_benchmark(single).paths["accuracy"])
            assert [row for row in rows if row[0] == setting] == want

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


def tree_bytes(root: Path) -> dict[str, bytes]:
    """Every file under ``root`` but ``efficiency.csv`` (timing-dependent), by relative path."""
    return {
        p.relative_to(root).as_posix(): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file() and p.name != "efficiency.csv"
    }


# floats that print in every form float.__repr__ has: signed zero, subnormal, exponent and long mantissa
EDGE_FLOATS = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-05, 1e-04, 1e16, 1e22, -1e22, 1.7976931348623157e308, 0.1])
METHOD_NAMES = st.sampled_from(['q"uote', "back\\slash", "ctrl\x00\x01\x1f\n\t\x7f", "non-ASCII é 漢 \U0001f600", "\ud800"])


def records_strategy(num_prototypes, num_classes):
    """Records with any finite activations (edge floats among them) and ids, and the model's labels and predictions."""
    floats = st.floats(allow_nan=False, allow_infinity=False) | EDGE_FLOATS
    ints = st.integers(0, 2**40)
    activations = st.lists(floats, min_size=num_prototypes, max_size=num_prototypes).map(np.array)
    record = st.builds(
        ActivationRecord,
        sample_id=ints,
        clean_activations=st.just(np.zeros(num_prototypes)),
        adapted_activations=activations,
        clean_prediction=st.just(0),
        adapted_prediction=st.integers(0, num_classes - 1),
        ground_truth=st.integers(-1, num_classes - 1),
        mapped_activations=activations,
    )
    return st.lists(record, min_size=1, max_size=3)


class TestBoards:
    def test_a_label_the_model_cannot_have_is_refused(self, tiny_model, tiny_dataset, rng):
        records = stream_records(tiny_model, tiny_dataset, rng)[:2]
        unlabeled = replace(records[0], ground_truth=-1)
        assert json.loads(render_boards([unlabeled], tiny_model, k=PCA_W_K, method="m")[0])["ground_truth"] == -1
        for label in (-2, tiny_model.head.shape[0], 7):
            bad = replace(records[1], ground_truth=label)
            with pytest.raises(FormatError, match=rf"record {bad.sample_id}: ground truth {label} is out of range"):
                render_boards([records[0], bad], tiny_model, k=PCA_W_K, method="m")

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

    @pytest.mark.parametrize("k", [1, 5, 7, 12])
    def test_board_ratio_is_pca_w_where_the_definitions_agree(self, tiny_model, tiny_dataset, rng, k):
        # with one |head weight| everywhere, the top-k by activation and by contribution
        # coincide and every class row weighs them alike, so the two ratios are one number
        records = stream_records(tiny_model, tiny_dataset, rng)
        model = tiny_model.copy()
        model.head.data[:] = np.where(model.head.data < 0, -0.5, 0.5)
        ratios = [board_sample_pca_w(json.loads(text)) for text in render_boards(records, model, k=k, method="m")]
        want = pca_w(
            np.stack([r.adapted_activations for r in records]),
            model.head.data,
            model.class_of,
            np.asarray([r.ground_truth for r in records]),
            k=k,
        )
        assert want.excluded == 0
        assert ratios == want.values.tolist()

    def test_k_below_one_rejected(self, tiny_model, tiny_dataset, rng):
        record = stream_records(tiny_model, tiny_dataset, rng)[0]
        for k in (0, -2):
            with pytest.raises(ConfigError, match="at least 1"):
                render_boards([record], tiny_model, k=k, method="m")

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
        board = json.loads(render_boards([record], tiny_model, k=5, method="m")[0])
        expected = prototype_contributions(out.agg_sims.data, tiny_model.head.data, int(out.pseudo_labels[i]))[i]
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
            render_boards([bad], tiny_model, k=2, method="m")

    def test_missing_mapped_activations_rejected(self, tiny_model, tiny_dataset, rng):
        record = stream_records(tiny_model, tiny_dataset, rng)[0]
        record.mapped_activations = None
        with pytest.raises(FormatError, match="mapped"):
            render_boards([record], tiny_model, k=2, method="m")

    @pytest.mark.parametrize("k", ["one", "all"])
    def test_exported_boards_are_the_indented_encoding(self, tiny_model, tiny_dataset, rng, tmp_path, k):
        records = stream_records(tiny_model, tiny_dataset, rng)[:20]
        k = 1 if k == "one" else len(tiny_model.class_of)
        paths = export_boards(records, tiny_model, k=k, method="m", out_dir=tmp_path)
        texts = render_boards(sorted(records, key=lambda r: r.sample_id), tiny_model, k=k, method="m")
        for text, path in zip(texts, paths):
            board = json.loads(path.read_text())
            assert len(board["prototypes"]) == k
            assert path.read_text() == text == json.dumps(board, indent=2, sort_keys=True) + "\n"

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_board_text_is_the_indented_encoding(self, data):
        # with |head weight| 1 everywhere, each contribution is its activation, bit for bit
        model = PrototypeModel(ModelConfig(BackboneConfig(input_dim=2), num_classes=3, protos_per_class=2), seed=0)
        model.head.data[:] = np.where(model.head.data < 0, -1.0, 1.0)
        P = len(model.class_of)
        records = data.draw(records_strategy(P, model.head.shape[0]))
        k = data.draw(st.integers(1, P))
        method = data.draw(st.text() | METHOD_NAMES)
        for record, text in zip(records, render_boards(records, model, k=k, method=method)):
            board = json.loads(text)
            assert text == json.dumps(board, indent=2, sort_keys=True) + "\n"
            head = (board["sample_id"], board["method"], board["predicted_class"], board["ground_truth"])
            assert head == (record.sample_id, method, record.adapted_prediction, record.ground_truth)
            assert len(board["prototypes"]) == k
            for p in board["prototypes"]:
                raw, mapped = record.adapted_activations[p["prototype_id"]], record.mapped_activations[p["prototype_id"]]
                # repr tells -0.0 from 0.0
                got = (p["contribution"], p["raw_similarity"], p["mapped_similarity"])
                assert repr(got) == repr((float(raw), float(raw), float(mapped)))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("key", ["contribution", "raw_similarity", "mapped_similarity"])
    def test_board_text_refuses_non_finite(self, tiny_model, tiny_dataset, rng, key, value):
        # a bad head weight spoils only a contribution; a bad activation also its similarity
        record = stream_records(tiny_model, tiny_dataset, rng)[2]
        model = tiny_model.copy()
        if key == "contribution":
            model.head.data[record.adapted_prediction, 7] = value
        else:
            (record.adapted_activations if key == "raw_similarity" else record.mapped_activations)[7] = value
        with pytest.raises(FormatError, match=f"board of sample {record.sample_id}: non-finite"):
            render_boards([record], model, k=len(model.class_of), method="m")

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_contribution_outside_the_top_k_refuses_the_board(self, tiny_model, tiny_dataset, rng, value):
        record = stream_records(tiny_model, tiny_dataset, rng)[2]
        model = tiny_model.copy()
        low = int(np.argmin(record.adapted_activations))
        assert record.adapted_activations[low] < 0  # so an infinite |head weight| gives it -inf
        model.head.data[record.adapted_prediction, low] = value
        with pytest.raises(FormatError, match=f"board of sample {record.sample_id}: non-finite"):
            render_boards([record], model, k=1, method="m")

    def test_non_finite_head_writes_no_board(self, tiny_model, tiny_dataset, rng, tmp_path):
        records = stream_records(tiny_model, tiny_dataset, rng)[:4]
        model = tiny_model.copy()
        model.head.data[:, 0] = np.nan
        with pytest.raises(FormatError, match="non-finite"):
            export_boards(records, model, k=len(model.class_of), method="m", out_dir=tmp_path / "boards")
        assert not (tmp_path / "boards").exists()


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

    def test_board_without_positive_mass_skipped_with_warning(self, boards_dir, tmp_path):
        boards = [json.loads(p.read_text()) for p in sorted(boards_dir.glob("*.json"))]
        pairs = [(b["sample_id"], 0.1 * i * i) for i, b in enumerate(boards)]
        scores = tmp_path / "scores.csv"
        self.write_scores(scores, [*pairs, (999, 0.5)])
        want = correlate_scores(boards_dir, scores, tmp_path / "want.csv")
        # as pca_w leaves out a sample whose top-k mass is not positive, correlate leaves out its board
        prototypes = [{"prototype_id": 0, "owning_class": 0, "contribution": 0.0}]
        board = {"sample_id": 999, "method": "prototta", "ground_truth": 0, "prototypes": prototypes}
        (boards_dir / "prototta_000999.json").write_text(json.dumps(board))
        got = correlate_scores(boards_dir, scores, tmp_path / "got.csv")
        assert got.rows == want.rows
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
        assert "sample 999: top contribution mass is not positive (prototta_000999.json), skipped" in got.warnings

    def test_directory_named_like_a_board_ignored(self, boards_dir, tmp_path):
        boards = [json.loads(p.read_text()) for p in sorted(boards_dir.glob("*.json"))]
        scores = tmp_path / "scores.csv"
        self.write_scores(scores, [(b["sample_id"], 0.1 * i * i) for i, b in enumerate(boards)])
        want = correlate_scores(boards_dir, scores)
        (boards_dir / "x.json").mkdir()
        got = correlate_scores(boards_dir, scores)
        assert (got.rows, got.warnings) == (want.rows, want.warnings)

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
        assert (tmp_path / "reports" / "ablation_filter" / "accuracy.md").is_file()

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
            "record-batches-float", "seed-float", "seed-bool", "lr-bool", "lr-nan", "lr-inf",
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

    def test_non_utf8_plan_exits_2(self, tmp_path, capsys):
        plan_path = tmp_path / "plan.json"
        plan_path.write_bytes(b'{"seeds": [0]}\xff\n')
        assert main(["bench", "--plan", str(plan_path)]) == 2
        assert f"{plan_path}: not UTF-8 text" in capsys.readouterr().err

    def test_plan_real_too_large_for_a_float_exits_2(self, saved_files, tmp_path, capsys):
        plan = {
            "model_path": str(saved_files["model"]),
            "dataset_path": str(saved_files["dataset"]),
            "output_dir": str(tmp_path / "reports"),
            "corruptions": ["gaussian_noise:5"],
            "seeds": [0],
            "num_batches": 1,
            "methods": [["x", {"method": "tent", "lr": 10**400}]],
        }
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(plan))
        assert main(["bench", "--plan", str(plan_path)]) == 2
        assert "lr must be finite real" in capsys.readouterr().err
        assert not (tmp_path / "reports").exists()

    def test_train_takes_task_shape_from_dataset(self, tmp_path):
        data = tmp_path / "data.pttd"
        model = tmp_path / "model.ptta"
        gen = ["gen-data", "--out", str(data), "--classes", "3", "--dim", "16"]
        assert main([*gen, "--train-samples", "60", "--test-samples", "30"]) == 0
        assert main(["train", "--data", str(data), "--out", str(model), "--epochs", "1"]) == 0
        config = load_model(model).config
        assert (config.num_classes, config.backbone.input_dim) == (3, 16)

    @pytest.mark.parametrize("flags", [["--epochs", "-3"]], ids=["epochs-negative"])
    def test_bad_training_sizes_exit_2(self, saved_files, tmp_path, capsys, flags):
        model = tmp_path / "model.ptta"
        assert main(["train", "--data", str(saved_files["dataset"]), "--out", str(model), *flags]) == 2
        assert "error:" in capsys.readouterr().err
        assert not model.exists()

    @pytest.mark.parametrize(
        "flag", [["--lr", "0.02"], ["--batch-size", "64"], ["--pull-coeff", "0.2"]], ids=["lr", "batch-size", "pull-coeff"]
    )
    def test_removed_training_options_exit_2(self, saved_files, tmp_path, capsys, flag):
        model = tmp_path / "model.ptta"
        with pytest.raises(SystemExit) as exc:
            main(["train", "--data", str(saved_files["dataset"]), "--out", str(model), *flag])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
        assert not model.exists()

    @pytest.mark.parametrize("spread", ["nan", "inf", "0"])
    def test_non_finite_or_zero_spread_exits_2(self, tmp_path, capsys, spread):
        data = tmp_path / "data.pttd"
        assert main(["gen-data", "--out", str(data), "--spread", spread]) == 2
        assert "error:" in capsys.readouterr().err
        assert not data.exists()

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

    @pytest.mark.parametrize("verb", [["bench", "--methods", "unadapted", "tent"], ["ablate", "--axis", "filter"]])
    @pytest.mark.parametrize(
        "spec, message",
        [({"input_dim": 16}, "model input_dim 32 != dataset 16"), ({"num_classes": 7}, "model num_classes 5 != dataset 7")],
        ids=["width", "classes"],
    )
    def test_a_dataset_the_model_does_not_fit_exits_2_before_any_cell(
        self, saved_files, tmp_path, capsys, monkeypatch, verb, spec, message
    ):
        data = tmp_path / "other.pttd"
        save_dataset(generate_dataset(SyntheticTaskSpec(samples_per_split=(10, 256), **spec)), data)
        monkeypatch.setattr("prototta.bench._run_cell", lambda *args, **kwargs: pytest.fail("a cell ran"))
        code = main(
            [
                *verb,
                "--model", str(saved_files["model"]),
                "--data", str(data),
                "--out-dir", str(tmp_path / "reports"),
                "--corruptions", "gaussian_noise:5",
                "--seeds", "0",
                "--num-batches", "1",
            ]
        )
        assert code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "reports").exists()

    def test_a_dataset_without_test_rows_exits_2(self, saved_files, tiny_dataset, tmp_path, capsys):
        data = tmp_path / "empty.pttd"
        save_dataset(replace(tiny_dataset, test_x=tiny_dataset.test_x[:0], test_y=tiny_dataset.test_y[:0]), data)
        for corruption in ("impulse_noise:5", "gaussian_noise:5"):
            out = tmp_path / corruption.replace(":", "_")
            argv = ["--model", str(saved_files["model"]), "--data", str(data), "--out-dir", str(out)]
            assert main(["bench", *argv, "--corruptions", corruption, "--methods", "unadapted", "--seeds", "0"]) == 2
            assert f"{data}: need at least one train and one test row, got" in capsys.readouterr().err
            assert not out.exists()

    def test_boards_of_a_label_the_model_cannot_have_exit_2(self, saved_files, tiny_model, tiny_dataset, rng, tmp_path, capsys):
        records = stream_records(tiny_model, tiny_dataset, rng)[:2]
        path, out = tmp_path / "records.jsonl", tmp_path / "boards"
        dump_records([records[0], replace(records[1], ground_truth=7)], path)
        argv = ["boards", "--records", str(path), "--model", str(saved_files["model"]), "--method", "m", "--out", str(out)]
        assert main(argv) == 2
        assert f"record {records[1].sample_id}: ground truth 7 is out of range for the model's 5 classes" in capsys.readouterr().err
        assert not out.exists()

    def test_thread_setting_is_ignored(self, saved_files, tmp_path, monkeypatch):
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
        assert code == 0
        assert all((tmp_path / "reports" / name).is_file() for name in (*REPORT_FILES, "efficiency.csv"))

    @pytest.fixture()
    def three_prototype_model(self, tmp_path):
        """A saved 3-class model with one prototype per class: fewer than PCA-W's k."""
        path = tmp_path / "three.ptta"
        save_model(PrototypeModel(ModelConfig(BackboneConfig(), num_classes=3, protos_per_class=1), seed=0), path)
        return path

    @pytest.mark.parametrize("verb", [["bench", "--methods", "unadapted", "tent"], ["ablate", "--axis", "filter"]])
    def test_board_k_above_prototype_count_exits_2(self, saved_files, three_prototype_model, tmp_path, capsys, verb):
        code = main(
            [
                *verb,
                "--model", str(three_prototype_model),
                "--data", str(saved_files["dataset"]),
                "--out-dir", str(tmp_path / "reports"),
                "--corruptions", "gaussian_noise:5",
                "--seeds", "0",
                "--num-batches", "1",
            ]
        )
        assert code == 2
        assert f"k must be at most the model's 3 prototypes and at least 1, got {PCA_W_K}" in capsys.readouterr().err
        assert not (tmp_path / "reports").exists()

    def test_boards_k_above_prototype_count_exits_2(
        self, saved_files, three_prototype_model, tiny_model, tiny_dataset, rng, tmp_path, capsys
    ):
        records = tmp_path / "records.jsonl"
        dump_records(stream_records(tiny_model, tiny_dataset, rng)[:4], records)
        argv = ["boards", "--records", str(records), "--method", "m"]
        assert main([*argv, "--model", str(saved_files["model"]), "--out", str(tmp_path / "full")]) == 0
        assert len(list((tmp_path / "full").glob("*.json"))) == 4
        assert main([*argv, "--model", str(three_prototype_model), "--out", str(tmp_path / "boards")]) == 2
        assert "at most the model's 3 prototypes" in capsys.readouterr().err
        assert not (tmp_path / "boards").exists()

    def test_boards_k_checked_before_reading_records(self, three_prototype_model, tmp_path, capsys):
        records = tmp_path / "records.jsonl"
        records.write_text("{not a record\n")
        out = tmp_path / "boards"
        argv = ["boards", "--records", str(records), "--model", str(three_prototype_model), "--method", "m"]
        assert main([*argv, "--out", str(out)]) == 2
        assert "at most the model's" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("verb", [["bench", "--methods", "unadapted"], ["ablate", "--axis", "filter"]])
    @pytest.mark.parametrize("below", [False, True], ids=["file", "under-file"])
    def test_out_dir_blocked_by_a_file_exits_2(self, saved_files, tmp_path, capsys, verb, below):
        taken = tmp_path / "taken"
        taken.write_text("keep")
        out_dir = taken / "sub" if below else taken
        code = main(
            [
                *verb,
                "--model", str(saved_files["model"]),
                "--data", str(saved_files["dataset"]),
                "--out-dir", str(out_dir),
                "--corruptions", "gaussian_noise:5",
                "--seeds", "0",
                "--num-batches", "1",
            ]
        )
        assert code == 2
        assert f"{taken} is not a directory" in capsys.readouterr().err
        assert taken.read_text() == "keep"

    @pytest.fixture()
    def no_cells(self, monkeypatch):
        """Make any benchmark cell an error, so a run that exits 2 shows it stopped before the first cell."""

        def refuse(*args, **kwargs):
            raise AssertionError("a cell ran")

        monkeypatch.setattr("prototta.bench._run_cell", refuse)

    @pytest.mark.parametrize("verb", [["bench"], ["ablate", "--axis", "filter"]])
    @pytest.mark.parametrize(
        "blocked, as_dir",
        [
            *((name, True) for name in REPORT_FILES),
            ("records", False),
            ("records/{method}_gaussian_noise_5.jsonl", True),
        ],
    )
    def test_blocked_report_path_exits_2_before_any_cell(
        self, saved_files, tmp_path, capsys, no_cells, verb, blocked, as_dir
    ):
        out_dir = tmp_path / "rep"
        if verb[0] == "ablate":
            taken = out_dir / "ablation_filter" / blocked.format(method="no_filter")
        else:
            taken = out_dir / blocked.format(method="prototta")
        taken.parent.mkdir(parents=True)
        taken.mkdir() if as_dir else taken.write_text("keep")
        code = main(
            [
                *verb,
                "--model", str(saved_files["model"]),
                "--data", str(saved_files["dataset"]),
                "--out-dir", str(out_dir),
                "--methods", "prototta",
                "--corruptions", "gaussian_noise:5",
                "--seeds", "0",
                "--num-batches", "1",
            ]
        )
        assert code == 2
        assert f"output {taken} is {'a' if as_dir else 'not a'} directory" in capsys.readouterr().err
        assert taken.is_dir() if as_dir else taken.read_text() == "keep"

    @pytest.mark.parametrize("verb", ["gen-data", "train", "bench", "ablate", "boards", "correlate"])
    def test_a_path_the_os_refuses_exits_2(self, saved_files, tmp_path, capsys, no_cells, verb):
        long = tmp_path / ("c" * 300)  # one component longer than a file name may be
        model, data = str(saved_files["model"]), str(saved_files["dataset"])
        argv = {
            "gen-data": ["gen-data", "--out", str(long)],
            "train": ["train", "--data", data, "--out", str(long)],
            "bench": ["bench", "--model", model, "--data", data, "--out-dir", str(long)],
            "ablate": ["ablate", "--axis", "filter", "--model", model, "--data", data, "--out-dir", str(long)],
            "boards": ["boards", "--records", str(long), "--model", model, "--out", str(tmp_path / "b"), "--method", "m"],
            "correlate": ["correlate", "--boards", str(tmp_path), "--scores", str(long)],
        }[verb]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(long) in err and "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("key", ["model_path", "dataset_path", "output_dir"])
    def test_a_plan_path_with_nul_exits_2_before_any_cell(self, plan_kwargs, tmp_path, capsys, no_cells, key):
        plan = BenchmarkPlan(**plan_kwargs).to_dict()
        plan[key] = "out\u0000x" if key == "output_dir" else plan[key] + "\u0000x"
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(plan), encoding="utf-8")
        assert main(["bench", "--plan", str(plan_path)]) == 2
        assert f"{key} must not contain NUL" in capsys.readouterr().err
        with pytest.raises(ConfigError, match=f"{key} must not contain NUL"):
            BenchmarkPlan(**{**plan_kwargs, key: "a\0b"})

    def test_efficiency_path_is_checked_only_with_unadapted(self, saved_files, tmp_path, capsys, monkeypatch):
        out_dir = tmp_path / "rep"
        (out_dir / "efficiency.csv").mkdir(parents=True)
        argv = [
            "bench",
            "--model", str(saved_files["model"]),
            "--data", str(saved_files["dataset"]),
            "--out-dir", str(out_dir),
            "--corruptions", "gaussian_noise:5",
            "--seeds", "0",
            "--num-batches", "1",
        ]
        assert main([*argv, "--methods", "tent"]) == 0
        assert (out_dir / "accuracy.csv").is_file() and (out_dir / "efficiency.csv").is_dir()
        monkeypatch.setattr("prototta.bench._run_cell", lambda *a, **k: pytest.fail("a cell ran"))
        assert main([*argv, "--methods", "unadapted", "tent"]) == 2
        assert f"output {out_dir / 'efficiency.csv'} is a directory" in capsys.readouterr().err

    def test_boards_out_that_is_a_file_exits_2(self, saved_files, tiny_model, tiny_dataset, rng, tmp_path, capsys):
        records = tmp_path / "records.jsonl"
        dump_records(stream_records(tiny_model, tiny_dataset, rng)[:4], records)
        taken = tmp_path / "taken"
        taken.write_text("keep")
        argv = ["boards", "--records", str(records), "--model", str(saved_files["model"]), "--method", "m"]
        assert main([*argv, "--out", str(taken)]) == 2
        assert f"output {taken} is not a directory" in capsys.readouterr().err
        assert taken.read_text() == "keep"

    @pytest.fixture()
    def container_argv(self, saved_files):
        """The arguments but ``--out`` of ``gen-data`` and of ``train``, each writing one container file."""
        return {
            "gen-data": ["gen-data", "--train-samples", "60", "--test-samples", "30"],
            "train": ["train", "--data", str(saved_files["dataset"]), "--epochs", "1"],
        }

    @pytest.mark.parametrize("verb", ["gen-data", "train"])
    def test_container_out_that_is_a_directory_exits_2(self, container_argv, tmp_path, capsys, verb):
        taken = tmp_path / "taken"
        taken.mkdir()
        assert main([*container_argv[verb], "--out", str(taken)]) == 2
        assert f"output {taken} is a directory" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [taken]
        assert list(taken.iterdir()) == []

    @pytest.mark.parametrize("verb", ["gen-data", "train"])
    def test_container_out_under_a_file_exits_2(self, container_argv, tmp_path, capsys, verb):
        taken = tmp_path / "taken"
        taken.write_text("keep")
        assert main([*container_argv[verb], "--out", str(taken / "x")]) == 2
        assert f"output {taken / 'x'}: {taken} is not a directory" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [taken]
        assert taken.read_text() == "keep"

    @pytest.mark.parametrize("verb", ["gen-data", "train"])
    def test_container_out_in_a_missing_directory_makes_it(self, container_argv, tmp_path, verb):
        out = tmp_path / "new" / "sub" / "x"
        assert main([*container_argv[verb], "--out", str(out)]) == 0
        assert list(out.parent.iterdir()) == [out]
        (load_dataset if verb == "gen-data" else load_model)(out)

    @pytest.mark.parametrize("verb", [["bench"], ["ablate", "--axis", "filter"], ["boards"]], ids=lambda verb: verb[0])
    def test_removed_k_options_exit_2(self, saved_files, tmp_path, capsys, verb):
        model, out = str(saved_files["model"]), tmp_path / "out"
        if verb == ["boards"]:
            flag = ["--k", "5"]
            argv = ["--records", str(tmp_path / "r.jsonl"), "--model", model, "--out", str(out), "--method", "m"]
        else:
            flag = ["--board-k", "5"]
            argv = ["--model", model, "--data", str(saved_files["dataset"]), "--out-dir", str(out)]
        with pytest.raises(SystemExit) as exc:
            main([*verb, *argv, *flag])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "verb, prefix", [("bench", "--out"), ("ablate", "--ax"), ("boards", "--rec")], ids=["bench", "ablate", "boards"]
    )
    def test_flag_prefixes_exit_2(self, saved_files, tmp_path, capsys, verb, prefix):
        model, out = str(saved_files["model"]), tmp_path / "out"
        if verb == "boards":
            argv = ["--rec", str(tmp_path / "r.jsonl"), "--model", model, "--out", str(out), "--method", "m"]
        else:
            argv = ["--model", model, "--data", str(saved_files["dataset"]), "--corruptions", "gaussian_noise:5"]
            argv += ["--seeds", "0", "--num-batches", "1"]
            argv += ["--out", str(out)] if verb == "bench" else ["--out-dir", str(out), "--ax", "filter"]
        with pytest.raises(SystemExit) as exc:
            main([verb, *argv])
        assert exc.value.code == 2
        assert prefix in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("method", ["../escaped", "a/b", "nul\0"], ids=["parent", "subdirectory", "nul"])
    def test_boards_method_name_leaving_out_exits_2(
        self, saved_files, tiny_model, tiny_dataset, rng, tmp_path, capsys, method
    ):
        records = tmp_path / "records.jsonl"
        dump_records(stream_records(tiny_model, tiny_dataset, rng)[:4], records)
        argv = ["boards", "--records", str(records), "--model", str(saved_files["model"]), "--method", method]
        assert main([*argv, "--out", str(tmp_path / "run" / "boards")]) == 2
        assert "method name must not contain '/' or NUL" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize(
        "edit, problem",
        [
            (lambda r: {**r, "sample_id": 1.5}, "sample_id must be int, got 1.5"),
            (lambda r: {**r, "ground_truth": True}, "ground_truth must be int, got True"),
            (lambda r: {k: v for k, v in r.items() if k != "adapted_activations"}, "missing field 'adapted_activations'"),
            (lambda r: {**r, "adapted_prediction": 99}, "predicted class 99 is out of range"),
        ],
        ids=["sample-id-float", "ground-truth-bool", "field-missing", "class-out-of-range"],
    )
    def test_bad_record_line_exits_2(self, saved_files, tiny_model, tiny_dataset, rng, tmp_path, capsys, edit, problem):
        records = tmp_path / "records.jsonl"
        dump_records(stream_records(tiny_model, tiny_dataset, rng)[:3], records)
        lines = records.read_text().splitlines()
        lines[1] = json.dumps(edit(json.loads(lines[1])))
        records.write_text("\n".join(lines) + "\n")
        out = tmp_path / "boards"
        argv = ["boards", "--records", str(records), "--model", str(saved_files["model"]), "--method", "m"]
        assert main([*argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert problem in err
        if "out of range" not in problem:
            assert f"{records}:2: " in err
        assert not out.exists()

    def test_boards_rerun_with_fewer_records_matches_fresh(
        self, saved_files, tiny_model, tiny_dataset, rng, tmp_path, capsys
    ):
        records = stream_records(tiny_model, tiny_dataset, rng)[:12]
        path = tmp_path / "records.jsonl"
        dump_records(records, path)
        scores = tmp_path / "scores.csv"
        scores.write_text("sample_id,score\n" + "".join(f"{r.sample_id},{(3 * i) % 7}\n" for i, r in enumerate(records)))
        argv = ["boards", "--records", str(path), "--model", str(saved_files["model"]), "--method", "m"]
        rerun, fresh = tmp_path / "rerun", tmp_path / "fresh"
        for out in (rerun, fresh):
            # another method's boards and files that are not boards stay where they are
            export_boards(records[6:], tiny_model, k=3, method="m_2", out_dir=out)
            (out / "m_000001.json.bak").write_text("x")
            (out / "notes.txt").write_text("x")
        assert main([*argv, "--out", str(rerun)]) == 0
        assert main([*argv, "--out", str(rerun), "--limit", "6"]) == 0
        assert main([*argv, "--out", str(fresh), "--limit", "6"]) == 0
        assert sorted(tree_bytes(rerun)) == sorted(tree_bytes(fresh))
        assert len(list(rerun.glob("m_0*.json"))) == 6 and len(list(rerun.glob("m_2_*.json"))) == 6
        capsys.readouterr()
        printed = []
        for out in (rerun, fresh):
            assert main(["correlate", "--boards", str(out), "--scores", str(scores), "--out", str(out / "c.csv")]) == 0
            printed.append(capsys.readouterr().out)
        assert printed[0] == printed[1] and "m: n=6" in printed[0]
        assert (rerun / "c.csv").read_bytes() == (fresh / "c.csv").read_bytes()

    def test_boards_sweep_keeps_directories(self, saved_files, tiny_model, tiny_dataset, rng, tmp_path):
        records = tmp_path / "records.jsonl"
        dump_records(stream_records(tiny_model, tiny_dataset, rng)[:3], records)
        out = tmp_path / "boards"
        (out / "m_999999.json").mkdir(parents=True)
        argv = ["boards", "--records", str(records), "--model", str(saved_files["model"]), "--method", "m"]
        assert main([*argv, "--out", str(out)]) == 0
        assert (out / "m_999999.json").is_dir() and len(list(out.glob("m_0*.json"))) == 3

    def test_boards_and_correlate_on_unlabeled_records(self, saved_files, tiny_model, tiny_dataset, tmp_path, capsys):
        # the same samples streamed with and without labels give the same records but for the label
        x = tiny_dataset.test_x[:12] + np.random.default_rng(0).normal(0, 0.3, (12, tiny_dataset.test_x.shape[1]))
        unadapted = TTAConfig(method="unadapted")
        for name, y in (("labeled", tiny_dataset.test_y[:12]), ("unlabeled", None)):
            report = run_stream(tiny_model.copy(), iter_batches(x, y, 6), unadapted)
            dump_records(report.sample_records, tmp_path / f"{name}.jsonl")
        scores = tmp_path / "scores.csv"
        scores.write_text("sample_id,score\n" + "".join(f"{i},{(3 * i) % 7}\n" for i in range(12)))
        mixed, alone = tmp_path / "mixed", tmp_path / "alone"
        for name, out in (("labeled", mixed), ("unlabeled", mixed), ("labeled", alone)):
            argv = ["boards", "--records", str(tmp_path / f"{name}.jsonl"), "--model", str(saved_files["model"])]
            assert main([*argv, "--method", name, "--out", str(out)]) == 0
        assert {json.loads(p.read_text())["ground_truth"] for p in mixed.glob("unlabeled_*.json")} == {-1}
        capsys.readouterr()
        for out in (mixed, alone):
            assert main(["correlate", "--boards", str(out), "--scores", str(scores), "--out", str(out / "c.csv")]) == 0
        printed = capsys.readouterr()
        assert printed.err.count("is unlabeled") == 12 and "unlabeled:" not in printed.out
        assert (mixed / "c.csv").read_bytes() == (alone / "c.csv").read_bytes()

    def test_boards_repeated_sample_id_exits_2(self, saved_files, tiny_model, tiny_dataset, rng, tmp_path, capsys):
        records = tmp_path / "records.jsonl"
        dump_records(stream_records(tiny_model, tiny_dataset, rng)[:3], records)
        lines = records.read_text().splitlines()
        records.write_text("\n".join([*lines, lines[0]]) + "\n")
        out = tmp_path / "boards"
        argv = ["boards", "--records", str(records), "--model", str(saved_files["model"]), "--method", "m"]
        assert main([*argv, "--out", str(out)]) == 2
        assert f"repeated sample_id {json.loads(lines[0])['sample_id']}" in capsys.readouterr().err
        assert not out.exists()

    def test_boards_negative_limit_exits_2(self, saved_files, tiny_model, tiny_dataset, rng, tmp_path, capsys):
        records = tmp_path / "records.jsonl"
        dump_records(stream_records(tiny_model, tiny_dataset, rng)[:3], records)
        out = tmp_path / "boards"
        argv = ["boards", "--records", str(records), "--model", str(saved_files["model"]), "--method", "m"]
        assert main([*argv, "--out", str(out), "--limit", "-3"]) == 2
        assert "--limit must be 0 (all) or positive, got -3" in capsys.readouterr().err
        assert not out.exists()

    def test_bench_rerun_with_fewer_batches_matches_fresh(self, saved_files, tmp_path):
        argv = [
            "bench",
            "--model", str(saved_files["model"]),
            "--data", str(saved_files["dataset"]),
            "--corruptions", "gaussian_noise:5",
            "--methods", "unadapted", "prototta",
            "--seeds", "0",
        ]
        rerun, fresh = tmp_path / "rerun", tmp_path / "fresh"
        assert main([*argv, "--out-dir", str(rerun), "--num-batches", "3", "--record-batches", "2"]) == 0
        assert main([*argv, "--out-dir", str(rerun), "--num-batches", "2", "--record-batches", "1"]) == 0
        assert main([*argv, "--out-dir", str(fresh), "--num-batches", "2", "--record-batches", "1"]) == 0
        got, want = tree_bytes(rerun), tree_bytes(fresh)
        assert "accuracy_batches.csv" in want and "records/prototta_gaussian_noise_5.jsonl" in want
        assert got == want

    def test_bench_rerun_with_fewer_corruptions_and_metrics_matches_fresh(self, saved_files, tmp_path):
        argv = [
            "bench",
            "--model", str(saved_files["model"]),
            "--data", str(saved_files["dataset"]),
            "--methods", "unadapted", "prototta",
            "--seeds", "0",
            "--num-batches", "2",
            "--record-batches", "1",
        ]
        rerun, fresh = tmp_path / "rerun", tmp_path / "fresh"
        kept = ["records/prototta_plus_brightness_shift_5.jsonl", "records/notes_gaussian_noise_5.jsonl",
                "records/prototta_brightness_shift_5.jsonl.bak", "ablation_filter.csv", "notes.txt"]
        for out in (rerun, fresh):
            # another method's records, an ablation table and unrelated files stay where they are
            (out / "records").mkdir(parents=True)
            for name in kept:
                (out / name).write_text("x")
        first = ["--corruptions", "gaussian_noise:5", "brightness_shift:5"]
        assert main([*argv, "--out-dir", str(rerun), *first]) == 0
        assert (rerun / "efficiency.csv").is_file() and (rerun / "interpretability.csv").is_file()
        assert (rerun / "records" / "unadapted_brightness_shift_5.jsonl").is_file()
        # the second plan drops unadapted, whose records then stay as another method's do
        for name in ("records/unadapted_gaussian_noise_5.jsonl", "records/unadapted_brightness_shift_5.jsonl"):
            (fresh / name).write_bytes((rerun / name).read_bytes())
        second = ["--corruptions", "gaussian_noise:5", "--methods", "prototta"]
        assert main([*argv, "--out-dir", str(rerun), *second]) == 0
        assert main([*argv, "--out-dir", str(fresh), *second]) == 0
        names = [sorted(p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file()) for out in (rerun, fresh)]
        assert names[0] == names[1] and set(kept) <= set(names[0])
        assert "efficiency.csv" not in names[0] and "interpretability.csv" in names[0]
        assert tree_bytes(rerun) == tree_bytes(fresh)

    def test_ablate_rerun_with_fewer_corruptions_matches_fresh(self, saved_files, tmp_path):
        argv = [
            "ablate",
            "--axis", "filter",
            "--model", str(saved_files["model"]),
            "--data", str(saved_files["dataset"]),
            "--methods", "prototta",
            "--seeds", "0",
            "--num-batches", "2",
            "--record-batches", "1",
        ]
        rerun, fresh = tmp_path / "rerun", tmp_path / "fresh"
        # a bench run's report files and records, and other tables, stay where they are
        kept = ["records/prototta_brightness_shift_5.jsonl", "accuracy.csv", "ablation_weighting.csv"]
        for out in (rerun, fresh):
            (out / "records").mkdir(parents=True)
            for name in kept:
                (out / name).write_text("x")
        assert main([*argv, "--out-dir", str(rerun), "--corruptions", "gaussian_noise:5", "brightness_shift:5"]) == 0
        assert (rerun / "ablation_filter" / "records" / "no_filter_brightness_shift_5.jsonl").is_file()
        for out in (rerun, fresh):
            assert main([*argv, "--out-dir", str(out), "--corruptions", "gaussian_noise:5"]) == 0
        assert {name: (rerun / name).read_text() for name in kept} == dict.fromkeys(kept, "x")
        got, want = tree_bytes(rerun / "ablation_filter"), tree_bytes(fresh / "ablation_filter")
        assert "records/no_filter_gaussian_noise_5.jsonl" in want
        assert got == want

    def test_bench_batch_size_is_one_per_plan(self, saved_files, tmp_path):
        out = tmp_path / "reports"
        argv = [
            "bench",
            "--model", str(saved_files["model"]),
            "--data", str(saved_files["dataset"]),
            "--out-dir", str(out),
            "--methods", "unadapted", "prototta",
            "--corruptions", "gaussian_noise:5", "brightness_shift:5",
            "--seeds", "0", "1",
            "--num-batches", "3",
        ]
        assert main(argv) == 0
        header, rows = read_csv(out / "accuracy_batches.csv")
        assert header == [
            "method", "corruption", "seed", "batch", "size", "accuracy", "selected", "loss", "clean_agreement"
        ]
        assert {row[4] for row in rows} == {str(STREAM_BATCH_SIZE)}
        keys = {method: {tuple(row[1:5]) for row in rows if row[0] == method} for method in ("unadapted", "prototta")}
        assert len(keys["unadapted"]) == 2 * 2 * 3 and keys["unadapted"] == keys["prototta"]

    @pytest.mark.parametrize("target", ["model-head", "model-prototype", "dataset"])
    def test_non_finite_model_or_dataset_exits_2(self, saved_files, tiny_model, tiny_dataset, rng, tmp_path, capsys, target):
        model, dataset = tiny_model.copy(), replace(tiny_dataset, test_x=tiny_dataset.test_x.copy())
        if target == "model-head":
            model.head.data[:] = np.nan
        elif target == "model-prototype":
            model.prototypes.data[0, 0] = np.inf
        else:
            dataset.test_x[5, 3] = -np.inf
        model_path, data_path = tmp_path / "model.ptta", tmp_path / "data.pttd"
        save_model(model, model_path)
        save_dataset(dataset, data_path)
        bad = data_path if target == "dataset" else model_path
        out = tmp_path / "out"
        bench = ["bench", "--model", str(model_path), "--data", str(data_path), "--out-dir", str(out),
                 "--corruptions", "gaussian_noise:5", "--methods", "unadapted", "--seeds", "0", "--num-batches", "1"]
        assert main(bench) == 2
        assert f"{bad}: tensor" in capsys.readouterr().err and not out.exists()
        if target == "dataset":
            return
        records = tmp_path / "records.jsonl"
        dump_records(stream_records(tiny_model, tiny_dataset, rng)[:3], records)
        boards = ["boards", "--records", str(records), "--model", str(model_path), "--out", str(out), "--method", "m"]
        assert main(boards) == 2
        assert f"{model_path}: tensor" in capsys.readouterr().err and not out.exists()

    @pytest.mark.parametrize(
        "edit, problem",
        [
            ({"test_y": 7}, "labels must be whole numbers in [0, 5)"),
            ({"test_y": -1}, "labels must be whole numbers in [0, 5)"),
            ({"train_y": 2.5}, "labels must be whole numbers in [0, 5)"),
            ({"test_x": 16}, "need x 32 wide and centers (5, 1, 32), got (400, 32), (2048, 16)"),
            ({"centers": 2}, "need x 32 wide and centers (5, 1, 32), got (400, 32), (2048, 32) and (5, 2, 32)"),
        ],
        ids=["label-7", "label-minus-1", "label-2.5", "x-16-wide", "two-clusters"],
    )
    def test_dataset_with_bad_labels_or_shapes_exits_2(
        self, saved_files, tiny_dataset, tmp_path, capsys, edit, problem
    ):
        (key, value), = edit.items()
        data = tiny_dataset
        if key.endswith("_y"):
            labels = getattr(data, key).astype(np.float64)
            labels[3] = value
            data = replace(data, **{key: labels})
        elif key == "test_x":
            data = replace(data, test_x=data.test_x[:, :value].copy())
        else:
            data = replace(data, centers=np.repeat(data.centers, value, axis=1))
        data_path, out = tmp_path / "data.pttd", tmp_path / "out"
        save_dataset(data, data_path)
        bench = ["bench", "--model", str(saved_files["model"]), "--data", str(data_path), "--out-dir", str(out),
                 "--corruptions", "gaussian_noise:5", "--methods", "unadapted", "--seeds", "0", "--num-batches", "2"]
        assert main(bench) == 2
        err = capsys.readouterr().err
        assert f"{data_path}: " in err and problem in err and not out.exists()

    @pytest.fixture()
    def correlate_inputs(self, tiny_model, tiny_dataset, rng, tmp_path):
        """A boards directory of five valid boards and a scores file that matches them."""
        boards = tmp_path / "boards"
        export_boards(stream_records(tiny_model, tiny_dataset, rng)[:5], tiny_model, k=3, method="m", out_dir=boards)
        scores = tmp_path / "scores.csv"
        ids = [json.loads(p.read_text())["sample_id"] for p in sorted(boards.glob("*.json"))]
        scores.write_text("sample_id,score\n" + "".join(f"{i},{0.1 * n}\n" for n, i in enumerate(ids)))
        return boards, scores, ids

    @pytest.mark.parametrize(
        "board",
        [
            {"method": "x"},
            [1, 2],
            {"sample_id": True, "method": "x", "ground_truth": 0, "prototypes": [{"contribution": 1.0, "owning_class": 0}]},
            {"sample_id": 1, "method": "x", "ground_truth": 0, "prototypes": []},
            {"sample_id": 1, "method": "x", "ground_truth": 0, "prototypes": [{"contribution": 1.0}]},
            {"sample_id": 1, "method": 5, "ground_truth": 0, "prototypes": [{"contribution": 1.0, "owning_class": 0}]},
            {"sample_id": -1, "method": "x", "ground_truth": 0, "prototypes": [{"contribution": 1.0, "owning_class": 0}]},
            {"sample_id": 1, "method": "x", "ground_truth": -5, "prototypes": [{"contribution": 1.0, "owning_class": 0}]},
            {"sample_id": 1, "method": "x", "ground_truth": 0, "prototypes": [{"contribution": 1.0, "owning_class": -3}]},
        ],
        ids=[
            "method-only", "list", "sample-id-bool", "no-prototypes", "owning-class-missing", "method-int",
            "sample-id-negative", "ground-truth-negative", "owning-class-negative",
        ],
    )
    def test_malformed_board_exits_2(self, correlate_inputs, capsys, board):
        boards, scores, _ = correlate_inputs
        bad = boards / "zz_bad.json"
        bad.write_text(json.dumps(board))
        assert main(["correlate", "--boards", str(boards), "--scores", str(scores)]) == 2
        err = capsys.readouterr().err
        assert str(bad) in err and "malformed board" in err

    def test_board_contribution_too_large_for_a_float_exits_2(self, correlate_inputs, capsys):
        boards, scores, _ = correlate_inputs
        bad = boards / "zz_bad.json"
        prototype = {"contribution": 10**400, "owning_class": 0}
        bad.write_text(json.dumps({"sample_id": 1, "method": "x", "ground_truth": 0, "prototypes": [prototype]}))
        assert main(["correlate", "--boards", str(boards), "--scores", str(scores)]) == 2
        assert f"{bad}: malformed board: contribution must be finite real" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "row, problem",
        [
            (lambda ids: f"{max(ids) + 1},nan", "non-finite score"),
            (lambda ids: f"{max(ids) + 1},inf", "non-finite score"),
            (lambda ids: f"{ids[0]},0.9", "repeated sample_id"),
            (lambda ids: f"{max(ids) + 1},0.5,junk", "bad row"),
            (lambda ids: f"{max(ids) + 1},0.25,", "bad row"),
        ],
        ids=["nan", "inf", "repeated-id", "extra-field", "trailing-comma"],
    )
    def test_bad_score_row_exits_2(self, correlate_inputs, capsys, row, problem):
        boards, scores, ids = correlate_inputs
        scores.write_text(scores.read_text() + row(ids) + "\n")
        assert main(["correlate", "--boards", str(boards), "--scores", str(scores)]) == 2
        assert f"{scores}:{len(ids) + 2}: {problem}" in capsys.readouterr().err

    def test_non_utf8_scores_exit_2(self, correlate_inputs, capsys):
        boards, scores, _ = correlate_inputs
        scores.write_bytes(scores.read_bytes() + b"\xff,0.5\n")
        assert main(["correlate", "--boards", str(boards), "--scores", str(scores)]) == 2
        assert f"{scores}: not UTF-8 text" in capsys.readouterr().err

    def test_non_utf8_board_exits_2(self, correlate_inputs, capsys):
        boards, scores, _ = correlate_inputs
        bad = boards / "zz_bad.json"
        bad.write_bytes(b'{"method": "\xff"}')
        assert main(["correlate", "--boards", str(boards), "--scores", str(scores)]) == 2
        assert f"{bad}: malformed board" in capsys.readouterr().err

    def test_out_in_a_new_directory_is_made(self, correlate_inputs, tmp_path):
        boards, scores, _ = correlate_inputs
        out = tmp_path / "new" / "x.csv"
        assert main(["correlate", "--boards", str(boards), "--scores", str(scores), "--out", str(out)]) == 0
        assert out.read_text().startswith("scope,n,pearson,spearman")

    def test_out_that_is_a_directory_exits_2(self, correlate_inputs, tmp_path, capsys):
        boards, scores, _ = correlate_inputs
        taken = tmp_path / "taken"
        taken.mkdir()
        assert main(["correlate", "--boards", str(boards), "--scores", str(scores), "--out", str(taken)]) == 2
        assert f"output {taken} is a directory" in capsys.readouterr().err
        assert list(taken.iterdir()) == []

    def test_runtime_errors_exit_3(self, tiny_model, tiny_dataset, rng, tmp_path, capsys):
        records = stream_records(tiny_model, tiny_dataset, rng)
        boards = tmp_path / "boards"
        export_boards(records[:5], tiny_model, k=3, method="m", out_dir=boards)
        scores = tmp_path / "scores.csv"
        ids = [json.loads(p.read_text())["sample_id"] for p in sorted(boards.glob("*.json"))]
        scores.write_text("sample_id,score\n" + "".join(f"{i},0.5\n" for i in ids))
        code = main(["correlate", "--boards", str(boards), "--scores", str(scores)])
        assert code == 3

"""Synthetic data, corruption operators, source training, persistence."""

from __future__ import annotations

import numpy as np
import pytest

from prototta.cli import main
from prototta.errors import ConfigError, FormatError
from prototta.harness import (
    CORRUPTION_KINDS,
    SEVERITY_TABLES,
    TRAIN_BATCH_SIZE,
    CorruptionSpec,
    SyntheticTaskSpec,
    corrupt,
    evaluate,
    generate_dataset,
    load_dataset,
    save_dataset,
    train_source_model,
)


class TestCorruptionSpec:
    def test_parse_and_str_round_trip(self):
        spec = CorruptionSpec.parse("gaussian_noise:4")
        assert spec == CorruptionSpec("gaussian_noise", 4)
        assert str(spec) == "gaussian_noise:4"

    @pytest.mark.parametrize("text", ["fog:3", "gaussian_noise:0", "gaussian_noise:6", "gaussian_noise", "gaussian_noise:x"])
    def test_invalid_specs_rejected(self, text):
        with pytest.raises(ConfigError):
            CorruptionSpec.parse(text)

    @pytest.mark.parametrize(
        "kind, severity", [("gaussian_noise", True), ("gaussian_noise", 5.0), (5, 3), ("gaussian_noise", "5")]
    )
    def test_ill_typed_fields_rejected(self, kind, severity):
        with pytest.raises(ConfigError, match="corruption (kind|severity) must be"):
            CorruptionSpec(kind, severity)

    def test_strength_monotone_per_kind(self):
        # every parameter grows with severity except contrast_scale's factor, which shrinks
        assert set(SEVERITY_TABLES) == set(CORRUPTION_KINDS)
        for kind, params in SEVERITY_TABLES.items():
            assert len(params) == 5, kind
            steps = [b - a for a, b in zip(params, params[1:])]
            if kind == "contrast_scale":
                assert all(step <= 0 for step in steps), kind
            else:
                assert all(step >= 0 for step in steps), kind


class TestCorruptOperators:
    def test_deterministic_per_seed(self, rng):
        x = rng.normal(size=(32, 16))
        for kind in CORRUPTION_KINDS:
            spec = CorruptionSpec(kind, 3)
            a = corrupt(x, spec, seed=5)
            b = corrupt(x, spec, seed=5)
            assert np.array_equal(a, b), kind

    def test_every_kind_changes_the_input(self, rng):
        x = rng.normal(size=(32, 16))
        for kind in CORRUPTION_KINDS:
            for severity in range(1, 6):
                out = corrupt(x, CorruptionSpec(kind, severity), seed=0)
                assert not np.array_equal(out, x), (kind, severity)

    def test_input_never_mutated(self, rng):
        x = rng.normal(size=(8, 16))
        snapshot = x.copy()
        for kind in CORRUPTION_KINDS:
            corrupt(x, CorruptionSpec(kind, 5), seed=0)
        assert np.array_equal(x, snapshot)

    def test_mean_squared_perturbation_monotone_in_severity(self, rng):
        x = rng.normal(size=(1000, 16))
        for kind in CORRUPTION_KINDS:
            mse = [
                float(((corrupt(x, CorruptionSpec(kind, s), seed=0) - x) ** 2).mean())
                for s in range(1, 6)
            ]
            assert all(b >= a - 1e-12 for a, b in zip(mse, mse[1:])), (kind, mse)

    def test_brightness_is_a_pure_shift(self, rng):
        x = rng.normal(size=(4, 16))
        out = corrupt(x, CorruptionSpec("brightness_shift", 2), seed=0)
        np.testing.assert_allclose(out - x, 0.2, atol=1e-12)

    def test_contrast_preserves_row_means(self, rng):
        x = rng.normal(size=(4, 16))
        out = corrupt(x, CorruptionSpec("contrast_scale", 5), seed=0)
        np.testing.assert_allclose(out.mean(axis=1), x.mean(axis=1), atol=1e-12)

    def test_pixelate_averages_blocks(self):
        x = np.arange(8.0)[None, :]
        out = corrupt(x, CorruptionSpec("block_pixelate", 5), seed=0)
        np.testing.assert_allclose(out[0], [3.5] * 8)  # one block of 8


class TestDatasetGeneration:
    def test_deterministic_per_seed(self):
        spec = SyntheticTaskSpec(samples_per_split=(100, 100))
        a, b = generate_dataset(spec), generate_dataset(spec)
        assert np.array_equal(a.train_x, b.train_x)
        assert np.array_equal(a.test_y, b.test_y)
        different = generate_dataset(SyntheticTaskSpec(samples_per_split=(100, 100), seed=1))
        assert not np.array_equal(a.train_x, different.train_x)

    def test_labels_balanced_within_one(self):
        ds = generate_dataset(SyntheticTaskSpec(samples_per_split=(103, 52)))
        for y in (ds.train_y, ds.test_y):
            counts = np.bincount(y, minlength=5)
            assert counts.max() - counts.min() <= 1

    def test_nearest_centroid_oracle_on_clean_split(self):
        ds = generate_dataset(SyntheticTaskSpec(cluster_spread=0.1, samples_per_split=(500, 500)))
        centers = ds.centers[:, 0, :]  # one cluster per class by default
        dists = ((ds.test_x[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        accuracy = float((dists.argmin(axis=1) == ds.test_y).mean())
        assert accuracy > 0.95

    def test_invalid_specs_rejected(self):
        with pytest.raises(ConfigError):
            SyntheticTaskSpec(num_classes=1)
        for spread in (0.0, float("nan"), float("inf")):
            with pytest.raises(ConfigError):
                SyntheticTaskSpec(cluster_spread=spread)
        with pytest.raises(ConfigError):
            SyntheticTaskSpec(samples_per_split=(0, 10))
        for bad in ({"seed": 1.5}, {"num_classes": True}, {"samples_per_split": (10,)}, {"samples_per_split": (10.0, 10)}):
            with pytest.raises(ConfigError):
                SyntheticTaskSpec(**bad)


class TestSourceTraining:
    @pytest.mark.parametrize("verb", [["gen-data", "--seed", "-1"], ["train", "--seed", "-3"]], ids=["gen-data", "train"])
    def test_negative_seed_exits_2(self, saved_files, tmp_path, capsys, verb):
        out = tmp_path / "out.bin"
        data = ["--data", str(saved_files["dataset"])] if verb[0] == "train" else []
        assert main([*verb, *data, "--out", str(out)]) == 2
        assert "seed" in capsys.readouterr().err
        assert not out.exists()

    def test_training_reaches_target_and_reports_stats(self, tiny_model, tiny_dataset):
        # session fixture trains 3 epochs; verify the reported accuracy matches
        accuracy = evaluate(tiny_model, tiny_dataset.test_x, tiny_dataset.test_y)
        assert accuracy > 0.9

    def test_zero_epochs_returns_initial_model(self, tiny_dataset):
        model, stats = train_source_model(tiny_dataset, epochs=0, seed=0)
        assert stats["epochs"] == 0
        fresh, _ = train_source_model(tiny_dataset, epochs=0, seed=0)
        assert all(
            np.array_equal(model.params[n].data, fresh.params[n].data) for n in model.params
        )

    def test_zero_epochs_reports_initial_accuracy(self, tiny_dataset):
        model, stats = train_source_model(tiny_dataset, epochs=0, seed=0)
        assert stats["clean_accuracy"] == evaluate(model, tiny_dataset.test_x, tiny_dataset.test_y)

    def test_training_calls_replaceable_forward_and_adam(self, tiny_dataset, monkeypatch):
        # timing hooks replace these module attributes, so training must look both up on every step
        from prototta import adapt, harness

        adam_step, model_forward = adapt.adam_step, harness.model_forward
        adam_calls, forward_modes = [], []

        def counting_adam(*args, **kwargs):
            adam_calls.append(1)
            return adam_step(*args, **kwargs)

        def counting_forward(model, x, use_batch_stats=True):
            forward_modes.append(use_batch_stats)
            return model_forward(model, x, use_batch_stats=use_batch_stats)

        monkeypatch.setattr("prototta.adapt.adam_step", counting_adam)
        monkeypatch.setattr("prototta.harness.model_forward", counting_forward)
        train_source_model(tiny_dataset, epochs=1, seed=0)
        minibatches = -(-len(tiny_dataset.train_x) // TRAIN_BATCH_SIZE)
        assert len(adam_calls) == minibatches
        # the training forwards use batch statistics; the final evaluation's do not
        assert forward_modes.count(True) == minibatches

    def test_training_is_seed_deterministic(self, tiny_dataset):
        a, _ = train_source_model(tiny_dataset, epochs=1, seed=3)
        b, _ = train_source_model(tiny_dataset, epochs=1, seed=3)
        assert all(np.array_equal(a.params[n].data, b.params[n].data) for n in a.params)

    def test_training_never_mutates_dataset(self, tiny_dataset):
        before = (tiny_dataset.train_x.copy(), tiny_dataset.train_y.copy())
        train_source_model(tiny_dataset, epochs=1, seed=0)
        assert np.array_equal(tiny_dataset.train_x, before[0])
        assert np.array_equal(tiny_dataset.train_y, before[1])

    def test_evaluation_matches_manual_forward(self, tiny_model, tiny_dataset, rng):
        from prototta.model import model_forward

        idx = rng.permutation(len(tiny_dataset.test_x))[:256]
        x, y = tiny_dataset.test_x[idx], tiny_dataset.test_y[idx]
        preds = model_forward(tiny_model, x, use_batch_stats=False).pseudo_labels
        assert evaluate(tiny_model, x, y) == pytest.approx(float((preds == y).mean()), abs=1e-12)


class TestDatasetPersistence:
    def test_round_trip_evaluates_identically(self, tiny_model, tiny_dataset, tmp_path):
        path = tmp_path / "data.pttd"
        save_dataset(tiny_dataset, path)
        loaded = load_dataset(path)
        assert np.array_equal(loaded.test_x, tiny_dataset.test_x)
        assert np.array_equal(loaded.train_y, tiny_dataset.train_y)
        assert loaded.spec == tiny_dataset.spec
        a = evaluate(tiny_model, loaded.test_x, loaded.test_y)
        b = evaluate(tiny_model, tiny_dataset.test_x, tiny_dataset.test_y)
        assert a == b

    @pytest.mark.parametrize(
        "edit",
        [
            lambda h: {**h, "spec": {**h["spec"], "seed": "x"}},
            lambda h: {**h, "shapes": None},
            lambda h: [h],
            lambda h: {**h, "shapes": {**h["shapes"], "train_x": []}},
            lambda h: {**h, "shapes": {**h["shapes"], "train_x": [-1, h["shapes"]["train_x"][1]]}},
            lambda h: {**h, "spec": {**h["spec"], "seed": 1.5}},
            lambda h: {**h, "spec": {**h["spec"], "cluster_spread": "0.02"}},
            lambda h: {**h, "spec": {**h["spec"], "noise": 0.1}},
        ],
        ids=[
            "seed-string", "shapes-null", "header-list", "empty-shape", "negative-dim",
            "seed-float", "spread-string", "unknown-spec-key",
        ],
    )
    def test_malformed_header_is_format_error(self, tiny_dataset, tmp_path, rewrite_header, edit, capsys):
        path = tmp_path / "data.pttd"
        save_dataset(tiny_dataset, path)
        rewrite_header(path, b"PTTD1", edit)
        with pytest.raises(FormatError):
            load_dataset(path)
        assert main(["train", "--data", str(path), "--out", str(tmp_path / "model.ptta"), "--epochs", "0"]) == 2
        assert str(path) in capsys.readouterr().err

    def test_bad_magic_rejected(self, tiny_dataset, tmp_path):
        path = tmp_path / "data.pttd"
        save_dataset(tiny_dataset, path)
        raw = bytearray(path.read_bytes())
        raw[:5] = b"WRONG"
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError):
            load_dataset(path)

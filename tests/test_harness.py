"""Synthetic data, corruption operators, source training, persistence."""

from __future__ import annotations

import re
from dataclasses import replace

import numpy as np
import pytest

from conftest import finite_difference_grad
from prototta import autodiff as ad
from prototta.autodiff import Tensor
from prototta.cli import main
from prototta.errors import ConfigError, FormatError, InsufficientDataError
from prototta.harness import (
    CORRUPTION_KINDS,
    SEVERITY_TABLES,
    TRAIN_BATCH_SIZE,
    CorruptionSpec,
    SyntheticTaskSpec,
    _prototype_pull,
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

    def test_no_rows_give_no_rows_for_every_kind(self):
        for kind in CORRUPTION_KINDS:
            out = corrupt(np.zeros((0, 16)), CorruptionSpec(kind, 5), seed=0)
            assert out.shape == (0, 16), kind

    def test_impulse_peak_is_the_largest_magnitude(self):
        x = np.array([[-3.0, 0.5], [1.0, -0.25]])
        out = corrupt(np.repeat(x, 500, axis=0), CorruptionSpec("impulse_noise", 5), seed=0)
        assert set(np.abs(out[out != np.repeat(x, 500, axis=0)]).tolist()) == {3.0}


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

    def test_evaluating_no_samples_is_refused(self, tiny_model, tiny_dataset):
        with pytest.raises(InsufficientDataError, match="at least one sample"):
            evaluate(tiny_model, tiny_dataset.test_x[:0], tiny_dataset.test_y[:0])

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

    def test_spread_too_large_for_a_float_is_format_error(self, tiny_dataset, tmp_path, rewrite_header, capsys):
        path = tmp_path / "data.pttd"
        save_dataset(tiny_dataset, path)
        rewrite_header(path, b"PTTD1", lambda h: {**h, "spec": {**h["spec"], "cluster_spread": 10**400}})
        with pytest.raises(FormatError, match="cluster_spread must be finite real"):
            load_dataset(path)
        assert main(["train", "--data", str(path), "--out", str(tmp_path / "model.ptta"), "--epochs", "0"]) == 2
        assert f"{path}: malformed header: cluster_spread must be finite real" in capsys.readouterr().err
        assert not (tmp_path / "model.ptta").exists()

    @pytest.mark.parametrize("split", ["train", "test"])
    def test_a_split_without_rows_is_format_error(self, tiny_dataset, tmp_path, capsys, split):
        path = tmp_path / "data.pttd"
        rows = {f"{split}_x": getattr(tiny_dataset, f"{split}_x")[:0], f"{split}_y": getattr(tiny_dataset, f"{split}_y")[:0]}
        save_dataset(replace(tiny_dataset, **rows), path)
        with pytest.raises(FormatError, match=f"{re.escape(str(path))}: need at least one train and one test row"):
            load_dataset(path)
        model = tmp_path / "model.ptta"
        assert main(["train", "--data", str(path), "--out", str(model), "--epochs", "1"]) == 2
        assert str(path) in capsys.readouterr().err
        assert not model.exists()

    def test_bad_magic_rejected(self, tiny_dataset, tmp_path):
        path = tmp_path / "data.pttd"
        save_dataset(tiny_dataset, path)
        raw = bytearray(path.read_bytes())
        raw[:5] = b"WRONG"
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError):
            load_dataset(path)


def reference_pull(model, features, labels):
    """The prototype pull with each sub-prototype's pick by an explicit argmin of ((f - p) ** 2).sum() over
    its class's features, lowest batch index first on ties; the loss ops after the picks are the pull's."""
    protos = model.prototypes
    num_protos, k, d = protos.shape
    flat = ad.reshape(protos, (num_protos * k, d))
    row_class = np.repeat(model.class_of, k)
    pick = np.zeros((num_protos * k, len(labels)))
    for row, p in enumerate(flat.data):
        candidates = np.flatnonzero(labels == row_class[row])
        if candidates.size:
            pick[row, candidates[np.argmin(((features.data[candidates] - p) ** 2).sum(axis=1))]] = 1.0
    targets = ad.matmul(Tensor(pick), features)
    mask = (pick.sum(axis=1) > 0).astype(np.float64)[:, None]
    diff = ad.mul(Tensor(mask), ad.sub(flat, targets))
    return ad.reduce_mean(ad.mul(diff, diff))


def pull_with_grads(pull, model, feats, labels):
    """The pull's value and its gradients with respect to the prototypes and the features."""
    model.set_trainable(["prototypes"])
    features = Tensor(feats.copy(), requires_grad=True)
    tape = ad.Tape()
    with tape:
        loss = pull(model, features, labels)
    ad.backward(tape, loss)
    result = loss.item(), model.prototypes.grad.copy(), features.grad.copy()
    tape.clear()
    model.set_trainable([])
    return result


class TestPrototypePull:
    @pytest.fixture()
    def batch(self, small_model, rng):
        """Features near the small model's sub-prototypes, labels 0 and 1 alternating; class 2 absent."""
        flat = small_model.prototypes.data.reshape(-1, small_model.prototypes.shape[-1])
        feats = flat[rng.integers(0, len(flat), 12)] + rng.normal(scale=0.5, size=(12, flat.shape[1]))
        return feats, np.arange(12) % 2

    def shaped(self, small_model, batch, kind):
        feats, labels = batch[0].copy(), batch[1].copy()
        if kind == "one-sample-class":
            labels[5] = 2
        elif kind == "duplicate":
            # two copies of a class-0 feature next to a class-0 sub-prototype, so some row picks them
            row = int(np.flatnonzero(np.repeat(small_model.class_of, small_model.prototypes.shape[1]) == 0)[0])
            feats[2] = feats[8] = small_model.prototypes.data.reshape(-1, feats.shape[1])[row] + 1e-3
        return feats, labels

    @pytest.mark.parametrize("kind", ["missing-class", "one-sample-class", "duplicate"])
    def test_matches_the_brute_force_search(self, small_model, batch, kind):
        feats, labels = self.shaped(small_model, batch, kind)
        value, proto_grad, feat_grad = pull_with_grads(_prototype_pull, small_model, feats, labels)
        want = pull_with_grads(reference_pull, small_model, feats, labels)
        assert value == want[0]
        assert np.array_equal(proto_grad, want[1]) and np.array_equal(feat_grad, want[2])
        protos = small_model.prototypes.data
        rows = protos.reshape(-1, protos.shape[-1])
        row_class = np.repeat(small_model.class_of, protos.shape[1])
        nearest = [((feats[labels == c] - p) ** 2).sum(axis=1).min() if (labels == c).any() else 0.0
                   for p, c in zip(rows, row_class)]
        assert value == pytest.approx(sum(nearest) / rows.size, rel=1e-12)
        # the rows of a class absent from the batch add nothing and take no gradient
        absent = ~np.isin(row_class, labels)
        assert absent.any() == (kind != "one-sample-class")
        assert not proto_grad.reshape(len(rows), -1)[absent].any()
        if kind == "duplicate":
            assert feat_grad[2].any() and not feat_grad[8].any()

    def test_gradient_matches_finite_differences(self, small_model, batch):
        feats, labels = self.shaped(small_model, batch, "one-sample-class")
        _, proto_grad, feat_grad = pull_with_grads(_prototype_pull, small_model, feats, labels)
        fd_protos = finite_difference_grad(
            lambda _: _prototype_pull(small_model, Tensor(feats), labels).item(), small_model.prototypes
        ).data
        fd_feats = finite_difference_grad(
            lambda t: _prototype_pull(small_model, t, labels).item(), Tensor(feats.copy())
        ).data
        assert np.allclose(proto_grad, fd_protos, rtol=1e-6, atol=1e-9)
        assert np.allclose(feat_grad, fd_feats, rtol=1e-6, atol=1e-9)
        assert feat_grad.any() and proto_grad.any()

    def test_training_with_the_brute_force_search_is_bit_identical(self, tiny_dataset, monkeypatch):
        want, _ = train_source_model(tiny_dataset, epochs=2, seed=0)
        monkeypatch.setattr("prototta.harness._prototype_pull", reference_pull)
        got, _ = train_source_model(tiny_dataset, epochs=2, seed=0)
        assert all(np.array_equal(want.params[n].data, got.params[n].data) for n in want.params)

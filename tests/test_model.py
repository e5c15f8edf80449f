"""Prototype model: mappings, aggregation, forward invariants, persistence."""

from __future__ import annotations

import math
import os
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import finite_difference_grad
from prototta import autodiff as ad
from prototta.adapt import TTAConfig, adapt_batch, init_optimizer, iter_batches, run_stream
from prototta.autodiff import Tensor
from prototta.cli import main
from prototta.bench import method_presets
from prototta.errors import ConfigError, DegenerateInputError, DomainError, FormatError, ShapeError
from prototta.harness import evaluate, train_source_model
from prototta.model import (
    EPS_CLAMP,
    BackboneConfig,
    MappingScheme,
    ModelConfig,
    PrototypeModel,
    backbone_features,
    frozen_prototypes,
    load_model,
    log_inverse_kernel,
    map_similarity,
    model_forward,
    prototype_contributions,
    save_model,
    update_running_stats,
    write_file,
)

finite_floats = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)


class TestMappings:
    def test_linear_endpoints_and_midpoint(self):
        mapped = map_similarity(Tensor(np.array([-1.0, 0.0, 1.0])), MappingScheme("linear")).data
        np.testing.assert_allclose(mapped, [EPS_CLAMP, 0.5, 1.0 - EPS_CLAMP], atol=1e-15)

    def test_sigmoid_midpoint_at_default_temperature(self):
        scheme = MappingScheme("temp_sigmoid")
        assert scheme.temperature == 5.0
        mapped = map_similarity(Tensor(np.array([0.0])), scheme).data
        assert mapped[0] == pytest.approx(0.5, abs=1e-12)

    def test_log_inverse_kernel_at_zero_distance(self):
        assert log_inverse_kernel(np.array([0.0])).data[0] == pytest.approx(
            math.log(1e4), abs=1e-9
        )

    def test_log_inverse_normalizes_to_unit_range(self, rng):
        d = rng.uniform(0, 4, (16, 10))
        mapped = map_similarity(Tensor(d), MappingScheme("log_inverse_distance")).data
        assert mapped.min() == pytest.approx(EPS_CLAMP, abs=1e-12)
        assert mapped.max() == pytest.approx(1.0 - EPS_CLAMP, abs=1e-12)

    def test_log_inverse_constant_block_maps_to_half(self):
        mapped = map_similarity(
            Tensor(np.full((3, 2), 1.5)), MappingScheme("log_inverse_distance")
        ).data
        np.testing.assert_allclose(mapped, 0.5)

    @given(st.lists(finite_floats, min_size=2, max_size=8, unique=True))
    def test_linear_and_sigmoid_are_monotone_in_similarity(self, sims):
        raw = np.sort(np.asarray(sims))
        for kind in ("linear", "temp_sigmoid"):
            mapped = map_similarity(Tensor(raw), MappingScheme(kind)).data
            assert (np.diff(mapped) >= 0).all()

    @given(st.lists(st.floats(0.0, 5.0), min_size=2, max_size=8, unique=True))
    def test_log_inverse_is_monotone_decreasing_in_distance(self, dists):
        raw = np.sort(np.asarray(dists))
        mapped = map_similarity(Tensor(raw), MappingScheme("log_inverse_distance")).data
        assert (np.diff(mapped) <= 0).all()

    def test_mapped_values_clamped(self, rng):
        for kind in ("linear", "temp_sigmoid"):
            mapped = map_similarity(Tensor(rng.uniform(-1, 1, 50)), MappingScheme(kind)).data
            assert (mapped >= EPS_CLAMP).all() and (mapped <= 1 - EPS_CLAMP).all()

    def test_similarity_domain_enforced(self):
        with pytest.raises(DomainError):
            map_similarity(Tensor(np.array([1.5])), MappingScheme("linear"))
        with pytest.raises(DomainError):
            map_similarity(Tensor(np.array([-0.1])), MappingScheme("log_inverse_distance"))

    def test_unknown_mapping_kind_rejected(self):
        with pytest.raises(ConfigError):
            MappingScheme("logistic")


def _forward_agg(model, x, aggregation, agg_k=None):
    cfg = model.config
    alt = ModelConfig(
        backbone=cfg.backbone,
        num_classes=cfg.num_classes,
        protos_per_class=cfg.protos_per_class,
        sub_prototypes=cfg.sub_prototypes,
        aggregation=aggregation,
        agg_k=agg_k,
        mapping=cfg.mapping,
    )
    clone = PrototypeModel(alt, seed=0)
    clone.load_snapshot(model.state_snapshot())
    return model_forward(clone, x, use_batch_stats=False)


class TestForward:
    def test_topk_extremes_match_max_and_mean(self, small_model, rng):
        x = rng.normal(size=(64, 8))
        k_max = small_model.config.sub_prototypes
        top1 = _forward_agg(small_model, x, "topk_mean", 1).agg_sims.data
        as_max = _forward_agg(small_model, x, "max").agg_sims.data
        topk = _forward_agg(small_model, x, "topk_mean", k_max).agg_sims.data
        as_mean = _forward_agg(small_model, x, "mean").agg_sims.data
        assert np.array_equal(top1, as_max)
        assert np.array_equal(topk, as_mean)

    def test_logits_linear_in_head_scale(self, small_model, rng):
        x = rng.normal(size=(8, 8))
        out = model_forward(small_model, x, use_batch_stats=False)
        scaled = small_model.copy()
        scaled.head.data *= 3.0
        out2 = model_forward(scaled, x, use_batch_stats=False)
        np.testing.assert_allclose(out2.logits.data, 3.0 * out.logits.data, atol=1e-12)
        assert np.array_equal(out2.pseudo_labels, out.pseudo_labels)

    def test_output_invariants(self, small_model, rng, unit_cosines):
        x = rng.normal(size=(32, 8))
        out = model_forward(small_model, x, use_batch_stats=False)
        s = out.mapped_sims.data
        assert (s >= EPS_CLAMP).all() and (s <= 1 - EPS_CLAMP).all()
        np.testing.assert_allclose(out.probs.data.sum(axis=1), 1.0, atol=1e-9)
        np.testing.assert_allclose(out.confidences, out.probs.data.max(axis=1), atol=1e-15)
        assert np.array_equal(out.pseudo_labels, out.probs.data.argmax(axis=1))
        assert out.agg_sims.shape == (32, len(small_model.class_of))
        # agg_k is 1 here, so the activations are the top cosine of each prototype; with
        # K = 2, the top cosine and the mean consensus together fix every sub-prototype cosine
        cosines = unit_cosines(out.features.data, small_model.prototypes.data)
        np.testing.assert_allclose(out.agg_sims.data, cosines.max(axis=-1), rtol=0, atol=1e-12)
        as_mean = _forward_agg(small_model, x, "mean").agg_sims.data
        np.testing.assert_allclose(as_mean, cosines.mean(axis=-1), rtol=0, atol=1e-12)

    def test_zero_features_are_degenerate(self, small_model, rng):
        last = len(small_model.config.backbone.hidden_dims) - 1
        for part in ("norm.gamma", "norm.beta", "attn_bias"):
            small_model.params[f"backbone.{last}.{part}"].data[:] = 0.0
        with pytest.raises(DegenerateInputError, match="operand a"):
            model_forward(small_model, rng.normal(size=(4, 8)), use_batch_stats=False)

    def test_input_without_rows_is_a_shape_error(self, small_model):
        for trainable in (False, True):
            small_model.prototypes.requires_grad = trainable
            with pytest.raises(ShapeError, match=r"n >= 1, got \(0, 8\)"):
                model_forward(small_model, np.zeros((0, 8)))

    def test_logits_are_aggregated_sims_through_head(self, small_model, rng):
        out = model_forward(small_model, rng.normal(size=(4, 8)), use_batch_stats=False)
        np.testing.assert_allclose(
            out.logits.data, out.agg_sims.data @ small_model.head.data.T, atol=1e-12
        )

    def test_prototype_contributions_definition(self, small_model, rng):
        out = model_forward(small_model, rng.normal(size=(4, 8)), use_batch_stats=False)
        contrib = prototype_contributions(out.agg_sims.data, small_model.head.data, cls=1)
        expected = out.agg_sims.data * np.abs(small_model.head.data[1])
        np.testing.assert_allclose(contrib, expected, atol=1e-15)
        with pytest.raises(ConfigError):
            prototype_contributions(out.agg_sims.data, small_model.head.data, cls=9)

    def test_prototype_contributions_one_class_per_row(self, small_model, rng):
        out = model_forward(small_model, rng.normal(size=(4, 8)), use_batch_stats=False)
        act, head = out.agg_sims.data, small_model.head.data
        classes = np.array([2, 0, 1, 0])
        contrib = prototype_contributions(act, head, classes)
        for i, cls in enumerate(classes):
            assert np.array_equal(contrib[i], prototype_contributions(act[i], head, cls))
        with pytest.raises(ConfigError):
            prototype_contributions(act, head, np.array([0, 1, 9, 0]))

    def test_forward_accepts_plain_arrays_and_is_pure(self, small_model, rng):
        x = rng.normal(size=(4, 8))
        before = small_model.state_snapshot()
        model_forward(small_model, x, use_batch_stats=False)
        after = small_model.state_snapshot()
        assert all(np.array_equal(before[k], after[k]) for k in before)


def _fd_error(build, tensor: Tensor) -> float:
    """Worst relative error of the tape gradient of ``build()`` in ``tensor`` against central differences."""
    tensor.requires_grad = True
    tape = ad.Tape()
    with tape:
        loss = build()
    ad.backward(tape, loss)
    analytic = tensor.grad.copy()
    tensor.requires_grad = False
    fd = finite_difference_grad(lambda _: build().item(), tensor).data
    return float((np.abs(analytic - fd) / np.maximum(np.abs(fd), 1e-6)).max())


class TestMeanConsensus:
    """A k = K consensus over frozen prototypes: the unit feature row dotted with the mean unit sub-prototype."""

    @pytest.fixture()
    def model(self):
        config = ModelConfig(
            backbone=BackboneConfig(input_dim=8, hidden_dims=(16,), has_onexone=True),
            num_classes=3,
            protos_per_class=2,
            sub_prototypes=4,
            aggregation="mean",
        )
        return PrototypeModel(config, seed=1)

    @staticmethod
    def loss(out, weights: np.ndarray):
        # the activations reach the loss through the mapping and through the head
        return ad.add(ad.reduce_sum(ad.mul(out.mapped_sims, weights)), ad.reduce_sum(ad.mul(out.probs, weights[:, :3])))

    def test_gradient_matches_finite_differences(self, model, rng, monkeypatch):
        x = rng.normal(size=(12, 8))
        weights = rng.normal(size=(12, 6))
        features = Tensor(model_forward(model, x).features.data)
        with monkeypatch.context() as patched:
            patched.setattr("prototta.model.backbone_features", lambda *_: features)
            assert _fd_error(lambda: self.loss(model_forward(model, x), weights), features) < 1e-5
        for name in model.adaptable_param_names("all_adaptive"):
            assert _fd_error(lambda: self.loss(model_forward(model, x), weights), model.params[name]) < 1e-5, name

    @pytest.mark.parametrize("aggregation, agg_k", [("mean", None), ("topk_mean", 4)])
    def test_activations_are_the_mean_unit_cosine(self, model, rng, unit_cosines, aggregation, agg_k):
        model = model.copy(replace(model.config, aggregation=aggregation, agg_k=agg_k))
        out = model_forward(model, rng.normal(size=(32, 8)))
        expected = unit_cosines(out.features.data, model.prototypes.data).mean(axis=-1)
        np.testing.assert_allclose(out.agg_sims.data, expected, rtol=0, atol=1e-12)

    def test_trainable_prototypes_still_get_a_gradient(self, model, rng):
        model.set_trainable(["prototypes"])
        tape = ad.Tape()
        with tape:
            loss = self.loss(model_forward(model, rng.normal(size=(12, 8))), rng.normal(size=(12, 6)))
        ad.backward(tape, loss)
        # every sub-prototype gets a gradient, so training stays on the n x P x K path
        assert (np.abs(model.prototypes.grad).max(axis=-1) > 0).all()

    def test_antipodal_sub_prototypes_give_zero(self, small_model, rng, unit_cosines):
        x = rng.normal(size=(16, 8))
        small_model.prototypes.data[3, 1] = -small_model.prototypes.data[3, 0]
        model = small_model.copy(replace(small_model.config, aggregation="mean"))
        out = model_forward(model, x)
        assert (out.agg_sims.data[:, 3] == 0.0).all()
        model.prototypes.requires_grad = True  # the n x P x K path
        assert (model_forward(model, x).agg_sims.data[:, 3] == 0.0).all()
        rest = np.delete(unit_cosines(out.features.data, model.prototypes.data).mean(axis=-1), 3, axis=1)
        np.testing.assert_allclose(np.delete(out.agg_sims.data, 3, axis=1), rest, rtol=0, atol=1e-12)

    def test_zero_norm_sub_prototype_is_degenerate(self, model, rng):
        model.prototypes.data[2, 3] = 0.0
        # sub-prototype 3 of prototype 2 is row 2 * K + 3 of the P*K sub-prototypes
        with pytest.raises(DegenerateInputError, match="zero-norm row 11 "):
            model_forward(model, rng.normal(size=(4, 8)))


class TestPrototypeBank:
    """Frozen forwards take the prototype constants from one bank per stream or evaluation."""

    @pytest.fixture()
    def normalisations(self, monkeypatch, tiny_model):
        """Every row normalisation of a P*K x d sub-prototype matrix, by the shape of its input."""
        calls = []
        unit = ad._unit
        P, K, d = tiny_model.prototypes.shape

        def counting(x, label):
            if x.shape == (P * K, d):
                calls.append(label)
            return unit(x, label)

        monkeypatch.setattr("prototta.autodiff._unit", counting)
        return calls

    @pytest.mark.parametrize("aggregation", ["max", "mean", "topk_mean"])
    def test_pinned_bank_gives_the_bits_of_a_bank_per_forward(self, tiny_model, rng, aggregation):
        model = tiny_model.copy(replace(tiny_model.config, aggregation=aggregation, agg_k=None))
        names = model.adaptable_param_names("all_adaptive")
        x = rng.normal(size=(48, 32))
        weights = rng.normal(size=(48, model.config.num_prototypes))

        def forward_and_grads():
            model.set_trainable(names)
            tape = ad.Tape()
            with tape:
                out = model_forward(model, x)
                loss = ad.add(ad.reduce_sum(ad.mul(out.mapped_sims, weights)), ad.reduce_sum(out.logits))
            ad.backward(tape, loss)
            grads = [model.params[n].grad for n in names]
            model.set_trainable([])
            return out, grads

        alone, alone_grads = forward_and_grads()
        with frozen_prototypes(model):
            pinned, pinned_grads = forward_and_grads()
        for name in ("agg_sims", "logits", "mapped_sims"):
            assert np.array_equal(getattr(alone, name).data, getattr(pinned, name).data), name
        for name, a, b in zip(names, alone_grads, pinned_grads):
            assert np.array_equal(a, b), name

    @pytest.mark.parametrize("method", ["unadapted", "tent", "prototta", "prototta_plus"])
    def test_one_normalisation_per_stream(self, tiny_model, tiny_dataset, normalisations, method):
        x, y = tiny_dataset.test_x[:192], tiny_dataset.test_y[:192]
        run_stream(tiny_model.copy(), iter_batches(x, y, 64), method_presets()[method])
        assert normalisations == ["b"]

    def test_one_normalisation_per_evaluation(self, tiny_model, tiny_dataset, normalisations):
        assert len(tiny_dataset.test_x) > 512  # several batches
        evaluate(tiny_model, tiny_dataset.test_x, tiny_dataset.test_y)
        assert normalisations == ["b"]
        model_forward(tiny_model, tiny_dataset.test_x[:8])  # no bank pinned: one for the call
        assert normalisations == ["b", "b"]

    @pytest.mark.parametrize("method", ["unadapted", "tent", "prototta"])
    def test_zero_norm_sub_prototype_is_degenerate_in_streams_and_evaluation(self, tiny_model, tiny_dataset, method):
        model = tiny_model.copy()
        model.prototypes.data[2, 3] = 0.0
        x, y = tiny_dataset.test_x[:64], tiny_dataset.test_y[:64]
        with pytest.raises(DegenerateInputError, match="zero-norm row 11 "):
            run_stream(model, [(x, y)], method_presets()[method])
        with pytest.raises(DegenerateInputError, match="zero-norm row 11 "):
            evaluate(model, x, y)
        assert model._bank is None
        assert all(not t.requires_grad and t.grad is None for t in model.params.values())

    @pytest.mark.parametrize("method", ["unadapted", "tent", "prototta"])
    def test_a_stream_that_raises_leaves_no_bank_pinned(self, tiny_model, tiny_dataset, monkeypatch, method):
        pinned = []

        def recording(*models):
            pinned.extend(models)
            return frozen_prototypes(*models)

        monkeypatch.setattr("prototta.adapt.frozen_prototypes", recording)
        x = tiny_dataset.test_x[:128].copy()
        x[70, 3] = np.nan  # in the second batch
        with pytest.raises(DomainError):
            run_stream(tiny_model.copy(), iter_batches(x, None, 64), method_presets()[method])
        assert len(pinned) == (1 if method == "unadapted" else 2)
        assert all(m._bank is None for m in pinned)

    def test_an_in_place_prototype_write_reaches_the_next_stream(self, tiny_model, tiny_dataset):
        model = tiny_model.copy()
        x, y = tiny_dataset.test_x[:64], tiny_dataset.test_y[:64]
        tent = method_presets()["tent"]
        first = run_stream(model, [(x, y)], tent).sample_blocks[0].clean_activations
        model.prototypes.data[0] *= -1.0
        expected = model_forward(model, x, use_batch_stats=False).agg_sims.data
        second = run_stream(model, [(x, y)], tent).sample_blocks[0].clean_activations
        assert np.array_equal(second, expected)
        assert not np.array_equal(second[:, 0], first[:, 0])


class TestAdaptableSets:
    def test_modes_are_nested_and_exclude_frozen(self, small_model):
        norm = set(small_model.adaptable_param_names("norm_only"))
        addons = set(small_model.adaptable_param_names("norm_plus_addons"))
        everything = set(small_model.adaptable_param_names("all_adaptive"))
        assert norm < addons <= everything
        for names in (norm, addons, everything):
            assert "prototypes" not in names and "head.weight" not in names
        assert any(name.endswith("attn_bias") for name in addons - norm)
        assert "backbone.mix.weight" in everything

    def test_every_class_owns_prototypes(self, small_model):
        counts = np.bincount(small_model.class_of, minlength=small_model.config.num_classes)
        assert (counts >= 1).all()
        norms = np.linalg.norm(small_model.prototypes.data, axis=-1)
        assert (norms > 1e-6).all()

    def test_unknown_mode_rejected(self, small_model):
        with pytest.raises(ConfigError):
            small_model.adaptable_param_names("everything")


class TestBatchNormModes:
    def test_batch_vs_running_statistics_differ(self, rng):
        config = ModelConfig(
            backbone=BackboneConfig(input_dim=8, hidden_dims=(16,), norm_kind="batch_norm"),
            num_classes=3,
            protos_per_class=2,
            sub_prototypes=2,
        )
        model = PrototypeModel(config, seed=0)
        update_running_stats(model, rng.normal(size=(256, 8)))
        x = rng.normal(size=(16, 8)) + 2.0  # shifted batch
        with_batch = model_forward(model, x, use_batch_stats=True).logits.data
        with_running = model_forward(model, x, use_batch_stats=False).logits.data
        assert not np.allclose(with_batch, with_running)

    def test_running_stats_of_a_set_reproduce_its_batch_forward(self, rng):
        config = ModelConfig(
            backbone=BackboneConfig(
                input_dim=8, hidden_dims=(16, 12), norm_kind="batch_norm", has_onexone=True
            ),
            num_classes=3,
            protos_per_class=2,
            sub_prototypes=3,
        )
        model = PrototypeModel(config, seed=1)
        x = rng.normal(size=(64, 8))
        update_running_stats(model, x)
        running = model_forward(model, x, use_batch_stats=False)
        batch = model_forward(model, x, use_batch_stats=True)
        assert np.array_equal(running.features.data, batch.features.data)
        assert np.array_equal(running.logits.data, batch.logits.data)

    def test_layer_norm_ignores_batch_composition(self, small_model, rng):
        x = rng.normal(size=(8, 8))
        full = model_forward(small_model, x, use_batch_stats=True).logits.data
        halves = np.vstack(
            [
                model_forward(small_model, x[:4], use_batch_stats=True).logits.data,
                model_forward(small_model, x[4:], use_batch_stats=True).logits.data,
            ]
        )
        np.testing.assert_allclose(full, halves, atol=1e-12)


@pytest.fixture(scope="module")
def running_bn_model():
    """An untrained two-layer batch_norm model with a mixing layer, on running statistics of 256 samples."""
    config = ModelConfig(
        backbone=BackboneConfig(input_dim=32, hidden_dims=(24, 16), norm_kind="batch_norm", has_onexone=True),
        num_classes=3,
        protos_per_class=2,
        sub_prototypes=3,
    )
    model = PrototypeModel(config, seed=2)
    update_running_stats(model, np.random.default_rng(2).normal(size=(256, 32)))
    return model


eval_batches = st.tuples(
    st.integers(0, 2**32 - 1), st.integers(1, 48), st.lists(st.integers(1, 47), max_size=4)
)


class TestEvalRowsArePerSample:
    """Eval-mode rows depend on the sample alone, for the default layer_norm model and batch_norm on running statistics."""

    @staticmethod
    def batches(model, seed, n, cuts):
        x = np.random.default_rng(seed).normal(0.0, 1.5, (n, model.config.backbone.input_dim))
        return x, np.split(x, sorted({c for c in cuts if c < n}))

    @pytest.mark.parametrize("name", ["tiny_model", "running_bn_model"])
    @settings(max_examples=25, deadline=None)
    @given(batch=eval_batches)
    def test_any_split_gives_the_same_rows(self, request, name, batch):
        model = request.getfixturevalue(name)
        x, parts = self.batches(model, *batch)
        whole = model_forward(model, x, use_batch_stats=False)
        split = [model_forward(model, part, use_batch_stats=False) for part in parts]
        assert np.array_equal(whole.pseudo_labels, np.concatenate([o.pseudo_labels for o in split]))
        # equal to rounding, not bit for bit: BLAS multiplies a batch of a few rows with other kernels
        for field_name in ("agg_sims", "logits"):
            rows = np.concatenate([getattr(o, field_name).data for o in split])
            np.testing.assert_allclose(rows, getattr(whole, field_name).data, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("name", ["tiny_model", "running_bn_model"])
    @settings(max_examples=25, deadline=None)
    @given(batch=eval_batches, order_seed=st.integers(0, 2**32 - 1))
    def test_permuting_a_batch_permutes_its_rows(self, request, name, batch, order_seed):
        model = request.getfixturevalue(name)
        x, _ = self.batches(model, *batch)
        order = np.random.default_rng(order_seed).permutation(len(x))
        whole = model_forward(model, x, use_batch_stats=False)
        permuted = model_forward(model, x[order], use_batch_stats=False)
        assert np.array_equal(permuted.pseudo_labels, whole.pseudo_labels[order])
        for field_name in ("agg_sims", "logits", "mapped_sims"):
            assert np.array_equal(getattr(permuted, field_name).data, getattr(whole, field_name).data[order])


class TestLazyMapping:
    """The similarity mapping runs only where its output is read, and once per forward."""

    @pytest.fixture()
    def map_calls(self, monkeypatch):
        calls = []

        def counting(raw, scheme, *log_inverse_range):
            calls.append(raw.shape)
            return map_similarity(raw, scheme, *log_inverse_range)

        monkeypatch.setattr("prototta.model.map_similarity", counting)
        return calls

    def test_evaluation_and_training_never_map(self, tiny_dataset, map_calls):
        model, _ = train_source_model(tiny_dataset, epochs=1, seed=0)
        evaluate(model, tiny_dataset.test_x, tiny_dataset.test_y)
        assert map_calls == []

    def test_a_prototta_batch_maps_once(self, tiny_model, tiny_dataset, map_calls):
        model = tiny_model.copy()
        cfg = TTAConfig(method="prototta", tau_sim=0.1)
        params = [p for _, p in model.adaptable_params(cfg.param_mode)]
        model.set_trainable(model.adaptable_param_names(cfg.param_mode))
        _, record = adapt_batch(model, (tiny_dataset.test_x[:64], None), cfg, init_optimizer(params))
        assert record.selected > 0 and not record.skipped
        assert len(map_calls) == 1

    def test_mapped_sims_is_computed_once(self, tiny_model, rng, map_calls):
        out = model_forward(tiny_model, rng.normal(size=(8, 32)), use_batch_stats=False)
        assert map_calls == []
        assert out.mapped_sims is out.mapped_sims
        assert map_calls == [(8, tiny_model.config.num_prototypes)]

    def test_taped_forward_records_one_op_per_backbone_layer(self, rng):
        for backbone in (BackboneConfig(), BackboneConfig(hidden_dims=(24, 16), norm_kind="batch_norm")):
            model = PrototypeModel(ModelConfig(backbone), seed=0)
            model.set_trainable(model.param_names())
            tape = ad.Tape()
            with tape:
                backbone_features(model, Tensor(rng.normal(size=(8, 32))))
            assert len(tape) == len(backbone.hidden_dims)


class TestPersistence:
    def test_save_load_round_trip(self, small_model, tmp_path, rng):
        path = tmp_path / "model.bin"
        save_model(small_model, path)
        loaded = load_model(path)
        x = rng.normal(size=(8, 8))
        a = model_forward(small_model, x, use_batch_stats=False)
        b = model_forward(loaded, x, use_batch_stats=False)
        assert np.array_equal(a.logits.data, b.logits.data)
        assert loaded.config.to_dict() == small_model.config.to_dict()

    def test_bad_magic_rejected(self, small_model, tmp_path):
        path = tmp_path / "model.bin"
        save_model(small_model, path)
        raw = bytearray(path.read_bytes())
        raw[:5] = b"NOPE!"
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError):
            load_model(path)

    def test_truncated_file_rejected(self, small_model, tmp_path):
        path = tmp_path / "model.bin"
        save_model(small_model, path)
        path.write_bytes(path.read_bytes()[:-16])
        with pytest.raises(FormatError):
            load_model(path)

    def test_failed_save_keeps_the_old_file(self, small_model, tmp_path, monkeypatch):
        path = tmp_path / "model.bin"
        save_model(small_model, path)
        before = path.read_bytes()

        def torn_write(target, data):
            write_file(target, data[: len(data) // 2])
            raise OSError("disk gone")

        monkeypatch.setattr("prototta.model.write_file", torn_write)
        with pytest.raises(OSError, match="disk gone"):
            save_model(small_model, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.bin"]

    def test_resave_replaces_the_file(self, small_model, tmp_path):
        path = tmp_path / "model.bin"
        save_model(small_model, path)
        first = path.stat().st_ino
        save_model(small_model, path)
        assert path.stat().st_ino != first
        assert [p.name for p in tmp_path.iterdir()] == ["model.bin"]
        load_model(path)

    def test_tampered_class_map_rejected(self, small_model, tmp_path):
        path = tmp_path / "model.bin"
        save_model(small_model, path)
        raw = path.read_bytes()
        stored = b'"class_of":[0,0,1,1,2,2]'
        assert stored in raw
        # same length, so the stored header size still holds
        path.write_bytes(raw.replace(stored, b'"class_of":[0,1,0,1,2,2]'))
        with pytest.raises(FormatError, match="class_of"):
            load_model(path)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda h: {**h, "config": {**h["config"], "num_classes": "five"}},
            lambda h: {**h, "running_stat_layers": [7]},
            lambda h: [h],
            lambda h: {**h, "tensors": 5},
            lambda h: {**h, "config": {**h["config"], "backbone": None}},
            lambda h: {**h, "config": {**h["config"], "mapping": {**h["config"]["mapping"], "temperature": math.nan}}},
            lambda h: {
                **h,
                "config": {**h["config"], "backbone": {**h["config"]["backbone"], "has_attention_bias": "false"}},
            },
            lambda h: {**h, "config": {**h["config"], "agg_k": 1.9}},
            lambda h: {**h, "config": {**h["config"], "dropout": 0.1}},
            lambda h: {**h, "config": {k: v for k, v in h["config"].items() if k != "mapping"}},
            lambda h: {**h, "tensors": [[name, [float(d) for d in shape]] for name, shape in h["tensors"]]},
        ],
        ids=[
            "num-classes-string", "unknown-stat-layer", "header-list", "tensors-int", "backbone-null",
            "temperature-nan", "attention-bias-string", "agg-k-float", "unknown-config-key", "mapping-missing",
            "tensor-dims-float",
        ],
    )
    def test_malformed_header_is_format_error(self, small_model, tmp_path, rewrite_header, edit, capsys):
        path = tmp_path / "model.bin"
        save_model(small_model, path)
        rewrite_header(path, b"PTTA1", edit)
        with pytest.raises(FormatError):
            load_model(path)
        records = tmp_path / "records.jsonl"
        records.write_text("")
        argv = ["boards", "--records", str(records), "--model", str(path), "--out", str(tmp_path / "b"), "--method", "m"]
        assert main(argv) == 2
        assert str(path) in capsys.readouterr().err

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            ModelConfig(num_classes=1)
        with pytest.raises(ConfigError):
            ModelConfig(aggregation="median")
        with pytest.raises(ConfigError):
            ModelConfig(sub_prototypes=2, agg_k=3)
        assert ModelConfig(sub_prototypes=4).agg_k == 2

    @pytest.mark.parametrize(
        "make",
        [
            lambda: MappingScheme(temperature=math.nan),
            lambda: BackboneConfig(input_dim=1.5),
            lambda: BackboneConfig(hidden_dims=("16",)),
            lambda: BackboneConfig(has_onexone="false"),
            lambda: ModelConfig(agg_k=True),
            lambda: ModelConfig(backbone={"input_dim": 8, "depth": 2}),
        ],
        ids=["temperature-nan", "input-dim-float", "hidden-dim-string", "onexone-string", "agg-k-bool", "backbone-unknown-key"],
    )
    def test_ill_typed_config_fields_rejected(self, make):
        with pytest.raises(ConfigError):
            make()


class TestWriteFile:
    @pytest.mark.parametrize("old, new", [(b"x" * 300, b"short"), (b"short", b"y" * 300)], ids=["shrink", "grow"])
    def test_overwrite_leaves_exactly_the_new_bytes(self, tmp_path, old, new):
        path = tmp_path / "f.bin"
        write_file(path, old)
        write_file(path, new)
        assert path.read_bytes() == new

    def test_text_is_utf8(self, tmp_path):
        path = tmp_path / "f.txt"
        write_file(path, "± µ\n")
        assert path.read_bytes() == "± µ\n".encode("utf-8")

    @pytest.mark.parametrize("umask", [0o002, 0o022, 0o077])
    def test_new_file_mode_matches_open_w(self, tmp_path, umask):
        old = os.umask(umask)
        try:
            with open(tmp_path / "reference", "w"):
                pass
            write_file(tmp_path / "written", "x")
        finally:
            os.umask(old)
        assert (tmp_path / "written").stat().st_mode == (tmp_path / "reference").stat().st_mode

    def test_directory_target_rejected(self, tmp_path):
        with pytest.raises(IsADirectoryError):
            write_file(tmp_path, "x")

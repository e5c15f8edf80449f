"""Gradient checks and semantic properties of the autodiff kernel and of the fused ops recorded through it."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import finite_difference_grad
import prototta.autodiff as ad
from prototta.adapt import binary_entropy
from prototta.autodiff import Tape, Tensor
from prototta.errors import DegenerateInputError, DomainError, ShapeError
from prototta.model import EPS_CLAMP, MAPPING_KINDS, MappingScheme, log_inverse_kernel, map_similarity


def check_grad(build, param_data, tol=1e-4, eps=1e-5):
    """Compare analytic and central-difference gradients of a scalar loss.

    ``build(param_tensor) -> Tensor`` must construct the scalar loss from
    scratch so finite differences see the perturbed values.
    """
    param = Tensor(np.asarray(param_data, dtype=np.float64), requires_grad=True)
    tape = Tape()
    with tape:
        loss = build(param)
    ad.backward(tape, loss)
    analytic = param.grad.copy()
    fd = finite_difference_grad(lambda p: build(p).item(), param, eps=eps).data
    denom = np.maximum(np.abs(fd), 1e-6)
    rel = np.abs(analytic - fd) / denom
    assert rel.max() < tol, f"max relative error {rel.max():.3e}"


def bits(a) -> np.ndarray:
    return np.asarray(a, dtype=np.float64).view(np.int64)


def layer_inputs(rng, n=6, d_in=4, d=5):
    """h, W, gamma, beta and bias of one n-row backbone layer from d_in to d features."""
    return (
        rng.uniform(-2, 2, (n, d_in)),
        rng.uniform(-1, 1, (d_in, d)),
        rng.uniform(0.5, 1.5, d),
        rng.uniform(-0.5, 0.5, d),
        rng.uniform(-0.5, 0.5, d),
    )


def norm_modes(rng, d=5):
    """norm_tanh's three modes: row moments, batch moments, constant running (mean, var)."""
    return [-1, 0, (rng.uniform(-0.5, 0.5, d), rng.uniform(0.5, 2.0, d))]


class TestGradientChecks:
    """Every primitive op against central finite differences on [-2, 2] data."""

    def test_matmul(self, rng):
        b = Tensor(rng.uniform(-2, 2, (4, 3)))
        w = Tensor(rng.uniform(-2, 2, (5, 3)))
        check_grad(lambda a: ad.reduce_sum(ad.mul(ad.matmul(a, ad.transpose(w)), b.data @ np.ones((3, 5)))), rng.uniform(-2, 2, (4, 3)))

    def test_elementwise_arithmetic(self, rng):
        other = rng.uniform(0.5, 2, (3, 4))
        check_grad(lambda a: ad.reduce_sum(ad.add(a, other)), rng.uniform(-2, 2, (3, 4)))
        check_grad(lambda a: ad.reduce_sum(ad.sub(other, a)), rng.uniform(-2, 2, (3, 4)))
        check_grad(lambda a: ad.reduce_sum(ad.mul(a, other)), rng.uniform(-2, 2, (3, 4)))
        check_grad(lambda a: ad.reduce_sum(ad.scale(a, -1.7)), rng.uniform(-2, 2, (3, 4)))

    def test_broadcasting_grads(self, rng):
        row = rng.uniform(-2, 2, (1, 4))
        full = rng.uniform(-2, 2, (3, 4))
        check_grad(lambda a: ad.reduce_sum(ad.mul(ad.add(a, Tensor(row)), 1.3)), full)
        check_grad(lambda a: ad.reduce_sum(ad.mul(Tensor(full), a)), row)
        positive = rng.uniform(0.5, 2, (3, 4))
        for operand in (row, full):
            check_grad(lambda a: ad.reduce_sum(ad.mul(ad.sub(a, Tensor(positive)), positive)), operand)
            check_grad(lambda a: ad.reduce_sum(ad.mul(ad.sub(Tensor(positive), a), positive)), operand)

    def test_nonlinearities(self, rng):
        x = rng.uniform(-2, 2, (3, 4))
        # tanh through the fused layer, with an identity weight and unit gamma
        w, g, b = Tensor(np.eye(4)), Tensor(np.ones(4)), Tensor(np.zeros(4))
        check_grad(lambda a: ad.reduce_sum(ad.norm_tanh(a, w, g, b)[0]), x)
        check_grad(lambda a: ad.reduce_sum(ad.log(a)), rng.uniform(0.1, 2, (3, 4)))

    def test_kinked_ops_away_from_kinks(self, rng):
        # clamp strictly inside its interval
        x = rng.uniform(0.1, 2, (3, 4)) * rng.choice([-1.0, 1.0], (3, 4))
        check_grad(lambda a: ad.reduce_sum(ad.clamp(a, -3.0, 3.0)), x)

    def test_reductions(self, rng):
        x = rng.uniform(-2, 2, (3, 4))
        check_grad(lambda a: ad.reduce_sum(a), x)
        check_grad(lambda a: ad.reduce_mean(a), x)
        check_grad(lambda a: ad.reduce_sum(ad.mul(ad.reduce_sum(a, axis=0), np.arange(1.0, 5.0))), x)
        check_grad(lambda a: ad.reduce_sum(ad.mul(ad.reduce_sum(a, axis=1), np.arange(1.0, 4.0))), x)

    def test_softmax(self, rng):
        x = rng.uniform(-2, 2, (4, 5))
        weights = rng.uniform(0.5, 1.5, (4, 5))
        check_grad(lambda a: ad.reduce_sum(ad.mul(ad.softmax(a), weights)), x)

    def test_topk_mean_with_margin(self, rng):
        # distinct values guarantee a selection margin well above 1e-3
        x = rng.permutation(20).astype(np.float64).reshape(4, 5) / 3.0
        for k in (1, 2, 3, 5):
            check_grad(lambda a, k=k: ad.reduce_sum(ad.topk_mean(a, k)), x)
        wide = rng.permutation(24).astype(np.float64).reshape(4, 6) / 3.0
        weights = rng.uniform(0.5, 1.5, 4)
        check_grad(lambda a: ad.reduce_sum(ad.mul(ad.topk_mean(a, 3), weights)), wide)

    def test_norm_layers(self, rng):
        # h, W, gamma, beta and bias of one fused layer, in each norm mode, with and without bias
        h, w, gamma, beta, bias = layer_inputs(rng)
        weights = rng.uniform(0.5, 1.5, (6, 5))
        operands = {"h": h, "w": w, "gamma": gamma, "beta": beta, "bias": bias}
        for norm in norm_modes(rng):
            for with_bias in (True, False):
                for name in operands if with_bias else [n for n in operands if n != "bias"]:

                    def loss(a, name=name, norm=norm, with_bias=with_bias):
                        args = {k: a if k == name else Tensor(v) for k, v in operands.items()}
                        out, _ = ad.norm_tanh(*(args[k] for k in ("h", "w", "gamma", "beta")),
                                              args["bias"] if with_bias else None, norm)
                        return ad.reduce_sum(ad.mul(out, weights))

                    check_grad(loss, operands[name])

    def test_norm_layers_chained(self, rng):
        # through two layers, the first layer's operands reach the loss through the second's h
        h, w1, g1, b1, bias1 = layer_inputs(rng)
        _, _, g2, b2, bias2 = layer_inputs(rng)
        w2 = rng.uniform(-1, 1, (5, 5))
        weights = rng.uniform(0.5, 1.5, (6, 5))
        for norm in norm_modes(rng):

            def loss(first, second, norm=norm):
                return ad.reduce_sum(ad.mul(ad.norm_tanh(first, second, g2, b2, bias2, norm)[0], weights))

            check_grad(lambda a: loss(ad.norm_tanh(a, w1, g1, b1, bias1, norm)[0], Tensor(w2)), h)
            check_grad(lambda a: loss(ad.norm_tanh(Tensor(h), a, g1, b1, bias1, norm)[0], Tensor(w2)), w1)
            check_grad(lambda a: loss(ad.norm_tanh(Tensor(h), w1, a, b1, bias1, norm)[0], Tensor(w2)), g1)
            check_grad(lambda a: loss(ad.norm_tanh(Tensor(h), w1, g1, b1, a, norm)[0], Tensor(w2)), bias1)
            check_grad(lambda a: loss(ad.norm_tanh(Tensor(h), w1, g1, b1, bias1, norm)[0], a), w2)

    def test_norm_tanh_bits_match_the_separate_ops(self, rng):
        # mean, np.var, sqrt, divide, * gamma + beta, + bias, tanh: the chain of single ops it replaces
        for n, d_in, d in ((6, 4, 5), (128, 32, 64), (1, 3, 7), (33, 16, 40)):
            h, w, gamma, beta, bias = layer_inputs(rng, n, d_in, d)
            for norm in norm_modes(rng, d):
                for b in (bias, None):
                    z = h @ w
                    if isinstance(norm, tuple):
                        mean, var = norm
                    else:
                        mean, var = z.mean(axis=norm, keepdims=True), np.var(z, axis=norm, keepdims=True)
                    expected = (z - mean) / np.sqrt(var + ad.NORM_EPS) * gamma + beta
                    if b is not None:
                        expected = expected + b
                    out, pre = ad.norm_tanh(Tensor(h), Tensor(w), Tensor(gamma), Tensor(beta), b, norm)
                    assert np.array_equal(bits(pre), bits(z))
                    assert np.array_equal(bits(out.data), bits(np.tanh(expected)))

    def test_cosine_similarity(self, rng):
        a = rng.uniform(-2, 2, (4, 6))
        b = rng.uniform(-2, 2, (4, 6))
        check_grad(lambda t: ad.reduce_sum(ad.cosine_similarity(t, Tensor(b))), a)
        check_grad(lambda t: ad.reduce_sum(ad.cosine_similarity(Tensor(a), t)), b)
        tall = rng.uniform(-2, 2, (5, 6))
        weights = rng.uniform(0.5, 1.5, (5, 3))
        check_grad(lambda t: ad.reduce_sum(ad.mul(ad.cosine_similarity(t, Tensor(b[:3])), weights)), tall)
        check_grad(lambda t: ad.reduce_sum(ad.mul(ad.cosine_similarity(Tensor(tall), t), weights)), b[:3])

    def test_unit_rows(self, rng):
        weights = rng.uniform(0.5, 1.5, (5, 6))
        check_grad(lambda t: ad.reduce_sum(ad.mul(ad.unit_rows(t), weights)), rng.uniform(-2, 2, (5, 6)))

    def test_reshape_transpose(self, rng):
        x = rng.uniform(-2, 2, (3, 4))
        w = rng.uniform(-2, 2, (4, 3))
        v = rng.uniform(-1, 1, (2, 6))
        check_grad(lambda a: ad.reduce_sum(ad.mul(ad.transpose(a), w)), x)
        check_grad(lambda a: ad.reduce_sum(ad.mul(ad.reshape(a, (2, 6)), v)), x)


class TestOpSemantics:
    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=12))
    def test_topk_extremes_equal_max_and_mean(self, values):
        x = Tensor(np.asarray(values, dtype=np.float64))
        assert ad.topk_mean(x, 1).data == np.max(values)
        assert ad.topk_mean(x, len(values)).data == np.mean(np.asarray(values))

    def test_topk_extremes_on_batched_input(self, rng):
        x = rng.normal(size=(50, 7))
        assert np.array_equal(ad.topk_mean(Tensor(x), 1).data, x.max(axis=-1))
        assert np.array_equal(ad.topk_mean(Tensor(x), 7).data, x.mean(axis=-1))

    def test_topk_tie_break_lowest_index(self):
        x = Tensor(np.array([1.0, 2.0, 2.0, 0.0]), requires_grad=True)
        tape = Tape()
        with tape:
            out = ad.topk_mean(x, 1)
        ad.backward(tape, out)
        assert np.array_equal(x.grad, [0.0, 1.0, 0.0, 0.0])
        rows = Tensor(np.array([[3.0, 3.0, 1.0], [0.0, 2.0, 2.0], [5.0, 5.0, 5.0]]), requires_grad=True)
        tape = Tape()
        with tape:
            out = ad.reduce_sum(ad.topk_mean(rows, 1))
        ad.backward(tape, out)
        assert np.array_equal(rows.grad, [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])

    def test_topk_matches_stable_argsort_reference(self, rng):
        def argsort_topk(x, k, g):
            # reference: stable descending argsort, gather, row mean, scatter
            idx = np.argsort(-x, axis=-1, kind="stable")[..., :k]
            gx = np.zeros_like(x)
            np.put_along_axis(gx, idx, g[..., None] / k, axis=-1)
            return np.take_along_axis(x, idx, axis=-1).mean(axis=-1), gx

        for K in range(2, 10):
            for lead in ((), (13,), (3, 5)):
                shape = (*lead, K)
                rows = [
                    rng.normal(size=shape),
                    rng.choice([-1.0, 0.25, 0.5, 2.0], size=shape),  # repeated values
                    np.full(shape, 0.75),  # all-equal rows
                    rng.choice([0.0, -0.0, -1.0], size=shape),  # signed-zero ties
                    rng.choice([0.0, -0.0], size=shape),
                ]
                for data in rows:
                    g = rng.normal(size=lead)
                    wide = np.zeros((*lead, 2 * K))
                    wide[..., ::2] = data
                    # the same values as a contiguous copy, a strided view and a copy with swapped axes
                    layouts = [data.copy(), wide[..., ::2], np.swapaxes(np.swapaxes(data, 0, -1).copy(), 0, -1)]
                    for k in range(1, K):
                        value, grad = argsort_topk(data, k, g)
                        for view in layouts:
                            x = Tensor(view, requires_grad=True)
                            tape = Tape()
                            with tape:
                                out = ad.topk_mean(x, k)
                                loss = ad.reduce_sum(ad.mul(out, g))
                            ad.backward(tape, loss)
                            if k < 8:
                                assert np.array_equal(bits(out.data), bits(value))
                            else:
                                # NumPy's mean sums 8 or more values pairwise, the kernel left to right
                                bound = k * np.finfo(np.float64).eps * np.abs(data).max()
                                np.testing.assert_allclose(out.data, value, rtol=0, atol=bound)
                            assert np.array_equal(bits(x.grad), bits(grad))
                            first = x.grad
                            ad.backward(tape, loss)
                            assert np.array_equal(bits(x.grad), bits(first))
                            assert np.array_equal(bits(ad.topk_mean(Tensor(view), k).data), bits(out.data))
                            assert np.array_equal(bits(view), bits(data))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_topk_rejects_non_finite_input(self, bad):
        for k in (1, 2, 3):
            x = np.array([[0.5, 1.0, 2.0], [5.0, 0.0, 0.0]])
            x[1, 1] = bad
            with pytest.raises(DomainError, match="finite"):
                ad.topk_mean(Tensor(x), k)
        with pytest.raises(DomainError, match="finite"):
            ad.topk_mean(Tensor(np.array([5.0, bad, bad])), 2)

    def test_softmax_rows_sum_to_one(self, rng):
        probs = ad.softmax(Tensor(rng.normal(size=(40, 6)) * 10)).data
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)
        assert (probs >= 0).all()

    def test_softmax_shift_invariance(self, rng):
        logits = rng.normal(size=(5, 4))
        shifted = logits + rng.normal(size=(5, 1))
        np.testing.assert_allclose(
            ad.softmax(Tensor(logits)).data, ad.softmax(Tensor(shifted)).data, atol=1e-12
        )

    def test_cosine_similarity_range(self, rng):
        a, b = rng.normal(size=(200, 8)), rng.normal(size=(200, 8))
        sims = ad.cosine_similarity(Tensor(a), Tensor(b)).data
        assert (sims >= -1.0 - 1e-12).all() and (sims <= 1.0 + 1e-12).all()

    def test_clamp_backward_zero_at_bounds(self):
        x = Tensor(np.array([-1.0, 0.0, 0.5, 1.0, 2.0]), requires_grad=True)
        tape = Tape()
        with tape:
            out = ad.reduce_sum(ad.clamp(x, 0.0, 1.0))
        ad.backward(tape, out)
        assert np.array_equal(x.grad, [0.0, 0.0, 1.0, 0.0, 0.0])

    def test_backward_deterministic(self, rng):
        x_data = rng.normal(size=(6, 5))
        w = rng.normal(size=(5, 5))

        def run():
            x = Tensor(x_data.copy(), requires_grad=True)
            tape = Tape()
            with tape:
                layer, _ = ad.norm_tanh(x, Tensor(w), Tensor(np.ones(5)), Tensor(np.zeros(5)), norm=0)
                consensus = ad.reshape(ad.topk_mean(layer, 2), (6, 1))
                loss = ad.reduce_sum(ad.mul(ad.softmax(x), consensus))
            ad.backward(tape, loss)
            return x.grad

        assert np.array_equal(run(), run())

    def test_norm_tanh_gradients_follow_each_backward(self, rng):
        # two losses on one tape: each backward computes its own shared gradient, as a fresh tape would
        h, w, gamma, beta, bias = (Tensor(a) for a in layer_inputs(rng))
        gamma.requires_grad = True
        weights = [rng.uniform(0.5, 1.5, (6, 5)) for _ in range(2)]

        def gamma_grads(tape, losses):
            grads = []
            for loss in losses:
                ad.backward(tape, loss)
                grads.append(gamma.grad)
            return grads

        tape = Tape()
        with tape:
            out, _ = ad.norm_tanh(h, w, gamma, beta, bias)
            losses = [ad.reduce_sum(ad.mul(out, wt)) for wt in weights]
        shared = gamma_grads(tape, losses)
        for wt, grad in zip(weights, shared):
            fresh = Tape()
            with fresh:
                loss = ad.reduce_sum(ad.mul(ad.norm_tanh(h, w, gamma, beta, bias)[0], wt))
            assert np.array_equal(gamma_grads(fresh, [loss])[0], grad)

    def test_cleared_tape_leaves_no_gradients(self, rng):
        x = Tensor(rng.normal(size=4), requires_grad=True)
        tape = Tape()
        with tape:
            loss = ad.reduce_sum(ad.mul(x, x))
        ad.backward(tape, loss)
        assert x.grad is not None
        tape.clear()
        assert len(tape) == 0 and x.grad is None

    def test_constant_operand_gets_no_gradient_computed(self):
        # d/db of 1e200 * a * b is 1e200 * a, which overflows for a = 1e200: it must never be computed
        a = Tensor(np.full(3, 1e200), requires_grad=True)
        b = Tensor(np.full(3, 1e-200))
        tape = Tape()
        with tape:
            loss = ad.reduce_sum(ad.scale(ad.mul(a, b), 1e200))
        with np.errstate(over="raise"):
            ad.backward(tape, loss)
        assert np.array_equal(a.grad, np.full(3, 1e200 * 1e-200)) and b.grad is None

    def test_shape_mismatch_raises(self):
        with pytest.raises(ShapeError):
            ad.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))
        with pytest.raises(ShapeError):
            ad.cosine_similarity(Tensor(np.ones((2, 1, 3))), Tensor(np.ones((4, 3))))
        with pytest.raises(ShapeError):
            ad.cosine_similarity(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 2))))
        with pytest.raises(ShapeError):
            ad.unit_rows(Tensor(np.ones(3)))
        with pytest.raises(ShapeError):
            ad.norm_tanh(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))), Tensor(np.ones(3)), Tensor(np.zeros(3)))
        with pytest.raises(ShapeError):
            ad.norm_tanh(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 4))), Tensor(np.ones(3)), Tensor(np.zeros(4)))

    def test_cosine_zero_row_is_degenerate(self):
        b = np.ones((4, 3))
        b[2] = 0.0
        with pytest.raises(DegenerateInputError, match="row 2 in operand b"):
            ad.cosine_similarity(Tensor(np.ones((2, 3))), Tensor(b))
        with pytest.raises(DegenerateInputError, match="row 2 in operand a"):
            ad.unit_rows(Tensor(b))

    def test_log_domain_error(self):
        with pytest.raises(DomainError):
            ad.log(Tensor(np.array([1.0, -0.5])))

    def test_values_stay_finite(self, rng):
        x = rng.normal(size=(8, 5))
        layer, _ = ad.norm_tanh(Tensor(x), Tensor(np.eye(5)), Tensor(np.ones(5)), Tensor(np.zeros(5)))
        out = ad.softmax(layer)
        assert np.isfinite(out.data).all()

    def test_grad_shape_matches_data(self, rng):
        x = Tensor(rng.normal(size=(3, 4, 2)), requires_grad=True)
        tape = Tape()
        with tape:
            loss = ad.reduce_sum(ad.topk_mean(x, 2))
        ad.backward(tape, loss)
        assert x.grad.shape == x.data.shape


def value_and_grad(op, data: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``op``'s value at ``data`` and the gradient of ``sum(weights * op(x))`` in x."""
    x = Tensor(np.array(data, dtype=np.float64), requires_grad=True)
    tape = Tape()
    with tape:
        out = op(x)
        loss = ad.reduce_sum(ad.mul(out, weights))
    ad.backward(tape, loss)
    return out.data, x.grad


def mapping(kind: str, temperature: float = 5.0):
    return lambda x: map_similarity(x, MappingScheme(kind, temperature))


def in_domain(kind: str, unit: np.ndarray) -> np.ndarray:
    """Values in [0, 1] moved into the kind's input domain: cosines in [-1, 1] or distances in [0, 4]."""
    return 4.0 * unit if kind == "log_inverse_distance" else 2.0 * unit - 1.0


class TestFusedOps:
    """The similarity mapping (one op per kind) and the binary entropy, each one recorded op."""

    @pytest.mark.parametrize("kind", MAPPING_KINDS)
    def test_mapping_gradient(self, kind, rng):
        # distinct values inside the clamp bounds; the block's min and max are unique
        raw = in_domain(kind, rng.uniform(0.05, 0.95, (4, 5)))
        weights = rng.uniform(0.5, 1.5, (4, 5))
        check_grad(lambda a: ad.reduce_sum(ad.mul(mapping(kind)(a), weights)), raw)

    def test_mapping_gradient_over_a_given_range(self, rng):
        # a range wider than the block's own, so no entry is clamped and the range is a constant
        raw = rng.uniform(0.2, 3.8, (4, 5))
        weights = rng.uniform(0.5, 1.5, (4, 5))
        s = np.log((raw + 1.0) / (raw + 1e-4))
        lo_hi = (float(s.min()) - 0.1, float(s.max()) + 0.1)
        scheme = MappingScheme("log_inverse_distance")
        check_grad(lambda a: ad.reduce_sum(ad.mul(map_similarity(a, scheme, lo_hi), weights)), raw)
        # the block's own range as given takes the same values as the default, but not its moving min and max
        own = (float(s.min()), float(s.max()))
        assert np.array_equal(map_similarity(Tensor(raw), scheme, own).data, map_similarity(Tensor(raw), scheme).data)

    def test_entropy_and_kernel_gradients(self, rng):
        weights = rng.uniform(0.5, 1.5, (4, 5))
        check_grad(lambda a: ad.reduce_sum(ad.mul(binary_entropy(a), weights)), rng.uniform(0.01, 0.99, (4, 5)))
        check_grad(lambda a: ad.reduce_sum(ad.mul(log_inverse_kernel(a), weights)), rng.uniform(0.0, 4.0, (4, 5)))

    def test_tied_extremes_pass_their_gradient_to_the_first_occurrence(self, rng):
        # the nearest distance 0.5 and the farthest 2.0 each appear twice
        d = np.array([[1.0, 0.5, 2.0], [0.5, 1.5, 2.0]])
        weights = rng.uniform(0.5, 1.5, d.shape)
        _, grad = value_and_grad(mapping("log_inverse_distance"), d, weights)
        assert grad[0, 1] != 0.0 and grad[0, 2] != 0.0
        assert grad[1, 0] == 0.0 and grad[1, 2] == 0.0
        # the same as with the later occurrences a hair less extreme, which makes the extremes unique
        nudged = d + np.array([[0.0, 0.0, 0.0], [1e-9, 0.0, -1e-9]])
        np.testing.assert_allclose(grad, value_and_grad(mapping("log_inverse_distance"), nudged, weights)[1], atol=1e-6)

    def test_constant_block_maps_to_half_with_zero_gradient(self):
        value, grad = value_and_grad(mapping("log_inverse_distance"), np.full((3, 4), 1.5), np.ones((3, 4)))
        assert np.array_equal(value, np.full((3, 4), 0.5))
        assert np.array_equal(grad, np.zeros((3, 4)))

    def test_clamped_entries_get_zero_gradient(self):
        lo, hi = EPS_CLAMP, 1.0 - EPS_CLAMP
        r = np.array([-1.0, -0.3, 1.0, 0.2])
        value, grad = value_and_grad(mapping("linear"), r, np.ones(4))
        assert np.array_equal(value[[0, 2]], [lo, hi]) and np.array_equal(grad, [0.0, 0.5, 0.0, 0.5])
        # sigmoid(+-40) is within 1e-17 of 1 and 0
        value, grad = value_and_grad(mapping("temp_sigmoid", 40.0), r, np.ones(4))
        assert np.array_equal(value[[0, 2]], [lo, hi])
        assert grad[0] == 0.0 and grad[2] == 0.0 and (grad[[1, 3]] > 0.0).all()
        s = np.array([0.0, lo, 0.3, hi, 1.0])
        value, grad = value_and_grad(binary_entropy, s, np.ones(5))
        assert np.array_equal(grad, [0.0, 0.0, np.log(0.7) - np.log(0.3), 0.0, 0.0])

    @pytest.mark.parametrize(
        "op, raw",
        [
            (mapping("linear"), [0.5, -0.2]),
            (mapping("temp_sigmoid"), [0.5, -0.2]),
            (mapping("log_inverse_distance"), [0.5, 2.0]),
            (binary_entropy, [0.5, 0.2]),
            (log_inverse_kernel, [0.5, 2.0]),
        ],
    )
    def test_each_op_adds_one_record(self, op, raw):
        x = Tensor(np.array(raw), requires_grad=True)
        tape = Tape()
        with tape:
            op(x)
        assert len(tape) == 1

    def test_forward_bits_match_the_composed_formula(self, rng):
        lo, hi = EPS_CLAMP, 1.0 - EPS_CLAMP
        r = rng.uniform(-1.0, 1.0, (128, 50))
        d = 2.0 * (1.0 - r)
        z = r * 5.0
        # the sigmoid split by sign, as the composed ops computed it
        sig = np.where(z >= 0, 1.0 / (1.0 + np.exp(-np.abs(z))), np.exp(-np.abs(z)) / (1.0 + np.exp(-np.abs(z))))
        s = np.log((d + 1.0) / (d + 1e-4))
        expected = {
            "linear": np.clip((r + 1.0) * 0.5, lo, hi),
            "temp_sigmoid": np.clip(sig, lo, hi),
            "log_inverse_distance": np.clip((s - s.min()) / (s.max() - s.min()), lo, hi),
        }
        for kind, want in expected.items():
            got = map_similarity(Tensor(d if kind == "log_inverse_distance" else r), MappingScheme(kind)).data
            assert np.array_equal(bits(got), bits(want)), kind
        c = np.clip(expected["log_inverse_distance"], lo, hi)
        entropy = (c * np.log(c)) * -1.0 - (1.0 - c) * np.log(1.0 - c)
        assert np.array_equal(bits(binary_entropy(Tensor(expected["log_inverse_distance"])).data), bits(entropy))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("kind", MAPPING_KINDS)
    def test_mapping_refuses_non_finite_input(self, kind, bad):
        with pytest.raises(DomainError, match=str(bad)):
            map_similarity(Tensor(np.array([0.5, bad])), MappingScheme(kind))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -0.1, 1.1])
    def test_entropy_refuses_values_outside_the_unit_interval(self, bad):
        with pytest.raises(DomainError, match="binary entropy"):
            binary_entropy(Tensor(np.array([0.5, bad])))

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_row_permutation_permutes_values_and_gradients(self, data):
        n, m = data.draw(st.integers(2, 6)), data.draw(st.integers(1, 4))
        # distinct values at least 1e-3 apart, so no two entries tie and the extremes move with their rows
        ints = data.draw(st.lists(st.integers(0, 1000), min_size=n * m, max_size=n * m, unique=True))
        perm = np.asarray(data.draw(st.permutations(range(n))))
        unit = np.asarray(ints, dtype=np.float64).reshape(n, m) / 1000.0
        weights = np.random.default_rng(n * m).uniform(0.5, 1.5, (n, m))
        for kind in MAPPING_KINDS:
            raw = in_domain(kind, unit)
            value, grad = value_and_grad(mapping(kind), raw, weights)
            permuted, permuted_grad = value_and_grad(mapping(kind), raw[perm], weights[perm])
            assert np.array_equal(permuted, value[perm]), kind
            np.testing.assert_allclose(permuted_grad, grad[perm], rtol=1e-12, atol=1e-12 * np.abs(grad).max())

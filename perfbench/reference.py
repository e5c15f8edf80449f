"""Plain-NumPy forward pass of the prototype classifier.

Written from the model's definition, not from ``prototta.model``: the
backbone (linear, norm, bias, tanh per layer, optional mixing matrix), the
cosine similarity of the normalised feature to every unit-normalised
sub-prototype, the mean of the top-k sub-prototype similarities per
prototype, and the linear head. It reads only parameter arrays and the
shape fields of the model config, so a fault in the autodiff ops or in
``model_forward`` shows up as a disagreement.
"""

from __future__ import annotations

import numpy as np

NORM_EPS = 1e-5
TIE_GAP = 1e-9  # logits closer than this may argmax either way


def consensus_k(aggregation: str, sub_prototypes: int, agg_k: int | None) -> int:
    """Sub-prototypes averaged per prototype; top-k defaults to half, rounded up."""
    if aggregation == "max":
        return 1
    if aggregation == "mean":
        return sub_prototypes
    if aggregation == "topk_mean":
        return int(agg_k) if agg_k is not None else -(-sub_prototypes // 2)
    raise ValueError(f"unknown aggregation {aggregation!r}")


def forward(model, x: np.ndarray, aggregation: str | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Evaluation-mode prototype activations (n x P) and logits (n x C).

    ``aggregation`` overrides the model's sub-prototype consensus, the way a
    method preset's ``consensus`` field does.
    """
    cfg = model.config
    bb = cfg.backbone
    p = {name: t.data for name, t in model.params.items()}
    h = np.asarray(x, dtype=np.float64)
    for i in range(len(bb.hidden_dims)):
        z = h @ p[f"backbone.{i}.weight"]
        if bb.norm_kind == "layer_norm":
            mu = z.mean(axis=1, keepdims=True)
            var = ((z - mu) ** 2).mean(axis=1, keepdims=True)
        else:
            mu, var = model.running_stats[i]
        z = (z - mu) / np.sqrt(var + NORM_EPS) * p[f"backbone.{i}.norm.gamma"] + p[f"backbone.{i}.norm.beta"]
        if f"backbone.{i}.attn_bias" in p:
            z = z + p[f"backbone.{i}.attn_bias"]
        h = np.tanh(z)
    if "backbone.mix.weight" in p:
        h = h @ p["backbone.mix.weight"]
    feats = h / np.linalg.norm(h, axis=1, keepdims=True)
    protos = p["prototypes"]
    protos = protos / np.linalg.norm(protos, axis=2, keepdims=True)
    sims = np.einsum("nd,pkd->npk", feats, protos)
    k = consensus_k(aggregation or cfg.aggregation, cfg.sub_prototypes, cfg.agg_k)
    top = -np.sort(-sims, axis=2)[:, :, :k]
    activations = top.mean(axis=2)
    return activations, activations @ p["head.weight"].T


def prediction_mismatches(logits: np.ndarray, predictions: np.ndarray) -> np.ndarray:
    """Indices where ``predictions`` is not an argmax of ``logits``.

    A prediction counts as right when its logit is within TIE_GAP of the
    best one, so ULP-level differences between two correct forwards on a
    near-tie are not flagged.
    """
    predictions = np.asarray(predictions, dtype=np.int64)
    best = logits.max(axis=1)
    chosen = logits[np.arange(len(logits)), predictions]
    return np.flatnonzero(best - chosen > TIE_GAP)

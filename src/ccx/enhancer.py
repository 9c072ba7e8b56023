"""Difference-aware feature enhancement.

Per feature tap, a stack of change-aware layers builds an explicit
difference stream and injects it back into both temporal streams; a
scalar gate per tap and sample then mixes the enhanced taps on top of the
penultimate-layer residual features. All taps share the same weights
and are processed independently of each other, so ``enhance`` stacks
them on a leading axis and keeps them stacked through the change-aware
stack, the gates and the mix.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from . import nn
from . import tensor as T


@dataclass
class EnhancerConfig:
    d_model: int = 32
    num_catl_layers: int = 2
    heads: int = 4
    enabled: bool = True
    score_concat: str = "t1t2"  # or "t1t1"

    def __post_init__(self):
        if self.num_catl_layers < 1:
            raise ValueError("need at least one change-aware layer")
        for name in ("d_model", "heads"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.d_model % self.heads:
            raise ValueError("d_model must be divisible by heads")
        if self.score_concat not in ("t1t2", "t1t1"):
            raise ValueError("score_concat must be 't1t2' or 't1t1'")


@dataclass
class EnhancedFeatures:
    """``fused`` = (F1', F2') is the output. It was mixed from ``stacked`` =
    (F1~, F2~, dF), each [K, ..., N, d], with the gates ``gates`` [K, ..., 1,
    1], tap k being ``offsets[k]``; a disabled enhancer passes the residual
    pair through and leaves them unset. ``per_tap`` and ``scores`` cut them
    into per-tap views on first read."""

    fused: tuple
    offsets: tuple = ()
    stacked: tuple = None
    gates: T.Tensor = None

    @functools.cached_property
    def per_tap(self):
        """offset -> (F1~, F2~, dF) views."""
        if self.stacked is None:
            return {}
        return dict(zip(self.offsets, zip(*(T.unstack(t) for t in self.stacked))))

    @functools.cached_property
    def scores(self):
        """offset -> [..., 1, 1] gate view."""
        if self.gates is None:
            return {}
        return dict(zip(self.offsets, T.unstack(self.gates)))


def change_feature_init(store, name, f1, f2, d):
    """Gated difference seed: both streams gated by a shared 2d->d map,
    then (F1g, F2g, F1g-F2g) projected 3d->d."""
    if f1.shape != f2.shape:
        raise T.ShapeError(f"feature pair shapes differ: {f1.shape} vs {f2.shape}")
    gate1 = T.sigmoid(nn.linear(store, f"{name}.gate", T.concat([f1, f2], axis=-1), 2 * d, d))
    gate2 = T.sigmoid(nn.linear(store, f"{name}.gate", T.concat([f2, f1], axis=-1), 2 * d, d))
    f1g = f1 * gate1
    f2g = f2 * gate2
    packed = T.concat([f1g, f2g, f1g - f2g], axis=-1)
    return nn.linear(store, f"{name}.proj", packed, 3 * d, d)


def _sublayer_attn(store, name, q, kv, d, heads):
    """Pre-norm residual cross-attention; query and kv normalized separately."""
    qn = nn.layer_norm(store, f"{name}.ln_q", q, d)
    kvn = nn.layer_norm(store, f"{name}.ln_kv", kv, d)
    out, _ = nn.attention(store, f"{name}.attn", qn, kvn, d, heads)
    return q + out


def change_aware_layer(store, name, f1, f2, cfg: EnhancerConfig):
    """One change-aware transformer layer -> (F1~, F2~, dF)."""
    d = cfg.d_model
    df = change_feature_init(store, f"{name}.init", f1, f2, d)
    # difference self-interaction
    dn = nn.layer_norm(store, f"{name}.sa.ln", df, d)
    sa, _ = nn.attention(store, f"{name}.sa.attn", dn, dn, d, cfg.heads)
    df = df + sa
    # difference queries both image streams (and itself)
    kv = T.concat([f1, f2, df], axis=-2)
    df = _sublayer_attn(store, f"{name}.ca", df, kv, d, cfg.heads)
    # MLP refinement
    df = df + nn.mlp(store, f"{name}.mlp",
                     nn.layer_norm(store, f"{name}.mlp_ln", df, d),
                     d, 4 * d, d)
    # inject change information back into each stream (shared weights)
    f1t = _sublayer_attn(store, f"{name}.inject", f1, T.concat([f1, df], axis=-2), d, cfg.heads)
    f2t = _sublayer_attn(store, f"{name}.inject", f2, T.concat([f2, df], axis=-2), d, cfg.heads)
    return f1t, f2t, df


def diff_expert(store, f1, f2, cfg: EnhancerConfig):
    """Stack of change-aware layers; each restarts the difference seed
    from the previous layer's enhanced streams."""
    df = None
    for layer in range(cfg.num_catl_layers):
        f1, f2, df = change_aware_layer(store, f"enhancer.catl{layer}", f1, f2, cfg)
    return f1, f2, df


def tap_score(store, f1t, f2t, df, cfg: EnhancerConfig):
    """Gate in (0,1) from token-pooled concatenated features [..., N, d]:
    one [..., 1, 1] score per sample (and per tap, when the taps are
    stacked), which broadcasts over its tokens."""
    d = cfg.d_model
    second = f1t if cfg.score_concat == "t1t1" else f2t
    pooled = T.tmean(T.concat([f1t, second, df], axis=-1), axis=-2, keepdims=True)
    return T.sigmoid(nn.mlp(store, "enhancer.score", pooled, 3 * d, d, 1))


def adaptive_adjustment(store, stacked, residual, cfg: EnhancerConfig):
    """Gated sum of the stacked enhanced taps ``stacked`` = (F1~, F2~, dF),
    each [K, ..., N, d], plus the residual pair [..., N, d]. Returns (F1',
    F2', s) with the gates s [K, ..., 1, 1]; the sum over the tap axis
    adds the taps in order."""
    f1t, f2t, df = stacked
    res1, res2 = residual
    if f1t.shape[1:] != res1.shape:
        raise T.ShapeError(f"taps of shape {f1t.shape[1:]} do not match "
                           f"residual {res1.shape}")
    s = tap_score(store, f1t, f2t, df, cfg)
    return T.tsum(s * f1t, axis=0) + res1, T.tsum(s * f2t, axis=0) + res2, s


def enhance(store, pyramid, cfg: EnhancerConfig) -> EnhancedFeatures:
    if not cfg.enabled:
        return EnhancedFeatures(fused=pyramid.residual)
    offs = tuple(sorted(pyramid.taps))
    f1, f2 = (T.stack([pyramid.taps[off][i] for off in offs]) for i in (0, 1))
    stacked = diff_expert(store, f1, f2, cfg)
    f1p, f2p, s = adaptive_adjustment(store, stacked, pyramid.residual, cfg)
    return EnhancedFeatures(fused=(f1p, f2p), offsets=offs, stacked=stacked, gates=s)

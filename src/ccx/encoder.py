"""Miniature ViT-style image encoder with multi-scale feature taps.

Both temporal images pass through the same weights, independently; the
pyramid collects post-block token features at a set of negative layer
offsets (-1 = last block), plus the penultimate-style residual tap used
downstream as the additive passthrough.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import nn
from . import tensor as T


@dataclass
class EncoderConfig:
    image_size: int = 32
    patch_size: int = 4
    depth: int = 12
    d_model: int = 32
    heads: int = 4
    tap_indices: tuple = (-11, -8, -5, -2)
    residual_index: int = -2

    def __post_init__(self):
        self.tap_indices = tuple(sorted(self.tap_indices))
        if self.image_size % self.patch_size:
            raise ValueError("image_size must be divisible by patch_size")
        if self.d_model % self.heads:
            raise ValueError("d_model must be divisible by heads")
        for off in self.tap_indices:
            if self.depth + off < 0:
                raise ValueError(f"tap offset {off} exceeds depth {self.depth}")
        if self.residual_index not in set(self.tap_indices) | {-2}:
            raise ValueError("residual_index must be a tap offset or -2")
        if self.depth + self.residual_index < 0:
            raise ValueError("residual_index exceeds depth")

    @property
    def num_patches(self):
        return (self.image_size // self.patch_size) ** 2

    @property
    def patch_dim(self):
        return 3 * self.patch_size**2


@dataclass
class FeaturePyramid:
    """offset -> (F1, F2) token features, plus the residual pair."""

    taps: dict = field(default_factory=dict)
    residual: tuple = None


def patch_embed(store, image, cfg: EncoderConfig):
    """[..., H, W, 3] images -> [..., N, d] patch tokens with learned positions."""
    *lead, h, w, c = image.shape
    if h != cfg.image_size or w != cfg.image_size or c != 3:
        raise T.ShapeError(
            f"image shape {image.shape} does not match config "
            f"({cfg.image_size},{cfg.image_size},3)"
        )
    p = cfg.patch_size
    n_side = cfg.image_size // p
    patches = T.reshape(image, (*lead, n_side, p, n_side, p, 3))
    patches = T.swapaxes(patches, -4, -3)
    patches = T.reshape(patches, (*lead, cfg.num_patches, cfg.patch_dim))
    tokens = nn.linear(store, "encoder.patch", patches, cfg.patch_dim, cfg.d_model)
    pos = store.param("encoder.pos", (cfg.num_patches, cfg.d_model), init="embed")
    return tokens + pos


def encode_image(store, image, cfg: EncoderConfig):
    """Returns the list of post-block outputs, one per transformer block up
    to the deepest one a tap or the residual reads; later blocks are not
    run and create no parameters."""
    x = patch_embed(store, image, cfg)
    outs = []
    for i in range(cfg.depth + max((*cfg.tap_indices, cfg.residual_index)) + 1):
        x = nn.encoder_block(store, f"encoder.block{i}", x, cfg.d_model,
                             cfg.heads, 4 * cfg.d_model)
        outs.append(x)
    return outs


def encode_pair(store, image1, image2, cfg: EncoderConfig) -> FeaturePyramid:
    image1 = T.as_tensor(image1)
    image2 = T.as_tensor(image2)
    outs1 = encode_image(store, image1, cfg)
    outs2 = encode_image(store, image2, cfg)
    pyr = FeaturePyramid(taps={}, residual=None)
    for off in cfg.tap_indices:
        pyr.taps[off] = (outs1[cfg.depth + off], outs2[cfg.depth + off])
    k = cfg.depth + cfg.residual_index
    pyr.residual = (outs1[k], outs2[k])
    return pyr

"""Miniature ViT-style image encoder with multi-scale feature taps.

Both temporal images pass through the same weights in one pass, stacked
on a leading axis of 2; each image's tokens attend only within its own
image. The pyramid collects post-block token features at a set of
negative layer offsets (-1 = last block), plus the penultimate-style
residual tap used downstream as the additive passthrough.
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
        for name in ("image_size", "patch_size", "d_model", "heads"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.image_size % self.patch_size:
            raise ValueError("image_size must be divisible by patch_size")
        if self.d_model % self.heads:
            raise ValueError("d_model must be divisible by heads")
        for off in self.tap_indices:
            if not -self.depth <= off <= -1:
                raise ValueError(f"tap offset {off} is outside [-{self.depth}, -1] "
                                 f"for depth {self.depth}")
        if len(set(self.tap_indices)) != len(self.tap_indices):
            raise ValueError(f"tap offsets repeat: {self.tap_indices}")
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


def _image_array(image, cfg: EncoderConfig):
    """``image`` as a float64 array [..., H, W, 3], checked against the config."""
    image = np.asarray(image, dtype=np.float64)
    if image.shape[-3:] != (cfg.image_size, cfg.image_size, 3):
        raise T.ShapeError(
            f"image shape {image.shape} does not match config "
            f"({cfg.image_size},{cfg.image_size},3)"
        )
    return image


def patch_embed(store, image, cfg: EncoderConfig):
    """[..., H, W, 3] image arrays -> [..., N, d] patch tokens with learned
    positions. Images are inputs that are never trained, so they are cut
    into patches as plain arrays."""
    image = _image_array(image, cfg)
    lead = image.shape[:-3]
    p = cfg.patch_size
    n_side = cfg.image_size // p
    patches = image.reshape(*lead, n_side, p, n_side, p, 3).swapaxes(-4, -3)
    patches = patches.reshape(*lead, cfg.num_patches, cfg.patch_dim)
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
        x = nn.block(store, f"encoder.block{i}", x, cfg.d_model, cfg.heads, 4 * cfg.d_model)
        outs.append(x)
    return outs


def encode_pair(store, image1, image2, cfg: EncoderConfig) -> FeaturePyramid:
    """Both images [..., H, W, 3] stacked as [2, ..., H, W, 3] and encoded
    in one pass; each block output that a tap or the residual reads is
    split back into its (F1, F2) pair, once, so a residual that is also a
    tap is the same pair of tensors."""
    image1, image2 = _image_array(image1, cfg), _image_array(image2, cfg)
    if image1.shape != image2.shape:
        raise T.ShapeError(f"image pair shapes differ: {image1.shape} vs {image2.shape}")
    outs = encode_image(store, np.stack([image1, image2]), cfg)
    pairs = {off: T.unstack(outs[cfg.depth + off])
             for off in {*cfg.tap_indices, cfg.residual_index}}
    return FeaturePyramid(taps={off: pairs[off] for off in cfg.tap_indices},
                          residual=pairs[cfg.residual_index])

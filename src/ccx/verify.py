"""Finite-difference gradient verification suites.

Analytic gradients from the autodiff engine are compared against
central differences (h=1e-5, float64) on small fixed-dimension builds
of each subsystem. Large tensors are spot-checked on a deterministic
sample of entries; every parameter tensor is visited.
"""

from __future__ import annotations

import numpy as np

from . import bridge, encoder, enhancer, nn
from .model import CaptionModel, build_vocabulary
from .rng import Rng


def finite_diff_check(build_loss, tensors, h=1e-5, max_entries=4, seed=0):
    """Max relative error per named tensor.

    ``build_loss`` must rebuild the graph from the tensors' current
    ``data`` on every call. Relative error uses max(|a|,|n|,1) in the
    denominator so that near-zero gradients are judged absolutely.
    """
    for t in tensors.values():
        t.zero_grad()
    loss = build_loss()
    loss.backward()
    analytic = {name: (t.grad.copy() if t.grad is not None else np.zeros_like(t.data))
                for name, t in tensors.items()}
    errors = {}
    for name, t in tensors.items():
        flat = t.data.reshape(-1)
        n = flat.size
        if n <= max_entries:
            idxs = range(n)
        else:
            r = Rng(seed).fork(f"gradcheck/{name}")
            idxs = sorted({r.randint(n) for _ in range(max_entries)})
        worst = 0.0
        for i in idxs:
            orig = flat[i]
            flat[i] = orig + h
            lp = build_loss().item()
            flat[i] = orig - h
            lm = build_loss().item()
            flat[i] = orig
            num = (lp - lm) / (2.0 * h)
            a = analytic[name].reshape(-1)[i]
            worst = max(worst, abs(a - num) / max(abs(a), abs(num), 1.0))
        errors[name] = worst
    return errors


def _rand(r, shape, scale=0.5):
    return r.normal(shape, std=scale)


def small_configs():
    enc = encoder.EncoderConfig(image_size=16, patch_size=4, depth=4, d_model=8,
                                heads=2, tap_indices=(-3, -2), residual_index=-2)
    enh = enhancer.EnhancerConfig(d_model=8, num_catl_layers=2, heads=2)
    dec = bridge.DecoderConfig(c_model=12, heads=2, depth=2, max_len=12)
    return enc, enh, dec


def _small_model(seed):
    enc, enh, dec = small_configs()
    return CaptionModel(enc, enh, dec, build_vocabulary(), seed=seed)


def _param_tensors(model, groups):
    return {p.name: p.tensor for p in model.store.params.values() if p.group in groups}


def _model_loss_builder(model, seed):
    r = Rng(seed).fork("gradcheck/inputs")
    s = model.enc_cfg.image_size
    img1 = np.clip(0.5 + _rand(r, (s, s, 3)), 0.0, 1.0)
    img2 = np.clip(0.5 + _rand(r, (s, s, 3)), 0.0, 1.0)
    caption = model.vocab.encode("a building is built at the center") + [bridge.EOS]
    return lambda: model.batch_loss([(img1, img2, caption)])


def check_module(module, seed=0):
    """Run the named suite; returns {parameter name: max rel err}."""
    model = _small_model(seed)
    build = _model_loss_builder(model, seed)
    groups = {
        "encoder": ("encoder",),
        "enhancer": ("enhancer",),
        "bridge": ("projector", "decoder"),
        "all": tuple(nn.GROUPS),
    }[module]
    return finite_diff_check(build, _param_tensors(model, groups), seed=seed)


def group_summary(errors):
    """Aggregate per-parameter errors to per-group maxima."""
    out = {}
    for name, err in errors.items():
        group = name.split(".", 1)[0]
        out[group] = max(out.get(group, 0.0), err)
    return out

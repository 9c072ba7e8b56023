"""Flat dotted-key text configuration (``section.key = value`` lines)."""

from __future__ import annotations

from pathlib import Path

from .bridge import DecoderConfig
from .data import IterationMode
from .encoder import EncoderConfig
from .enhancer import EnhancerConfig


class ConfigError(ValueError):
    pass


# every recognized key with its default; unknown keys are rejected
DEFAULTS = {
    "encoder.image_size": 32,
    "encoder.patch_size": 4,
    "encoder.depth": 12,
    "encoder.d_model": 32,
    "encoder.heads": 4,
    "encoder.taps": "-11,-8,-5,-2",
    "encoder.residual_index": -2,
    "enhancer.layers": 2,
    "enhancer.heads": 4,
    "enhancer.enabled": True,
    "enhancer.score_concat": "t1t2",
    "decoder.c_model": 48,
    "decoder.depth": 4,
    "decoder.heads": 4,
    "decoder.max_len": 24,
    "train.seed": 0,
    "train.weight_decay": 0.01,
    "train.grad_clip": 1.0,
    "train.encoder_lr_ratio": 0.2,
    "train.out": "runs/toy",
    "data.manifest": "data/manifest.jsonl",
    "stage1.epochs": 1,
    "stage1.batch_size": 8,
    "stage1.base_lr": 1e-3,
    "stage1.mode": "flatten",
    "stage2.epochs": 1,
    "stage2.batch_size": 8,
    "stage2.base_lr": 1e-3,
    "stage2.mode": "flatten",
    "stage3.epochs": 50,
    "stage3.batch_size": 8,
    "stage3.base_lr": 1e-3,
    "stage3.mode": "random_choice",
}

# Full-scale published recipe, kept for documentation; not a toy recipe.
PUBLISHED_PROFILE_OVERRIDES = {
    "stage1.batch_size": 64,
    "stage1.base_lr": 1e-5,
    "stage2.batch_size": 256,
    "stage2.base_lr": 1e-5,
    "stage3.batch_size": 256,
    "stage3.base_lr": 1e-5,
    "stage3.epochs": 50,
}


def _coerce(key, raw):
    default = DEFAULTS[key]
    if isinstance(default, bool):
        if str(raw).lower() in ("1", "true", "yes"):
            return True
        if str(raw).lower() in ("0", "false", "no"):
            return False
        raise ConfigError(f"{key}: expected boolean, got {raw!r}")
    kind = type(default)
    if kind in (int, float):
        try:
            return kind(raw)
        except ValueError:
            raise ConfigError(f"{key}: expected {kind.__name__}, got {raw!r}") from None
    return str(raw)


def _at_least(key, low, strict=False):
    """A (key, check) entry that rejects a value below ``low`` (or equal to
    it, when ``strict``), NaN included."""
    def check(cfg):
        value = cfg[key]
        if not (value > low if strict else value >= low):
            raise ValueError(f"must be {'>' if strict else '>='} {low}, got {value}")
    return key, check


def load_config(path):
    cfg = dict(DEFAULTS)
    text = Path(path).read_text()
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, raw = (s.strip() for s in line.split("=", 1))
        if key not in DEFAULTS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            cfg[key] = _coerce(key, raw)
        except ConfigError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from None
    # values each key accepts alone but the model or the trainer rejects
    checks = [("encoder", encoder_config), ("enhancer", enhancer_config),
              ("decoder", decoder_config)]
    checks += [(f"stage{n}.mode", lambda c, n=n: IterationMode(c[f"stage{n}.mode"]))
               for n in (1, 2, 3)]
    checks += [_at_least(f"stage{n}.{key}", low) for n in (1, 2, 3)
               for key, low in (("epochs", 0), ("batch_size", 1), ("base_lr", 0))]
    checks += [_at_least("train.grad_clip", 0, strict=True),
               _at_least("train.weight_decay", 0), _at_least("train.encoder_lr_ratio", 0)]
    for name, check in checks:
        try:
            check(cfg)
        except ValueError as exc:
            raise ConfigError(f"{path}: {name}: {exc}") from None
    return cfg


def dump_config(cfg, path):
    lines = [f"{k} = {cfg[k]}" for k in DEFAULTS]
    Path(path).write_text("\n".join(lines) + "\n")


def fingerprint(cfg):
    return "|".join(f"{k}={cfg[k]}" for k in sorted(DEFAULTS))


def encoder_config(cfg):
    return EncoderConfig(
        image_size=cfg["encoder.image_size"],
        patch_size=cfg["encoder.patch_size"],
        depth=cfg["encoder.depth"],
        d_model=cfg["encoder.d_model"],
        heads=cfg["encoder.heads"],
        tap_indices=tuple(int(x) for x in str(cfg["encoder.taps"]).split(",")),
        residual_index=cfg["encoder.residual_index"],
    )


def enhancer_config(cfg):
    return EnhancerConfig(
        d_model=cfg["encoder.d_model"],
        num_catl_layers=cfg["enhancer.layers"],
        heads=cfg["enhancer.heads"],
        enabled=cfg["enhancer.enabled"],
        score_concat=cfg["enhancer.score_concat"],
    )


def decoder_config(cfg):
    return DecoderConfig(
        c_model=cfg["decoder.c_model"],
        depth=cfg["decoder.depth"],
        heads=cfg["decoder.heads"],
        max_len=cfg["decoder.max_len"],
    )

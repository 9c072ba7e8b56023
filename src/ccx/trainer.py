"""Three-stage training: freeze schedule, per-group learning rates,
checkpointing, and checkpoint evaluation.

Stage 1 trains only the enhancer; stages 2 and 3 unfreeze everything
with the encoder at ``encoder_lr_ratio`` times the base rate. Stage
boundaries always round-trip through the on-disk checkpoint so that a
resumed run is bit-identical to an unbroken one.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import config as cfgmod
from . import data, metrics, nn
from .bridge import Vocabulary
from .model import CaptionModel, build_vocabulary
from .optim import AdamW
from .tensor_io import FormatError, read_cct1, write_cct1

EVAL_CHUNK = 8  # pairs that evaluate_checkpoint captions together


class NumericAbort(RuntimeError):
    """Training hit a non-finite loss, gradient norm or checkpoint value."""


@dataclass
class StageConfig:
    stage: int
    base_lr: float
    epochs: int
    batch_size: int = 8
    mode: str = "flatten"
    encoder_lr_ratio: float = 0.2
    weight_decay: float = 0.01
    grad_clip: float = 1.0

    def __post_init__(self):
        if self.stage not in (1, 2, 3):
            raise ValueError("stage must be 1, 2 or 3")

    def lr_map(self):
        if self.stage == 1:  # only the enhancer trains
            return {g: self.base_lr if g == "enhancer" else 0.0 for g in nn.GROUPS}
        lrs = dict.fromkeys(nn.GROUPS, self.base_lr)
        lrs["encoder"] = self.encoder_lr_ratio * self.base_lr
        return lrs


@dataclass
class StageReport:
    stage: int
    epoch_losses: list = field(default_factory=list)
    wall_time: float = 0.0
    steps: int = 0


def _batches(items, size):
    for i in range(0, len(items), size):
        yield items[i:i + size]


def load_pair(model: CaptionModel, record, data_dir):
    """``record``'s two images, each checked to be one image of the size
    ``model``'s config sets; ``FormatError`` names the record and file."""
    want = (model.enc_cfg.image_size, model.enc_cfg.image_size, 3)
    pair = data.load_images(record, data_dir)
    for image, name in zip(pair, (record.pathA, record.pathB)):
        if image.shape != want:
            raise FormatError(f"image shape {image.shape} of record {record.id} "
                              f"({Path(data_dir) / name}) does not match config {want}")
    return pair


def train_stage(model: CaptionModel, stage_cfg: StageConfig, records, data_dir,
                seed=0, optimizer=None, max_steps=None) -> StageReport:
    t0 = time.time()
    params = list(model.store.params.values())
    if optimizer is None:
        optimizer = AdamW(params, weight_decay=stage_cfg.weight_decay)
    lr_map = stage_cfg.lr_map()
    report = StageReport(stage=stage_cfg.stage)
    images = {rec.id: load_pair(model, rec, data_dir) for rec in records}
    caption_ids = {cap: model.caption_ids(cap) for rec in records for cap in rec.captions}
    for epoch in range(stage_cfg.epochs):
        mode = data.IterationMode(stage_cfg.mode, seed)
        stream = data.iterate(records, mode, epoch)
        losses = []
        for batch in _batches(stream, stage_cfg.batch_size):
            samples = [(*images[rec.id], caption_ids[cap]) for rec, cap in batch]
            model.store.zero_grad()
            loss = model.batch_loss(samples)
            val = loss.item()
            if not np.isfinite(val):
                raise NumericAbort(
                    f"non-finite loss at stage {stage_cfg.stage} epoch {epoch} "
                    f"batch starting with {batch[0][0].id}")
            loss.backward()
            norm = nn.clip_grads(params, stage_cfg.grad_clip)
            if not np.isfinite(norm):  # clipping skips a NaN norm; AdamW would spread it
                raise NumericAbort(
                    f"non-finite gradient norm at stage {stage_cfg.stage} epoch {epoch} "
                    f"batch starting with {batch[0][0].id}")
            optimizer.step(lr_map)
            losses.append(val)
            report.steps += 1
            if max_steps is not None and report.steps >= max_steps:
                break
        report.epoch_losses.append(float(np.mean(losses)))
        if max_steps is not None and report.steps >= max_steps:
            break
    report.wall_time = time.time() - t0
    return report


# ---------------------------------------------------------------- checkpoints

def save_checkpoint(model: CaptionModel, optimizer: AdamW, path, meta=None):
    """Write the checkpoint directory ``path`` as a whole or not at all.

    The files go into the hidden sibling ``.<name>.spare``, which takes
    the place of ``path`` only when complete; on an error the spare is
    removed and the earlier checkpoint stays as it was. The checkpoint it
    replaces (moved aside first: ``os.replace`` cannot overwrite a
    non-empty directory) becomes the next save's spare, whose files that
    save overwrites and prunes: on ext4, creating a checkpoint's files
    anew took about three times as long as overwriting them.
    """
    path = Path(path)
    spare, old = (path.with_name(f".{path.name}.{s}") for s in ("spare", "old"))
    arrays = {}
    for p in model.store.params.values():
        arrays[f"params/{p.name}.cct1"] = p.tensor.data
        arrays[f"optim/{p.name}.m.cct1"] = optimizer.m[p.name]
        arrays[f"optim/{p.name}.v.cct1"] = optimizer.v[p.name]
    try:
        (spare / "params").mkdir(parents=True, exist_ok=True)
        (spare / "optim").mkdir(exist_ok=True)
        for file in list(spare.rglob("*")):  # files of an earlier config
            name = file.relative_to(spare).as_posix()
            if file.is_file() and name not in arrays and name not in ("state", "vocab.txt"):
                file.unlink()
        for name, array in arrays.items():
            try:
                write_cct1(spare / name, array)
            except FormatError as exc:  # name the file asked for, not the spare
                raise FormatError(str(exc).replace(str(spare), str(path))) from None
        state = {"t": optimizer.t}
        state.update(meta or {})
        (spare / "state").write_text(json.dumps(state, sort_keys=True) + "\n")
        model.vocab.save(spare / "vocab.txt")
        if path.exists():
            shutil.rmtree(old, ignore_errors=True)  # left by a save killed mid-swap
            os.replace(path, old)
        os.replace(spare, path)
    except BaseException:
        if old.exists() and not path.exists():
            os.replace(old, path)
        shutil.rmtree(spare, ignore_errors=True)
        raise
    with contextlib.suppress(OSError):  # the save is done; keeping a spare is not needed
        os.replace(old, spare)


def load_params(model: CaptionModel, path):
    """Read only a checkpoint's parameters into ``model`` (for inference).

    The checkpoint's ``vocab.txt``, when it has one, must list the model's
    tokens in the model's order: the embedding and output rows are indexed
    by token id. A checkpoint without the file loads as it is."""
    path = Path(path)
    file = path / "vocab.txt"
    if file.exists():
        have, want = Vocabulary.load(file).tokens, model.vocab.tokens
        if have != want:
            i = next((i for i, (a, b) in enumerate(zip(have, want)) if a != b),
                     min(len(have), len(want)))
            raise ValueError(f"{file}: the checkpoint's vocabulary ({len(have)} tokens) "
                             f"differs from the model's ({len(want)}) at id {i}")
    for p in model.store.params.values():
        arr = read_cct1(path / "params" / f"{p.name}.cct1")
        if arr.shape != p.tensor.shape:
            raise ValueError(f"checkpoint shape mismatch for {p.name}")
        p.tensor.data = arr


def read_state(path):
    """The JSON object in checkpoint ``path``'s ``state`` file, whose ``t``
    is an int and whose ``fingerprint``, if any, is a string."""
    file = Path(path) / "state"
    try:
        state = json.loads(file.read_text())
    except ValueError as exc:  # not UTF-8 or not JSON
        raise FormatError(f"{file}: not JSON: {exc}") from None
    if not isinstance(state, dict):
        raise FormatError(f"{file}: expected a JSON object, got {type(state).__name__}")
    if not isinstance(state.get("fingerprint", ""), str):
        raise FormatError(f"{file}: fingerprint must be a string, "
                          f"got {state['fingerprint']!r}")
    t = state.get("t")
    if not isinstance(t, int) or isinstance(t, bool):
        raise FormatError(f"{file}: t must be an int, got {t!r}")
    return state


def load_checkpoint(model: CaptionModel, optimizer: AdamW, path):
    path = Path(path)
    state = read_state(path)
    load_params(model, path)
    for p in model.store.params.values():
        optimizer.m[p.name] = read_cct1(path / "optim" / f"{p.name}.m.cct1")
        optimizer.v[p.name] = read_cct1(path / "optim" / f"{p.name}.v.cct1")
    optimizer.t = state["t"]
    return state


# ------------------------------------------------------------------- pipeline

def build_model(cfg, seed=None):
    vocab = build_vocabulary()
    return CaptionModel(
        cfgmod.encoder_config(cfg), cfgmod.enhancer_config(cfg),
        cfgmod.decoder_config(cfg), vocab,
        seed=cfg["train.seed"] if seed is None else seed)


def _model_config(fingerprint):
    """The encoder, enhancer and decoder entries of a config fingerprint;
    the rest (output directory, manifest) may differ between runs."""
    return dict(part.split("=", 1) for part in fingerprint.split("|")
                if part.startswith(("encoder.", "enhancer.", "decoder.")))


def load_model(cfg, path):
    """The model ``cfg`` describes, with the parameters of checkpoint
    ``path``, which must have been trained under the same model config
    (a checkpoint that stores no fingerprint is taken as it is)."""
    path = Path(path)
    model = build_model(cfg)
    load_params(model, path)
    stored = read_state(path).get("fingerprint")
    if stored is not None:
        have, want = _model_config(stored), _model_config(cfgmod.fingerprint(cfg))
        diff = [f"{k}={have.get(k)} (config: {want.get(k)})"
                for k in sorted(have.keys() | want.keys()) if have.get(k) != want.get(k)]
        if diff:
            raise ValueError(f"{path}: checkpoint was trained with {', '.join(diff)}")
    return model


def stage_config(cfg, stage):
    s = f"stage{stage}"
    return StageConfig(
        stage=stage,
        base_lr=cfg[f"{s}.base_lr"],
        epochs=cfg[f"{s}.epochs"],
        batch_size=cfg[f"{s}.batch_size"],
        mode=cfg[f"{s}.mode"],
        encoder_lr_ratio=cfg["train.encoder_lr_ratio"],
        weight_decay=cfg["train.weight_decay"],
        grad_clip=cfg["train.grad_clip"],
    )


def run_pipeline(cfg, stages=(1, 2, 3), resume_from=None, log=None):
    """Run the staged schedule on the manifest's ``split == "train"``
    records; returns (final checkpoint dir, reports)."""
    out = Path(cfg["train.out"])
    out.mkdir(parents=True, exist_ok=True)
    records = [rec for rec in data.load_manifest(cfg["data.manifest"]) if rec.split == "train"]
    if not records:
        raise data.ManifestError(f"{cfg['data.manifest']}: no records with split 'train'")
    data_dir = Path(cfg["data.manifest"]).parent
    # AdamW state is not restored: every stage starts it afresh
    model = build_model(cfg) if resume_from is None else load_model(cfg, resume_from)
    optimizer = AdamW(list(model.store.params.values()),
                      weight_decay=cfg["train.weight_decay"])
    reports = []
    ckpt = Path(resume_from) if resume_from else None
    for stage in stages:
        scfg = stage_config(cfg, stage)
        optimizer.reset()  # each stage is a fresh optimization run
        report = train_stage(model, scfg, records, data_dir,
                             seed=cfg["train.seed"], optimizer=optimizer)
        reports.append(report)
        if log:
            for epoch, loss in enumerate(report.epoch_losses):
                log(f"stage={stage} epoch={epoch} loss={loss:.6f}")
        ckpt = out / f"stage{stage}"
        try:
            save_checkpoint(model, optimizer, ckpt,
                            meta={"stage": stage, "fingerprint": cfgmod.fingerprint(cfg)})
        except FormatError as exc:  # write_cct1 refused a non-finite value
            raise NumericAbort(str(exc)) from exc
        # round-trip so later stages start from exactly the stored parameters
        load_params(model, ckpt)
    return ckpt, reports


def evaluate_checkpoint(model: CaptionModel, records, data_dir,
                        split=None) -> metrics.MetricReport:
    records = [rec for rec in records if split is None or rec.split == split]
    metrics.require_entries(len(records), "the manifest" if split is None else f"split {split!r}")
    items = []
    for chunk in _batches(records, EVAL_CHUNK):
        img1, img2 = map(np.stack, zip(*(load_pair(model, rec, data_dir) for rec in chunk)))
        for rec, (hyp, _, _) in zip(chunk, model.generate(img1, img2)):
            items.append((rec.id, hyp, rec.captions))
    return metrics.evaluate(metrics.make_corpus(items))

import hashlib
import os
from pathlib import Path

import numpy as np
import pytest

from ccx import config as cfgmod
from ccx import data, metrics, nn, trainer
from ccx import tensor as T
from ccx.model import CaptionModel, build_vocabulary
from ccx.optim import AdamW
from ccx.rng import Rng
from ccx.tensor_io import FormatError
from ccx.verify import small_configs

BASE_LR = 1e-3


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    d = tmp_path_factory.mktemp("trainset")
    manifest = data.generate_dataset(4, seed=3, out_dir=d, image_size=16)
    return d, data.load_manifest(manifest)


def _model(seed=0):
    enc, enh, dec = small_configs()
    return CaptionModel(enc, enh, dec, build_vocabulary(), seed=seed)


def _small_cfg(manifest, out):
    cfg = dict(cfgmod.DEFAULTS)
    cfg.update({
        "encoder.image_size": 16, "encoder.depth": 4, "encoder.d_model": 8,
        "encoder.heads": 2, "encoder.taps": "-3,-2",
        "decoder.c_model": 12, "decoder.depth": 2, "decoder.heads": 2,
        "decoder.max_len": 12,
        "stage1.epochs": 1, "stage2.epochs": 1, "stage3.epochs": 1,
        "stage1.base_lr": BASE_LR, "stage2.base_lr": BASE_LR,
        "stage3.base_lr": BASE_LR,
        "data.manifest": str(manifest), "train.out": str(out),
    })
    return cfg


def _files(path):
    return {p.relative_to(path): p.read_bytes() for p in Path(path).rglob("*") if p.is_file()}


def _ckpt_digest(path):
    h = hashlib.sha256()
    for p in sorted(Path(path, "params").iterdir()):
        h.update(p.name.encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def test_build_model_creates_every_parameter_without_gradients(monkeypatch):
    """The throwaway forward that creates the parameters records no graph."""
    recorded = []
    real = T._node

    def node(*args):
        out = real(*args)
        recorded.append(out.requires_grad)
        return out

    monkeypatch.setattr(T, "_node", node)
    model = trainer.build_model(dict(cfgmod.DEFAULTS))
    assert recorded and not any(recorded)
    params = list(model.store.params.values())
    assert {p.group for p in params} == set(nn.GROUPS)
    assert len(params) == 345  # the default model's parameter tensors
    assert all(p.tensor.requires_grad and p.tensor.grad is None for p in params)


class TestStageConfig:
    def test_stage1_trains_only_enhancer(self):
        lrs = trainer.StageConfig(stage=1, base_lr=BASE_LR, epochs=1).lr_map()
        assert lrs == {"encoder": 0.0, "enhancer": BASE_LR,
                       "projector": 0.0, "decoder": 0.0}

    def test_stage2_scales_encoder(self):
        lrs = trainer.StageConfig(stage=2, base_lr=BASE_LR, epochs=1).lr_map()
        assert lrs["encoder"] == pytest.approx(0.2 * BASE_LR)
        for g in ("enhancer", "projector", "decoder"):
            assert lrs[g] == BASE_LR

    def test_stage3_same_shape_as_stage2(self):
        assert (trainer.StageConfig(stage=3, base_lr=BASE_LR, epochs=1).lr_map()
                == trainer.StageConfig(stage=2, base_lr=BASE_LR, epochs=1).lr_map())

    def test_bad_stage(self):
        with pytest.raises(ValueError):
            trainer.StageConfig(stage=4, base_lr=BASE_LR, epochs=1)


class TestFreezing:
    def test_stage1_leaves_frozen_groups_bit_unchanged(self, dataset):
        d, records = dataset
        model = _model(seed=1)
        before = {g: model.store.checksum(g) for g in nn.GROUPS}
        opt = AdamW(list(model.store.params.values()))
        scfg = trainer.StageConfig(stage=1, base_lr=BASE_LR, epochs=1)
        trainer.train_stage(model, scfg, records, d, optimizer=opt, max_steps=2)
        after = {g: model.store.checksum(g) for g in nn.GROUPS}
        for g in ("encoder", "projector", "decoder"):
            assert after[g] == before[g], g
        assert after["enhancer"] != before["enhancer"]

    def test_stage1_keeps_frozen_moments_zero(self, dataset):
        d, records = dataset
        model = _model(seed=1)
        opt = AdamW(list(model.store.params.values()))
        scfg = trainer.StageConfig(stage=1, base_lr=BASE_LR, epochs=1)
        trainer.train_stage(model, scfg, records, d, optimizer=opt, max_steps=2)
        for p in model.store.params.values():
            if p.group != "enhancer":
                assert not opt.m[p.name].any() and not opt.v[p.name].any(), p.name


class TestUpdateMath:
    def test_single_step_matches_manual_adamw(self, dataset):
        """One stage-2 step equals the hand-computed AdamW update,
        with the encoder at 0.2x the base rate."""
        d, records = dataset
        seed, wd = 7, 0.01
        scfg = trainer.StageConfig(stage=2, base_lr=BASE_LR, epochs=1,
                                   batch_size=4, weight_decay=wd)
        trained = _model(seed=2)
        opt = AdamW(list(trained.store.params.values()), weight_decay=wd)
        trainer.train_stage(trained, scfg, records, d, seed=seed,
                            optimizer=opt, max_steps=1)

        manual = _model(seed=2)
        stream = data.iterate(records, data.IterationMode(scfg.mode, seed), 0)
        batch = stream[:scfg.batch_size]
        samples = [(data.load_images(rec, d)[0], data.load_images(rec, d)[1],
                    manual.caption_ids(cap)) for rec, cap in batch]
        manual.store.zero_grad()
        manual.batch_loss(samples).backward()
        params = list(manual.store.params.values())
        nn.clip_grads(params, scfg.grad_clip)
        lrs = scfg.lr_map()
        assert lrs["encoder"] == 0.2 * BASE_LR
        for p in params:
            g = p.tensor.grad
            if g is None:
                g = np.zeros_like(p.tensor.data)
            m = 0.1 * g
            v = 0.001 * g * g
            mhat = m / (1 - 0.9)
            vhat = v / (1 - 0.999)
            lr = lrs[p.group]
            expected = p.tensor.data - lr * (mhat / (np.sqrt(vhat) + 1e-8)
                                             + wd * p.tensor.data)
            got = trained.store.params[p.name].tensor.data
            np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-15)

    def test_encoder_rate_actually_smaller(self, dataset):
        """Rerunning the same step with ratio 1.0 moves the encoder more."""
        d, records = dataset

        def run(ratio):
            model = _model(seed=2)
            start = {p.name: p.tensor.data.copy()
                     for p in model.store.group_params("encoder")}
            scfg = trainer.StageConfig(stage=2, base_lr=BASE_LR, epochs=1,
                                       batch_size=4, encoder_lr_ratio=ratio)
            opt = AdamW(list(model.store.params.values()))
            trainer.train_stage(model, scfg, records, d, seed=7,
                                optimizer=opt, max_steps=1)
            return sum(np.abs(p.tensor.data - start[p.name]).sum()
                       for p in model.store.group_params("encoder"))

        assert run(0.2) < run(1.0)


class TestDescent:
    def test_loss_decreases_on_fixed_batch(self, dataset):
        d, records = dataset
        model = _model(seed=3)
        scfg = trainer.StageConfig(stage=2, base_lr=BASE_LR, epochs=12,
                                   batch_size=32)
        opt = AdamW(list(model.store.params.values()))
        rep = trainer.train_stage(model, scfg, records[:2], d, seed=1,
                                  optimizer=opt)
        assert rep.epoch_losses[-1] < rep.epoch_losses[0]

    def test_nan_parameter_aborts(self, dataset):
        d, records = dataset
        model = _model(seed=3)
        next(iter(model.store.params.values())).tensor.data[...] = np.nan
        scfg = trainer.StageConfig(stage=2, base_lr=BASE_LR, epochs=1)
        with pytest.raises(trainer.NumericAbort):
            trainer.train_stage(model, scfg, records, d, max_steps=1)

    def test_nan_gradient_aborts_before_update(self, dataset, monkeypatch):
        d, records = dataset
        model = _model(seed=3)
        real_clip = nn.clip_grads

        def poisoned(params, max_norm):
            next(p for p in params if p.tensor.grad is not None).tensor.grad.flat[0] = np.nan
            return real_clip(params, max_norm)

        monkeypatch.setattr(nn, "clip_grads", poisoned)
        before = model.store.checksum()
        scfg = trainer.StageConfig(stage=2, base_lr=BASE_LR, epochs=1)
        with pytest.raises(trainer.NumericAbort, match="gradient"):
            trainer.train_stage(model, scfg, records, d, max_steps=1)
        assert model.store.checksum() == before


class TestBatchLoss:
    CAPTIONS = ("a road", "there is no change", "a building is built at the center")

    def _samples(self, model):
        r = Rng(61)
        s = model.enc_cfg.image_size
        return [(r.uniform((s, s, 3)), r.uniform((s, s, 3)), model.caption_ids(c))
                for c in self.CAPTIONS]

    def test_batch_is_mean_of_its_samples(self):
        """Padding and per-token weights: a batch of captions of three
        lengths gives the mean loss and gradient of its one-sample batches."""
        model = _model(seed=4)
        samples = self._samples(model)
        assert len({len(ids) for _, _, ids in samples}) == 3

        def loss_and_grads(batch):
            model.store.zero_grad()
            loss = model.batch_loss(batch)
            loss.backward()
            return loss.item(), {n: p.tensor.grad for n, p in model.store.params.items()
                                 if p.tensor.grad is not None}

        loss, grads = loss_and_grads(samples)
        singles = [loss_and_grads([s]) for s in samples]
        assert loss == pytest.approx(np.mean([l for l, _ in singles]), rel=1e-12, abs=0)
        norm = np.sqrt(sum((g * g).sum() for g in grads.values()))
        assert all(gs.keys() == grads.keys() for _, gs in singles)
        for name, g in grads.items():
            mean = sum(gs[name] for _, gs in singles) / len(singles)
            assert np.abs(g - mean).max() <= 1e-12 * norm, name

    @pytest.mark.parametrize("where", [0, 1, 2])
    @pytest.mark.parametrize("bad", ["empty", "too long"])
    def test_bad_caption_anywhere_raises(self, where, bad):
        model = _model(seed=4)
        samples = self._samples(model)
        ids = [] if bad == "empty" else [3] * (model.dec_cfg.max_len + 1)
        samples[where] = (*samples[where][:2], ids)
        with pytest.raises(ValueError, match="empty caption|max_len"):
            model.batch_loss(samples)


class TestCheckpoint:
    def test_round_trip_restores_params_and_moments(self, tmp_path, dataset):
        d, records = dataset
        model = _model(seed=4)
        opt = AdamW(list(model.store.params.values()))
        scfg = trainer.StageConfig(stage=2, base_lr=BASE_LR, epochs=1)
        trainer.train_stage(model, scfg, records, d, optimizer=opt, max_steps=1)
        trainer.save_checkpoint(model, opt, tmp_path / "ck", meta={"stage": 2})

        other = _model(seed=99)
        opt2 = AdamW(list(other.store.params.values()))
        state = trainer.load_checkpoint(other, opt2, tmp_path / "ck")
        assert state["stage"] == 2 and opt2.t == opt.t
        # stored as f32, so compare against the f32 rounding of the source
        for name, p in model.store.params.items():
            np.testing.assert_array_equal(
                other.store.params[name].tensor.data,
                p.tensor.data.astype(np.float32).astype(np.float64))
            np.testing.assert_array_equal(
                opt2.m[name], opt.m[name].astype(np.float32).astype(np.float64))

    def test_save_load_save_is_stable(self, tmp_path, dataset):
        model = _model(seed=4)
        opt = AdamW(list(model.store.params.values()))
        trainer.save_checkpoint(model, opt, tmp_path / "c1")
        trainer.load_checkpoint(model, opt, tmp_path / "c1")
        trainer.save_checkpoint(model, opt, tmp_path / "c2")
        assert _ckpt_digest(tmp_path / "c1") == _ckpt_digest(tmp_path / "c2")

    def test_resume_step_equals_unbroken_step(self, tmp_path, dataset):
        d, records = dataset
        base = _model(seed=5)
        opt0 = AdamW(list(base.store.params.values()))
        trainer.save_checkpoint(base, opt0, tmp_path / "start")

        results = []
        for run in range(2):
            model = _model(seed=123 + run)  # seeds differ; checkpoint wins
            opt = AdamW(list(model.store.params.values()))
            trainer.load_checkpoint(model, opt, tmp_path / "start")
            scfg = trainer.StageConfig(stage=2, base_lr=BASE_LR, epochs=1)
            trainer.train_stage(model, scfg, records, d, seed=1,
                                optimizer=opt, max_steps=1)
            results.append(model.store.checksum())
        assert results[0] == results[1]

    def test_shape_mismatch_rejected(self, tmp_path):
        model = _model(seed=6)
        opt = AdamW(list(model.store.params.values()))
        trainer.save_checkpoint(model, opt, tmp_path / "ck")
        enc, enh, dec = small_configs()
        enc = type(enc)(image_size=16, patch_size=8, depth=4, d_model=8,
                        heads=2, tap_indices=(-3, -2), residual_index=-2)
        other = CaptionModel(enc, enh, dec, build_vocabulary(), seed=6)
        opt2 = AdamW(list(other.store.params.values()))
        with pytest.raises(ValueError, match="shape"):
            trainer.load_checkpoint(other, opt2, tmp_path / "ck")

    def test_save_drops_stale_files(self, tmp_path):
        model = _model(seed=6)
        opt = AdamW(list(model.store.params.values()))
        ck = tmp_path / "ck"
        trainer.save_checkpoint(model, opt, ck)
        for _ in range(2):  # the second save rewrites the first one's files
            (ck / "params" / "decoder.retired.cct1").write_bytes(b"stale")
            trainer.save_checkpoint(model, opt, ck)
            assert not (ck / "params" / "decoder.retired.cct1").exists()
        trainer.save_checkpoint(model, opt, tmp_path / "fresh")
        assert _files(ck) == _files(tmp_path / "fresh")
        assert sorted(p.name for p in tmp_path.iterdir()) == [".ck.spare", "ck", "fresh"]

    def test_refused_write_keeps_old_checkpoint(self, tmp_path):
        model = _model(seed=6)
        opt = AdamW(list(model.store.params.values()))
        ck = tmp_path / "ck"
        for _ in range(2):  # the second save leaves a spare behind
            trainer.save_checkpoint(model, opt, ck)
        before = _files(ck)
        for p in model.store.params.values():
            p.tensor.data += 1.0
        bad = next(iter(opt.v))
        opt.v[bad][...] = 1e39  # beyond float32: write_cct1 refuses it
        for path in (ck, tmp_path / "fresh"):
            with pytest.raises(FormatError, match="non-finite") as err:
                trainer.save_checkpoint(model, opt, path)
            assert str(err.value).startswith(f"{path / 'optim' / bad}.v.cct1: ")
        assert _files(ck) == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ck"]

    @pytest.mark.parametrize("failing", ["swap", "keeping the spare"])
    def test_swap_failures(self, tmp_path, monkeypatch, failing):
        model = _model(seed=6)
        opt = AdamW(list(model.store.params.values()))
        ck = tmp_path / "ck"
        trainer.save_checkpoint(model, opt, ck)
        before = _files(ck)
        for p in model.store.params.values():
            p.tensor.data += 1.0
        trainer.save_checkpoint(model, opt, tmp_path / "want")
        real = os.replace

        def replace(src, dst):
            if Path(src if failing == "swap" else dst).name == ".ck.spare":
                raise OSError("replace failed")
            real(src, dst)

        monkeypatch.setattr(os, "replace", replace)
        if failing == "swap":  # the save fails and the earlier checkpoint stays
            with pytest.raises(OSError, match="replace failed"):
                trainer.save_checkpoint(model, opt, ck)
            assert _files(ck) == before
        else:  # the new checkpoint is in place, so the save succeeds
            trainer.save_checkpoint(model, opt, ck)
            assert _files(ck) == _files(tmp_path / "want")


class TestPipeline:
    def test_identical_runs_bit_identical(self, tmp_path, dataset):
        d, records = dataset
        manifest = d / "manifest.jsonl"
        digests = []
        for run in range(2):
            out = tmp_path / f"run{run}"
            cfg = _small_cfg(manifest, out)
            ckpt, reports = trainer.run_pipeline(cfg)
            assert [r.stage for r in reports] == [1, 2, 3]
            digests.append(_ckpt_digest(ckpt))
        assert digests[0] == digests[1]

    def test_skipping_stage_one_changes_result(self, tmp_path, dataset):
        d, _ = dataset
        manifest = d / "manifest.jsonl"
        full_cfg = _small_cfg(manifest, tmp_path / "full")
        ck_full, _ = trainer.run_pipeline(full_cfg)
        part_cfg = _small_cfg(manifest, tmp_path / "part")
        ck_part, reports = trainer.run_pipeline(part_cfg, stages=(2, 3))
        assert [r.stage for r in reports] == [2, 3]
        assert _ckpt_digest(ck_full) != _ckpt_digest(ck_part)

    def test_stage_boundaries_read_parameters_only(self, tmp_path, dataset, monkeypatch):
        d, _ = dataset
        reads = []
        real = trainer.read_cct1
        monkeypatch.setattr(trainer, "read_cct1", lambda path: reads.append(path) or real(path))
        ck, _ = trainer.run_pipeline(_small_cfg(d / "manifest.jsonl", tmp_path / "run"),
                                     stages=(1, 2))
        trainer.run_pipeline(_small_cfg(d / "manifest.jsonl", tmp_path / "resumed"),
                             stages=(3,), resume_from=ck)
        assert reads and all(Path(path).parent.name == "params" for path in reads)

    def test_trains_only_on_train_split(self, tmp_path, monkeypatch):
        manifest = data.generate_dataset(4, seed=3, out_dir=tmp_path, image_size=16)
        records = data.load_manifest(manifest)
        for rec in records[1::2]:
            rec.split = "test"
        data.write_manifest(records, manifest)
        seen = []
        real = data.iterate

        def iterate(recs, mode, epoch):
            seen.append([rec.id for rec in recs])
            return real(recs, mode, epoch)

        monkeypatch.setattr(data, "iterate", iterate)
        trainer.run_pipeline(_small_cfg(manifest, tmp_path / "run"), stages=(1,))
        assert seen == [[records[0].id, records[2].id]]

    def test_evaluate_untrained_model(self, dataset):
        d, records = dataset
        rep = trainer.evaluate_checkpoint(_model(seed=8), records, d)
        for v in rep.bleu + [rep.meteor, rep.rouge_l]:
            assert 0.0 <= v <= 100.0
        assert 0.0 <= rep.cider_d <= 1000.0

    @pytest.mark.parametrize("n", [9, 11])  # last chunk of 1 and of 3 pairs
    def test_evaluate_in_chunks_equals_per_record_loop(self, tmp_path, n):
        assert n % trainer.EVAL_CHUNK
        manifest = data.generate_dataset(n, seed=3, out_dir=tmp_path, image_size=16)
        records = data.load_manifest(manifest)
        model = _model(seed=2)
        items = []
        for rec in records:
            hyp, _, _ = model.generate(*data.load_images(rec, tmp_path))
            items.append((rec.id, hyp, rec.captions))
        assert len({hyp for _, hyp, _ in items}) > 1  # pairs caption differently
        want = metrics.evaluate(metrics.make_corpus(items))
        assert trainer.evaluate_checkpoint(model, records, tmp_path) == want

    def test_evaluate_empty_split_rejected(self, dataset):
        d, records = dataset
        with pytest.raises(ValueError, match="split"):
            trainer.evaluate_checkpoint(_model(seed=8), records, d, split="test")

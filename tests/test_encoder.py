import re

import numpy as np
import pytest

from ccx import encoder
from ccx import tensor as T
from ccx.nn import ParamStore
from ccx.rng import Rng
from ccx.verify import finite_diff_check


@pytest.fixture
def small_cfg():
    return encoder.EncoderConfig(image_size=16, patch_size=4, depth=4, d_model=8,
                                 heads=2, tap_indices=(-3, -2), residual_index=-2)


@pytest.fixture
def store():
    return ParamStore(Rng(42))


def _images(seed, size):
    r = Rng(seed)
    return (np.clip(0.5 + 0.3 * r.normal((size, size, 3)), 0, 1),
            np.clip(0.5 + 0.3 * r.normal((size, size, 3)), 0, 1))


class TestConfig:
    def test_divisibility_checks(self):
        with pytest.raises(ValueError):
            encoder.EncoderConfig(image_size=30, patch_size=4)
        with pytest.raises(ValueError):
            encoder.EncoderConfig(d_model=30, heads=4)

    def test_tap_depth_check(self):
        with pytest.raises(ValueError):
            encoder.EncoderConfig(depth=4, tap_indices=(-6, -2))

    @pytest.mark.parametrize("taps", [(-2, 3), (0, -2), (-5, -2)],
                             ids=["positive", "zero", "below-depth"])
    def test_tap_offset_outside_depth_is_refused(self, taps):
        with pytest.raises(ValueError, match=r"outside \[-4, -1\]"):
            encoder.EncoderConfig(depth=4, tap_indices=taps)

    def test_repeated_tap_offset_is_refused(self):
        with pytest.raises(ValueError, match="repeat"):
            encoder.EncoderConfig(depth=4, tap_indices=(-2, -2))

    def test_every_offset_of_the_depth_is_accepted(self):
        cfg = encoder.EncoderConfig(depth=4, tap_indices=(-1, -4, -3, -2))
        assert cfg.tap_indices == (-4, -3, -2, -1)

    def test_residual_must_be_tap_or_penultimate(self):
        with pytest.raises(ValueError):
            encoder.EncoderConfig(depth=6, tap_indices=(-3, -2), residual_index=-4)


class TestPatchEmbed:
    def test_token_count_default(self):
        assert encoder.EncoderConfig().num_patches == 64

    def test_zero_image_tokens_equal_bias_plus_pos(self, store, small_cfg):
        out = encoder.patch_embed(store, np.zeros((16, 16, 3)), small_cfg)
        bias = store.params["encoder.patch.b"].tensor.data
        pos = store.params["encoder.pos"].tensor.data
        np.testing.assert_array_equal(out.data, bias + pos)

    def test_size_mismatch(self, store, small_cfg):
        with pytest.raises(T.ShapeError):
            encoder.patch_embed(store, np.zeros((8, 8, 3)), small_cfg)

    @pytest.mark.parametrize("shape", [(16, 16), (48,), ()])
    def test_rank_below_three_is_shape_error(self, store, small_cfg, shape):
        with pytest.raises(T.ShapeError, match=rf"^image shape {re.escape(str(shape))} "):
            encoder.patch_embed(store, np.zeros(shape), small_cfg)

    def test_gradcheck(self, store, small_cfg):
        img = _images(1, 16)[0]
        w = Rng(2).normal((small_cfg.num_patches, small_cfg.d_model))

        def build():
            return T.tsum(encoder.patch_embed(store, img, small_cfg) * T.Tensor(w))

        build()
        tensors = {name: store.params[name].tensor for name in ("encoder.patch.w", "encoder.pos")}
        errs = finite_diff_check(build, tensors, max_entries=8)
        assert max(errs.values()) < 1e-5


class TestEncodePair:
    def test_identical_images_identical_taps(self, store, small_cfg):
        i1, _ = _images(3, 16)
        pyr = encoder.encode_pair(store, i1, i1.copy(), small_cfg)
        for off, (f1, f2) in pyr.taps.items():
            assert f1.data.tobytes() == f2.data.tobytes()

    def test_default_config_pyramid_geometry(self):
        cfg = encoder.EncoderConfig()
        store = ParamStore(Rng(0))
        i1, i2 = _images(4, 32)
        pyr = encoder.encode_pair(store, i1, i2, cfg)
        assert sorted(pyr.taps) == [-11, -8, -5, -2]
        for f1, f2 in pyr.taps.values():
            assert f1.shape == (64, 32) and f2.shape == (64, 32)

    def test_swap_inputs_swaps_features(self, store, small_cfg):
        i1, i2 = _images(5, 16)
        a = encoder.encode_pair(store, i1, i2, small_cfg)
        b = encoder.encode_pair(store, i2, i1, small_cfg)
        for off in a.taps:
            assert a.taps[off][0].data.tobytes() == b.taps[off][1].data.tobytes()
            assert a.taps[off][1].data.tobytes() == b.taps[off][0].data.tobytes()

    def test_deterministic(self, store, small_cfg):
        i1, i2 = _images(6, 16)
        a = encoder.encode_pair(store, i1, i2, small_cfg)
        b = encoder.encode_pair(store, i1, i2, small_cfg)
        assert a.residual[0].data.tobytes() == b.residual[0].data.tobytes()

    def test_residual_is_penultimate_tap(self, store, small_cfg):
        i1, i2 = _images(7, 16)
        pyr = encoder.encode_pair(store, i1, i2, small_cfg)
        assert pyr.residual[0].data.tobytes() == pyr.taps[-2][0].data.tobytes()
        # one split per block: the residual pair is the tap's pair of tensors
        assert pyr.residual[0] is pyr.taps[-2][0] and pyr.residual[1] is pyr.taps[-2][1]

    @pytest.mark.parametrize("lead", [(), (1,), (8,)])
    def test_taps_equal_per_image_encodings_bitwise(self, lead):
        """One stacked pass gives each image's taps to the bit, as encoding
        it alone does: the encoder is batch-invariant on this BLAS."""
        cfg = encoder.EncoderConfig()
        store = ParamStore(Rng(0))
        r = Rng(9)
        i1, i2 = (np.clip(0.5 + 0.3 * r.normal(lead + (32, 32, 3)), 0, 1) for _ in range(2))
        pyr = encoder.encode_pair(store, i1, i2, cfg)
        outs = [encoder.encode_image(store, img, cfg) for img in (i1, i2)]
        for off, pair in [*pyr.taps.items(), (cfg.residual_index, pyr.residual)]:
            for got, per_image in zip(pair, outs, strict=True):
                assert got.shape == lead + (64, 32)
                assert got.data.tobytes() == per_image[cfg.depth + off].data.tobytes()

    def test_batch_of_pairs_equals_single_pair_calls_bitwise(self):
        """The taps of 8 pairs encoded in one call equal, to the bit, those
        of 8 calls with one pair each: no op's bits depend on the batch."""
        cfg = encoder.EncoderConfig()
        store = ParamStore(Rng(0))
        r = Rng(11)
        i1, i2 = (np.clip(0.5 + 0.3 * r.normal((8, 32, 32, 3)), 0, 1) for _ in range(2))
        batch = encoder.encode_pair(store, i1, i2, cfg)
        for b in range(8):
            one = encoder.encode_pair(store, i1[b], i2[b], cfg)
            pairs = [(batch.taps[off], one.taps[off]) for off in cfg.tap_indices]
            for got, want in [*pairs, (batch.residual, one.residual)]:
                for g, w in zip(got, want, strict=True):
                    assert g.data[b].tobytes() == w.data.tobytes()

    def test_gradcheck_through_stacked_pass(self, store, small_cfg):
        i1, i2 = _images(10, 16)
        w1, w2 = (Rng(11 + k).normal((small_cfg.num_patches, small_cfg.d_model))
                  for k in range(2))

        def build():
            pyr = encoder.encode_pair(store, i1, i2, small_cfg)
            f1, f2 = pyr.taps[-3]
            return T.tsum(f1 * T.Tensor(w1)) + T.tsum(f2 * T.Tensor(w2))

        build()
        names = ("encoder.patch.w", "encoder.block0.attn.q.w", "encoder.block1.mlp.fc1.w")
        errs = finite_diff_check(build, {n: store.params[n].tensor for n in names},
                                 max_entries=8)
        assert max(errs.values()) < 1e-5

    def test_each_image_checked_before_stacking(self, store, small_cfg):
        good = np.zeros((16, 16, 3))
        with pytest.raises(T.ShapeError, match=r"^image shape \(8, 8, 3\) does not match"):
            encoder.encode_pair(store, good, np.zeros((8, 8, 3)), small_cfg)
        with pytest.raises(T.ShapeError, match="image pair shapes differ"):
            encoder.encode_pair(store, good, np.zeros((2, 16, 16, 3)), small_cfg)

    def test_tap_choice_does_not_change_computation(self):
        i1, i2 = _images(8, 16)
        outs = []
        for taps in [(-3, -2), (-2,), (-4, -2)]:
            cfg = encoder.EncoderConfig(image_size=16, patch_size=4, depth=4,
                                        d_model=8, heads=2, tap_indices=taps,
                                        residual_index=-2)
            store = ParamStore(Rng(99))
            final = encoder.encode_image(store, i1, cfg)[-1]
            outs.append(final.data.tobytes())
        assert outs[0] == outs[1] == outs[2]

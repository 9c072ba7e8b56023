"""Batching invariants of ``CaptionModel`` over small configs drawn by
hypothesis: a batch gives what its samples give one at a time."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ccx import bridge, encoder, enhancer
from ccx import tensor as T
from ccx.model import CaptionModel, build_vocabulary
from ccx.rng import Rng

VOCAB = build_vocabulary()
D = 8  # encoder and enhancer width
C = 12  # decoder width


@st.composite
def small_models(draw):
    patch = draw(st.sampled_from((2, 4)))
    depth = draw(st.integers(2, 4))
    enc = encoder.EncoderConfig(
        image_size=patch * draw(st.integers(1, 3)), patch_size=patch, depth=depth,
        d_model=D, heads=draw(st.sampled_from((1, 2, 4))),
        tap_indices=tuple(draw(st.lists(st.integers(-depth, -1), min_size=1, max_size=3,
                                        unique=True))))
    enh = enhancer.EnhancerConfig(d_model=D, num_catl_layers=draw(st.integers(1, 2)),
                                  heads=draw(st.sampled_from((1, 2, 4))),
                                  enabled=draw(st.booleans()))
    dec = bridge.DecoderConfig(c_model=C, depth=draw(st.integers(0, 2)),
                               heads=draw(st.sampled_from((1, 2, 3, 4))),
                               max_len=draw(st.integers(1, 6)))
    return CaptionModel(enc, enh, dec, VOCAB, seed=draw(st.integers(0, 3)))


@st.composite
def batches(draw):
    """A model and 2-3 samples (img1, img2, caption ids ending in <eos>)."""
    model = draw(small_models())
    r = Rng(draw(st.integers(0, 2**16)))
    s = model.enc_cfg.image_size
    words = st.integers(len(bridge.SPECIALS), len(VOCAB) - 1)
    samples = []
    for _ in range(draw(st.integers(2, 3))):
        ids = draw(st.lists(words, max_size=model.dec_cfg.max_len - 1)) + [bridge.EOS]
        samples.append((r.uniform((s, s, 3)), r.uniform((s, s, 3)), ids))
    return model, samples


PROPERTY = settings(max_examples=40, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


class TestBatchEqualsItsSamples:
    @PROPERTY
    @given(batches())
    def test_batch_loss_is_mean_of_one_sample_losses(self, drawn):
        model, samples = drawn
        with T.no_grad():
            loss = model.batch_loss(samples).item()
            singles = [model.batch_loss([sample]).item() for sample in samples]
        assert loss == pytest.approx(np.mean(singles), rel=1e-12, abs=0)

    @PROPERTY
    @given(batches())
    def test_batch_greedy_ids_equal_per_pair_ids(self, drawn):
        model, samples = drawn
        img1, img2, _ = zip(*samples)
        batch = model.generate(np.stack(img1), np.stack(img2))
        assert batch == [model.generate(a, b) for a, b in zip(img1, img2)]

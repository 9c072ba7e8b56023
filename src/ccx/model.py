"""Full captioning model: encoder -> enhancer -> projector -> decoder."""

from __future__ import annotations

import numpy as np

from . import bridge, data, encoder, enhancer, nn
from . import tensor as T
from .rng import Rng


def build_vocabulary():
    """Closed vocabulary covering the prompt and every template caption."""
    words = bridge.word_tokens(bridge.PROMPT)
    words = [w for w in words if w not in bridge.SPECIALS]
    return bridge.Vocabulary(words + data.template_vocabulary_words())


class CaptionModel:
    def __init__(self, enc_cfg: encoder.EncoderConfig, enh_cfg: enhancer.EnhancerConfig,
                 dec_cfg: bridge.DecoderConfig, vocab: bridge.Vocabulary, seed=0):
        if enh_cfg.d_model != enc_cfg.d_model:
            raise ValueError("enhancer width must match encoder width")
        self.enc_cfg = enc_cfg
        self.enh_cfg = enh_cfg
        self.dec_cfg = dec_cfg
        self.vocab = vocab
        self.store = nn.ParamStore(Rng(seed).fork("params"))
        self.layout = bridge.PromptLayout.build(vocab, enc_cfg.num_patches)
        self._materialize()

    def _materialize(self):
        """Create every parameter up front with a throwaway forward pass,
        which records no graph."""
        zero = np.zeros((self.enc_cfg.image_size, self.enc_cfg.image_size, 3))
        with T.no_grad():
            self.batch_loss([(zero, zero, [bridge.EOS])])

    def project_features(self, img1, img2):
        pyr = encoder.encode_pair(self.store, img1, img2, self.enc_cfg)
        enh = enhancer.enhance(self.store, pyr, self.enh_cfg)
        f1p, f2p = enh.fused
        return bridge.project(self.store, f1p, f2p, self.enc_cfg.d_model,
                              self.dec_cfg.c_model)

    def batch_loss(self, samples):
        """samples: list of (img1, img2, caption_ids); the mean over samples
        of each one's mean token loss, from one forward pass of the batch."""
        img1, img2, captions = zip(*samples)
        f1h, f2h = self.project_features(np.stack(img1), np.stack(img2))
        seq, rows, targets, weights = bridge.assemble_sequence(
            self.store, f1h, f2h, self.layout, self.vocab, self.dec_cfg, captions)
        logits = bridge.decoder_forward(self.store, seq, len(self.vocab),
                                        self.layout, self.dec_cfg)
        return T.nll(logits, rows, targets, weights)

    def generate(self, img1, img2):
        """Greedy caption (text, ids, truncated) of one pair [H, W, 3], or a
        list of them for a batch stacked as in ``batch_loss``, [B, H, W, 3];
        builds no autograd graph."""
        with T.no_grad():
            f1h, f2h = self.project_features(img1, img2)
            return bridge.generate(self.store, f1h, f2h, self.layout,
                                   self.vocab, self.dec_cfg)

    def caption_ids(self, caption_text):
        """Word ids plus <eos>; raises ``OOVError`` or, past max_len, ValueError."""
        ids = self.vocab.encode(caption_text) + [bridge.EOS]
        if len(ids) > self.dec_cfg.max_len:
            raise ValueError(f"caption {caption_text!r} has {len(ids)} tokens with <eos>, "
                             f"over decoder.max_len {self.dec_cfg.max_len}")
        return ids

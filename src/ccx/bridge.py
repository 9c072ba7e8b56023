"""Image-to-text bridge: projector, tokenizer, prompt assembly, and a
small causal transformer decoder with greedy generation.

Greedy decoding runs under ``T.no_grad()`` with a per-layer key/value
cache: the prompt goes through the decoder once, then each new token
costs one decoder row instead of a pass over the whole prefix. It
decodes one pair's [N, c] features or a batch's [B, N, c] features,
one decoder pass per step for all rows, by the same code.

The fixed prompt carries one placeholder token per temporal image; at
assembly time each placeholder is replaced by the N projected feature
rows, and caption tokens (when training) are appended after the prompt
with the loss restricted to exactly those positions.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import data, nn
from . import tensor as T

PROMPT = ("This is Image1 <image1>. This is Image2 <image2>. "
          "What difference happened from Image1 to Image2?")

SPECIALS = ("<pad>", "<bos>", "<eos>", "<image1>", "<image2>")
PAD, BOS, EOS, IMG1, IMG2 = range(5)

_PUNCT = str.maketrans("", "", ".,;:!?")


def normalize(text):
    return " ".join(text.lower().translate(_PUNCT).split())


def word_tokens(text):
    return normalize(text).split()


class OOVError(ValueError):
    """Raised for out-of-vocabulary words while building training data."""


class Vocabulary:
    def __init__(self, words):
        self.tokens = list(SPECIALS)
        seen = set(self.tokens)
        for w in words:
            if w not in seen:
                seen.add(w)
                self.tokens.append(w)
        if len(self.tokens) > 512:
            raise ValueError(f"vocabulary size {len(self.tokens)} exceeds 512")
        self.index = {t: i for i, t in enumerate(self.tokens)}

    def __len__(self):
        return len(self.tokens)

    def encode(self, text):
        ids = []
        for w in word_tokens(text):
            if w not in self.index:
                raise OOVError(f"out-of-vocabulary word {w!r}")
            ids.append(self.index[w])
        return ids

    def decode(self, ids):
        return " ".join(self.tokens[i] for i in ids
                        if self.tokens[i] not in SPECIALS)

    def save(self, path):
        Path(path).write_text("CCVOCAB 1\n" + "\n".join(self.tokens) + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path):
        """The vocabulary ``save`` wrote to ``path``, one token a line; a
        malformed file raises ``ValueError`` naming it."""
        lines = data.read_lines(path)
        if not lines or lines[0] != "CCVOCAB 1":
            raise ValueError(f"{path}: missing CCVOCAB 1 header")
        toks = lines[1:]
        if tuple(toks[:5]) != SPECIALS:
            raise ValueError(f"{path}: specials out of place")
        if len(set(toks)) != len(toks):
            raise ValueError(f"{path}: a token is listed twice")
        try:
            return cls(toks[5:])
        except ValueError as exc:  # too many tokens
            raise ValueError(f"{path}: {exc}") from None


@dataclass
class DecoderConfig:
    c_model: int = 48
    depth: int = 4
    heads: int = 4
    max_len: int = 48

    def __post_init__(self):
        for name, low in (("c_model", 1), ("depth", 0), ("heads", 1), ("max_len", 1)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}, got {getattr(self, name)}")
        if self.c_model % self.heads:
            raise ValueError("c_model must be divisible by heads")


@dataclass
class PromptLayout:
    """Prompt template ids plus where the image features get spliced.

    ``span1`` / ``span2`` are (start, length) in the expanded sequence,
    i.e. after each placeholder id is replaced by ``n_tokens`` rows.
    """

    template_ids: list
    n_tokens: int
    span1: tuple
    span2: tuple
    expanded_len: int

    @classmethod
    def build(cls, vocab: Vocabulary, n_tokens):
        ids = [vocab.index[w] for w in word_tokens(PROMPT)]
        i1 = ids.index(IMG1)
        i2 = ids.index(IMG2)
        span1 = (i1, n_tokens)
        span2 = (i2 - 1 + n_tokens, n_tokens)
        expanded = len(ids) - 2 + 2 * n_tokens
        return cls(ids, n_tokens, span1, span2, expanded)


def project(store, f1p, f2p, d, c):
    """Shared two-layer MLP (d->c, GELU, c->c) on both streams."""
    if f1p.shape[-1] != d or f2p.shape[-1] != d:
        raise T.ShapeError(f"projector expects width {d}, got {f1p.shape}/{f2p.shape}")
    return nn.mlp(store, "projector", f1p, d, c, c), nn.mlp(store, "projector", f2p, d, c, c)


def _embed_ids(store, ids, vocab_size, c):
    table = store.param("decoder.tok_emb", (vocab_size, c), init="embed")
    return T.embed(table, np.asarray(ids, dtype=np.int64))


def assemble_sequence(store, f1h, f2h, layout: PromptLayout, vocab, cfg: DecoderConfig,
                      captions=None):
    """Build the embedded input sequence from features [..., N, c].

    Returns (seq [..., T, c], rows, targets, weights). Without
    ``captions`` only the prompt part is returned (greedy decoding calls
    it so, with [N, c] or [B, N, c] features). With one caption per sample
    of [B, N, c] features (word ids, <eos> included), sample b's inputs
    <bos> w1..w_{M_b-1}, padded with <pad> to the longest, follow its
    prompt; ``rows`` index its positions prompt_len+j in seq flattened
    to [B*T, c], scored against ``targets`` captions[b][j], each with
    weight 1/(B*M_b), so ``T.nll`` of them is the mean of sample means.
    """
    n = layout.n_tokens
    if f1h.shape[-2] != n or f2h.shape[-2] != n:
        raise T.ShapeError(f"feature token count {f1h.shape[-2]} != layout span {n}")
    lead = f1h.shape[:-2]
    ids = layout.template_ids
    i1 = ids.index(IMG1)
    i2 = ids.index(IMG2)
    c = cfg.c_model
    v = len(vocab)

    def prompt(part):  # the same prompt ids for every sample
        return _embed_ids(store, np.broadcast_to(part, lead + (len(part),)), v, c)

    parts = [prompt(ids[:i1]), f1h, prompt(ids[i1 + 1:i2]), f2h, prompt(ids[i2 + 1:])]
    if captions is None:
        return T.concat(parts, axis=-2), None, None, None
    lengths = np.array([len(cap) for cap in captions])
    if lengths.min() == 0:
        raise ValueError("empty caption")
    if lengths.max() > cfg.max_len:
        raise ValueError(f"caption length {lengths.max()} exceeds max_len {cfg.max_len}")
    inputs = np.full((len(captions), lengths.max()), PAD)
    for k, cap in enumerate(captions):
        inputs[k, :len(cap)] = [BOS, *cap[:-1]]
    parts.append(_embed_ids(store, inputs, v, c))
    k, j = np.nonzero(np.arange(lengths.max()) < lengths[:, None])  # scored, sample-major
    rows = k * (layout.expanded_len + lengths.max()) + layout.expanded_len + j
    weights = 1.0 / (len(captions) * lengths[k])
    return T.concat(parts, axis=-2), rows, np.concatenate(captions), weights


def decoder_forward(store, seq, vocab_size, layout, cfg: DecoderConfig, cache=None, start=0):
    """Causal pre-norm transformer: embedded rows [..., T, c] -> logits [..., T, V].

    ``seq`` holds the rows at positions start..start+T-1. Rows before
    ``start`` are seen only through ``cache``, the per-layer key and value
    buffers that earlier calls with the same cache filled (see
    ``nn.attention``); a cache is used under ``T.no_grad()`` only.
    """
    t, c = seq.shape[-2:]
    cap = layout.expanded_len + 1 + cfg.max_len
    pos = store.param("decoder.pos", (cap, c), init="embed")
    x = seq + T.embed(pos, np.arange(start, start + t))
    # a single row may see every cached row: its mask would be all zeros
    mask = np.triu(np.full((t, start + t), -1e30), k=start + 1) if t > 1 else None
    for i in range(cfg.depth):
        x = nn.block(store, f"decoder.block{i}", x, c, cfg.heads, 4 * c, mask, cache)
    x = nn.layer_norm(store, "decoder.ln_f", x, c)
    return nn.linear(store, "decoder.head", x, c, vocab_size)


def generate(store, f1h, f2h, layout, vocab, cfg: DecoderConfig):
    """Deterministic greedy decoding from <bos> until <eos> or max_len.

    Features [N, c] (one pair) give one (text, token_ids, truncated),
    features [B, N, c] a list of B of them: each step is one decoder pass
    over every row, until each row has produced <eos> or for max_len steps.
    The prompt and <bos> go through the decoder once and fill a per-layer
    key/value cache; each later step feeds only the newest token's row.
    No graph is built.
    """
    lead = f1h.shape[:-2]
    v = len(vocab)
    c = cfg.c_model
    cache = {}
    start = 0
    tokens = np.zeros(lead + (0,), dtype=np.int64)  # every step's argmax per row
    with T.no_grad():
        prompt, *_ = assemble_sequence(store, f1h, f2h, layout, vocab, cfg)
        seq = T.concat([prompt, _embed_ids(store, np.full(lead + (1,), BOS), v, c)], axis=-2)
        while True:
            # positional: outside wrappers of decoder_forward pass *args only
            logits = decoder_forward(store, seq, v, layout, cfg, cache, start)
            nxt = np.argmax(logits.data[..., -1:, :], axis=-1)
            tokens = np.concatenate([tokens, nxt], axis=-1)
            if tokens.shape[-1] >= cfg.max_len or (tokens == EOS).any(axis=-1).all():
                break
            start += seq.shape[-2]
            seq = _embed_ids(store, nxt, v, c)

    def result(row):
        ends = np.flatnonzero(row == EOS)
        ids = row[:ends[0]].tolist() if ends.size else row.tolist()
        return vocab.decode(ids), ids, not ends.size

    if not lead:
        return result(tokens)
    return [result(row) for row in tokens.reshape(-1, tokens.shape[-1])]

import numpy as np
import pytest

from ccx import bridge
from ccx import tensor as T
from ccx.bridge import BOS, EOS, PAD, DecoderConfig, PromptLayout, Vocabulary
from ccx.model import build_vocabulary
from ccx.nn import ParamStore
from ccx.rng import Rng
from ccx.verify import finite_diff_check

N = 4
D = 6
C = 12


@pytest.fixture
def vocab():
    return build_vocabulary()


@pytest.fixture
def store():
    return ParamStore(Rng(5))


@pytest.fixture
def dec_cfg():
    return DecoderConfig(c_model=C, depth=2, heads=2, max_len=10)


def _features(seed, n=N, width=C, grad=False, lead=()):
    r = Rng(seed)
    return (T.Tensor(r.normal((*lead, n, width)), requires_grad=grad),
            T.Tensor(r.normal((*lead, n, width)), requires_grad=grad))


def _assemble_one(store, f1, f2, layout, vocab, cfg, caption):
    """``assemble_sequence`` on features [1, N, c] and one caption:
    (seq [1, T, c], positions, targets, weights)."""
    return bridge.assemble_sequence(store, f1, f2, layout, vocab, cfg, [caption])


def _sequence(store, layout, vocab, cfg, caption):
    """One pair's embedded sequence [T, c] as a constant, from feature seed 17."""
    seq, *_ = _assemble_one(store, *_features(17, lead=(1,)), layout, vocab, cfg, caption)
    return T.Tensor(seq.data[0])


def _mean(positions):
    """Weights that make ``decode_loss`` the plain mean over ``positions``."""
    return np.full(len(positions), 1.0 / len(positions))


class TestTokenizer:
    def test_normalization(self):
        assert bridge.word_tokens("A road is built.") == ["a", "road", "is", "built"]

    def test_idempotent_on_normalized(self):
        text = "a road is built at the center"
        v = Vocabulary(text.split())
        assert v.decode(v.encode(text)) == text

    def test_oov_strict_raises(self):
        v = Vocabulary(["a"])
        with pytest.raises(bridge.OOVError):
            v.encode("a zebra")

    def test_specials_fixed_indices(self, vocab):
        assert vocab.tokens[:5] == list(bridge.SPECIALS)
        assert (PAD, BOS, EOS) == (0, 1, 2)

    def test_vocab_round_trip_file(self, vocab, tmp_path):
        p = tmp_path / "vocab.txt"
        vocab.save(p)
        back = Vocabulary.load(p)
        assert back.tokens == vocab.tokens

    def test_vocab_bad_header(self, tmp_path):
        p = tmp_path / "vocab.txt"
        p.write_text("nope\n")
        with pytest.raises(ValueError, match="header"):
            Vocabulary.load(p)


class TestLayout:
    def test_spans_disjoint_in_order(self, vocab):
        layout = PromptLayout.build(vocab, N)
        s1, s2 = layout.span1, layout.span2
        assert s1[1] == s2[1] == N
        assert s1[0] + N <= s2[0]
        assert layout.expanded_len == len(layout.template_ids) - 2 + 2 * N


class TestProjector:
    def test_shared_weights_equal_streams(self, store):
        f, _ = _features(1, width=D)
        a, b = bridge.project(store, f, T.Tensor(f.data.copy()), D, C)
        assert a.data.tobytes() == b.data.tobytes()

    def test_zero_input_closed_form(self, store):
        zero = T.Tensor(np.zeros((N, D)))
        a, _ = bridge.project(store, zero, zero, D, C)
        b1 = store.params["projector.fc1.b"].tensor.data
        w2 = store.params["projector.fc2.w"].tensor.data
        b2 = store.params["projector.fc2.b"].tensor.data
        g = 0.5 * b1 * (1 + np.tanh(np.sqrt(2 / np.pi) * (b1 + 0.044715 * b1**3)))
        np.testing.assert_allclose(a.data, np.tile(g @ w2 + b2, (N, 1)), rtol=1e-12)

    def test_width_mismatch(self, store):
        f, g = _features(2, width=D + 1)
        with pytest.raises(T.ShapeError):
            bridge.project(store, f, g, D, C)

    def test_gradcheck(self, store):
        f1, f2 = _features(3, width=D, grad=True)
        w = Rng(4).normal((N, C))

        def build():
            a, b = bridge.project(store, f1, f2, D, C)
            return T.tsum(a * T.Tensor(w)) + T.tsum(b * T.Tensor(w))

        build()
        tensors = {"f1": f1, "f2": f2,
                   "w1": store.params["projector.fc1.w"].tensor}
        errs = finite_diff_check(build, tensors, max_entries=8)
        assert max(errs.values()) < 1e-5


class TestAssemble:
    def test_mask_count_and_length(self, store, vocab, dec_cfg):
        f1, f2 = _features(6, lead=(1,))
        caption = vocab.encode("a road is built at the center") + [EOS]
        layout = PromptLayout.build(vocab, N)
        seq, positions, targets, _ = _assemble_one(
            store, f1, f2, layout, vocab, dec_cfg, caption)
        assert len(positions) == len(caption)
        assert seq.shape == (1, layout.expanded_len + len(caption), C)
        assert list(targets) == caption

    def test_caption_too_long(self, store, vocab, dec_cfg):
        f1, f2 = _features(7, lead=(1,))
        layout = PromptLayout.build(vocab, N)
        with pytest.raises(ValueError, match="max_len"):
            _assemble_one(store, f1, f2, layout, vocab, dec_cfg,
                          [3] * (dec_cfg.max_len + 1))

    def test_feature_span_mismatch(self, store, vocab, dec_cfg):
        f1, f2 = _features(8, n=N + 1, lead=(1,))
        layout = PromptLayout.build(vocab, N)
        with pytest.raises(T.ShapeError):
            _assemble_one(store, f1, f2, layout, vocab, dec_cfg, [EOS])

    def test_swapping_features_touches_only_spans(self, store, vocab, dec_cfg):
        f1, f2 = _features(9, lead=(1,))
        layout = PromptLayout.build(vocab, N)
        a, *_ = _assemble_one(store, f1, f2, layout, vocab, dec_cfg, [EOS])
        b, *_ = _assemble_one(store, f2, f1, layout, vocab, dec_cfg, [EOS])
        diff = np.abs(a.data[0] - b.data[0]).sum(axis=-1) > 0
        in_span = np.zeros(a.shape[1], dtype=bool)
        for start, length in (layout.span1, layout.span2):
            in_span[start:start + length] = True
        assert not diff[~in_span].any()

    def test_feature_gradient_confined_to_its_span(self, store, vocab, dec_cfg):
        f1, f2 = _features(10, grad=True, lead=(1,))
        layout = PromptLayout.build(vocab, N)
        seq, *_ = _assemble_one(store, f1, f2, layout, vocab, dec_cfg, [EOS])
        up = Rng(11).normal(seq.shape)
        T.tsum(seq * T.Tensor(up)).backward()
        s1 = layout.span1
        np.testing.assert_array_equal(f1.grad, up[:, s1[0]:s1[0] + s1[1]])


class TestDecodeLoss:
    def test_uniform_logits_is_log_vocab(self):
        v = 17
        logits = T.Tensor(np.zeros((5, v)))
        loss = bridge.decode_loss(logits, np.array([2, 3]), np.array([4, 5]), _mean([2, 3]))
        assert loss.item() == pytest.approx(np.log(v), abs=1e-12)

    def test_saturated_logits_near_zero_loss(self):
        logits = np.full((4, 9), -30.0)
        targets = np.array([1, 2])
        positions = np.array([0, 1])
        for p, t in zip(positions, targets):
            logits[p, t] = 30.0
        loss = bridge.decode_loss(T.Tensor(logits), positions, targets, _mean(positions))
        assert loss.item() < 1e-10

    def test_empty_mask_raises(self):
        with pytest.raises(ValueError, match="mask"):
            bridge.decode_loss(T.Tensor(np.zeros((3, 5))), np.array([]), np.array([]),
                               np.array([]))

    def test_matches_independent_one_hot_oracle(self):
        r = Rng(12)
        logits = r.normal((8, 11))
        positions = np.array([2, 4, 5])
        targets = np.array([1, 0, 10])
        loss = bridge.decode_loss(T.Tensor(logits), positions, targets,
                                  _mean(positions)).item()
        # independent: explicit one-hot cross-entropy per position
        acc = 0.0
        for p, t in zip(positions, targets):
            z = logits[p]
            probs = np.exp(z - z.max())
            probs /= probs.sum()
            acc += -np.log(probs[t])
        assert loss == pytest.approx(acc / 3, abs=1e-12)

    def test_gradcheck_through_decoder(self, store, vocab, dec_cfg):
        f1, f2 = _features(13, grad=True, lead=(1,))
        layout = PromptLayout.build(vocab, N)
        caption = vocab.encode("there is no change") + [EOS]

        def build():
            seq, pos, tgt, w = _assemble_one(
                store, f1, f2, layout, vocab, dec_cfg, caption)
            logits = bridge.decoder_forward(store, seq, len(vocab), layout, dec_cfg)
            return bridge.decode_loss(logits, pos, tgt, w)

        build()
        errs = finite_diff_check(build, {"f1": f1, "f2": f2}, max_entries=8)
        assert max(errs.values()) < 1e-4


class TestCausality:
    def test_later_tokens_cannot_affect_earlier_logits(self, store, vocab, dec_cfg):
        f1, f2 = _features(14, lead=(1,))
        layout = PromptLayout.build(vocab, N)
        caption = vocab.encode("a road is built at the center") + [EOS]
        seq, pos, _, _ = _assemble_one(
            store, f1, f2, layout, vocab, dec_cfg, caption)
        base = bridge.decoder_forward(store, seq, len(vocab), layout, dec_cfg).data
        j = pos[3]  # perturb the 4th caption input embedding
        bumped = seq.data.copy()
        bumped[0, j] += 0.7
        out = bridge.decoder_forward(store, T.Tensor(bumped), len(vocab),
                                     layout, dec_cfg).data
        np.testing.assert_array_equal(out[:, :j], base[:, :j])
        assert np.abs(out[:, j:] - base[:, j:]).max() > 0


class TestGenerate:
    def test_deterministic(self, store, vocab, dec_cfg):
        f1, f2 = _features(15)
        layout = PromptLayout.build(vocab, N)
        a = bridge.generate(store, f1, f2, layout, vocab, dec_cfg)
        b = bridge.generate(store, f1, f2, layout, vocab, dec_cfg)
        assert a == b

    def test_max_len_one(self, store, vocab):
        cfg = DecoderConfig(c_model=C, depth=2, heads=2, max_len=1)
        f1, f2 = _features(16)
        layout = PromptLayout.build(vocab, N)
        _, ids, _ = bridge.generate(store, f1, f2, layout, vocab, cfg)
        assert len(ids) <= 1


def _uncached_generate(store, f1h, f2h, layout, vocab, cfg):
    """Greedy decoding by a full decoder pass over the whole prefix per token.

    Returns (ids, truncated, last-row logits of every step).
    """
    out_ids, steps = [], []
    v, c = len(vocab), cfg.c_model
    prompt, *_ = bridge.assemble_sequence(store, f1h, f2h, layout, vocab, cfg)
    while True:
        tail = bridge._embed_ids(store, [BOS] + out_ids, v, c)
        seq = T.concat([prompt, tail], axis=0)
        steps.append(bridge.decoder_forward(store, seq, v, layout, cfg).data[-1])
        nxt = int(np.argmax(steps[-1]))
        if nxt == EOS:
            return out_ids, False, steps
        out_ids.append(nxt)
        if len(out_ids) >= cfg.max_len:
            return out_ids, True, steps


class TestCachedGenerate:
    # (feature seed, max_len, truncated): ends on <eos>, hits max_len, max_len=1
    @pytest.mark.parametrize("seed,max_len,truncated",
                             [(20, 10, False), (15, 10, True), (20, 1, True)])
    def test_matches_uncached_oracle(self, vocab, monkeypatch, seed, max_len, truncated):
        cfg = DecoderConfig(c_model=C, depth=2, heads=2, max_len=max_len)
        store = ParamStore(Rng(5))
        f1, f2 = _features(seed)
        layout = PromptLayout.build(vocab, N)
        want_ids, want_trunc, want_steps = _uncached_generate(
            store, f1, f2, layout, vocab, cfg)
        assert want_trunc == truncated

        rows, steps = [], []
        real = bridge.decoder_forward

        def recording(store, seq, *args):
            logits = real(store, seq, *args)
            rows.append(seq.shape[0])
            steps.append(logits.data[-1])
            return logits

        monkeypatch.setattr(bridge, "decoder_forward", recording)
        text, ids, trunc = bridge.generate(store, f1, f2, layout, vocab, cfg)
        assert (ids, trunc) == (want_ids, want_trunc)
        assert text == vocab.decode(want_ids)
        # the prompt and <bos> once, then one row per new token
        assert rows == [layout.expanded_len + 1] + [1] * (len(want_steps) - 1)
        for got, want in zip(steps, want_steps, strict=True):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("lead", [(), (3,)])
    def test_one_row_steps_match_zero_mask_bitwise(self, vocab, monkeypatch, lead):
        """A one-row step attends without a mask; the all-zero causal mask
        it would otherwise add leaves every logit's bits as they are."""
        cfg = DecoderConfig(c_model=C, depth=2, heads=2, max_len=10)
        store = ParamStore(Rng(5))
        f1, f2 = _features(15, lead=lead)
        layout = PromptLayout.build(vocab, N)
        real_forward, real_attend = bridge.decoder_forward, T.attend

        def greedy_logits():
            steps = []

            def recording(*args):
                logits = real_forward(*args)
                steps.append(logits.data)
                return logits

            with monkeypatch.context() as m:
                m.setattr(bridge, "decoder_forward", recording)
                bridge.generate(store, f1, f2, layout, vocab, cfg)
            return steps

        plain = greedy_logits()
        masked_calls = []

        def zero_masked(q, k, v, heads, scale, mask=None):
            if mask is None and q.shape[-2] == 1:
                mask = np.zeros((1, k.shape[-2]))
                masked_calls.append(mask)
            return real_attend(q, k, v, heads, scale, mask)

        monkeypatch.setattr(T, "attend", zero_masked)
        masked = greedy_logits()
        assert len(plain) > 2 and len(masked_calls) == cfg.depth * (len(plain) - 1)
        for a, b in zip(plain, masked, strict=True):
            assert a.tobytes() == b.tobytes()

    def test_cached_rows_match_full_pass(self, store, vocab, dec_cfg):
        """Feeding a sequence in two chunks through one cache gives the
        logits of a single full pass over it."""
        layout = PromptLayout.build(vocab, N)
        caption = vocab.encode("a road is built at the center") + [EOS]
        seq = _sequence(store, layout, vocab, dec_cfg, caption)
        full = bridge.decoder_forward(store, seq, len(vocab), layout, dec_cfg).data
        cut = layout.expanded_len + 2
        cache = {}
        with T.no_grad():
            head = bridge.decoder_forward(store, T.Tensor(seq.data[:cut]), len(vocab),
                                          layout, dec_cfg, cache, 0).data
            tail = bridge.decoder_forward(store, T.Tensor(seq.data[cut:]), len(vocab),
                                          layout, dec_cfg, cache, cut).data
        np.testing.assert_allclose(head, full[:cut], rtol=0, atol=1e-12)
        np.testing.assert_allclose(tail, full[cut:], rtol=0, atol=1e-12)

    def test_regrown_buffer_matches_full_pass(self, store, vocab, dec_cfg):
        """A one-row first call sizes each buffer to two rows; the next call
        overflows it, and the regrown buffer still gives the full pass."""
        layout = PromptLayout.build(vocab, N)
        caption = vocab.encode("a road is built at the center") + [EOS]
        seq = _sequence(store, layout, vocab, dec_cfg, caption)
        t = seq.shape[0]
        cache = {}
        with T.no_grad():
            full = bridge.decoder_forward(store, seq, len(vocab), layout, dec_cfg).data
            head = bridge.decoder_forward(store, T.Tensor(seq.data[:1]), len(vocab),
                                          layout, dec_cfg, cache, 0).data
            assert {buf.shape for k, v, n in cache.values() for buf in (k, v)} == {(2, C)}
            tail = bridge.decoder_forward(store, T.Tensor(seq.data[1:]), len(vocab),
                                          layout, dec_cfg, cache, 1).data
        assert len(cache) == dec_cfg.depth
        for kbuf, vbuf, filled in cache.values():
            assert kbuf.shape == vbuf.shape == (2 * t, C) and filled == t
        np.testing.assert_allclose(head, full[:1], rtol=0, atol=1e-12)
        np.testing.assert_allclose(tail, full[1:], rtol=0, atol=1e-12)

    def test_cache_under_grad_mode_raises(self, store, vocab, dec_cfg):
        f1, f2 = _features(17)
        layout = PromptLayout.build(vocab, N)
        seq, *_ = bridge.assemble_sequence(store, f1, f2, layout, vocab, dec_cfg)
        with pytest.raises(ValueError, match="no gradient"):
            bridge.decoder_forward(store, seq, len(vocab), layout, dec_cfg, {}, 0)


def _stacked(*pairs):
    """Features of several pairs stacked to [B, N, c] each."""
    return tuple(T.Tensor(np.stack([pair[k].data for pair in pairs])) for k in (0, 1))


class TestBatchedGenerate:
    def test_rows_match_their_own_decoding(self, vocab, monkeypatch):
        """One row ends on <eos>, the other at max_len; each gives what
        decoding it alone gives, from one decoder pass per step."""
        cfg = DecoderConfig(c_model=C, depth=2, heads=2, max_len=10)
        store = ParamStore(Rng(5))
        layout = PromptLayout.build(vocab, N)
        pairs = [_features(20), _features(15)]
        want = []
        for f1, f2 in pairs:
            ids, trunc, _ = _uncached_generate(store, f1, f2, layout, vocab, cfg)
            want.append((vocab.decode(ids), ids, trunc))
        assert [trunc for *_, trunc in want] == [False, True]

        shapes = []
        real = bridge.decoder_forward

        def recording(store, seq, *args):
            shapes.append(seq.shape)
            return real(store, seq, *args)

        monkeypatch.setattr(bridge, "decoder_forward", recording)
        assert bridge.generate(store, *_stacked(*pairs), layout, vocab, cfg) == want
        # every row in each pass, until the truncated row's max_len steps
        assert shapes == [(2, layout.expanded_len + 1, C)] + [(2, 1, C)] * (cfg.max_len - 1)

    @pytest.mark.parametrize("max_len", [1, 10])
    def test_batch_of_one_equals_one_pair(self, store, vocab, max_len):
        cfg = DecoderConfig(c_model=C, depth=2, heads=2, max_len=max_len)
        layout = PromptLayout.build(vocab, N)
        pair = _features(20)
        one = bridge.generate(store, *pair, layout, vocab, cfg)
        assert bridge.generate(store, *_stacked(pair), layout, vocab, cfg) == [one]

    def test_max_len_one_batch(self, store, vocab):
        cfg = DecoderConfig(c_model=C, depth=2, heads=2, max_len=1)
        layout = PromptLayout.build(vocab, N)
        pairs = [_features(s) for s in (20, 15, 16)]
        want = [bridge.generate(store, *pair, layout, vocab, cfg) for pair in pairs]
        assert bridge.generate(store, *_stacked(*pairs), layout, vocab, cfg) == want

"""Outside-in layer trace for the ccx benchmark.

``Tracer.installed()`` swaps the public entry points of each ccx module
for wrappers that time them and count work, and puts the originals back
when the block ends, so nothing inside ``src/ccx`` carries a span and an
untraced run is unaffected.

To split backward time by layer, the wrappers of ``encoder.encode_pair``,
``enhancer.enhance`` and ``bridge.project`` return fresh leaf tensors
that carry the same data as their real outputs. ``loss.backward()`` then
stops at those leaves (the decoder segment), and ``Tracer.backward``
pushes the leaf gradients back through each earlier segment in reverse
layer order with one scalar root per segment, sum(original * leaf.grad),
whose gradient with respect to each original output is exactly that
leaf's gradient.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from ccx import bridge, encoder, enhancer, metrics, nn, trainer
from ccx import tensor as T
from ccx.optim import AdamW

# (owner, attribute) of every function the trace replaces while installed
TARGETS = (
    (encoder, "encode_pair"),
    (enhancer, "enhance"),
    (enhancer, "diff_expert"),
    (enhancer, "change_aware_layer"),
    (enhancer, "adaptive_adjustment"),
    (bridge, "project"),
    (bridge, "decoder_forward"),
    (bridge, "generate"),
    (nn, "attention"),
    (nn, "clip_grads"),
    (AdamW, "step"),
    (T.Tensor, "__init__"),
    (T.Tensor, "backward"),
    (trainer, "save_checkpoint"),
    (trainer, "load_checkpoint"),
    (trainer, "write_cct1"),
    (trainer, "read_cct1"),
    (metrics, "make_corpus"),
    (metrics, "bleu"),
    (metrics, "meteor"),
    (metrics, "rouge_l"),
    (metrics, "cider_d"),
)

# plain timed wrappers: attribute -> span name
_TIMED = {
    "adaptive_adjustment": "enhancer.adaptive.fwd",
    "generate": "bridge.generate",
    "clip_grads": "nn.clip_grads",
    "step": "optim.step",
    "backward": "tensor.backward",
    "save_checkpoint": "trainer.save_checkpoint",
    "load_checkpoint": "trainer.load_checkpoint",
    "make_corpus": "metrics.make_corpus",
    "bleu": "metrics.bleu",
    "meteor": "metrics.meteor",
    "rouge_l": "metrics.rouge_l",
    "cider_d": "metrics.cider_d",
}

# cut segments before the decoder, in the order backward visits them
SEGMENTS = ("bridge.project", "enhancer", "encoder")


def _cct1_bytes(array):
    """Size of the CCT1 file holding ``array``: magic, rank, dims, f32 values."""
    return 5 + 4 * array.ndim + 4 * array.size


class Tracer:
    """Span totals (seconds) and counters gathered while installed."""

    def __init__(self):
        self.reset()

    def reset(self):
        self.seconds = defaultdict(float)
        self.counts = defaultdict(int)
        self.top = 0.0  # time covered by outermost spans
        self._depth = 0
        self._counting = True
        self._cuts = defaultdict(list)  # segment -> [(original, leaf)]
        self._taps = {}  # id(tap feature) -> tap offset

    def begin_op(self):
        """Drop cut graphs an operation without a backward left behind."""
        self._cuts.clear()
        self._taps.clear()

    @contextmanager
    def span(self, name):
        self._depth += 1
        t0 = time.perf_counter()
        try:
            yield
        finally:
            dt = time.perf_counter() - t0
            self._depth -= 1
            self.seconds[name] += dt
            if self._depth == 0:
                self.top += dt

    def _cut(self, segment, tensors):
        """Fresh leaves with the same data; one leaf per distinct tensor."""
        leaves = {}
        self._counting = False
        for t in tensors:
            if id(t) not in leaves:
                leaves[id(t)] = T.Tensor(t.data, requires_grad=True)
                self._cuts[segment].append((t, leaves[id(t)]))
        self._counting = True
        return [leaves[id(t)] for t in tensors]

    def backward(self, loss):
        """Backward of ``loss`` through the cut graph, timed per segment."""
        with self.span("bridge.decoder.bwd"):
            loss.backward()
        for segment in SEGMENTS:
            pairs = self._cuts.pop(segment, [])
            with self.span(f"{segment}.bwd"):
                self._counting = False
                root = None
                for orig, leaf in pairs:
                    if leaf.grad is None or not orig.requires_grad:
                        continue
                    term = T.tsum(orig * T.Tensor(leaf.grad))
                    root = term if root is None else root + term
                self._counting = True
                if root is not None:
                    root.backward()

    # ------------------------------------------------------------ wrappers

    def _wrap(self, attr, fn):
        # ccx calls every wrapped function with positional arguments
        if attr in _TIMED:
            name = _TIMED[attr]

            def timed(*args, **kwargs):
                with self.span(name):
                    return fn(*args, **kwargs)
            return timed
        return getattr(self, f"_wrap_{attr.strip('_')}")(fn)

    def _wrap_encode_pair(self, fn):
        def encode_pair(*args):
            with self.span("encoder.fwd"):
                pyr = fn(*args)
            offs = sorted(pyr.taps)
            flat = [t for off in offs for t in pyr.taps[off]] + list(pyr.residual)
            cut = self._cut("encoder", flat)
            taps = {off: (cut[2 * k], cut[2 * k + 1]) for k, off in enumerate(offs)}
            return encoder.FeaturePyramid(taps=taps, residual=(cut[-2], cut[-1]))
        return encode_pair

    def _wrap_enhance(self, fn):
        def enhance(store, pyramid, cfg):
            self._taps.update({id(f1): off for off, (f1, _) in pyramid.taps.items()})
            with self.span("enhancer.fwd"):
                out = fn(store, pyramid, cfg)
            out.fused = tuple(self._cut("enhancer", out.fused))
            return out
        return enhance

    def _wrap_diff_expert(self, fn):
        def diff_expert(store, f1, f2, cfg):
            with self.span(f"enhancer.tap{self._taps.get(id(f1), '?')}.fwd"):
                return fn(store, f1, f2, cfg)
        return diff_expert

    def _wrap_change_aware_layer(self, fn):
        def change_aware_layer(store, name, *args):
            with self.span(f"{name}.fwd"):
                return fn(store, name, *args)
        return change_aware_layer

    def _wrap_project(self, fn):
        def project(*args):
            with self.span("bridge.project.fwd"):
                out = fn(*args)
            return tuple(self._cut("bridge.project", out))
        return project

    def _wrap_decoder_forward(self, fn):
        def decoder_forward(store, seq, *args):
            self.counts["bridge.decoder.passes"] += 1
            self.counts["bridge.decoder.rows"] += seq.shape[0]
            with self.span("bridge.decoder.fwd"):
                return fn(store, seq, *args)
        return decoder_forward

    def _wrap_attention(self, fn):
        def attention(*args, **kwargs):
            self.counts["nn.attention.calls"] += 1
            return fn(*args, **kwargs)
        return attention

    def _wrap_init(self, fn):
        def __init__(tensor, *args, **kwargs):
            if self._counting:
                self.counts["tensor.tensors_created"] += 1
            fn(tensor, *args, **kwargs)
        return __init__

    def _wrap_write_cct1(self, fn):
        def write_cct1(path, array):
            fn(path, array)
            self.counts["tensor_io.files"] += 1
            self.counts["tensor_io.bytes"] += _cct1_bytes(np.asarray(array))
        return write_cct1

    def _wrap_read_cct1(self, fn):
        def read_cct1(path):
            array = fn(path)
            self.counts["tensor_io.files"] += 1
            self.counts["tensor_io.bytes"] += _cct1_bytes(array)
            return array
        return read_cct1

    @contextmanager
    def installed(self):
        """Patch every target for the duration of the block."""
        saved = [(owner, attr, vars(owner)[attr]) for owner, attr in TARGETS]
        try:
            for owner, attr, fn in saved:
                setattr(owner, attr, self._wrap(attr, fn))
            yield self
        finally:
            for owner, attr, fn in saved:
                setattr(owner, attr, fn)

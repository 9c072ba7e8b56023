"""Parameter registry and the transformer building blocks.

Parameters live in a flat store keyed by hierarchical dotted names; the
leading path segment is the parameter group (encoder / enhancer /
projector / decoder) that the trainer uses for freezing and per-group
learning rates. Initialization is derived per-name from a forked RNG,
so it does not depend on creation order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .rng import Rng

GROUPS = ("encoder", "enhancer", "projector", "decoder")


@dataclass
class Parameter:
    name: str
    tensor: T.Tensor
    group: str


class ParamStore:
    """Flat name -> Parameter map with lazy, name-seeded initialization."""

    def __init__(self, rng: Rng):
        self.rng = rng
        self.params: dict[str, Parameter] = {}

    def param(self, name, shape, init="zeros", fan_in=None):
        p = self.params.get(name)
        if p is not None:
            stored = p.tensor.data.shape
            if stored != shape and stored != tuple(shape):  # shape may be a list
                raise T.ShapeError(
                    f"parameter {name}: requested {tuple(shape)}, stored {stored}"
                )
            return p.tensor
        group = name.split(".", 1)[0]
        if group not in GROUPS:
            raise ValueError(f"parameter {name}: unknown group {group!r}")
        r = self.rng.fork(name)
        if init == "zeros":
            data = np.zeros(shape)
        elif init == "ones":
            data = np.ones(shape)
        elif init == "linear":
            data = r.normal(tuple(shape), std=1.0 / math.sqrt(fan_in))
        elif init == "embed":
            data = r.normal(tuple(shape), std=0.02)
        else:
            raise ValueError(f"unknown init {init!r}")
        t = T.Tensor(data, requires_grad=True)
        self.params[name] = Parameter(name, t, group)
        return t

    def group_params(self, group):
        return [p for p in self.params.values() if p.group == group]

    def zero_grad(self):
        for p in self.params.values():
            p.tensor.zero_grad()

    def checksum(self, group=None):
        ps = self.params.values() if group is None else self.group_params(group)
        return {p.name: p.tensor.data.tobytes() for p in sorted(ps, key=lambda p: p.name)}


def linear(store, name, x, d_in, d_out):
    w = store.param(f"{name}.w", (d_in, d_out), init="linear", fan_in=d_in)
    b = store.param(f"{name}.b", (d_out,), init="zeros")
    return T.linear(x, w, b)


def layer_norm(store, name, x, d):
    g = store.param(f"{name}.g", (d,), init="ones")
    b = store.param(f"{name}.b", (d,), init="zeros")
    return T.layer_norm(x, g, b)


def mlp(store, name, x, d_in, d_hidden, d_out):
    h = T.gelu(linear(store, f"{name}.fc1", x, d_in, d_hidden))
    return linear(store, f"{name}.fc2", h, d_hidden, d_out)


def attention(store, name, q_in, kv_in, d, heads, mask=None, cache=None):
    """Multi-head attention over token sequences [..., Tq, d] x [..., Tk, d]
    -> [..., Tq, d]; leading batch axes are carried through.

    ``mask`` is None or an additive float array [Tq, Tk] (0 = attend,
    large negative = blocked). With a ``cache`` dict, this
    call's keys and values are written into ``cache[name]``'s buffers (see
    ``_cached_rows``) and the queries attend over every row cached so far,
    so Tk counts the earlier calls' rows too; a cache carries no gradient,
    so it is refused while a graph is being recorded. The call records
    five nodes: the q, k, v and output linears and one ``T.attend`` node
    that splits and merges the heads itself. Returns (output, probs) where
    probs is ``T.attend``'s plain array of shape [..., heads, Tq, Tk];
    the returned probs are how callers audit an attention site (tests wrap
    ``nn.attention`` to record every site).
    """
    q = linear(store, f"{name}.q", q_in, d, d)
    k = linear(store, f"{name}.k", kv_in, d, d)
    v = linear(store, f"{name}.v", kv_in, d, d)
    if cache is not None:
        k, v = _cached_rows(cache, name, k, v)
    ctx, probs = T.attend(q, k, v, heads, 1.0 / math.sqrt(d // heads), mask)
    return linear(store, f"{name}.o", ctx, d, d), probs


def _cached_rows(cache, name, k, v):
    """Write the rows of ``k`` and ``v`` [..., T, d] after the ``n`` rows
    that ``cache[name] = (key buffer, value buffer, n)`` already holds, and
    return every filled row of each buffer as a constant view. A buffer
    that would overflow is replaced by one of twice the rows needed, so
    the first call (a prompt) leaves room for about as many rows again.
    """
    if k.requires_grad or v.requires_grad:
        raise ValueError("attention: a key/value cache carries no gradient; "
                         "decode under T.no_grad()")
    kbuf, vbuf, n = cache.get(name, (None, None, 0))
    end = n + k.shape[-2]
    if kbuf is None or end > kbuf.shape[-2]:
        grown = []
        for buf, new in ((kbuf, k), (vbuf, v)):
            rows = np.empty(new.shape[:-2] + (2 * end, new.shape[-1]))
            if n:
                rows[..., :n, :] = buf[..., :n, :]
            grown.append(rows)
        kbuf, vbuf = grown
    kbuf[..., n:end, :] = k.data
    vbuf[..., n:end, :] = v.data
    cache[name] = (kbuf, vbuf, end)
    return T.Tensor(kbuf[..., :end, :]), T.Tensor(vbuf[..., :end, :])


def block(store, name, x, d, heads, mlp_hidden, mask=None, cache=None):
    """Pre-norm transformer block: x + attn(ln(x)), then x + mlp(ln(x)).
    ``mask`` and ``cache`` go to the self-attention (see ``attention``)."""
    h = layer_norm(store, f"{name}.ln1", x, d)
    a, _ = attention(store, f"{name}.attn", h, h, d, heads, mask, cache)
    x = x + a
    x = x + mlp(store, f"{name}.mlp", layer_norm(store, f"{name}.ln2", x, d), d, mlp_hidden, d)
    return x


def clip_grads(params, max_norm):
    """Scale every gradient by max_norm / norm when their global L2 norm
    exceeds ``max_norm``; returns the norm before clipping."""
    total = 0.0  # not sum(): Python 3.12's sum() of floats is compensated
    for p in params:
        if p.tensor.grad is not None:
            total += float((p.tensor.grad**2).sum())
    norm = math.sqrt(total)
    if norm > max_norm and norm > 0:
        scale = max_norm / norm
        for p in params:
            if p.tensor.grad is not None:
                p.tensor.grad = p.tensor.grad * scale
    return norm

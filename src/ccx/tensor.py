"""Dense float64 tensors with reverse-mode automatic differentiation.

Ops build a tape-free graph: a recorded result keeps its parents and a
closure that scatters its upstream gradient into them. ``_node`` alone
decides whether a result is recorded: only when grad mode is on (not
inside ``no_grad()``) and some input requires grad. Any other result,
such as an op on constant inputs (masks, ``Tensor(w)`` products), is a
plain tensor that keeps no parents and no closure. Calling
``backward()`` on a scalar walks the graph in reverse topological order
and frees it as it goes: once an interior node (one with parents) has
passed its gradient on, its ``.grad``, closure and parent edges are
dropped, so activations and interior gradients are released during the
walk. Afterwards interior tensors have ``.grad is None`` and only leaves
(parameters, inputs) keep a gradient; a second ``backward()`` through a
freed graph raises ``RuntimeError``. A backward closure mutates only
buffers it allocated itself, never its upstream gradient, an input's
data or an array it saved; accumulation rebinds ``.grad``, so code that
changes a gradient rebinds it too. All data is float64; shapes are
plain numpy shapes.
"""

from __future__ import annotations

import math
from contextlib import contextmanager

import numpy as np

# False inside ``no_grad()``
_GRAD_ENABLED = True

_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
_GELU_C = 0.044715


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible."""


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, _parents=(), _backward=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = _parents
        self._backward = _backward

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def item(self):
        return self.data.item()

    def zero_grad(self):
        self.grad = None

    def backward(self, grad=None):
        if grad is None:
            if self.data.size != 1:
                raise ValueError("backward() without a gradient needs a scalar")
            grad = np.ones_like(self.data)
        topo = []
        seen = set()
        stack = [(self, False)]
        while stack:
            node, done = stack.pop()
            if done:
                topo.append(node)
                continue
            if id(node) in seen or not node.requires_grad:
                continue
            if node._backward is _freed:
                _freed()
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                stack.append((p, False))
        _accum(self, np.array(grad, dtype=np.float64))
        while topo:
            node = topo.pop()
            if node._parents:
                node._backward(node.grad)
                node.grad, node._backward, node._parents = None, _freed, ()

    # operator sugar
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __neg__(self):
        return mul(self, -1.0)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


@contextmanager
def no_grad():
    """Build no graph inside the block: the results of ops keep no parents
    and no backward closure, and do not require grad. Leaves created
    directly (parameters) keep the ``requires_grad`` they ask for.
    """
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


def as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _freed(g=None):
    """Closure of an interior node whose graph a backward pass has freed."""
    raise RuntimeError("backward through a graph that an earlier backward() freed")


def _accum(t, g):
    """Add ``g`` to ``t.grad`` without mutating any array in place.

    The first gradient is adopted as is: interior gradients are dropped
    once passed on, so sharing them is safe. A leaf keeps its gradient
    after backward, so it takes a copy; an op may hand the same array to
    several parents (``a + b``), and the leaves must not share it.
    """
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = g if t._parents else g.copy()
    else:
        t.grad = t.grad + g


def _unbroadcast(g, shape):
    """Reduce gradient ``g`` back to ``shape`` after numpy broadcasting."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def _node(out, parents, bwd):
    """The result of an op: recorded (requires grad, keeps ``parents`` and
    the closure ``bwd``) only when grad mode is on and some parent
    requires grad; otherwise a plain tensor with no graph."""
    if _GRAD_ENABLED and any(p.requires_grad for p in parents):
        return Tensor(out, True, parents, bwd)
    return Tensor(out)


def _unary(a, out_data, da):
    return _node(out_data, (a,), lambda g: _accum(a, da(g)))


def _binary(a, b, out_data, da, db):
    def bwd(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(da(g), a.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(db(g), b.shape))

    return _node(out_data, (a, b), bwd)


def _operands(a, b, name):
    """Both operands as tensors, after checking that their shapes broadcast."""
    a, b = as_tensor(a), as_tensor(b)
    if a.shape != b.shape:  # equal shapes need no broadcast probe
        try:
            np.broadcast_shapes(a.shape, b.shape)
        except ValueError:
            raise ShapeError(f"{name}: shapes {a.shape} and {b.shape} do not broadcast")
    return a, b


def add(a, b):
    a, b = _operands(a, b, "add")
    return _binary(a, b, a.data + b.data, lambda g: g, lambda g: g)


def sub(a, b):
    a, b = _operands(a, b, "sub")
    return _binary(a, b, a.data - b.data, lambda g: g, lambda g: -g)


def mul(a, b):
    a, b = _operands(a, b, "mul")
    return _binary(a, b, a.data * b.data, lambda g: g * b.data, lambda g: g * a.data)


def linear(x, w, b):
    """Affine map as one node: x @ w + b for x [..., n], w [n, m] and b [m].

    The forward adds the bias in place on the product; the backward forms
    dx = g wᵀ, dW = Σ xᵀ g (a product per leading index, then summed over
    the leading axes) and db = Σ g, skipping the inputs that need no
    gradient.
    """
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    if x.data.ndim < 2 or w.data.ndim != 2:
        raise ShapeError(f"linear needs x of rank>=2 and a rank-2 w, got {x.shape} @ {w.shape}")
    if x.shape[-1] != w.shape[0]:
        raise ShapeError(f"linear inner mismatch: {x.shape} @ {w.shape}")
    if b.shape != w.shape[1:]:
        raise ShapeError(f"linear bias {b.shape} does not match {w.shape}")
    out = x.data @ w.data
    out += b.data

    def bwd(g):
        if b.requires_grad:
            _accum(b, _unbroadcast(g, b.shape))
        if x.requires_grad:
            _accum(x, g @ w.data.T)
        if w.requires_grad:
            _accum(w, _unbroadcast(np.swapaxes(x.data, -1, -2) @ g, w.shape))

    return _node(out, (x, w, b), bwd)


def sigmoid(a):
    """1/(1+e) where x >= 0 and e/(1+e) elsewhere, with e = exp(-|x|), so
    no exponent overflows. -|x| is formed as min(x, -x), which keeps a
    NaN's sign bit as the NaN passes through."""
    a = as_tensor(a)
    e = np.exp(np.minimum(a.data, -a.data))
    d = 1.0 + e
    s = np.where(a.data >= 0, 1.0 / d, e / d)
    return _unary(a, s, lambda g: g * s * (1.0 - s))


def gelu(a):
    """GELU via the tanh approximation 0.5x(1+tanh(sqrt(2/pi)(x+0.044715x^3))).

    The forward and the derivative each run in two buffers of their own,
    with the operations of 0.5·x·(1 + t), t = tanh(sqrt(2/pi)·(x +
    0.044715·x²·x)), and of g·(0.5(1 + t) + 0.5·x·(1 − t²)·sqrt(2/pi)(1 +
    3·0.044715·x²)) in the same order; only the exact halvings move within
    their products.
    """
    a = as_tensor(a)
    x = a.data
    # x·x, not x**3 (libm pow, an order of magnitude slower), and into an
    # owned array: on a 0-d input ``x * x`` is a numpy scalar
    t = np.multiply(x, x, out=np.empty_like(x))
    t *= x
    t *= _GELU_C
    t += x
    t *= _SQRT_2_OVER_PI
    np.tanh(t, out=t)  # kept, unchanged, for the derivative
    out = np.add(t, 1.0, out=np.empty_like(x))
    out *= 0.5
    out *= x

    def da(g):  # the derivative is formed only when backward runs
        du = np.multiply(x, x, out=np.empty_like(x))
        du *= 3.0 * _GELU_C
        du += 1.0
        du *= _SQRT_2_OVER_PI
        d = np.multiply(t, t, out=np.empty_like(x))
        np.subtract(1.0, d, out=d)
        d *= 0.5
        d *= x
        d *= du
        np.add(t, 1.0, out=du)  # du's buffer now takes 0.5·(1 + t)
        du *= 0.5
        d += du
        d *= g
        return d

    return _unary(a, out, da)


def _split_heads(x, heads):
    """[..., T, d] -> a [..., heads, T, d/heads] view."""
    *lead, t, d = x.shape
    return np.swapaxes(x.reshape(*lead, t, heads, d // heads), -3, -2)


def _merge_heads(x):
    """[..., heads, T, dh] -> a new [..., T, heads*dh] array."""
    *lead, heads, t, dh = x.shape
    return np.swapaxes(x, -3, -2).reshape(*lead, t, heads * dh)


def attend(q, k, v, heads, scale, mask=None):
    """Multi-head scaled dot-product attention as one node: per head h,
    softmax(scale·q_h k_hᵀ + mask) v_h, with the heads' contexts merged.

    ``q`` is [..., Tq, d], ``k`` [..., Tk, d] and ``v`` [..., Tk, dv]; their
    leading axes broadcast, and head h owns columns h·d/heads to
    (h+1)·d/heads of each (numpy views, no copies). ``mask`` is an
    additive float array that broadcasts to the scores [..., heads, Tq,
    Tk] without enlarging them (0 = attend, large negative = blocked).
    ``scale`` is folded into the query heads before the score product; the
    scores are formed in one buffer, then masked and normalized in place,
    so only the probabilities P and the merged context are kept; the
    backward reads the per-head contexts O as a view of that context.
    Returns ``(context, P)``: the context [..., Tq, dv] as a tensor whose
    parents are ``(q, k, v)``, and P [..., heads, Tq, Tk] as a plain
    array. The backward uses FlashAttention-2's identity dS = P ∘ (dP − D)
    with D = rowsum(dO ∘ O) per head, which equals rowsum(dP ∘ P) without a
    pass over P, applies ``scale`` to the dQ and dK products, and
    recomputes nothing.
    """
    q, k, v = as_tensor(q), as_tensor(k), as_tensor(v)
    if min(q.data.ndim, k.data.ndim, v.data.ndim) < 2:
        raise ShapeError(f"attend needs rank>=2 operands, got {q.shape}, {k.shape}, {v.shape}")
    if q.shape[-1] != k.shape[-1] or k.shape[-2] != v.shape[-2]:
        raise ShapeError(f"attend: q {q.shape}, k {k.shape} and v {v.shape} do not align")
    if q.shape[-1] % heads or v.shape[-1] % heads:
        raise ShapeError(f"attend: widths {q.shape[-1]} and {v.shape[-1]} "
                         f"not divisible by {heads} heads")
    lead = q.shape[:-2]
    rows = (q.shape[-2], k.shape[-2])
    try:  # tuple compares first: the broadcast probes run only on shapes that differ
        if not lead == k.shape[:-2] == v.shape[:-2]:
            lead = np.broadcast_shapes(lead, k.shape[:-2], v.shape[:-2])
        scores = lead + (heads,) + rows
        fits = (mask is None or np.shape(mask) == rows
                or np.broadcast_shapes(scores, np.shape(mask)) == scores)
    except ValueError:
        fits = False
    if not fits:  # the mask is added in place, so it may not enlarge the scores
        raise ShapeError(f"attend: q {q.shape}, k {k.shape}, v {v.shape} and mask "
                         f"{None if mask is None else np.shape(mask)} do not broadcast")
    qh, kh, vh = (_split_heads(t.data, heads) for t in (q, k, v))
    p = (qh * scale) @ np.swapaxes(kh, -1, -2)
    if mask is not None:
        p += mask
    p -= p.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)
    out = _merge_heads(p @ vh)

    def bwd(g):
        g = _split_heads(g, heads)
        _accum(v, _unbroadcast(_merge_heads(np.swapaxes(p, -1, -2) @ g), v.shape))
        ds = g @ np.swapaxes(vh, -1, -2)  # dP, then dS in place
        ds -= (g * _split_heads(out, heads)).sum(axis=-1, keepdims=True)
        ds *= p
        dq = _merge_heads(ds @ kh)
        dq *= scale
        _accum(q, _unbroadcast(dq, q.shape))
        dk = _merge_heads(np.swapaxes(ds, -1, -2) @ qh)
        dk *= scale
        _accum(k, _unbroadcast(dk, k.shape))

    return _node(out, (q, k, v), bwd), p


def layer_norm(x, gain, bias, eps=1e-5):
    """Normalize the last axis to zero mean / unit variance, then affine."""
    x, gain, bias = as_tensor(x), as_tensor(gain), as_tensor(bias)
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(
            f"layer_norm affine shapes {gain.shape}/{bias.shape} do not match width {d}"
        )
    # np.mean's and np.var's arithmetic, with the centred rows formed once
    xhat = x.data - x.data.sum(axis=-1, keepdims=True) / d
    var = (xhat * xhat).sum(axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + eps)
    xhat *= inv

    def bwd(g):
        # dx = (gy − mean(gy) − x̂·mean(gy·x̂))·inv with gy = g·gain, formed
        # in place in gy; ``gx`` holds g·x̂ (when the gain trains), then gy·x̂,
        # then x̂·mean(gy·x̂)
        lead = tuple(range(g.ndim - 1))
        gx = None
        if gain.requires_grad:
            gx = g * xhat
            _accum(gain, _unbroadcast(gx.sum(axis=lead), gain.shape))
        if bias.requires_grad:
            _accum(bias, _unbroadcast(g.sum(axis=lead), bias.shape))
        if not x.requires_grad:
            return
        gy = g * gain.data
        m1 = gy.mean(axis=-1, keepdims=True)
        gx = np.multiply(gy, xhat, out=gx)
        m2 = gx.mean(axis=-1, keepdims=True)
        gy -= m1
        gy -= np.multiply(xhat, m2, out=gx)
        gy *= inv
        _accum(x, gy)

    out = xhat * gain.data
    out += bias.data
    return _node(out, (x, gain, bias), bwd)


def concat(tensors, axis=0):
    tensors = tuple(as_tensor(t) for t in tensors)
    ref = tensors[0].shape
    for t in tensors[1:]:
        if len(t.shape) != len(ref) or any(
            t.shape[i] != ref[i] for i in range(len(ref)) if i != axis % len(ref)
        ):
            raise ShapeError(f"concat: incompatible shapes {[t.shape for t in tensors]}")
    offsets = np.cumsum([t.shape[axis] for t in tensors])[:-1]

    def bwd(g):
        for t, piece in zip(tensors, np.split(g, offsets, axis=axis)):
            _accum(t, piece)

    return _node(np.concatenate([t.data for t in tensors], axis=axis), tensors, bwd)


def unstack(a):
    """The slices a[0], a[1], ... along the first axis, one node each; a
    slice's backward writes its gradient into zeros of ``a``'s shape."""
    a = as_tensor(a)

    def piece(i):
        def da(g):
            full = np.zeros(a.shape)
            full[i] = g
            return full
        return _unary(a, a.data[i], da)

    return tuple(piece(i) for i in range(a.shape[0]))


def tsum(a, axis=None, keepdims=False):
    a = as_tensor(a)

    def da(g):
        gg = g if keepdims or axis is None else np.expand_dims(g, axis)
        return np.broadcast_to(gg, a.data.shape).copy()

    return _unary(a, a.data.sum(axis=axis, keepdims=keepdims), da)


def tmean(a, axis=None, keepdims=False):
    a = as_tensor(a)
    n = a.data.size if axis is None else a.data.shape[axis]
    return mul(tsum(a, axis=axis, keepdims=keepdims), 1.0 / n)


def _scatter_add(shape, index, g):
    """Zeros of ``shape`` with ``g`` added at ``index``, repeats summed."""
    full = np.zeros(shape)
    np.add.at(full, index, g)
    return full


def embed(table, ids):
    """Row gather: out[j] = table[ids[j]]; backward scatter-adds."""
    table = as_tensor(table)
    ids = np.asarray(ids, dtype=np.int64)
    return _unary(table, table.data[ids], lambda g: _scatter_add(table.shape, ids, g))


def nll(logits, rows, targets, weights):
    """Weighted negative log-likelihood as one node: −Σ_j w_j · log
    softmax(z_{rows[j]})[targets[j]] over the rows z of ``logits`` [..., V]
    read as [-1, V].

    Only the scored rows are normalized; the backward scatter-adds
    (softmax − onehot)·w·g of each of them into a zero gradient of the
    logits' shape, so a repeated row accumulates.
    """
    logits = as_tensor(logits)
    rows, targets = np.asarray(rows, dtype=np.int64), np.asarray(targets, dtype=np.int64)
    weights = np.asarray(weights, dtype=np.float64)
    if rows.ndim != 1 or targets.shape != rows.shape or weights.shape != rows.shape:
        raise ShapeError(f"nll: rows {rows.shape}, targets {targets.shape} and weights "
                         f"{weights.shape} must be vectors of one length")
    flat = logits.data.reshape(-1, logits.shape[-1])
    logp = flat[rows]
    logp -= logp.max(axis=-1, keepdims=True)
    logp -= np.log(np.exp(logp).sum(axis=-1, keepdims=True))
    picks = (np.arange(rows.size), targets)

    def bwd(g):
        wg = weights * g
        d = np.exp(logp)
        d *= wg[:, None]
        d[picks] -= wg
        _accum(logits, _scatter_add(flat.shape, rows, d).reshape(logits.shape))

    return _node(-(logp[picks] * weights).sum(), (logits,), bwd)

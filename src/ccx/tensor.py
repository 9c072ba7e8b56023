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

# The float64 values (2^17, 1 MiB) that a block of ``attend`` or ``gelu``
# keeps in cache: half the 2 MiB L2 of a core, so that a block's
# elementwise passes read cache rather than memory. It bounds a block's
# slice of attention probabilities, and the four arrays a GELU block
# works in together.
_BLOCK = 1 << 17


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

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)

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
            _accum(a, _unbroadcast(da(g), a.data.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(db(g), b.data.shape))

    return _node(out_data, (a, b), bwd)


def _operands(a, b, name):
    """Both operands as tensors, after checking that their shapes broadcast."""
    a, b = as_tensor(a), as_tensor(b)
    sa, sb = a.data.shape, b.data.shape
    if sa != sb:  # equal shapes need no broadcast probe
        try:
            np.broadcast_shapes(sa, sb)
        except ValueError:
            raise ShapeError(f"{name}: shapes {sa} and {sb} do not broadcast")
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
    xs, ws, bs = x.data.shape, w.data.shape, b.data.shape
    if len(xs) < 2 or len(ws) != 2:
        raise ShapeError(f"linear needs x of rank>=2 and a rank-2 w, got {xs} @ {ws}")
    if xs[-1] != ws[0]:
        raise ShapeError(f"linear inner mismatch: {xs} @ {ws}")
    if bs != ws[1:]:
        raise ShapeError(f"linear bias {bs} does not match {ws}")
    out = x.data @ w.data
    out += b.data

    def bwd(g):
        if b.requires_grad:
            _accum(b, _unbroadcast(g, bs))
        if x.requires_grad:
            _accum(x, g @ w.data.T)
        if w.requires_grad:
            _accum(w, _unbroadcast(x.data.swapaxes(-1, -2) @ g, ws))

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

    The forward runs in blocks of at most ``_BLOCK`` / 4 elements of the
    input read in C order: the input, the output, the derivative and one
    scratch block are live together, and stay in cache through the
    block's passes. It returns a fresh C-contiguous array. When a graph is
    recorded, the same pass forms the derivative 0.5(1 + t) + 0.5·x·(1 −
    t²)·sqrt(2/pi)(1 + 3·0.044715·x²), and the backward is one multiply by
    it; a call that records no graph forms no derivative. Each element
    takes the operations of 0.5·x·(1 + t), t = tanh(sqrt(2/pi)·(x +
    0.044715·x²·x)), and of g·(derivative) in the order those expressions
    give, with only the exact halvings moved within their products, so no
    bit depends on the blocks.
    """
    a = as_tensor(a)
    x = a.data
    out = np.empty(x.shape)
    d = np.empty(x.shape) if _GRAD_ENABLED and a.requires_grad else None
    n, step = x.size, _BLOCK // 4
    if n <= step:  # one block: the whole arrays, with no views to cut
        blocks = ((x, out, d, np.empty(x.shape)),)
    else:
        xf, of = x.reshape(-1), out.reshape(-1)
        df = None if d is None else d.reshape(-1)
        scratch = np.empty(step)  # one block, reused by every block
        blocks = [(xf[i:i + step], of[i:i + step], None if d is None else df[i:i + step],
                   scratch[:min(step, n - i)]) for i in range(0, n, step)]
    for xb, ob, db, t in blocks:
        # x·x, not x**3 (libm pow, an order of magnitude slower)
        np.multiply(xb, xb, out=t)
        t *= xb
        t *= _GELU_C
        t += xb
        t *= _SQRT_2_OVER_PI
        np.tanh(t, out=t)
        np.add(t, 1.0, out=ob)
        ob *= 0.5
        if db is not None:
            np.multiply(t, t, out=db)
            np.subtract(1.0, db, out=db)
            db *= 0.5
            db *= xb
            du = np.multiply(xb, xb, out=t)  # t is spent: it takes sqrt(2/pi)(1 + 3c·x²)
            du *= 3.0 * _GELU_C
            du += 1.0
            du *= _SQRT_2_OVER_PI
            db *= du
            db += ob  # ob holds 0.5·(1 + t) here
        ob *= xb
    # into an owned array: on 0-d operands ``g * d`` is a numpy scalar
    return _unary(a, out, lambda g: np.multiply(g, d, out=np.empty(d.shape)))


def _split_heads(x, heads):
    """[..., T, d] -> a [..., heads, T, d/heads] view."""
    s = x.shape
    return x.reshape(s[:-1] + (heads, s[-1] // heads)).swapaxes(-3, -2)


def _merge_heads(x):
    """[..., heads, T, dh] -> a new [..., T, heads*dh] array."""
    *lead, heads, t, dh = x.shape
    return x.swapaxes(-3, -2).reshape(*lead, t, heads * dh)


def _blocks(p, *arrays):
    """Views of ``p`` [..., heads, Tq, Tk] and of ``arrays`` [..., heads, T, ·]
    of the same leading shape, over runs of their flattened leading
    indices, each run as long as its slice of ``p`` holds at most
    ``_BLOCK`` values (one index at least): ``((p, *arrays),)`` when one
    run holds them all, and no run when ``p`` is empty. Flattening the
    leading axes of an array that a caller writes must make no copy; a
    head-split view of a C-contiguous array makes none."""
    size = p.size
    if size <= _BLOCK:
        return ((p, *arrays),) if size else ()
    per = math.prod(p.shape[-3:])
    step = max(1, _BLOCK // per)
    flat = [x.reshape(size // per, *x.shape[-3:]) for x in (p, *arrays)]
    return [tuple(x[i:i + step] for x in flat) for i in range(0, size // per, step)]


def attend(q, k, v, heads, scale, mask=None):
    """Multi-head scaled dot-product attention as one node: per head h,
    softmax(scale·q_h k_hᵀ + mask) v_h, with the heads' contexts merged.

    ``q`` is [..., Tq, d], ``k`` [..., Tk, d] and ``v`` [..., Tk, dv], with
    equal leading axes and Tk ≥ 1, and head h owns columns h·d/heads to
    (h+1)·d/heads of each (numpy views, no copies). ``mask`` is None or
    an additive float array [Tq, Tk] (0 = attend, large negative =
    blocked).
    The work runs in blocks of the flattened leading axes, each holding at
    most ``_BLOCK`` probabilities (at least one leading index), so a
    block's scores stay in cache from the score product, through the mask,
    the exponentials, the row sums and the divide, to the product with V.
    P, the context and the gradients stay whole arrays, allocated once;
    the blocks write into their head-split views. Every element takes the
    same operations whatever the blocks, so blocking moves no bit.
    ``scale`` is folded into the query heads before the score product.
    The softmax exponentiates the scores unshifted and divides by the row
    sums. When a row sum is not finite or below 1e-250 (a row overflowed,
    underflowed, holds a NaN or is fully masked), every block is formed
    again with every row shifted by its maximum first, the textbook
    formula; no input emits a floating-point warning.
    Returns ``(context, P)``: the context [..., Tq, dv] as a tensor whose
    parents are ``(q, k, v)``, and P [..., heads, Tq, Tk] as a plain
    array; with Tq = 0 or an empty leading axis both are empty, and so are
    the gradients that are not zeros. The backward walks the same blocks:
    dV, then FlashAttention-2's identity dS = P ∘ (dP − D) with D =
    rowsum(dO ∘ O) per head, which equals rowsum(dP ∘ P) without a pass
    over P, forming dP − D as one product [dO | −D] [V | 1]ᵀ, then dQ and
    dK with ``scale`` applied; it reads O as a view of the context and
    recomputes nothing.
    """
    q, k, v = as_tensor(q), as_tensor(k), as_tensor(v)
    qs, ks, vs = q.data.shape, k.data.shape, v.data.shape
    if min(len(qs), len(ks), len(vs)) < 2:
        raise ShapeError(f"attend needs rank>=2 operands, got {qs}, {ks}, {vs}")
    if qs[-1] != ks[-1] or ks[-2] != vs[-2]:
        raise ShapeError(f"attend: q {qs}, k {ks} and v {vs} do not align")
    if qs[-1] % heads or vs[-1] % heads:
        raise ShapeError(f"attend: widths {qs[-1]} and {vs[-1]} "
                         f"not divisible by {heads} heads")
    ms = None if mask is None else np.shape(mask)
    if not qs[:-2] == ks[:-2] == vs[:-2] or ms not in (None, (qs[-2], ks[-2])):
        raise ShapeError(f"attend: q {qs}, k {ks}, v {vs} and mask {ms} do not match")
    if not ks[-2]:
        raise ShapeError(f"attend: k {ks} and v {vs} hold no rows for q {qs} to attend to")
    qh, kh, vh = (_split_heads(t.data, heads) for t in (q, k, v))
    p = np.empty(qs[:-2] + (heads, qs[-2], ks[-2]))
    out = np.empty(qs[:-1] + vs[-1:])
    oh = _split_heads(out, heads)

    with np.errstate(over="ignore", invalid="ignore"):
        # the unshifted pass stops at the first bad row sum, and the
        # shifted pass then forms every block again
        for shift in (False, True):
            for pb, qb, kb, vb, ob in _blocks(p, qh, kh, vh, oh):
                s = np.matmul(qb * scale, kb.swapaxes(-1, -2), out=pb)
                if mask is not None:
                    s += mask
                if shift:
                    s -= s.max(axis=-1, keepdims=True)
                np.exp(s, out=s)
                den = s.sum(axis=-1, keepdims=True)
                if not (shift or den.min() >= 1e-250 and den.max() < np.inf):  # NaN fails too
                    break
                s /= den
                np.matmul(s, vb, out=ob)
            else:
                break

    def bwd(g):
        dh = vs[-1] // heads
        # no block writes the gradients when no query attends: they are zeros
        dq, dk, dv = ((np.empty if p.size else np.zeros)(shape) for shape in (qs, ks, vs))
        for pb, qb, kb, vb, ob, gb, dqb, dkb, dvb in _blocks(
                p, qh, kh, vh, oh, *(_split_heads(x, heads) for x in (g, dq, dk, dv))):
            np.matmul(pb.swapaxes(-1, -2), gb, out=dvb)
            # dS = P ∘ (dP − D) with dP − D = [dO | −D] [V | 1]ᵀ, then in place
            gd = np.empty((*gb.shape[:-1], dh + 1))
            gd[..., :dh] = gb
            gd[..., dh] = -(gb * ob).sum(axis=-1)
            vd = np.ones((*vb.shape[:-1], dh + 1))
            vd[..., :dh] = vb
            ds = gd @ vd.swapaxes(-1, -2)
            ds *= pb
            np.matmul(ds, kb, out=dqb)
            dqb *= scale
            np.matmul(ds.swapaxes(-1, -2), qb, out=dkb)
            dkb *= scale
        _accum(v, dv)
        _accum(q, dq)
        _accum(k, dk)

    return _node(out, (q, k, v), bwd), p


def layer_norm(x, gain, bias, eps=1e-5):
    """Normalize the last axis to zero mean / unit variance, then affine."""
    x, gain, bias = as_tensor(x), as_tensor(gain), as_tensor(bias)
    d = x.data.shape[-1]
    gs, bs = gain.data.shape, bias.data.shape
    if gs != (d,) or bs != (d,):
        raise ShapeError(f"layer_norm affine shapes {gs}/{bs} do not match width {d}")
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
            _accum(gain, _unbroadcast(gx.sum(axis=lead), gs))
        if bias.requires_grad:
            _accum(bias, _unbroadcast(g.sum(axis=lead), bs))
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


def stack(tensors):
    """Tensors of one shape stacked on a new first axis, as one node: the
    inverse of ``unstack``. Input i's gradient is the slice g[i]."""
    tensors = tuple(as_tensor(t) for t in tensors)
    if not tensors or any(t.data.shape != tensors[0].data.shape for t in tensors):
        raise ShapeError(f"stack needs one or more tensors of one shape, "
                         f"got {[t.shape for t in tensors]}")

    def bwd(g):
        for i, t in enumerate(tensors):
            _accum(t, g[i])

    return _node(np.stack([t.data for t in tensors]), tensors, bwd)


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

    ``rows`` may not be empty. Only the scored rows are normalized; the
    backward scatter-adds (softmax − onehot)·w·g of each of them into a
    zero gradient of the logits' shape, so a repeated row accumulates.
    """
    logits = as_tensor(logits)
    rows, targets = np.asarray(rows, dtype=np.int64), np.asarray(targets, dtype=np.int64)
    weights = np.asarray(weights, dtype=np.float64)
    if rows.ndim != 1 or targets.shape != rows.shape or weights.shape != rows.shape:
        raise ShapeError(f"nll: rows {rows.shape}, targets {targets.shape} and weights "
                         f"{weights.shape} must be vectors of one length")
    if not rows.size:
        raise ShapeError("nll needs at least one scored row")
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

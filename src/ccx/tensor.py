"""Dense float64 tensors with reverse-mode automatic differentiation.

Every op builds a node in a tape-free graph: each output tensor keeps a
closure that scatters its upstream gradient into its parents. Calling
``backward()`` on a scalar walks the graph in reverse topological order
and frees it as it goes: once an interior node (one with parents) has
passed its gradient on, its ``.grad``, closure and parent edges are
dropped, so activations and interior gradients are released during the
walk. Afterwards interior tensors have ``.grad is None`` and only leaves
(parameters, inputs) keep a gradient; a second ``backward()`` through a
freed graph raises ``RuntimeError``. Gradient arrays are never mutated
in place (accumulation rebinds ``.grad``), so code that changes a
gradient rebinds it too. Inside ``no_grad()`` ops build no graph. All
data is float64; shapes are plain numpy shapes.
"""

from __future__ import annotations

import math
from contextlib import contextmanager

import numpy as np

# When True, every freshly created tensor is checked for NaN/Inf.
DEBUG_FINITE = False

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
        if _parents and not _GRAD_ENABLED:
            requires_grad, _parents, _backward = False, (), None
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = _parents
        self._backward = _backward
        if DEBUG_FINITE and not np.all(np.isfinite(self.data)):
            raise FloatingPointError("non-finite values in tensor")

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def item(self):
        return float(self.data)

    def detach(self):
        return Tensor(self.data.copy())

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

    def __matmul__(self, other):
        return matmul(self, other)

    def reshape(self, *shape):
        return reshape(self, shape)

    def transpose(self, *axes):
        return transpose(self, axes)

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


def _binary(a, b, out_data, da, db):
    a, b = as_tensor(a), as_tensor(b)
    req = a.requires_grad or b.requires_grad

    def bwd(g):
        _accum(a, _unbroadcast(da(g), a.shape))
        _accum(b, _unbroadcast(db(g), b.shape))

    return Tensor(out_data, req, (a, b), bwd if req else None)


def add(a, b):
    a, b = as_tensor(a), as_tensor(b)
    _check_broadcast(a, b, "add")
    return _binary(a, b, a.data + b.data, lambda g: g, lambda g: g)


def sub(a, b):
    a, b = as_tensor(a), as_tensor(b)
    _check_broadcast(a, b, "sub")
    return _binary(a, b, a.data - b.data, lambda g: g, lambda g: -g)


def mul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    _check_broadcast(a, b, "mul")
    return _binary(a, b, a.data * b.data, lambda g: g * b.data, lambda g: g * a.data)


def _check_broadcast(a, b, name):
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise ShapeError(f"{name}: shapes {a.shape} and {b.shape} do not broadcast")


def matmul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeError(f"matmul needs rank>=2 operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner mismatch: {a.shape} @ {b.shape}")
    try:
        np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    except ValueError:
        raise ShapeError(f"matmul batch mismatch: {a.shape} @ {b.shape}")
    out = a.data @ b.data
    req = a.requires_grad or b.requires_grad

    def bwd(g):
        _accum(a, _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape))
        _accum(b, _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape))

    return Tensor(out, req, (a, b), bwd if req else None)


def _unary(a, out_data, da):
    a = as_tensor(a)
    req = a.requires_grad

    def bwd(g):
        _accum(a, da(g))

    return Tensor(out_data, req, (a,), bwd if req else None)


def sigmoid(a):
    a = as_tensor(a)
    s = np.empty_like(a.data)
    pos = a.data >= 0
    s[pos] = 1.0 / (1.0 + np.exp(-a.data[pos]))
    e = np.exp(a.data[~pos])
    s[~pos] = e / (1.0 + e)
    return _unary(a, s, lambda g: g * s * (1.0 - s))


def tanh(a):
    a = as_tensor(a)
    t = np.tanh(a.data)
    return _unary(a, t, lambda g: g * (1.0 - t * t))


def gelu(a):
    """GELU via the tanh approximation 0.5x(1+tanh(sqrt(2/pi)(x+0.044715x^3)))."""
    a = as_tensor(a)
    x = a.data
    x2 = x * x  # x**3 would go through libm pow, an order of magnitude slower
    u = _SQRT_2_OVER_PI * (x + _GELU_C * (x2 * x))
    t = np.tanh(u)
    out = 0.5 * x * (1.0 + t)
    du = _SQRT_2_OVER_PI * (1.0 + 3.0 * _GELU_C * x2)
    deriv = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du
    return _unary(a, out, lambda g: g * deriv)


def exp(a):
    a = as_tensor(a)
    e = np.exp(a.data)
    return _unary(a, e, lambda g: g * e)


def log(a):
    a = as_tensor(a)
    if np.any(a.data <= 0):
        raise ValueError("log of non-positive value")
    return _unary(a, np.log(a.data), lambda g: g / a.data)


def softmax(a, axis=-1):
    a = as_tensor(a)
    if not -a.data.ndim <= axis < a.data.ndim:
        raise ShapeError(f"softmax axis {axis} out of bounds for shape {a.shape}")
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)

    def bwd(g):
        dot = (g * y).sum(axis=axis, keepdims=True)
        _accum(a, y * (g - dot))

    return Tensor(y, a.requires_grad, (a,), bwd if a.requires_grad else None)


def log_softmax(a, axis=-1):
    a = as_tensor(a)
    m = a.data.max(axis=axis, keepdims=True)
    shifted = a.data - m
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out = shifted - lse
    sm = np.exp(out)

    def bwd(g):
        _accum(a, g - sm * g.sum(axis=axis, keepdims=True))

    return Tensor(out, a.requires_grad, (a,), bwd if a.requires_grad else None)


def layer_norm(x, gain, bias, eps=1e-5):
    """Normalize the last axis to zero mean / unit variance, then affine."""
    x, gain, bias = as_tensor(x), as_tensor(gain), as_tensor(bias)
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(
            f"layer_norm affine shapes {gain.shape}/{bias.shape} do not match width {d}"
        )
    mu = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * inv
    out = xhat * gain.data + bias.data
    req = x.requires_grad or gain.requires_grad or bias.requires_grad

    def bwd(g):
        lead = tuple(range(g.ndim - 1))
        _accum(gain, _unbroadcast((g * xhat).sum(axis=lead), gain.shape))
        _accum(bias, _unbroadcast(g.sum(axis=lead), bias.shape))
        gy = g * gain.data
        m1 = gy.mean(axis=-1, keepdims=True)
        m2 = (gy * xhat).mean(axis=-1, keepdims=True)
        _accum(x, (gy - m1 - xhat * m2) * inv)

    return Tensor(out, req, (x, gain, bias), bwd if req else None)


def concat(tensors, axis=0):
    tensors = [as_tensor(t) for t in tensors]
    ref = tensors[0].shape
    for t in tensors[1:]:
        if len(t.shape) != len(ref) or any(
            t.shape[i] != ref[i] for i in range(len(ref)) if i != axis % len(ref)
        ):
            raise ShapeError(f"concat: incompatible shapes {[t.shape for t in tensors]}")
    out = np.concatenate([t.data for t in tensors], axis=axis)
    req = any(t.requires_grad for t in tensors)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum(sizes)[:-1]

    def bwd(g):
        for t, piece in zip(tensors, np.split(g, offsets, axis=axis)):
            _accum(t, piece)

    return Tensor(out, req, tuple(tensors), bwd if req else None)


def tsum(a, axis=None, keepdims=False):
    a = as_tensor(a)
    out = a.data.sum(axis=axis, keepdims=keepdims)

    def bwd(g):
        if axis is None:
            _accum(a, np.full_like(a.data, float(g)) if np.ndim(g) == 0 else g * np.ones_like(a.data))
            return
        gg = g if keepdims else np.expand_dims(g, axis)
        _accum(a, np.broadcast_to(gg, a.data.shape).copy())

    return Tensor(out, a.requires_grad, (a,), bwd if a.requires_grad else None)


def tmean(a, axis=None, keepdims=False):
    a = as_tensor(a)
    n = a.data.size if axis is None else a.data.shape[axis]
    return mul(tsum(a, axis=axis, keepdims=keepdims), 1.0 / n)


def reshape(a, shape):
    a = as_tensor(a)
    out = a.data.reshape(shape)

    def bwd(g):
        _accum(a, g.reshape(a.data.shape))

    return Tensor(out, a.requires_grad, (a,), bwd if a.requires_grad else None)


def transpose(a, axes):
    a = as_tensor(a)
    axes = tuple(axes)
    out = a.data.transpose(axes)
    inv = np.argsort(axes)

    def bwd(g):
        _accum(a, g.transpose(inv))

    return Tensor(out, a.requires_grad, (a,), bwd if a.requires_grad else None)


def embed(table, ids):
    """Row gather: out[j] = table[ids[j]]; backward scatter-adds."""
    table = as_tensor(table)
    ids = np.asarray(ids, dtype=np.int64)
    out = table.data[ids]

    def bwd(g):
        full = np.zeros_like(table.data)
        np.add.at(full, ids, g)
        _accum(table, full)

    return Tensor(out, table.requires_grad, (table,), bwd if table.requires_grad else None)


def take_pairs(a, rows, cols):
    """Pick a[rows[j], cols[j]] for each j from a rank-2 tensor."""
    a = as_tensor(a)
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    out = a.data[rows, cols]

    def bwd(g):
        full = np.zeros_like(a.data)
        np.add.at(full, (rows, cols), g)
        _accum(a, full)

    return Tensor(out, a.requires_grad, (a,), bwd if a.requires_grad else None)

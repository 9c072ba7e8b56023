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

Reductions and products keep out of numpy's axis loops, which walk
narrow rows slowly. Sums over the last axis (layer norm's means and
variance, the softmax's row sums, attention's D) are ``np.einsum`` row
sums: einsum sums each row in one loop, so a row's bits do not depend on
how many rows share the call, which a GEMV's (``x @ ones``) do on
OpenBLAS. Sums over leading axes are one BLAS product,
ones(n) @ g.reshape(n, -1) (``_unbroadcast``). The softmax multiplies
by the reciprocal of each row sum. Linear's dx takes a contiguous copy
of wᵀ and attention's backward builds [V | −1]ᵀ contiguous: a GEMM on
such a transposed view gives the same bits more slowly. Against numpy's
sums and divides these move low-order bits.

``attend`` and ``gelu`` work in cache blocks that write disjoint slices
of their outputs. ``_in_runs`` cuts a block list into one contiguous run
per CPU of the affinity mask and runs all but the first on worker
threads, only when every run gets at least one full block; no bit
depends on the runs.
"""

from __future__ import annotations

import math
import os
import queue
import threading
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

# The CPUs in this process's affinity mask at import (``taskset`` limits
# them): the most runs ``_in_runs`` cuts a block list into.
_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
# One task queue per worker thread, started by the first call that needs it
_WORKERS = []
_WORKERS_LOCK = threading.Lock()


def _forget_workers():
    """In a forked child: the parent's worker threads do not exist here."""
    global _WORKERS_LOCK
    _WORKERS.clear()
    _WORKERS_LOCK = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_workers)


def _work(tasks):
    """A worker thread's loop over the tasks ``_in_runs`` hands it."""
    while True:
        _run_task(*tasks.get())


def _run_task(run, blocks, args, post):
    """Post ``run(blocks, *args)``, or the exception it raised, which the
    waiting caller re-raises. The task's arrays die with this frame, so
    the worker holds none of them while it waits for the next task."""
    try:
        post.put((True, run(blocks, *args)))
    except BaseException as exc:  # handed to the caller, which raises it
        post.put((False, exc))


def _workers(n):
    """The task queues of ``n`` worker threads, starting those not running."""
    with _WORKERS_LOCK:
        while len(_WORKERS) < n:
            tasks = queue.SimpleQueue()
            threading.Thread(target=_work, args=(tasks,), daemon=True,
                             name=f"ccx-blocks-{len(_WORKERS) + 1}").start()
            _WORKERS.append(tasks)
        return _WORKERS[:n]


def _in_runs(run, blocks, size, budget, *args):
    """``run(blocks, *args)`` over contiguous runs of ``blocks``, one run
    per CPU, and the results in run order: ``[run(blocks, *args)]`` when
    ``size`` values (of which a block holds at most ``budget``) fill fewer
    than two CPUs with a full block each. Runs 2.. go to worker threads
    while this thread does the first; every run finishes before an
    exception of any run is raised. ``run`` must write only its own
    blocks' slices and read no state another thread changes; numpy
    releases the interpreter lock in the products and elementwise passes,
    so the runs overlap.
    """
    if size < 2 * budget or _CPUS < 2:  # one run; a cheap test, as most calls take it
        return [run(blocks, *args)]
    n = min(_CPUS, size // budget, len(blocks))
    cut = [len(blocks) * i // n for i in range(n + 1)]
    posts = []
    for tasks, lo, hi in zip(_workers(n - 1), cut[1:], cut[2:]):
        posts.append(queue.SimpleQueue())
        tasks.put((run, blocks[lo:hi], args, posts[-1]))
    try:
        results = [run(blocks[:cut[1]], *args)]
    finally:  # the workers write into the caller's arrays: wait for every one
        posted = [post.get() for post in posts]
    for ok, value in posted:
        if not ok:
            raise value
        results.append(value)
    return results


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
    """Reduce gradient ``g`` back to ``shape`` after numpy broadcasting.

    The leading axes that ``shape`` lacks are summed as one BLAS product,
    ones(n) @ g.reshape(n, -1), rather than by numpy's axis loops, which
    walk narrow rows slowly (19 against 49 µs for a [4, 8, 64, 32]
    gradient). This serves linear's db and dW, layer norm's gain and bias
    and the broadcasting ``add``, ``sub`` and ``mul``. It moves low-order
    bits against ``g.sum(axis)``: within 1e-14 of Σ|g| (2.9e-16 over 300
    random calls). Axes of length 1 in ``shape`` are summed by numpy.
    """
    extra = g.ndim - len(shape)
    if extra > 0:
        n, tail = math.prod(g.shape[:extra]), g.shape[extra:]
        g = (np.ones(n) @ g.reshape(n, math.prod(tail))).reshape(tail)
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
    gradient. wᵀ is copied to a contiguous [m, n] array first: the product
    on a transposed view gives the same bits, 1.5-1.8x slower on the
    enhancer's [2, 8, 64, ·] rows (copy included) and no faster on the
    decoder's. db and the
    sum of dW over the leading axes are ``_unbroadcast``'s one BLAS
    product each, within 1e-14 of Σ|g| of numpy's axis sums.
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
            _accum(x, g @ np.ascontiguousarray(w.data.T))
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
    block's passes; ``_in_runs`` spreads the blocks over the CPUs, with
    one scratch block per run. It returns a fresh C-contiguous array.
    When a graph is recorded, the same pass forms the derivative
    0.5(1 + t) + 0.5·x·(1 − t²)·sqrt(2/pi)(1 + 3·0.044715·x²), and the
    backward is one multiply by it; a call that records no graph forms no
    derivative. Each element takes the operations of 0.5·x·(1 + t),
    t = tanh(sqrt(2/pi)·(x + 0.044715·x²·x)), and of g·(derivative) in the
    order those expressions give, with only the exact halvings moved
    within their products, so no bit depends on the blocks or the runs.
    """
    a = as_tensor(a)
    x = a.data
    out = np.empty(x.shape)
    d = np.empty(x.shape) if _GRAD_ENABLED and a.requires_grad else None
    n, step = x.size, _BLOCK // 4
    if n <= step:  # one block: the whole arrays, with no views to cut or runs to split
        _gelu_blocks(((x, out, d),))
    else:
        xf, of = x.reshape(-1), out.reshape(-1)
        df = None if d is None else d.reshape(-1)
        _in_runs(_gelu_blocks, [(xf[i:i + step], of[i:i + step],
                                 None if d is None else df[i:i + step])
                                for i in range(0, n, step)], n, step)
    # into an owned array: on 0-d operands ``g * d`` is a numpy scalar
    return _unary(a, out, lambda g: np.multiply(g, d, out=np.empty(d.shape)))


def _gelu_blocks(blocks):
    """GELU's forward, and its derivative where the block has a buffer for
    it, over ``blocks`` of (input, output, derivative) with one scratch
    block for the run."""
    scratch = np.empty(blocks[0][0].shape)  # the first block is the largest
    for xb, ob, db in blocks:
        t = scratch if xb.shape == scratch.shape else scratch[:xb.size]
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


def _split_heads(x, heads):
    """[..., T, d] -> a [..., heads, T, d/heads] view."""
    s = x.shape
    return x.reshape(s[:-1] + (heads, s[-1] // heads)).swapaxes(-3, -2)


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
    the exponentials, the row sums and the normalizing multiply, to the
    product with V.
    P, the context and the gradients stay whole arrays, allocated once;
    the blocks write into their head-split views. Every element takes the
    same operations whatever the blocks, so blocking moves no bit, and
    neither does ``_in_runs`` spreading the blocks over the CPUs.
    ``scale`` is folded into the query heads before the score product.
    The softmax exponentiates the scores unshifted, takes the row sums by
    einsum and multiplies each row by the reciprocal of its sum: one
    divide per row, not one per probability, which moves P's low-order
    bits against the textbook formula.
    When a row sum is not finite or below 1e-250 (a row overflowed,
    underflowed, holds a NaN or is fully masked), every block is formed
    again with every row shifted by its maximum first, then normalized the
    same way; no input emits a floating-point warning.
    Returns ``(context, P)``: the context [..., Tq, dv] as a tensor whose
    parents are ``(q, k, v)``, and P [..., heads, Tq, Tk] as a plain
    array; with Tq = 0 or an empty leading axis both are empty, and so are
    the gradients that are not zeros. The backward walks the same blocks:
    dV, then FlashAttention-2's identity dS = P ∘ (dP − D) with D =
    rowsum(dO ∘ O) per head, which equals rowsum(dP ∘ P) without a pass
    over P, an einsum over the head-split views of dO and O with no
    product array. dP − D is one product [dO | D] [V | −1]ᵀ, with [V | −1]ᵀ
    built as a contiguous [..., dh + 1, Tk] array, then dQ and dK with
    ``scale`` applied; it reads O as a view of the context and recomputes
    nothing.
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

    # a run stops at its first bad row sum, and the shifted pass then forms
    # every block again
    blocks = _blocks(p, qh, kh, vh, oh)
    if not all(_in_runs(_attend_blocks, blocks, p.size, _BLOCK, scale, mask, False)):
        _in_runs(_attend_blocks, blocks, p.size, _BLOCK, scale, mask, True)

    def bwd(g):
        # no block writes the gradients when no query attends: they are zeros
        dq, dk, dv = ((np.empty if p.size else np.zeros)(shape) for shape in (qs, ks, vs))
        _in_runs(_attend_grad_blocks, _blocks(p, qh, kh, vh, oh, *(
            _split_heads(x, heads) for x in (g, dq, dk, dv))), p.size, _BLOCK, scale)
        _accum(v, dv)
        _accum(q, dq)
        _accum(k, dk)

    return _node(out, (q, k, v), bwd), p


def _attend_blocks(blocks, scale, mask, shift):
    """``attend``'s forward over ``blocks`` of (P, q, k, v, context) head
    views: False at the first row sum that is not finite or below 1e-250,
    unless ``shift`` subtracts each row's maximum first."""
    # numpy's error state is per thread: each run sets its own
    with np.errstate(over="ignore", invalid="ignore"):
        for pb, qb, kb, vb, ob in blocks:
            s = np.matmul(qb * scale, kb.swapaxes(-1, -2), out=pb)
            if mask is not None:
                s += mask
            if shift:
                s -= s.max(axis=-1, keepdims=True)
            np.exp(s, out=s)
            den = np.einsum("...j->...", s)
            if not (shift or den.min() >= 1e-250 and den.max() < np.inf):  # NaN fails too
                return False
            s *= np.reciprocal(den, out=den)[..., None]
            np.matmul(s, vb, out=ob)
    return True


def _attend_grad_blocks(blocks, scale):
    """``attend``'s backward over ``blocks`` of (P, q, k, v, context, dO,
    dQ, dK, dV) head views."""
    for pb, qb, kb, vb, ob, gb, dqb, dkb, dvb in blocks:
        dh = vb.shape[-1]
        np.matmul(pb.swapaxes(-1, -2), gb, out=dvb)
        # dS = P ∘ (dP − D) with dP − D = [dO | D] [V | −1]ᵀ, then in place
        gd = np.empty((*gb.shape[:-1], dh + 1))
        gd[..., :dh] = gb
        np.einsum("...j,...j->...", gb, ob, out=gd[..., dh])
        vt = np.empty((*vb.shape[:-2], dh + 1, vb.shape[-2]))
        vt[..., :dh, :] = vb.swapaxes(-1, -2)
        vt[..., dh, :] = -1.0
        ds = gd @ vt
        ds *= pb
        np.matmul(ds, kb, out=dqb)
        dqb *= scale
        np.matmul(ds.swapaxes(-1, -2), qb, out=dkb)
        dkb *= scale


def layer_norm(x, gain, bias, eps=1e-5):
    """Normalize the last axis to zero mean / unit variance, then affine.

    The row means and the variance are row sums by ``np.einsum`` divided
    by the width: mean = Σx/d, var = Σx̂·x̂/d of the centred rows x̂ (formed
    once, no x̂² array). einsum sums each row in one loop, so a row's bits
    do not depend on how many rows share the call. The backward forms g·x̂
    once, for the gain's gradient and for mean(gy·x̂) = Σ(g·x̂)·gain/d; with
    mean(gy) = Σg·gain/d, both are einsum row sums against the gain, and
    gy = g·gain is not multiplied by x̂. The gain's and the bias's
    gradients are ``_unbroadcast``'s leading-axis sums. Against numpy's
    ``np.mean``/``np.var`` arithmetic the output and dx move in their
    low-order bits: within 1e-14 of each row's largest |value| (of
    |g·gain|·inv for dx), and over 300 random calls within 2.2e-15 and
    1.9e-15.
    """
    x, gain, bias = as_tensor(x), as_tensor(gain), as_tensor(bias)
    d = x.data.shape[-1]
    gs, bs = gain.data.shape, bias.data.shape
    if gs != (d,) or bs != (d,):
        raise ShapeError(f"layer_norm affine shapes {gs}/{bs} do not match width {d}")
    xhat = x.data - (np.einsum("...j->...", x.data) / d)[..., None]
    var = np.einsum("...j,...j->...", xhat, xhat) / d
    inv = (1.0 / np.sqrt(var + eps))[..., None]
    xhat *= inv

    def bwd(g):
        # dx = (gy − mean(gy) − x̂·mean(gy·x̂))·inv with gy = g·gain, formed
        # in place in gy; ``gx`` holds g·x̂, then x̂·mean(gy·x̂)
        if bias.requires_grad:
            _accum(bias, _unbroadcast(g, bs))
        if not (gain.requires_grad or x.requires_grad):
            return
        gx = g * xhat
        if gain.requires_grad:
            _accum(gain, _unbroadcast(gx, gs))
        if not x.requires_grad:
            return
        m1 = (np.einsum("...j,j->...", g, gain.data) / d)[..., None]
        m2 = (np.einsum("...j,j->...", gx, gain.data) / d)[..., None]
        gy = g * gain.data
        gy -= m1
        # one row [d] is its own gain gradient, which the gain may keep
        gy -= np.multiply(xhat, m2, out=None if gain.requires_grad and g.ndim == 1 else gx)
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

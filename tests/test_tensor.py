import ctypes
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccx import tensor as T
from ccx.nn import Parameter
from ccx.optim import AdamW
from ccx.rng import Rng
from ccx.verify import finite_diff_check


def fd_check(build, tensors, tol=1e-5, max_entries=64):
    errs = finite_diff_check(build, tensors, max_entries=max_entries)
    worst = max(errs.values())
    assert worst < tol, errs


def _bias(m, seed=None):
    """A zero bias of width m, or a normal one from ``seed``."""
    return T.Tensor(np.zeros(m) if seed is None else Rng(seed).normal((m,)),
                    requires_grad=seed is not None)


class TestMatmul:
    """The product inside ``T.linear``."""

    def test_identity(self):
        a = T.Tensor([[1.0, 2.0], [3.0, 4.0]])
        out = T.linear(a, T.Tensor(np.eye(2)), _bias(2))
        np.testing.assert_array_equal(out.data, a.data)

    def test_dot_product(self):
        out = T.linear(T.Tensor([[1.0, 2.0]]), T.Tensor([[3.0], [4.0]]), T.Tensor([0.5]))
        assert out.data.tolist() == [[11.5]]

    def test_shape_mismatch_names_both(self):
        with pytest.raises(T.ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            T.linear(T.Tensor(np.ones((2, 3))), T.Tensor(np.ones((2, 3))), _bias(3))
        with pytest.raises(T.ShapeError, match="rank"):
            T.linear(T.Tensor(np.ones(3)), T.Tensor(np.ones((3, 2))), _bias(2))
        with pytest.raises(T.ShapeError, match="bias"):
            T.linear(T.Tensor(np.ones((2, 3))), T.Tensor(np.ones((3, 2))), _bias(3))

    def test_grad_of_sum_matches_ones_bT(self):
        r = Rng(1)
        a = T.Tensor(r.normal((3, 4)), requires_grad=True)
        b = T.Tensor(r.normal((4, 2)), requires_grad=True)
        bias = _bias(2, seed=24)
        T.tsum(T.linear(a, b, bias)).backward()
        np.testing.assert_allclose(a.grad, np.ones((3, 2)) @ b.data.T, rtol=1e-12)
        np.testing.assert_array_equal(bias.grad, [3.0, 3.0])

    def _gradcheck(self, bias):
        r = Rng(2)
        a = T.Tensor(r.normal((3, 4)), requires_grad=True)
        b = T.Tensor(r.normal((4, 2)), requires_grad=True)
        w = r.normal((3, 2))
        leaves = {"a": a, "b": b} | ({"bias": bias} if bias.requires_grad else {})
        fd_check(lambda: T.tsum(T.linear(a, b, bias) * T.Tensor(w)), leaves)

    def test_gradcheck(self):
        self._gradcheck(_bias(2, seed=25))

    def test_gradcheck_zero_constant_bias(self):
        self._gradcheck(_bias(2))

    def test_batched(self):
        r = Rng(3)
        a = T.Tensor(r.normal((2, 3, 4)), requires_grad=True)
        b = T.Tensor(r.normal((4, 5)), requires_grad=True)
        bias = _bias(5, seed=26)
        w = r.normal((2, 3, 5))
        out = T.linear(a, b, bias)
        assert out.shape == (2, 3, 5)
        fd_check(lambda: T.tsum(T.linear(a, b, bias) * T.Tensor(w)),
                 {"a": a, "b": b, "bias": bias}, max_entries=12)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 2), st.integers(1, 6),
           st.integers(1, 6), st.integers(1, 6))
    def test_forward_is_product_plus_bias_bitwise(self, seed, lead, rows, n, m):
        r = Rng(seed)
        x = r.normal((2,) * lead + (rows, n))
        w, b = r.normal((n, m)), r.normal((m,))
        out = T.linear(T.Tensor(x), T.Tensor(w), T.Tensor(b))
        assert out.data.tobytes() == (x @ w + b).tobytes()


class TestElementwise:
    def test_sigmoid_zero(self):
        assert T.sigmoid(T.Tensor(0.0)).item() == 0.5

    def test_gelu_zero(self):
        assert T.gelu(T.Tensor(0.0)).item() == 0.0

    def test_sigmoid_derivative_at_zero(self):
        x = T.Tensor(0.0, requires_grad=True)
        T.sigmoid(x).backward()
        assert x.grad == pytest.approx(0.25, abs=1e-15)

    def test_shape_mismatch(self):
        with pytest.raises(T.ShapeError):
            T.add(T.Tensor(np.ones(3)), T.Tensor(np.ones(4)))

    def test_sigmoid_matches_boolean_index_formula_bitwise(self):
        edges = np.array([0.0, -0.0, np.inf, -np.inf, 800.0, -800.0, 5e-324, -5e-324,
                          1e-310, -1e-310, 745.2, -745.2, np.nan, -np.nan])
        r = Rng(6)
        for x in (edges, 4.0 * r.normal((64, 32)), 4.0 * r.normal((8, 64, 32)),
                  np.array(-3.5)):
            assert T.sigmoid(T.Tensor(x)).data.tobytes() == _sigmoid_by_sign(x).tobytes()

    @pytest.mark.parametrize("op", [T.sigmoid, T.gelu])
    def test_gradcheck_unary(self, op):
        x = T.Tensor(Rng(4).normal((2, 5)), requires_grad=True)
        w = Rng(5).normal((2, 5))
        fd_check(lambda: T.tsum(op(x) * T.Tensor(w)), {"x": x})


def _sigmoid_by_sign(x):
    """The stable sigmoid computed on each sign's entries by boolean indexing."""
    x = np.asarray(x, dtype=np.float64)
    s = np.empty_like(x)
    pos = x >= 0
    s[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    s[~pos] = e / (1.0 + e)
    return s


_dims = st.lists(st.integers(1, 3), max_size=3).map(tuple)


def _broadcasts(*shapes):
    try:
        np.broadcast_shapes(*shapes)
    except ValueError:
        return False
    return True


class TestShapeChecks:
    """The shape checks compare tuples before probing a broadcast; they
    raise exactly when numpy's broadcasting rules refuse the shapes."""

    @settings(max_examples=150, deadline=None)
    @given(_dims, _dims, st.sampled_from([T.add, T.sub, T.mul]))
    def test_binary_ops_raise_exactly_when_shapes_do_not_broadcast(self, a, b, op):
        x, y = T.Tensor(np.ones(a)), T.Tensor(np.ones(b))
        if _broadcasts(a, b):
            assert op(x, y).shape == np.broadcast_shapes(a, b)
        else:
            with pytest.raises(T.ShapeError, match="do not broadcast"):
                op(x, y)

    @settings(max_examples=150, deadline=None)
    @given(_dims, _dims, _dims, st.integers(1, 3), st.integers(1, 3),
           st.one_of(st.none(), st.just("rows"), st.lists(st.integers(1, 3), max_size=4)))
    def test_attend_raises_exactly_when_shapes_do_not_broadcast(self, lq, lk, lv, tq, tk,
                                                                  mask):
        mask = (tq, tk) if mask == "rows" else None if mask is None else tuple(mask)
        fits = _broadcasts(lq, lk, lv)
        if fits and mask is not None:
            scores = np.broadcast_shapes(lq, lk, lv) + (1, tq, tk)
            fits = _broadcasts(scores, mask) and np.broadcast_shapes(scores, mask) == scores
        args = (T.Tensor(np.ones(lq + (tq, 2))), T.Tensor(np.ones(lk + (tk, 2))),
                T.Tensor(np.ones(lv + (tk, 2))), 1, 1.0,
                None if mask is None else np.zeros(mask))
        if fits:
            ctx, p = T.attend(*args)
            assert ctx.shape == np.broadcast_shapes(lq, lk, lv) + (tq, 2)
        else:
            with pytest.raises(T.ShapeError, match="do not broadcast"):
                T.attend(*args)


def _softmax_rows(z):
    """T.attend's context and probabilities for logits z [rows, cols] with
    one head: q = z and k = I, so the scores are z itself."""
    z = np.atleast_2d(z)
    cols = z.shape[-1]
    ctx, p = T.attend(T.Tensor(z), T.Tensor(np.eye(cols)), T.Tensor(np.eye(cols)), 1, 1.0)
    return ctx, p[0]


class TestSoftmax:
    """The softmax inside ``T.attend``."""

    def test_uniform(self):
        ctx, p = _softmax_rows([0.0, 0.0, 0.0])
        np.testing.assert_allclose(p, [[1 / 3] * 3], atol=1e-15)
        np.testing.assert_allclose(ctx.data, [[1 / 3] * 3], atol=1e-15)

    def test_no_overflow(self):
        _, p = _softmax_rows([1000.0, 0.0])
        np.testing.assert_allclose(p, [[1.0, 0.0]], atol=1e-300)

    def test_jacobian_vector_vs_fd(self):
        q = T.Tensor(Rng(7).normal((3, 6)), requires_grad=True)
        k = T.Tensor(Rng(6).normal((4, 6)), requires_grad=True)
        v = T.Tensor(Rng(5).normal((4, 2)), requires_grad=True)
        w = Rng(8).normal((3, 2))
        errs = finite_diff_check(
            lambda: T.tsum(T.attend(q, k, v, 1, 0.5)[0] * T.Tensor(w)),
            {"q": q, "k": k, "v": v}, max_entries=18)
        assert max(errs.values()) < 1e-6

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(1, 8))
    def test_rows_sum_to_one(self, seed, rows, cols):
        _, p = _softmax_rows(4.0 * Rng(seed).normal((rows, cols)))
        np.testing.assert_allclose(p.sum(axis=-1), np.ones(rows), atol=1e-12)


def _causal(tq, tk):
    """The decoder's mask: query row i sees keys up to tk - tq + i."""
    return np.triu(np.full((tq, tk), -1e30), k=tk - tq + 1)


def _per_head(q, k, v, heads, scale, mask):
    """Attention with the heads split and merged explicitly, one at a time."""
    ctxs, probs = [], []
    for h in range(heads):
        def cols(x):
            dh = x.shape[-1] // heads
            return x[..., h * dh:(h + 1) * dh]

        s = cols(q) @ np.swapaxes(cols(k), -1, -2) * scale + mask
        e = np.exp(s - s.max(axis=-1, keepdims=True))
        p = e / e.sum(axis=-1, keepdims=True)
        ctxs.append(p @ cols(v))
        probs.append(p)
    return np.concatenate(ctxs, axis=-1), np.stack(probs, axis=-3)


def _attend_grads_reference(q, k, v, heads, scale, mask, g):
    """dQ, dK and dV of sum(g ∘ attend(q, k, v)) by the softmax identity
    dS = P ∘ (dP − rowsum(dP ∘ P)), with ``scale`` applied to dS."""
    def split(x):
        return np.swapaxes(x.reshape(*x.shape[:-1], heads, -1), -3, -2)

    def merge(x):
        return np.swapaxes(x, -3, -2).reshape(*x.shape[:-3], x.shape[-2], -1)

    _, p = _per_head(q, k, v, heads, scale, mask)
    qh, kh, vh, gh = split(q), split(k), split(v), split(g)
    dp = gh @ np.swapaxes(vh, -1, -2)
    ds = p * (dp - (dp * p).sum(axis=-1, keepdims=True)) * scale
    return (merge(ds @ kh), merge(np.swapaxes(ds, -1, -2) @ qh),
            merge(np.swapaxes(p, -1, -2) @ gh))


def _attend_grads_from_unmerged_context(q, k, v, heads, scale, mask, g):
    """dQ, dK and dV by T.attend's backward, with D = rowsum(dO ∘ O) read
    from a separately kept copy of the unmerged per-head contexts O."""
    qh, kh, vh = (T._split_heads(x, heads) for x in (q, k, v))
    p = (qh * scale) @ np.swapaxes(kh, -1, -2)
    if mask is not None:
        p += mask
    p -= p.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)
    o = p @ vh
    g = T._split_heads(g, heads)
    dv = T._merge_heads(np.swapaxes(p, -1, -2) @ g)
    ds = g @ np.swapaxes(vh, -1, -2)
    ds -= (g * o).sum(axis=-1, keepdims=True)
    ds *= p
    dq = T._merge_heads(ds @ kh)
    dq *= scale
    dk = T._merge_heads(np.swapaxes(ds, -1, -2) @ qh)
    dk *= scale
    return tuple(T._unbroadcast(d, x.shape) for d, x in ((dq, q), (dk, k), (dv, v)))


class TestAttend:
    def _check(self, qshape, kshape, mask, seed, heads=1, dv=3):
        r = Rng(seed)
        q = T.Tensor(r.normal(qshape), requires_grad=True)
        k = T.Tensor(r.normal(kshape), requires_grad=True)
        v = T.Tensor(r.normal(kshape[:-1] + (dv,)), requires_grad=True)
        ctx, _ = T.attend(q, k, v, heads, 0.7, mask)
        w = r.normal(ctx.shape)
        fd_check(lambda: T.tsum(T.attend(q, k, v, heads, 0.7, mask)[0] * T.Tensor(w)),
                 {"q": q, "k": k, "v": v}, tol=1e-6, max_entries=24)

    def test_gradcheck_causal_mask(self):
        self._check((2, 4, 4), (2, 4, 4), _causal(4, 4), 80)

    def test_gradcheck_broadcast_leading_axes(self):
        self._check((2, 2, 3, 4), (2, 5, 4), None, 81)

    def test_gradcheck_kv_cache_longer_keys(self):
        self._check((2, 2, 4), (2, 5, 4), _causal(2, 5), 82)

    def test_gradcheck_two_heads_decoder_cache_mask(self):
        # two new rows after three cached ones, as decoder_forward masks them
        start, t = 3, 2
        mask = np.triu(np.full((t, start + t), -1e30), k=start + 1)
        self._check((2, t, 8), (2, start + t, 8), mask, 87, heads=2, dv=6)

    def test_gradcheck_four_heads_causal(self):
        self._check((2, 6, 8), (2, 6, 8), _causal(6, 6), 89, heads=4, dv=8)

    @pytest.mark.parametrize("seed", [90, 91, 92])
    def test_backward_matches_rowsum_dp_p_reference(self, seed):
        """D = rowsum(dO ∘ O) reorders the sums of rowsum(dP ∘ P) only."""
        r = Rng(seed)
        heads, scale = 4, 1.0 / np.sqrt(12.0)
        q, k, v = (T.Tensor(r.normal((8, 20, 48)), requires_grad=True) for _ in range(3))
        g = r.normal((8, 20, 48))
        T.attend(q, k, v, heads, scale, _causal(20, 20))[0].backward(g)
        want = _attend_grads_reference(q.data, k.data, v.data, heads, scale,
                                       _causal(20, 20), g)
        for got, ref in zip((q.grad, k.grad, v.grad), want):
            assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("qshape,kshape,heads,causal", [
        ((1, 8), (5, 8), 2, False),  # one row, as a cached decode step
        ((2, 1, 8), (2, 6, 8), 4, False),
        ((4, 8), (4, 8), 2, True),
        ((2, 3, 5, 8), (2, 3, 5, 8), 4, True),  # 4-D, as a stacked image pair
        ((2, 2, 3, 4), (2, 5, 4), 1, False),  # broadcast leading axes
        ((8, 20, 48), (8, 20, 48), 4, True),
        ((3, 7, 12), (3, 9, 12), 3, True),
    ])
    def test_backward_reads_context_bitwise(self, qshape, kshape, heads, causal):
        """The backward's D from a head-split view of the returned context
        equals D from a kept copy of the unmerged contexts, to the bit."""
        r = Rng(len(qshape) + 10 * heads)
        q, k, v = (r.normal(shape) for shape in (qshape, kshape, kshape))
        mask = _causal(qshape[-2], kshape[-2]) if causal else None
        leaves = [T.Tensor(x, requires_grad=True) for x in (q, k, v)]
        ctx, _ = T.attend(*leaves, heads, 0.35, mask)
        g = r.normal(ctx.shape)
        ctx.backward(g)
        want = _attend_grads_from_unmerged_context(q, k, v, heads, 0.35, mask, g)
        for leaf, ref in zip(leaves, want, strict=True):
            assert leaf.grad.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("heads", [2, 3, 4])
    def test_heads_match_per_head_reference_bitwise(self, heads):
        r = Rng(88 + heads)
        q, k = r.normal((2, 3, 2 * heads)), r.normal((2, 5, 2 * heads))
        v = r.normal((2, 5, 3 * heads))
        ctx, p = T.attend(T.Tensor(q), T.Tensor(k), T.Tensor(v), heads, 0.5, _causal(3, 5))
        want_ctx, want_p = _per_head(q, k, v, heads, 0.5, _causal(3, 5))
        assert ctx.shape == (2, 3, 3 * heads) and p.shape == (2, heads, 3, 5)
        assert p.tobytes() == want_p.tobytes()
        assert ctx.data.tobytes() == want_ctx.tobytes()

    def test_matches_unfused_reference(self):
        r = Rng(83)
        q, k, v = r.normal((2, 3, 4)), r.normal((2, 5, 4)), r.normal((2, 5, 3))
        s = 0.5 * (q @ np.swapaxes(k, -1, -2)) + _causal(3, 5)
        e = np.exp(s - s.max(axis=-1, keepdims=True))
        want = e / e.sum(axis=-1, keepdims=True)
        ctx, p = T.attend(T.Tensor(q), T.Tensor(k), T.Tensor(v), 1, 0.5, _causal(3, 5))
        np.testing.assert_allclose(p[:, 0], want, rtol=1e-14, atol=1e-300)
        np.testing.assert_allclose(ctx.data, want @ v, rtol=1e-13)

    def test_row_blocked_but_one(self):
        r = Rng(84)
        q = T.Tensor(r.normal((3, 4)), requires_grad=True)
        k = T.Tensor(r.normal((5, 4)), requires_grad=True)
        v = T.Tensor(r.normal((5, 2)), requires_grad=True)
        mask = np.zeros((3, 5))
        mask[1] = -1e30
        mask[1, 3] = 0.0  # row 1 may only see key 3
        ctx, p = T.attend(q, k, v, 1, 0.5, mask)
        np.testing.assert_array_equal(p[0, 1], [0.0, 0.0, 0.0, 1.0, 0.0])
        np.testing.assert_array_equal(ctx.data[1], v.data[3])
        T.tsum(ctx * T.Tensor(r.normal((3, 2)))).backward()
        # a one-hot row has a zero softmax Jacobian: no gradient reaches its query
        np.testing.assert_array_equal(q.grad[1], np.zeros(4))
        assert np.all(np.isfinite(q.grad)) and np.all(np.isfinite(k.grad))

    def test_shape_errors(self):
        def ones(*shape):
            return T.Tensor(np.ones(shape))

        with pytest.raises(T.ShapeError, match="do not align"):
            T.attend(ones(2, 3), ones(4, 2), ones(4, 3), 1, 1.0)
        with pytest.raises(T.ShapeError, match="do not broadcast"):
            T.attend(ones(2, 2, 3), ones(3, 4, 3), ones(3, 4, 3), 1, 1.0)
        with pytest.raises(T.ShapeError, match="do not broadcast"):
            T.attend(ones(2, 3), ones(4, 3), ones(4, 3), 1, 1.0, np.zeros((2, 2, 4)))
        with pytest.raises(T.ShapeError, match="do not broadcast"):
            T.attend(ones(2, 4), ones(3, 4), ones(3, 4), 2, 1.0, np.zeros((3, 2, 3)))
        with pytest.raises(T.ShapeError, match="not divisible by 2 heads"):
            T.attend(ones(2, 3), ones(4, 3), ones(4, 3), 2, 1.0)
        with pytest.raises(T.ShapeError, match="not divisible by 2 heads"):
            T.attend(ones(2, 4), ones(4, 4), ones(4, 3), 2, 1.0)

    def test_attention_records_one_node_on_head_split_qkv(self):
        from ccx import nn

        store = nn.ParamStore(Rng(85))
        x = T.Tensor(Rng(86).normal((2, 5, 8)), requires_grad=True)
        out, probs = nn.attention(store, "decoder.attn", x, x, 8, 2, mask=_causal(5, 5))
        assert type(probs) is np.ndarray and probs.shape == (2, 2, 5, 5)
        graph, stack = set(), [out]
        nodes = []
        while stack:
            t = stack.pop()
            if id(t) not in graph:
                graph.add(id(t))
                nodes.append(t)
                stack.extend(t._parents)
        # the one node whose three parents are all recorded nodes
        (ctx,) = [t for t in nodes
                  if len(t._parents) == 3 and all(p._parents for p in t._parents)]
        assert ctx.shape == (2, 5, 8)
        for name, linear_out in zip("qkv", ctx._parents):
            # each head-split input is its linear's output: (x, w, b) -> node
            assert linear_out._parents == (x, *(store.params[f"decoder.attn.{name}.{p}"].tensor
                                                for p in "wb"))
            assert [t for t in nodes if linear_out in t._parents] == [ctx]
        # output = linear(ctx): the heads are merged inside the attend node
        assert out._parents == (ctx, *(store.params[f"decoder.attn.o.{p}"].tensor
                                       for p in "wb"))

    def test_attention_graph_has_five_nodes_and_no_view_ops(self, monkeypatch):
        from ccx import nn

        calls = {"linear": 0, "attend": 0}
        for op in calls:
            def counted(*args, _op=op, _real=getattr(T, op)):
                calls[_op] += 1
                return _real(*args)

            monkeypatch.setattr(T, op, counted)
        store = nn.ParamStore(Rng(85))
        x = T.Tensor(Rng(86).normal((2, 5, 8)), requires_grad=True)
        out, _ = nn.attention(store, "decoder.attn", x, x, 8, 2, mask=_causal(5, 5))
        recorded, stack = {}, [out]
        while stack:
            t = stack.pop()
            if t._parents and id(t) not in recorded:
                recorded[id(t)] = t
                stack.extend(t._parents)
        assert len(recorded) == 5
        assert calls == {"linear": 4, "attend": 1}


class TestLayerNorm:
    def test_constant_row_is_zeroed(self):
        x = T.Tensor(np.full((2, 4), 3.0))
        out = T.layer_norm(x, T.Tensor(np.ones(4)), T.Tensor(np.zeros(4)))
        np.testing.assert_allclose(out.data, 0.0, atol=1e-12)

    def test_mean_equals_bias(self):
        x = T.Tensor(Rng(9).normal((3, 8)))
        bias = Rng(10).normal((8,))
        out = T.layer_norm(x, T.Tensor(np.ones(8)), T.Tensor(bias))
        np.testing.assert_allclose(out.data.mean(axis=-1), bias.mean(), atol=1e-9)

    def test_gradcheck(self):
        x = T.Tensor(Rng(11).normal((2, 4)), requires_grad=True)
        g = T.Tensor(1.0 + 0.1 * Rng(12).normal((4,)), requires_grad=True)
        b = T.Tensor(Rng(13).normal((4,)), requires_grad=True)
        w = Rng(14).normal((2, 4))
        fd_check(lambda: T.tsum(T.layer_norm(x, g, b) * T.Tensor(w)),
                 {"x": x, "g": g, "b": b})

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 2), st.integers(1, 40))
    def test_forward_matches_mean_var_formula_bitwise(self, seed, lead, d):
        r = Rng(seed)
        x = r.uniform((2,) * lead + (3, d)) * 10.0 ** (r.randint(7) - 3)
        g, b = r.normal((d,)), r.normal((d,))
        mu, var = x.mean(axis=-1, keepdims=True), x.var(axis=-1, keepdims=True)
        want = (x - mu) * (1.0 / np.sqrt(var + 1e-5)) * g + b
        out = T.layer_norm(T.Tensor(x), T.Tensor(g), T.Tensor(b))
        assert out.data.tobytes() == want.tobytes()

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([(4,), (3, 7), (8, 1, 32)]))
    def test_input_gradient_matches_formula_bitwise(self, seed, shape):
        r = Rng(seed)
        d = shape[-1]
        x = T.Tensor(r.normal(shape) * 10.0 ** (r.randint(7) - 3), requires_grad=True)
        gain, g = r.normal((d,)), r.normal(shape)
        T.layer_norm(x, T.Tensor(gain), T.Tensor(np.zeros(d))).backward(g)
        xhat = x.data - x.data.sum(axis=-1, keepdims=True) / d
        inv = 1.0 / np.sqrt((xhat * xhat).sum(axis=-1, keepdims=True) / d + 1e-5)
        xhat *= inv
        gy = g * gain
        m1 = gy.mean(axis=-1, keepdims=True)
        m2 = (gy * xhat).mean(axis=-1, keepdims=True)
        assert x.grad.tobytes() == ((gy - m1 - xhat * m2) * inv).tobytes()

    def test_input_gradient_same_bits_with_constant_or_trained_operands(self):
        r = Rng(15)
        xs, ws, gains, biases, g = (r.normal(s) for s in ((3, 8), (3, 8), (8,), (8,), (3, 8)))
        grads = {}
        for trained in (False, True):
            x = T.Tensor(xs, requires_grad=True)
            w, gain, bias = (T.Tensor(a, requires_grad=trained) for a in (ws, gains, biases))
            T.layer_norm(x * w, gain, bias).backward(g)
            assert all((t.grad is not None) == trained for t in (w, gain, bias))
            grads[trained] = x.grad.tobytes()
        assert grads[False] == grads[True]


class TestConcatPool:
    def test_concat_channel(self):
        a = T.Tensor(np.ones((1, 3)))
        b = T.Tensor(2 * np.ones((1, 3)))
        out = T.concat([a, b], axis=-1)
        assert out.shape == (1, 6)

    def test_mean_pool_identical_rows(self):
        row = Rng(15).normal((5,))
        x = T.Tensor(np.tile(row, (4, 1)))
        np.testing.assert_allclose(T.tmean(x, axis=0).data, row, rtol=1e-12)

    def test_concat_mismatch(self):
        with pytest.raises(T.ShapeError):
            T.concat([T.Tensor(np.ones((2, 3))), T.Tensor(np.ones((2, 4)))], axis=0)

    def test_gradcheck_concat_pool(self):
        a = T.Tensor(Rng(16).normal((3, 4)), requires_grad=True)
        b = T.Tensor(Rng(17).normal((3, 4)), requires_grad=True)
        w = Rng(18).normal((8,))

        def build():
            return T.tsum(T.tmean(T.concat([a, b], axis=-1), axis=0) * T.Tensor(w))

        fd_check(build, {"a": a, "b": b})


class TestUnstack:
    def test_slices_and_their_gradients(self):
        x = T.Tensor(Rng(18).normal((2, 3, 4)), requires_grad=True)
        a, b = T.unstack(x)
        assert a.data.tobytes() == x.data[0].tobytes()
        assert b.data.tobytes() == x.data[1].tobytes()
        ga, gb = Rng(19).normal((3, 4)), Rng(20).normal((3, 4))
        (T.tsum(a * T.Tensor(ga)) + T.tsum(b * T.Tensor(gb))).backward()
        assert x.grad.tobytes() == np.stack([ga, gb]).tobytes()

    def test_unread_slice_gets_zero_gradient(self):
        x = T.Tensor(Rng(21).normal((3, 2)), requires_grad=True)
        _, b, _ = T.unstack(x)
        T.tsum(b).backward()
        np.testing.assert_array_equal(x.grad, [[0.0, 0.0], [1.0, 1.0], [0.0, 0.0]])


class TestEmbedNll:
    def test_embed_gradcheck(self):
        table = T.Tensor(Rng(19).normal((6, 4)), requires_grad=True)
        ids = [0, 2, 2, 5]
        w = Rng(20).normal((4, 4))
        fd_check(lambda: T.tsum(T.embed(table, ids) * T.Tensor(w)), {"t": table})

    def test_nll_uniform_rows_and_one_hot_gradient(self):
        x = T.Tensor(np.zeros((3, 4)), requires_grad=True)
        out = T.nll(x, [0, 2], [3, 1], [0.5, 0.25])
        assert out.item() == pytest.approx(0.75 * np.log(4.0), abs=1e-15)
        out.backward()
        want = np.zeros((3, 4))
        want[0], want[2] = 0.125, 0.0625
        want[0, 3] -= 0.5
        want[2, 1] -= 0.25
        np.testing.assert_array_equal(x.grad, want)

    def test_nll_gradcheck_unequal_weights_repeated_row(self):
        x = T.Tensor(3.0 * Rng(24).normal((2, 3, 5)), requires_grad=True)
        rows, targets = [4, 1, 4, 5], [2, 0, 3, 2]
        weights = [0.5, 1.5, 0.25, 2.0]
        fd_check(lambda: T.nll(x, rows, targets, weights), {"x": x})

    def test_nll_matches_log_softmax_chain_bitwise(self):
        """Loss and full logits gradient on a [2, 7, 11] batch equal, bit for
        bit, a reference that normalizes every row: −Σ w·logp[rows, targets],
        with gradient g − softmax·Σg per row of the picked-weight scatter g."""
        z = 0.5 * Rng(25).normal((2, 7, 11))
        rows = np.array([1, 3, 4, 8, 9, 10, 13])
        targets = np.array([0, 10, 5, 5, 2, 7, 1])
        # unequal weights that are not powers of two: (p − 1)·w would differ
        weights = 0.1 + Rng(26).uniform((7,))
        flat = z.reshape(-1, 11)
        shifted = flat - flat.max(axis=-1, keepdims=True)
        logp = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
        loss = (logp[rows, targets] * weights).sum() * -1.0
        g = np.zeros_like(flat)
        np.add.at(g, (rows, targets), np.broadcast_to(-1.0, rows.shape).copy() * weights)
        grad = g - np.exp(logp) * g.sum(axis=-1, keepdims=True)

        x = T.Tensor(z, requires_grad=True)
        out = T.nll(x, rows, targets, weights)
        out.backward()
        assert out.data.tobytes() == np.asarray(loss).tobytes()
        assert x.grad.tobytes() == grad.reshape(z.shape).tobytes()

    def test_nll_shape_errors(self):
        x = T.Tensor(np.zeros((3, 4)))
        with pytest.raises(T.ShapeError, match="nll"):
            T.nll(x, [0, 1], [1], [1.0, 1.0])
        with pytest.raises(T.ShapeError, match="nll"):
            T.nll(x, [[0, 1]], [[1, 2]], [[1.0, 1.0]])


class TestAdamW:
    def _param(self, value):
        t = T.Tensor(np.asarray(value, dtype=np.float64), requires_grad=True)
        return Parameter("decoder.p", t, "decoder")

    def test_zero_grad_zero_decay_is_identity(self):
        p = self._param([1.0, -2.0])
        opt = AdamW([p], weight_decay=0.0)
        p.tensor.grad = np.zeros(2)
        opt.step({"encoder": 0.0, "enhancer": 0.0, "projector": 0.0, "decoder": 0.1})
        np.testing.assert_array_equal(p.tensor.data, [1.0, -2.0])

    def test_single_step_closed_form(self):
        p = self._param([0.0])
        opt = AdamW([p], weight_decay=0.0)
        p.tensor.grad = np.ones(1)
        opt.step({"encoder": 0.0, "enhancer": 0.0, "projector": 0.0, "decoder": 0.1})
        # mhat = vhat = 1 at t=1, so the update is -lr / (1 + eps)
        assert p.tensor.data[0] == pytest.approx(-0.1 / (1 + 1e-8), abs=1e-12)

    def test_frozen_group_bitwise_unchanged(self):
        p = self._param(Rng(21).normal((3, 3)))
        before = p.tensor.data.tobytes()
        opt = AdamW([p])
        for _ in range(100):
            p.tensor.grad = Rng(22).normal((3, 3))
            opt.step({"encoder": 1.0, "enhancer": 1.0, "projector": 1.0, "decoder": 0.0})
        assert p.tensor.data.tobytes() == before
        assert opt.m["decoder.p"].tobytes() == np.zeros((3, 3)).tobytes()

    def test_missing_group_raises(self):
        p = self._param([1.0])
        opt = AdamW([p])
        with pytest.raises(KeyError, match="decoder"):
            opt.step({"encoder": 0.1})

    def test_all_zero_lr_map_is_identity_on_state(self):
        p = self._param(Rng(23).normal((4,)))
        before = p.tensor.data.tobytes()
        opt = AdamW([p])
        p.tensor.grad = np.ones(4)
        opt.step({g: 0.0 for g in ("encoder", "enhancer", "projector", "decoder")})
        assert p.tensor.data.tobytes() == before
        assert not opt.m["decoder.p"].any() and not opt.v["decoder.p"].any()


def _every_op(x, w, v):
    """Every public op on x [3,4], w [4,4] and v [4] ->
    {name: (result, the inputs a recorded result keeps as parents)}."""
    return {
        "add": (x + v, (x, v)),
        "sub": (x - v, (x, v)),
        "mul": (x * v, (x, v)),
        "linear": (T.linear(x, w, v), (x, w, v)),
        "sigmoid": (T.sigmoid(x), (x,)),
        "gelu": (T.gelu(x), (x,)),
        "attend": (T.attend(x, x, x, 2, 0.5)[0], (x, x, x)),
        "layer_norm": (T.layer_norm(x, v, v), (x, v, v)),
        "concat": (T.concat([x, x], axis=0), (x, x)),
        "tsum": (T.tsum(x, axis=0), (x,)),
        "tmean": (T.tmean(x), (x,)),  # a scaled tsum: the tsum node keeps x
        "embed": (T.embed(x, [0, 2, 0]), (x,)),
        "nll": (T.nll(x, [0, 2], [1, 3], [0.5, 0.5]), (x,)),
    }


class TestNoGrad:
    def test_ops_record_no_graph(self):
        r = Rng(41)
        data = (0.5 + r.uniform((3, 4)), r.normal((4, 4)), r.normal((4,)))
        leaves = [T.Tensor(d, requires_grad=True) for d in data]
        with T.no_grad():
            unrecorded = _every_op(*leaves)
            leaf = T.Tensor(np.zeros(2), requires_grad=True)
        constants = _every_op(*(T.Tensor(d) for d in data))
        for outs in (unrecorded, constants):
            assert len(outs) == 13
            for name, (y, _) in outs.items():
                assert y._parents == () and y._backward is None, name
                assert not y.requires_grad, name
        assert leaf.requires_grad  # explicitly created leaves keep their flag
        # one input that requires grad is enough; constants stay parents too
        mixed = [leaves[0], T.Tensor(data[1]), T.Tensor(data[2])]
        for inputs in (leaves, mixed):
            for name, (y, parents) in _every_op(*inputs).items():
                if name == "tmean":
                    y = y._parents[0]
                assert y.requires_grad and y._backward is not None, name
                assert y._parents == parents, name

    def test_grad_mode_restored_after_exception(self):
        a = T.Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(RuntimeError):
            with T.no_grad():
                raise RuntimeError("boom")
        y = T.tsum(a * 2.0)
        assert y.requires_grad
        y.backward()
        np.testing.assert_array_equal(a.grad, np.full(3, 2.0))

    def test_training_loss_after_generate_backpropagates(self):
        from ccx.model import CaptionModel, build_vocabulary
        from ccx.verify import small_configs

        model = CaptionModel(*small_configs(), build_vocabulary(), seed=2)
        r = Rng(43)
        i1, i2 = r.uniform((16, 16, 3)), r.uniform((16, 16, 3))
        caption = model.caption_ids("a road is built")

        def grads():
            model.store.zero_grad()
            model.batch_loss([(i1, i2, caption)]).backward()
            return {n: p.tensor.grad for n, p in model.store.params.items()
                    if p.tensor.grad is not None}

        before = grads()
        model.generate(i1, i2)
        after = grads()
        assert after.keys() == before.keys()
        assert {n.split(".", 1)[0] for n in after} == {"encoder", "enhancer",
                                                        "projector", "decoder"}
        for name in before:
            np.testing.assert_array_equal(after[name], before[name])


def _leaf(seed, shape):
    return T.Tensor(Rng(seed).normal(shape), requires_grad=True)


class TestBackwardFreesGraph:
    def test_interior_released_leaves_keep_grads(self):
        a, b = _leaf(50, (3, 4)), _leaf(51, (4, 2))
        h = T.gelu(T.linear(a, b, T.Tensor(np.zeros(2))))
        y = T.tsum(h * h)
        y.backward()
        for t in (h, y):
            assert t.grad is None and t._parents == ()
        z = T.Tensor(a.data @ b.data, requires_grad=True)
        T.gelu(z).backward(2.0 * h.data)
        np.testing.assert_allclose(a.grad, z.grad @ b.data.T, rtol=1e-14)
        np.testing.assert_allclose(b.grad, a.data.T @ z.grad, rtol=1e-14)

    def test_second_backward_raises(self):
        a = _leaf(52, (3,))
        y = T.tsum(T.sigmoid(a) * 2.0)
        y.backward()
        first = a.grad.copy()
        with pytest.raises(RuntimeError, match="freed"):
            y.backward()
        np.testing.assert_array_equal(a.grad, first)

    def test_graph_built_on_freed_node_raises(self):
        a = _leaf(53, (3,))
        h = T.sigmoid(a)
        T.tsum(h).backward()
        with pytest.raises(RuntimeError, match="freed"):
            T.tsum(h * 3.0).backward()

    def test_add_of_two_leaves_gives_independent_grads(self):
        a, b = _leaf(54, (2, 3)), _leaf(55, (2, 3))
        T.tsum(a + b).backward()
        np.testing.assert_array_equal(a.grad, np.ones((2, 3)))
        np.testing.assert_array_equal(b.grad, np.ones((2, 3)))
        a.grad[0, 0] = 7.0
        assert b.grad[0, 0] == 1.0

    def test_shared_pass_through_gives_independent_grads(self):
        # a one-piece concat hands a a view of the gradient that b gets too
        a, b = _leaf(56, (2, 3)), _leaf(57, (2, 3))
        T.tsum(T.concat([a], axis=0) + b).backward()
        a.grad[:] = 5.0
        np.testing.assert_array_equal(b.grad, np.ones((2, 3)))

    def test_square_accumulates_both_operands(self):
        x = _leaf(58, (4,))
        T.tsum(x * x).backward()
        np.testing.assert_allclose(x.grad, 2.0 * x.data, rtol=1e-15)

    def test_leaf_used_in_two_branches(self):
        x, w = _leaf(59, (2, 3)), _leaf(60, (2, 3))
        T.tsum(T.sigmoid(x) + x * w).backward()
        s = 1.0 / (1.0 + np.exp(-x.data))
        np.testing.assert_allclose(x.grad, s * (1.0 - s) + w.data, rtol=1e-14)
        np.testing.assert_array_equal(w.grad, x.data)
        before = x.grad.copy()
        w.grad[:] = 0.0
        np.testing.assert_array_equal(x.grad, before)

    def test_caller_root_gradient_is_copied(self):
        x = _leaf(61, (3,))
        g = np.array([1.0, 2.0, 3.0])
        (x * 1.0).backward(g)
        g[:] = 0.0
        np.testing.assert_array_equal(x.grad, [1.0, 2.0, 3.0])
        x.grad[:] = 9.0
        np.testing.assert_array_equal(g, 0.0)

    def test_accumulation_never_mutates_an_earlier_grad(self):
        x = _leaf(62, (3,))
        T.tsum(x * 2.0).backward()
        first = x.grad
        T.tsum(x * 3.0).backward()
        np.testing.assert_array_equal(first, np.full(3, 2.0))
        np.testing.assert_array_equal(x.grad, np.full(3, 5.0))

    def test_embed_repeated_ids_within_and_across_backward(self):
        table = _leaf(63, (5, 2))
        ids = [1, 3, 1, 1]
        g = Rng(64).normal((4, 2))
        T.tsum(T.embed(table, ids) * T.Tensor(g)).backward()
        want = np.zeros((5, 2))
        want[1] = g[0] + g[2] + g[3]
        want[3] = g[1]
        np.testing.assert_allclose(table.grad, want, rtol=1e-15)
        first = table.grad
        T.tsum(T.embed(table, ids) * T.Tensor(g)).backward()
        np.testing.assert_allclose(table.grad, 2.0 * want, rtol=1e-15)
        np.testing.assert_allclose(first, want, rtol=1e-15)

    def test_nll_repeated_rows_within_and_across_backward(self):
        x = _leaf(65, (3, 4))
        rows, cols = [0, 2, 0, 0], [1, 3, 1, 2]
        w = np.array([1.0, 2.0, 3.0, 4.0])
        T.nll(x, rows, cols, w).backward()
        sm = np.exp(x.data - x.data.max(axis=-1, keepdims=True))
        sm /= sm.sum(axis=-1, keepdims=True)
        want = np.zeros((3, 4))
        want[0] = 8.0 * sm[0]
        want[2] = 2.0 * sm[2]
        want[0, 1] -= 4.0
        want[2, 3] -= 2.0
        want[0, 2] -= 4.0
        np.testing.assert_allclose(x.grad, want, rtol=1e-14, atol=1e-15)
        first = x.grad
        T.nll(x, rows, cols, w).backward()
        np.testing.assert_allclose(x.grad, 2.0 * want, rtol=1e-14, atol=1e-15)
        np.testing.assert_array_equal(first, x.grad / 2.0)

    def test_clip_grads_rebinds_instead_of_mutating(self):
        from ccx.nn import clip_grads

        params = [Parameter(f"decoder.p{i}", _leaf(66 + i, (3,)), "decoder") for i in range(2)]
        arrays = [np.full(3, 4.0), np.full(3, -3.0)]
        for p, arr in zip(params, arrays):
            p.tensor.grad = arr
        norm = clip_grads(params, 1.0)
        assert norm == pytest.approx(np.sqrt(3 * 16 + 3 * 9), rel=1e-15)
        np.testing.assert_array_equal(arrays[0], np.full(3, 4.0))
        np.testing.assert_array_equal(arrays[1], np.full(3, -3.0))
        np.testing.assert_allclose(params[0].tensor.grad, arrays[0] / norm, rtol=1e-15)
        np.testing.assert_allclose(params[1].tensor.grad, arrays[1] / norm, rtol=1e-15)


class TestGelu:
    def test_matches_closed_form(self):
        x = 3.0 * Rng(70).normal((64,))
        want = 0.5 * x * (1.0 + np.tanh(np.sqrt(2.0 / np.pi) * (x + 0.044715 * x**3)))
        np.testing.assert_allclose(T.gelu(T.Tensor(x)).data, want, rtol=1e-14, atol=0)

    def test_gradcheck_wide_range(self):
        x = T.Tensor(3.0 * Rng(71).normal((4, 8)), requires_grad=True)
        w = Rng(72).normal((4, 8))
        fd_check(lambda: T.tsum(T.gelu(x) * T.Tensor(w)), {"x": x}, tol=1e-7,
                 max_entries=32)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([(), (8, 1, 32), (5, 3)]))
    def test_forward_and_derivative_match_formula_bitwise(self, seed, shape):
        r = Rng(seed)
        x = np.asarray(r.normal(shape) * 10.0 ** (r.randint(7) - 3))
        g = np.asarray(r.normal(shape))
        a = T.Tensor(x, requires_grad=True)
        out = T.gelu(a)
        out.backward(g)
        t = np.tanh(np.sqrt(2.0 / np.pi) * (x + 0.044715 * (x * x * x)))
        du = np.sqrt(2.0 / np.pi) * (1.0 + 3.0 * 0.044715 * (x * x))
        assert out.data.tobytes() == (0.5 * x * (1.0 + t)).tobytes()
        want = g * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du)
        assert a.grad.tobytes() == np.asarray(want).tobytes()
        assert a.data.tobytes() == x.tobytes()


def test_backward_peak_memory_stays_near_forward_live_bytes():
    """Backward frees the graph as it goes, so its peak traced allocation
    stays close to what forward left alive (about 2x when every interior
    gradient is kept)."""
    import tracemalloc

    from ccx.model import CaptionModel, build_vocabulary
    from ccx.verify import small_configs

    model = CaptionModel(*small_configs(), build_vocabulary(), seed=3)
    r = Rng(44)
    i1, i2 = r.uniform((16, 16, 3)), r.uniform((16, 16, 3))
    caption = model.caption_ids("a road is built")
    model.batch_loss([(i1, i2, caption)]).backward()  # creates the lazy parameters
    model.store.zero_grad()
    tracemalloc.start()
    try:
        loss = model.batch_loss([(i1, i2, caption)])
        live, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        loss.backward()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.3 * live, (peak, live)


@pytest.mark.skipif(not hasattr(ctypes.CDLL(None), "mallopt"), reason="libc has no mallopt")
def test_freed_heap_is_kept_between_cycles():
    """After ``import ccx``, memory a cycle frees is reused by the next one
    instead of being returned to the kernel and faulted in again. Two
    2 MiB arrays live at once, as a step's graph frees many arrays
    together; with glibc's default thresholds every cycle faults them in
    again (about 990 minor faults a cycle)."""
    script = (
        "import resource, numpy as np, ccx\n"
        "def cycle():\n"
        "    arrays = [np.ones(1 << 18) for _ in range(2)]\n"
        "    del arrays\n"
        "cycle()\n"  # the first cycle grows the heap
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "for _ in range(10):\n"
        "    cycle()\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
    )
    src = str(Path(T.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert int(out) <= 8

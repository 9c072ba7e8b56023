from types import SimpleNamespace

import numpy as np
import pytest

from ccx import enhancer
from ccx import tensor as T
from ccx.encoder import FeaturePyramid
from ccx.nn import ParamStore
from ccx.rng import Rng
from ccx.verify import finite_diff_check

D = 8
N = 4


@pytest.fixture
def cfg():
    return enhancer.EnhancerConfig(d_model=D, num_catl_layers=2, heads=2)


@pytest.fixture
def store():
    return ParamStore(Rng(77))


def _pair(seed, n=N, d=D, grad=False):
    r = Rng(seed)
    return (T.Tensor(r.normal((n, d)), requires_grad=grad),
            T.Tensor(r.normal((n, d)), requires_grad=grad))


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def _np_change_init(store, f1, f2):
    """Numpy mirror of the gated difference seed, from the stored weights."""
    gw = store.params["enhancer.x.gate.w"].tensor.data
    gb = store.params["enhancer.x.gate.b"].tensor.data
    pw = store.params["enhancer.x.proj.w"].tensor.data
    pb = store.params["enhancer.x.proj.b"].tensor.data
    f1g = f1 * _sigmoid(np.concatenate([f1, f2], axis=-1) @ gw + gb)
    f2g = f2 * _sigmoid(np.concatenate([f2, f1], axis=-1) @ gw + gb)
    return np.concatenate([f1g, f2g, f1g - f2g], axis=-1) @ pw + pb


class TestChangeFeatureInit:
    def test_matches_numpy_mirror(self, store):
        f1, f2 = _pair(1)
        out = enhancer.change_feature_init(store, "enhancer.x", f1, f2, D)
        np.testing.assert_allclose(out.data, _np_change_init(store, f1.data, f2.data),
                                   rtol=1e-12)

    def test_zero_gate_weights_halve_streams(self, store):
        f1, f2 = _pair(2)
        enhancer.change_feature_init(store, "enhancer.x", f1, f2, D)
        store.params["enhancer.x.gate.w"].tensor.data[...] = 0.0
        store.params["enhancer.x.gate.b"].tensor.data[...] = 0.0
        out = enhancer.change_feature_init(store, "enhancer.x", f1, f2, D)
        pw = store.params["enhancer.x.proj.w"].tensor.data
        pb = store.params["enhancer.x.proj.b"].tensor.data
        packed = np.concatenate(
            [0.5 * f1.data, 0.5 * f2.data, 0.5 * (f1.data - f2.data)], axis=-1)
        np.testing.assert_allclose(out.data, packed @ pw + pb, rtol=1e-12)

    def test_identical_inputs_zero_difference_block(self, store):
        f1, _ = _pair(3)
        out = enhancer.change_feature_init(store, "enhancer.x", f1, f1, D)
        pw = store.params["enhancer.x.proj.w"].tensor.data
        pb = store.params["enhancer.x.proj.b"].tensor.data
        gw = store.params["enhancer.x.gate.w"].tensor.data
        gb = store.params["enhancer.x.gate.b"].tensor.data
        f1g = f1.data * _sigmoid(np.concatenate([f1.data, f1.data], -1) @ gw + gb)
        packed = np.concatenate([f1g, f1g, np.zeros_like(f1g)], axis=-1)
        np.testing.assert_allclose(out.data, packed @ pw + pb, rtol=1e-12)

    def test_swap_antisymmetry_of_difference(self, store):
        f1, f2 = _pair(4)
        enhancer.change_feature_init(store, "enhancer.x", f1, f2, D)
        fwd = _np_change_init(store, f1.data, f2.data)
        out_sw = enhancer.change_feature_init(store, "enhancer.x", f2, f1, D)
        # swapped call = projection of (f2g, f1g, -(f1g - f2g))
        np.testing.assert_allclose(out_sw.data,
                                   _np_change_init(store, f2.data, f1.data), rtol=1e-12)
        assert not np.allclose(out_sw.data, fwd)

    def test_shape_mismatch(self, store):
        with pytest.raises(T.ShapeError):
            enhancer.change_feature_init(store, "enhancer.x",
                                         T.Tensor(np.ones((3, D))),
                                         T.Tensor(np.ones((4, D))), D)

    def test_gradcheck(self, store):
        f1, f2 = _pair(5, grad=True)
        enhancer.change_feature_init(store, "enhancer.x", f1, f2, D)
        w = Rng(6).normal((N, D))
        tensors = {"f1": f1, "f2": f2,
                   "gate.w": store.params["enhancer.x.gate.w"].tensor,
                   "proj.w": store.params["enhancer.x.proj.w"].tensor}

        def build():
            return T.tsum(enhancer.change_feature_init(store, "enhancer.x", f1, f2, D)
                          * T.Tensor(w))

        errs = finite_diff_check(build, tensors, max_entries=8)
        assert max(errs.values()) < 1e-5


class TestChangeAwareLayer:
    def test_output_shapes(self, store, cfg):
        f1, f2 = _pair(7)
        f1t, f2t, df = enhancer.change_aware_layer(store, "enhancer.catl0", f1, f2, cfg)
        assert f1t.shape == f2t.shape == df.shape == (N, D)

    def test_every_attention_site_rows_sum_to_one(self, store, cfg, record_attention):
        # one self-attention, one difference-to-images cross-attention,
        # and one injection per stream
        f1, f2 = _pair(8)
        with record_attention() as sites:
            enhancer.change_aware_layer(store, "enhancer.catl0", f1, f2, cfg)
        assert len(sites) == 4
        for name, probs in sites:
            np.testing.assert_allclose(probs.sum(axis=-1), 1.0, atol=1e-12)

    def test_gradient_couples_both_streams(self, store, cfg):
        f1, f2 = _pair(9, grad=True)
        f1t, _, _ = enhancer.change_aware_layer(store, "enhancer.catl0", f1, f2, cfg)
        T.tsum(f1t).backward()
        assert f1.grad is not None and np.abs(f1.grad).max() > 0
        assert f2.grad is not None and np.abs(f2.grad).max() > 0


class TestDiffExpert:
    def test_single_layer_base_case(self, store):
        cfg1 = enhancer.EnhancerConfig(d_model=D, num_catl_layers=1, heads=2)
        f1, f2 = _pair(10)
        a = enhancer.diff_expert(store, f1, f2, cfg1)
        b = enhancer.change_aware_layer(store, "enhancer.catl0", f1, f2, cfg1)
        for x, y in zip(a, b):
            assert x.data.tobytes() == y.data.tobytes()

    def test_two_layers_equal_manual_composition(self, store, cfg):
        f1, f2 = _pair(11)
        a = enhancer.diff_expert(store, f1, f2, cfg)
        g1, g2, _ = enhancer.change_aware_layer(store, "enhancer.catl0", f1, f2, cfg)
        b = enhancer.change_aware_layer(store, "enhancer.catl1", g1, g2, cfg)
        for x, y in zip(a, b):
            assert x.data.tobytes() == y.data.tobytes()

    def test_per_tap_independence(self, store, cfg):
        taps = {-5: _pair(12), -2: _pair(13)}
        out_clean = enhancer.diff_expert(store, *taps[-2], cfg)
        perturbed = (taps[-5][0] + T.Tensor(np.ones((N, D))), taps[-5][1])
        enhancer.diff_expert(store, *perturbed, cfg)
        out_again = enhancer.diff_expert(store, *taps[-2], cfg)
        for x, y in zip(out_clean, out_again):
            assert x.data.tobytes() == y.data.tobytes()


def _stacked_taps(seeds, n=N, grad=False):
    """Stacked enhanced taps (F1~, F2~, dF), each [K, n, D], one tap per seed."""
    taps = [(*_pair(seed, n=n), _pair(seed + 100, n=n)[0]) for seed in seeds]
    return tuple(T.Tensor(np.stack([tap[i].data for tap in taps]), requires_grad=grad)
                 for i in range(3))


class TestAdaptiveAdjustment:
    def test_scores_are_scalars_in_unit_interval(self, store, cfg):
        stacked = _stacked_taps((30, 31, 32, 33))
        f1p, f2p, s = enhancer.adaptive_adjustment(store, stacked, _pair(40), cfg)
        assert s.shape == (4, 1, 1)
        assert f1p.shape == f2p.shape == (N, D)
        assert np.all((0.0 < s.data) & (s.data < 1.0))

    def test_zero_score_limit_is_residual_passthrough(self, store, cfg):
        stacked = _stacked_taps((20, 21))
        res = _pair(41)
        enhancer.adaptive_adjustment(store, stacked, res, cfg)
        store.params["enhancer.score.fc2.b"].tensor.data[...] = -60.0
        f1p, _, s = enhancer.adaptive_adjustment(store, stacked, res, cfg)
        assert np.all(s.data < 1e-20)
        np.testing.assert_allclose(f1p.data, res[0].data, atol=1e-15)

    def test_residual_structure_exact(self, store, cfg):
        stacked = _stacked_taps((20, 21))
        res = _pair(42)
        f1p, f2p, s = enhancer.adaptive_adjustment(store, stacked, res, cfg)
        for out, taps, r in ((f1p, stacked[0], res[0]), (f2p, stacked[1], res[1])):
            acc = None
            for k in range(len(taps.data)):
                term = s.data[k].item() * taps.data[k]
                acc = term if acc is None else acc + term
            assert out.data.tobytes() == (acc + r.data).tobytes()

    def test_shape_mismatch(self, store, cfg):
        with pytest.raises(T.ShapeError, match="do not match residual"):
            enhancer.adaptive_adjustment(store, _stacked_taps((43,), n=2), _pair(45, n=N), cfg)

    def test_gradcheck(self, store, cfg):
        stacked = _stacked_taps((46, 47), grad=True)
        res = _pair(50)
        enhancer.adaptive_adjustment(store, stacked, res, cfg)
        w = Rng(51).normal((N, D))

        def build():
            f1p, _, _ = enhancer.adaptive_adjustment(store, stacked, res, cfg)
            return T.tsum(f1p * T.Tensor(w))

        tensors = dict(zip(("f1t", "f2t", "df"), stacked))
        tensors.update({"w1": store.params["enhancer.score.fc2.w"].tensor,
                        "w2": store.params["enhancer.score.fc1.w"].tensor})
        errs = finite_diff_check(build, tensors, max_entries=8)
        assert max(errs.values()) < 1e-5


class TestEnhance:
    def _pyramid(self, seed, taps=(-5, -2), n=N, d=D):
        pyr = FeaturePyramid(taps={}, residual=None)
        for i, off in enumerate(taps):
            pyr.taps[off] = _pair(seed + i, n=n, d=d)
        pyr.residual = pyr.taps[-2]
        return pyr

    def test_disabled_is_residual_bypass(self, store):
        cfg = enhancer.EnhancerConfig(d_model=D, heads=2, enabled=False)
        pyr = self._pyramid(60)
        out = enhancer.enhance(store, pyr, cfg)
        assert out.fused[0] is pyr.residual[0]
        assert out.fused[1] is pyr.residual[1]
        assert not store.params  # bypass creates no parameters

    def test_identical_images_symmetric_output(self, store, cfg):
        pyr = FeaturePyramid(taps={}, residual=None)
        for i, off in enumerate((-5, -2)):
            f, _ = _pair(61 + i)
            pyr.taps[off] = (f, T.Tensor(f.data.copy()))
        pyr.residual = pyr.taps[-2]
        out = enhancer.enhance(store, pyr, cfg)
        assert out.fused[0].data.tobytes() == out.fused[1].data.tobytes()

    def test_shape_preservation(self, store, cfg):
        pyr = self._pyramid(63)
        out = enhancer.enhance(store, pyr, cfg)
        assert out.fused[0].shape == pyr.residual[0].shape
        for f1t, f2t, df in out.per_tap.values():
            assert f1t.shape == (N, D)

    def test_all_enhancer_params_receive_gradient(self, store, cfg):
        pyr = self._pyramid(64)
        out = enhancer.enhance(store, pyr, cfg)
        (T.tsum(out.fused[0]) + T.tsum(out.fused[1])).backward()
        for p in store.group_params("enhancer"):
            assert p.tensor.grad is not None, p.name
            assert np.abs(p.tensor.grad).max() > 0, p.name

    def test_end_to_end_gradcheck(self, store):
        cfg = enhancer.EnhancerConfig(d_model=8, num_catl_layers=2, heads=2)
        pyr = self._pyramid(65, n=16, d=8)
        for off in pyr.taps:
            for f in pyr.taps[off]:
                f.requires_grad = True
        w1 = Rng(66).normal((16, 8))
        w2 = Rng(67).normal((16, 8))

        def build():
            out = enhancer.enhance(store, pyr, cfg)
            return T.tsum(out.fused[0] * T.Tensor(w1)) + T.tsum(out.fused[1] * T.Tensor(w2))

        build()
        tensors = {f"tap{off}.{i}": f for off in pyr.taps
                   for i, f in enumerate(pyr.taps[off])}
        tensors.update({p.name: p.tensor for p in store.group_params("enhancer")})
        errs = finite_diff_check(build, tensors, max_entries=3)
        assert max(errs.values()) < 1e-4


def _stacked_pyramid(seed, taps, lead=(), grad=False):
    """Taps drawn from ``seed``; the residual is tap -2's pair, as the
    encoder gives it."""
    r = Rng(seed)
    pyr = FeaturePyramid(taps={}, residual=None)
    for off in taps:
        pyr.taps[off] = tuple(T.Tensor(r.normal((*lead, N, D)), requires_grad=grad)
                              for _ in range(2))
    pyr.residual = pyr.taps[-2]
    return pyr


def _per_tap_reference(store, pyr, cfg):
    """``enhance`` as a loop over the taps: one ``diff_expert`` and one
    ``tap_score`` call per tap, with the gated taps summed in tap order."""
    per_tap, scores, sums = {}, {}, [None, None]
    for off in sorted(pyr.taps):
        per_tap[off] = enhancer.diff_expert(store, *pyr.taps[off], cfg)
        scores[off] = s = enhancer.tap_score(store, *per_tap[off], cfg)
        for i in (0, 1):
            term = s * per_tap[off][i]
            sums[i] = term if sums[i] is None else sums[i] + term
    fused = tuple(acc + res for acc, res in zip(sums, pyr.residual))
    return SimpleNamespace(per_tap=per_tap, fused=fused, scores=scores)


TAP_SETS = [(-2,), (-5, -2), (-11, -8, -5, -2)]


class TestStackedTaps:
    """``enhance`` runs every tap through one stacked ``diff_expert``,
    ``tap_score`` and mix; its per-tap views equal a per-tap loop's."""

    @pytest.mark.parametrize("lead", [(), (3,)], ids=["unbatched", "batch3"])
    @pytest.mark.parametrize("taps", TAP_SETS, ids=["1tap", "2taps", "4taps"])
    def test_outputs_equal_per_tap_loop_bitwise(self, store, cfg, taps, lead):
        pyr = _stacked_pyramid(70, taps, lead)
        out = enhancer.enhance(store, pyr, cfg)
        ref = _per_tap_reference(store, pyr, cfg)
        assert list(out.per_tap) == sorted(taps) == list(out.scores)
        for off in taps:
            for got, want in zip(out.per_tap[off], ref.per_tap[off]):
                assert got.data.tobytes() == want.data.tobytes()
            assert out.scores[off].data.tobytes() == ref.scores[off].data.tobytes()
        for got, want in zip(out.fused, ref.fused):
            assert got.data.tobytes() == want.data.tobytes()

    @pytest.mark.parametrize("lead", [(), (3,)], ids=["unbatched", "batch3"])
    @pytest.mark.parametrize("taps", TAP_SETS, ids=["1tap", "2taps", "4taps"])
    def test_gradients_match_per_tap_loop(self, taps, lead):
        cfg = enhancer.EnhancerConfig(d_model=D, num_catl_layers=2, heads=2)
        w1, w2 = Rng(71).normal((*lead, N, D)), Rng(72).normal((*lead, N, D))
        grads = []
        for run in (enhancer.enhance, _per_tap_reference):
            store = ParamStore(Rng(77))
            pyr = _stacked_pyramid(70, taps, lead, grad=True)
            f1p, f2p = run(store, pyr, cfg).fused
            (T.tsum(f1p * T.Tensor(w1)) + T.tsum(f2p * T.Tensor(w2))).backward()
            got = {p.name: p.tensor.grad for p in store.group_params("enhancer")}
            got.update({f"tap{off}.{i}": f.grad for off in taps
                        for i, f in enumerate(pyr.taps[off])})
            grads.append(got)
        stacked, looped = grads
        assert stacked.keys() == looped.keys()
        largest = max(np.abs(g).max() for g in looped.values())
        for name, want in looped.items():
            # a key bias shifts each query's scores by a constant that the
            # softmax removes, so its gradient is roundoff: compare it with
            # the largest gradient instead of its own
            scale = largest if name.endswith(".k.b") else np.abs(want).max()
            assert np.abs(stacked[name] - want).max() <= 1e-13 * scale, name

    def test_each_extra_tap_adds_few_tensors(self, store, cfg, monkeypatch):
        created = []
        init = T.Tensor.__init__

        def counting(tensor, *args, **kwargs):
            created.append(1)
            init(tensor, *args, **kwargs)

        counts = {}
        for taps in TAP_SETS:
            pyr = _stacked_pyramid(73, taps, grad=True)
            enhancer.enhance(store, pyr, cfg)  # creates the parameters
            monkeypatch.setattr(T.Tensor, "__init__", counting)
            created.clear()
            enhancer.enhance(store, pyr, cfg)
            monkeypatch.setattr(T.Tensor, "__init__", init)
            counts[len(taps)] = len(created)
        assert counts[2] - counts[1] <= 5
        assert counts[4] - counts[2] <= 2 * 5


def _tensors_created(monkeypatch, call):
    """The number of tensors ``call()`` creates."""
    created = []
    init = T.Tensor.__init__

    def counting(tensor, *args, **kwargs):
        created.append(1)
        init(tensor, *args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(T.Tensor, "__init__", counting)
        call()
    return len(created)


class TestEnhancedFeatures:
    """``enhance`` returns the stacked outputs and gates it mixed from; the
    per-tap views are cut from them on first read, never by the mix."""

    def test_one_call_creates_as_many_tensors_for_any_tap_count(self, store, cfg,
                                                                monkeypatch):
        counts = set()
        for taps in TAP_SETS:
            pyr = _stacked_pyramid(73, taps, grad=True)
            enhancer.enhance(store, pyr, cfg)  # creates the parameters
            counts.add(_tensors_created(
                monkeypatch, lambda: enhancer.enhance(store, pyr, cfg)))
        assert len(counts) == 1

    @pytest.mark.parametrize("lead", [(), (3,)], ids=["unbatched", "batch3"])
    @pytest.mark.parametrize("taps", TAP_SETS, ids=["1tap", "2taps", "4taps"])
    def test_views_read_after_the_mix_equal_per_tap_loop(self, store, cfg, taps, lead):
        pyr = _stacked_pyramid(74, taps, lead)
        out = enhancer.enhance(store, pyr, cfg)
        ref = _per_tap_reference(store, pyr, cfg)
        assert out.offsets == tuple(sorted(taps))
        assert out.gates.shape == (len(taps), *lead, 1, 1)
        assert all(t.shape == (len(taps), *lead, N, D) for t in out.stacked)
        assert "per_tap" not in vars(out) and "scores" not in vars(out)
        for k, off in enumerate(out.offsets):
            for got, whole, want in zip(out.per_tap[off], out.stacked, ref.per_tap[off]):
                assert got.data.tobytes() == whole.data[k].tobytes() == want.data.tobytes()
            got, want = out.scores[off], ref.scores[off]
            assert got.data.tobytes() == out.gates.data[k].tobytes() == want.data.tobytes()
        assert out.per_tap is out.per_tap and out.scores is out.scores

    def test_fused_and_gradients_do_not_depend_on_reading_the_views(self, cfg):
        w = Rng(76).normal((3, N, D))
        runs = []
        for read in (False, True):
            store = ParamStore(Rng(77))
            pyr = _stacked_pyramid(75, TAP_SETS[-1], (3,), grad=True)
            out = enhancer.enhance(store, pyr, cfg)
            assert "per_tap" not in vars(out) and "scores" not in vars(out)
            if read:
                assert len(out.per_tap) == len(out.scores) == len(TAP_SETS[-1])
            (T.tsum(out.fused[0] * T.Tensor(w)) + T.tsum(out.fused[1])).backward()
            runs.append([f.data.tobytes() for f in out.fused]
                        + [p.tensor.grad.tobytes() for p in store.group_params("enhancer")]
                        + [f.grad.tobytes() for pair in pyr.taps.values() for f in pair])
        assert runs[0] == runs[1]

    def test_disabled_holds_the_residual_and_no_views(self, store):
        cfg = enhancer.EnhancerConfig(d_model=D, heads=2, enabled=False)
        pyr = _stacked_pyramid(78, (-5, -2))
        out = enhancer.enhance(store, pyr, cfg)
        assert out.fused == pyr.residual
        assert out.offsets == () and out.stacked is None and out.gates is None
        assert out.per_tap == {} and out.scores == {}

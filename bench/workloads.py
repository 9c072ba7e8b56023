"""Seeded inputs, the three closed-loop workloads and their output checks.

Each workload is built from a config and a seed (its set-up: synthetic
data generation plus model build) and exposes ``op(i)``, the i-th
operation of its closed loop, which times itself and checks its output.
Everything drives ccx from outside, through the public functions of
``ccx.trainer``, ``ccx.model``, ``ccx.bridge``, ``ccx.metrics`` and
``ccx.data``.

``run_plain`` measures a workload untraced; ``run_traced`` runs an
untraced and a traced copy side by side, alternating which goes first,
and reports the per-layer numbers from ``layertrace``.
"""

from __future__ import annotations

import json
import math
import resource
import statistics
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ccx import bridge, config, data, metrics, nn, trainer
from ccx.optim import AdamW
from ccx.rng import Rng

from layertrace import Tracer

N_PAIRS = 32
CORPUS_SCALE = 3  # ckpt-metrics evaluates 6 hypotheses for each of 3 x N_PAIRS records
SETUP_REPEATS = 7
RECORDS = Path(__file__).with_name("records.json")

# Tolerances of the checks against records.json. Reordered float sums
# (batching, fused ops) move a loss or a gradient norm by ~1e-16 relative
# over the recorded steps; a wrong gradient moves the pre-clip gradient
# norm at once, and the losses after the updates it feeds.
LOSS_RTOL = 1e-8
METRIC_RTOL = 1e-9
# traced-run self-checks: gradient gap as a share of the global gradient
# norm, and loss gap between the traced and untraced copies
GRAD_TOL = 1e-12
TRACE_LOSS_RTOL = 1e-9


def default_config():
    return dict(config.DEFAULTS)


@dataclass
class Outcome:
    seconds: float  # timed wall time of the operation
    ok: bool  # every output check passed
    items: int  # work done: samples, decoder decisions or metric entries
    value: object  # what the traced run compares with the untraced one
    parts: dict = None  # named sub-timings (ckpt-metrics)


class Tally:
    """Attempted and failed operations; an exception counts as a failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def call(self, fn, *args):
        self.attempted += 1
        try:
            out = fn(*args)
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return None
        if not out.ok:
            self.failed += 1
        return out


def _loop(seconds, start=1):
    """Operation indices from ``start`` until ``seconds`` have passed (at least one)."""
    end = time.perf_counter() + seconds
    i = start
    while i == start or time.perf_counter() < end:
        yield i
        i += 1


def _close(a, b, rtol):
    return math.isclose(a, b, rel_tol=rtol, abs_tol=0.0)


def _load_record(name, cfg, n_pairs, seed):
    """Outputs recorded for this seed, or None for an unrecorded seed/config."""
    rec = json.loads(RECORDS.read_text()) if RECORDS.exists() else {}
    if rec.get("setup") != {"fingerprint": config.fingerprint(cfg), "n_pairs": n_pairs}:
        return None
    return rec.get(name, {}).get(str(seed))


class Workload:
    name = None

    def __init__(self, cfg, seed, work_dir, n_pairs=N_PAIRS):
        self.cfg = cfg
        self.seed = seed
        self.work_dir = Path(work_dir)
        manifest = data.generate_dataset(n_pairs, seed, self.work_dir / "data",
                                         image_size=cfg["encoder.image_size"])
        self.records = data.load_manifest(manifest)
        self.images = [data.load_images(r, manifest.parent) for r in self.records]
        self.model = trainer.build_model(cfg)
        self.expected = _load_record(self.name, cfg, n_pairs, seed)

    def same(self, a, b):
        """Whether a traced output equals the untraced one."""
        return a == b


class TrainStep(Workload):
    """Stage-3 steps: zero_grad, batch_loss, backward, clip_grads, AdamW.step."""

    name = "train-step"

    def __init__(self, cfg, seed, work_dir, n_pairs=N_PAIRS):
        super().__init__(cfg, seed, work_dir, n_pairs)
        stage = trainer.stage_config(cfg, 3)
        self.stage = stage
        self.lr_map = stage.lr_map()
        self.mode = data.IterationMode(stage.mode, seed)
        self.params = list(self.model.store.params.values())
        self.optimizer = AdamW(self.params, weight_decay=stage.weight_decay)
        self._epoch = (None, None)
        self._index = {r.id: n for n, r in enumerate(self.records)}
        self.max_rel_diff = 0.0

    def batch(self, i):
        """The i-th batch of the seeded random_choice stream, across epochs."""
        size = self.stage.batch_size
        per_epoch = -(-len(self.records) // size)
        epoch, k = divmod(i, per_epoch)
        if self._epoch[0] != epoch:
            self._epoch = (epoch, data.iterate(self.records, self.mode, epoch))
        return [(*self.images[self._index[rec.id]], self.model.caption_ids(cap))
                for rec, cap in self._epoch[1][k * size:(k + 1) * size]]

    def op(self, i, backward=None):
        samples = self.batch(i)
        t0 = time.perf_counter()
        self.model.store.zero_grad()
        loss = self.model.batch_loss(samples)
        value = loss.item()
        if backward is None:
            loss.backward()
        else:
            backward(loss)
        norm = nn.clip_grads(self.params, self.stage.grad_clip)
        self.optimizer.step(self.lr_map)
        dt = time.perf_counter() - t0
        got = [value, norm]
        ok = math.isfinite(value) and math.isfinite(norm)
        if self.expected is not None and i < len(self.expected):
            ok = ok and all(_close(a, b, LOSS_RTOL) for a, b in zip(got, self.expected[i]))
        return Outcome(dt, ok, len(samples), got)

    def same(self, a, b):
        diff = max(abs(x - y) / abs(x) for x, y in zip(a, b))
        self.max_rel_diff = max(self.max_rel_diff, diff)
        return diff <= TRACE_LOSS_RTOL

    def gradients(self, backward):
        """(loss, {name: grad}) of the first batch, without an update."""
        store = self.model.store
        store.zero_grad()
        loss = self.model.batch_loss(self.batch(0))
        backward(loss)
        grads = {p.name: (np.zeros_like(p.tensor.data) if p.tensor.grad is None
                          else p.tensor.grad.copy()) for p in self.params}
        store.zero_grad()
        return loss.item(), grads

    @staticmethod
    def summarize(outcomes):
        secs = [o.seconds for o in outcomes]
        items = sum(o.items for o in outcomes)
        report = [("train_step_ms_p50", 1000.0 * statistics.median(secs), "ms"),
                  ("train_samples_per_s", items / sum(secs), "1/s")]
        return secs, [o.items / o.seconds for o in outcomes], report


class CaptionGreedy(Workload):
    """Greedy captions of the untrained default model, one pair at a time."""

    name = "caption-greedy"

    def __init__(self, cfg, seed, work_dir, n_pairs=N_PAIRS):
        super().__init__(cfg, seed, work_dir, n_pairs)
        self.first = {}  # pair index -> (ids, truncated) on its first visit

    def op(self, i, backward=None):
        k = i % len(self.images)
        t0 = time.perf_counter()
        text, ids, truncated = self.model.generate(*self.images[k])
        dt = time.perf_counter() - t0
        vocab = self.model.vocab
        max_len = self.cfg["decoder.max_len"]
        ok = (all(0 <= t < len(vocab) and t != bridge.EOS for t in ids)
              and truncated == (len(ids) == max_len)
              and text == vocab.decode(ids))
        got = [list(ids), truncated]
        ok = ok and self.first.setdefault(k, got) == got
        if self.expected is not None and k < len(self.expected):
            ok = ok and self.expected[k] == got
        decisions = len(ids) + (0 if truncated else 1)  # closing <eos> counts
        return Outcome(dt, ok, decisions, got)

    @staticmethod
    def summarize(outcomes):
        secs = [o.seconds for o in outcomes]
        decisions = sum(o.items for o in outcomes)
        report = [("caption_ms_per_token", 1000.0 * sum(secs) / decisions, "ms"),
                  ("caption_pair_ms_p50", 1000.0 * statistics.median(secs), "ms")]
        return secs, [o.items / o.seconds for o in outcomes], report


def corpus_items(records, seed):
    """Fixed evaluation items built from the synthetic references.

    Per record: an exact reference, one with a word dropped, one with two
    words swapped, its first half, a caption of another record and an
    empty hypothesis, so every branch of each metric runs.
    """
    r = Rng(seed).fork("corpus")
    items = []
    for n, rec in enumerate(records):
        words = rec.captions[r.randint(len(rec.captions))].split()
        j = r.randint(len(words) - 1)
        swapped = list(words)
        swapped[j], swapped[j + 1] = swapped[j + 1], swapped[j]
        other = records[(n + 1 + r.randint(max(len(records) - 1, 1))) % len(records)]
        hyps = {
            "exact": words,
            "drop": words[:j] + words[j + 1:],
            "swap": swapped,
            "half": words[:len(words) // 2],
            "other": other.captions[r.randint(len(other.captions))].split(),
            "empty": [],
        }
        items.extend((f"{rec.id}/{kind}", " ".join(h), rec.captions)
                     for kind, h in hyps.items())
    return items


def _f32(a):
    return a.astype(np.float32).astype(np.float64)


class CkptMetrics(Workload):
    """Checkpoint save/load round trips next to metric-suite evaluations."""

    name = "ckpt-metrics"

    def __init__(self, cfg, seed, work_dir, n_pairs=N_PAIRS):
        super().__init__(cfg, seed, work_dir, n_pairs)
        params = list(self.model.store.params.values())
        self.optimizer = AdamW(params, weight_decay=cfg["train.weight_decay"])
        r = Rng(seed).fork("moments")
        for p in params:  # AdamW state as after some training
            self.optimizer.m[p.name] = r.normal(p.tensor.shape, std=1e-3)
            self.optimizer.v[p.name] = r.uniform(p.tensor.shape) * 1e-6
        self.optimizer.t = 100
        # a pool of its own, larger than the 32 pairs: the cost of an
        # evaluation follows the seed's mix of change kinds ("no change"
        # captions are short), and a larger pool evens that mix out
        pool = data.generate_dataset(CORPUS_SCALE * n_pairs, seed, self.work_dir / "corpus",
                                     image_size=cfg["encoder.image_size"])
        self.items = corpus_items(data.load_manifest(pool), seed)
        self.meta = {"fingerprint": config.fingerprint(cfg)}
        self.first_report = None

    def _round_trip(self):
        opt = self.optimizer
        saved = {p.name: (p.tensor.data.copy(), opt.m[p.name].copy(), opt.v[p.name].copy())
                 for p in opt.params}
        t0 = time.perf_counter()
        trainer.save_checkpoint(self.model, opt, self.work_dir / "ckpt", meta=self.meta)
        save = time.perf_counter() - t0
        for p in opt.params:  # a load that reads nothing must not pass
            for arr in (p.tensor.data, opt.m[p.name], opt.v[p.name]):
                arr.fill(np.nan)
        t, opt.t = opt.t, -1
        t0 = time.perf_counter()
        trainer.load_checkpoint(self.model, opt, self.work_dir / "ckpt")
        load = time.perf_counter() - t0
        ok = opt.t == t and all(
            np.array_equal(got, _f32(want))
            for p in opt.params
            for got, want in zip((p.tensor.data, opt.m[p.name], opt.v[p.name]), saved[p.name]))
        return save, load, ok

    def _check_report(self, report):
        ok = (all(0.0 <= report[k] <= 100.0
                  for k in ("bleu1", "bleu2", "bleu3", "bleu4", "meteor", "rouge_l"))
              and 0.0 <= report["cider_d"] <= 1000.0
              and _close(report["s_star_m"], sum(report[k] for k in (
                  "bleu4", "meteor", "rouge_l", "cider_d")) / 4.0, 1e-12))
        if self.first_report is None:
            self.first_report = report
        ok = ok and report == self.first_report
        if self.expected is not None:
            ok = ok and report.keys() == self.expected.keys() and all(
                _close(report[k], self.expected[k], METRIC_RTOL) for k in report)
        return ok

    def op(self, i, backward=None):
        save, load, ok = self._round_trip()
        t0 = time.perf_counter()
        report = metrics.evaluate(metrics.make_corpus(self.items)).to_dict()
        evaluate = time.perf_counter() - t0
        ok = ok and self._check_report(report)
        parts = {"save": save, "load": load, "eval": evaluate}
        return Outcome(save + load + evaluate, ok, len(self.items), report, parts)

    @staticmethod
    def summarize(outcomes):
        save = statistics.median(o.parts["save"] for o in outcomes)
        load = statistics.median(o.parts["load"] for o in outcomes)
        rate = sum(o.items for o in outcomes) / sum(o.parts["eval"] for o in outcomes)
        report = [("ckpt_save_ms_p50", 1000.0 * save, "ms"),
                  ("ckpt_load_ms_p50", 1000.0 * load, "ms"),
                  ("metrics_entries_per_s", rate, "1/s")]
        return ([o.seconds for o in outcomes],
                [o.items / o.parts["eval"] for o in outcomes], report)


WORKLOADS = {w.name: w for w in (TrainStep, CaptionGreedy, CkptMetrics)}

# name -> unit of the untraced and traced metrics (BENCHMARK.json order)
END_TO_END = {"setup_s": "s", "op_ref_p50": "ref", "items_per_kref": "1/kref",
              "peak_rss_mb": "MiB"}


def layer_metrics(cfg):
    """Per-layer metric name -> unit for a config (its taps and layers)."""
    taps = sorted(int(x) for x in str(cfg["encoder.taps"]).split(","))
    ms = (["encoder.fwd", "encoder.bwd", "enhancer.fwd", "enhancer.bwd"]
          + [f"enhancer.tap{off}.fwd" for off in taps]
          + [f"enhancer.catl{k}.fwd" for k in range(cfg["enhancer.layers"])]
          + ["enhancer.adaptive.fwd", "bridge.project.fwd", "bridge.project.bwd",
             "bridge.decoder.fwd", "bridge.decoder.bwd"])
    out = {f"{name}_ms": "ms" for name in ms}
    out.update({"bridge.decoder.passes": "count", "bridge.decoder.rows": "count",
                "bridge.generate_ms": "ms", "tensor.backward_ms": "ms",
                "tensor.tensors_created": "count", "nn.attention.calls": "count",
                "nn.clip_grads_ms": "ms", "optim.step_ms": "ms",
                "trainer.save_checkpoint_ms": "ms", "trainer.load_checkpoint_ms": "ms",
                "tensor_io.files": "count", "tensor_io.bytes": "bytes",
                "metrics.make_corpus_ms": "ms", "metrics.bleu_ms": "ms",
                "metrics.meteor_ms": "ms", "metrics.rouge_l_ms": "ms",
                "metrics.cider_d_ms": "ms",
                "trace.overhead_share": "share", "trace.unattributed_share": "share",
                "trace.grad_max_err": "share", "trace.output_max_rel_diff": "share"})
    return out


@dataclass
class Result:
    attempted: int
    failed: int
    metrics: dict  # name -> value, in the units of END_TO_END / layer_metrics
    report: list  # (name, value, unit) of the workload's own metrics

    def line(self, units):
        return json.dumps({
            "correct": self.failed == 0, "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in self.metrics.items()},
        })


def peak_rss_mib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def reference_seconds():
    """Wall time of one run of a fixed kernel that does not touch ccx.

    Its mix resembles ccx's own work: interpreted dict and string
    updates, small float64 matrix products with tanh, then softmax and
    layer-norm steps on a 520x32 activation (batch 8 x 65 tokens). The
    declared timings are ratios to it, because this host's speed drifts
    by 20-40% over minutes (shared cores, other tenants), which moves
    every wall time of a run together. Raw wall times are printed as well.
    """
    t0 = time.perf_counter()
    counts = {}
    for i in range(3000):
        key = str(i % 97)
        counts[key] = counts.get(key, 0) + 1
    a = np.arange(4096, dtype=np.float64).reshape(64, 64) / 4096.0
    for _ in range(100):
        a = np.tanh(a @ a.T * 0.01)
    r = np.random.default_rng(0)
    h, w = r.standard_normal((520, 32)), 0.1 * r.standard_normal((32, 32))
    for _ in range(30):
        z = h @ w
        e = np.exp(z - z.max(axis=1, keepdims=True))
        h = e / e.sum(axis=1, keepdims=True)
        h = (h - h.mean(axis=1, keepdims=True)) / (h.std(axis=1, keepdims=True) + 1e-5)
    return time.perf_counter() - t0


def run_plain(name, cfg, seed, seconds, work_dir, n_pairs=N_PAIRS):
    """Untraced: median set-up time, one untimed warm-up, then the timed loop."""
    cls = WORKLOADS[name]
    setup = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        w = cls(cfg, seed, work_dir, n_pairs)
        setup.append(time.perf_counter() - t0)
    tally = Tally()
    tally.call(w.op, 0)
    refs, outcomes = [], []
    for i in _loop(seconds):
        refs.append(reference_seconds())  # just before each operation
        out = tally.call(w.op, i)
        if out:
            outcomes.append(out)
    if not outcomes:
        raise RuntimeError(f"{name}: every timed operation raised")
    secs, rates, report = cls.summarize(outcomes)
    ref = statistics.median(refs)
    report += [("failed_share", tally.failed / tally.attempted, "share"),
               ("reference_ms_p50", 1000.0 * ref, "ms")]
    values = {"setup_s": statistics.median(setup),
              "op_ref_p50": statistics.median(secs) / ref,
              "items_per_kref": 1000.0 * ref * statistics.median(rates),
              "peak_rss_mb": peak_rss_mib()}
    return Result(tally.attempted, tally.failed, values, report)


def run_traced(name, cfg, seed, seconds, work_dir, n_pairs=N_PAIRS):
    """Untraced and traced copies in alternation; per-layer means per operation."""
    cls = WORKLOADS[name]
    plain = cls(cfg, seed, Path(work_dir) / "plain", n_pairs)
    traced = cls(cfg, seed, Path(work_dir) / "traced", n_pairs)
    tracer = Tracer()
    tally = Tally()

    def traced_op(i):
        tracer.begin_op()
        with tracer.installed():
            return traced.op(i, tracer.backward)

    grad_err = 0.0
    if isinstance(plain, TrainStep):
        # self-check: the cut graph gives the uncut step's loss and gradients
        loss_a, ga = plain.gradients(lambda loss: loss.backward())
        with tracer.installed():
            loss_b, gb = traced.gradients(tracer.backward)
        norm = math.sqrt(sum(float((g * g).sum()) for g in ga.values()))
        grad_err = max(float(np.abs(ga[k] - gb[k]).max()) for k in ga) / norm
        tally.attempted += 1
        if loss_a != loss_b or not grad_err <= GRAD_TOL:
            tally.failed += 1

    tally.call(plain.op, 0)
    tally.call(traced_op, 0)
    tracer.reset()
    plain_s = traced_s = 0.0
    n = 0
    for i in _loop(seconds):
        if i % 2:  # alternate which copy runs first
            b = tally.call(traced_op, i)
            a = tally.call(plain.op, i)
        else:
            a = tally.call(plain.op, i)
            b = tally.call(traced_op, i)
        if a is None or b is None:
            continue
        if not plain.same(a.value, b.value):
            tally.failed += 1
        plain_s += a.seconds
        traced_s += b.seconds
        n += 1
    if n == 0:
        raise RuntimeError(f"{name}: every traced operation raised")
    values = {}
    for metric, unit in layer_metrics(cfg).items():
        if unit == "ms":
            values[metric] = 1000.0 * tracer.seconds.get(metric[:-3], 0.0) / n
        else:
            values[metric] = tracer.counts.get(metric, 0) / n
    values["trace.overhead_share"] = (traced_s - plain_s) / plain_s
    values["trace.unattributed_share"] = (traced_s - tracer.top) / traced_s
    values["trace.grad_max_err"] = grad_err
    values["trace.output_max_rel_diff"] = getattr(plain, "max_rel_diff", 0.0)
    return Result(tally.attempted, tally.failed, values, [])

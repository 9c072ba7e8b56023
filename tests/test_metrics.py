import functools
import importlib
import json
import math
from collections import defaultdict
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ccx import data, metrics
from ccx.bridge import word_tokens
from reference_metrics import ref_report

DATA = Path(__file__).parent / "data"
BENCH = Path(__file__).resolve().parent.parent / "bench"

# Published comparison table: (b4, meteor, rouge_l, cider_d, printed aggregate)
PUBLISHED_ROWS = [
    ("Capt-Rep-Diff", 47.41, 34.47, 65.64, 110.57, 64.52),
    ("Capt-Att", 53.15, 36.58, 69.73, 121.22, 70.17),
    ("Capt-Dual-Att", 57.46, 36.56, 70.69, 124.42, 72.28),
    ("DUDA", 57.79, 37.15, 71.04, 124.32, 72.58),
    ("MCCFormer-S", 56.68, 36.17, 69.46, 120.39, 70.68),
    ("MCCFormer-D", 56.38, 37.29, 70.32, 124.44, 72.11),
    ("RSICCFormer", 62.77, 39.61, 74.12, 134.12, 77.65),
    ("PSNet", 62.11, 38.80, 73.60, 132.62, 76.78),
    ("PromptCC", 63.54, 38.82, 73.72, 136.44, 78.13),
    ("Sen", 64.09, 39.59, 74.57, 136.02, 78.57),
    ("SFT", 62.87, 39.93, 74.69, 137.05, 78.63),
    ("Pix4Cap", 63.78, 39.96, 75.12, 136.76, 78.91),
    ("Chg2Cap", 64.39, 40.03, 75.12, 136.61, 79.03),
    ("RSCaMa", 65.24, 39.91, 75.24, 136.56, 79.24),
    ("KCFI", 65.30, 39.42, 75.47, 138.25, 79.61),
    ("flagship-0.5B", 65.42, 41.33, 75.93, 141.19, 80.99),
    ("flagship-7B", 65.49, 41.82, 76.55, 143.32, 81.80),
]


def corpus(items):
    return metrics.make_corpus(items)


def load_golden_corpus():
    items = []
    for line in (DATA / "golden_corpus.jsonl").read_text().splitlines():
        o = json.loads(line)
        items.append((o["id"], o["hyp"], o["refs"]))
    return corpus(items)


class TestBleu:
    def test_perfect_match(self):
        c = corpus([("0", "a road is built here", ["a road is built here"]),
                    ("1", "trees are removed now", ["trees are removed now"])])
        assert metrics.bleu(c) == [100.0] * 4

    def test_clipping_hand_case(self):
        c = corpus([("0", "the the the", ["the cat"])])
        b = metrics.bleu(c)
        # p1 = 1/3 clipped, BP = exp(1 - 2/3)... hyp longer, BP = 1
        assert b[0] == pytest.approx(100.0 / 3.0, abs=1e-12)

    def test_single_token_hypothesis_zeroes_higher_orders(self):
        c = corpus([("0", "road", ["a road is built"])])
        b = metrics.bleu(c)
        assert b[1] == b[2] == b[3] == 0.0

    def test_brevity_penalty_closest_length(self):
        c = corpus([("0", "a b c", ["a b c d e", "a b c"])])
        # closest ref has length 3 -> no penalty, perfect match
        assert metrics.bleu(c)[0] == pytest.approx(100.0)

    def test_empty_corpus(self):
        with pytest.raises(ValueError):
            metrics.bleu([])

    def test_duplicate_reference_never_lowers(self):
        base = [("0", "a road is built at the center",
                 ["a road appears at the center", "a new road is built"]),
                ("1", "there is no change", ["nothing has changed"])]
        before = metrics.bleu(corpus(base))
        dup = [(i, h, r + [r[0]]) for i, h, r in base]
        after = metrics.bleu(corpus(dup))
        for b, a in zip(before, after):
            assert a >= b - 1e-12


class TestRougeL:
    def test_identical(self):
        c = corpus([("0", "a road is built", ["a road is built"])])
        assert metrics.rouge_l(c) == pytest.approx(100.0)

    def test_hand_lcs(self):
        c = corpus([("0", "the cat sat", ["the cat ran"])])
        assert metrics.rouge_l(c) == pytest.approx(100.0 * 2.0 / 3.0, abs=1e-9)

    def test_disjoint(self):
        c = corpus([("0", "alpha beta", ["gamma delta"])])
        assert metrics.rouge_l(c) == 0.0


def lcs_dp(a, b):
    """Longest common subsequence length by the O(|a| |b|) table."""
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0]
        for j, y in enumerate(b, 1):
            cur.append(prev[j - 1] + 1 if x == y else max(prev[j], cur[-1]))
        prev = cur
    return prev[-1]


# two token lists of length 0-80 over one alphabet of 3-5 symbols: matches
# are common and the reference's bitmask runs past 64 bits
token_pairs = st.sampled_from(["abc", "abcd", "abcde"]).flatmap(lambda symbols: st.tuples(
    *[st.lists(st.sampled_from(symbols), max_size=80)] * 2))


class TestBitParallelLcs:
    @settings(max_examples=300, deadline=None)
    @given(token_pairs)
    @example(([], list("abcab")))
    @example((list("abcab"), []))
    @example(([], []))
    @example((list("abc" * 27), list("cba" * 27)))
    def test_matches_dp(self, pair):
        hyp, ref = pair
        assert metrics._lcs_len(hyp, ref) == lcs_dp(hyp, ref)


class TestMeteor:
    def test_identical_four_tokens_closed_form(self):
        c = corpus([("0", "a b c d", ["a b c d"])])
        assert metrics.meteor(c) == pytest.approx(100 * 0.9921875, abs=1e-12)

    def test_identical_long_close_to_one(self):
        sent = "a b c d e f g h"
        c = corpus([("0", sent, [sent])])
        score = metrics.meteor(c) / 100
        assert 0.99 < score < 1.0

    def test_no_overlap(self):
        c = corpus([("0", "x y", ["p q"])])
        assert metrics.meteor(c) == 0.0


class TestCiderD:
    def test_identity_entry_scores_ten(self):
        # distinct sentences, one reference each; every hypothesis exact
        c = corpus([("0", "a road is built", ["a road is built"]),
                    ("1", "the trees are removed", ["the trees are removed"]),
                    ("2", "nothing changed in here", ["nothing changed in here"])])
        # entry score 10 each -> corpus mean 10 -> reported 1000
        assert metrics.cider_d(c) == pytest.approx(1000.0, abs=1e-9)

    def test_disjoint_ngrams(self):
        c = corpus([("0", "aa bb", ["cc dd"]), ("1", "ee ff", ["gg hh"])])
        assert metrics.cider_d(c) == pytest.approx(0.0, abs=1e-12)

    def test_length_penalty_factor(self):
        # same unigram content, length gap 6 -> penalty e^-0.5 on that pair
        assert math.exp(-36 / 72.0) == pytest.approx(0.6065306597126334)
        c = corpus([
            ("0", "a", ["a a a a a a a"]),
            ("1", "b c d", ["b c d"]),
        ])
        val = metrics.cider_d(c)
        assert 0.0 < val  # penalty applied but nonzero similarity survives

    def test_single_entry_rejected(self):
        c = corpus([("0", "a b", ["a b"])])
        with pytest.raises(ValueError, match="2 entries"):
            metrics.cider_d(c)


class TestAggregate:
    def test_flagship_row_half_up_rounding(self):
        val = metrics.s_star_m(65.49, 41.82, 76.55, 143.32)
        assert val == pytest.approx(81.795, abs=1e-12)
        # printed table shows 81.80 (half-up at two decimals)
        assert abs(val - 81.80) <= 0.005 + 1e-9

    def test_runner_up_row_exact(self):
        assert metrics.s_star_m(65.30, 39.42, 75.47, 138.25) == pytest.approx(79.61, abs=1e-12)

    def test_zero(self):
        assert metrics.s_star_m(0, 0, 0, 0) == 0.0

    @pytest.mark.parametrize("name,b4,met,rou,cid,printed", PUBLISHED_ROWS)
    def test_published_rows_within_rounding(self, name, b4, met, rou, cid, printed):
        assert abs(metrics.s_star_m(b4, met, rou, cid) - printed) <= 0.03


class TestEvaluate:
    def test_perfect_corpus(self):
        c = corpus([("0", "a road is built", ["a road is built", "a new road"]),
                    ("1", "trees are gone", ["trees are gone", "the trees vanish"])])
        rep = metrics.evaluate(c)
        assert rep.bleu == [100.0] * 4
        assert rep.rouge_l == pytest.approx(100.0)

    def test_golden_fixture_exact(self):
        rep = metrics.evaluate(load_golden_corpus()).to_dict()
        gold = json.loads((DATA / "golden_metrics.json").read_text())
        for key, val in gold.items():
            assert rep[key] == pytest.approx(val, abs=1e-9), key

    def test_golden_fixture_matches_live_oracle(self):
        c = load_golden_corpus()
        rep = metrics.evaluate(c).to_dict()
        oracle = ref_report([(e.hypothesis, e.references) for e in c])
        for key, val in oracle.items():
            assert rep[key] == pytest.approx(val, abs=1e-9), key

    def test_order_invariance(self):
        c = load_golden_corpus()
        a = metrics.evaluate(c).to_dict()
        b = metrics.evaluate(list(reversed(c))).to_dict()
        assert a == b

    def test_scales(self):
        rep = metrics.evaluate(load_golden_corpus())
        for v in rep.bleu + [rep.meteor, rep.rouge_l]:
            assert 0 <= v <= 100
        assert 0 <= rep.cider_d <= 1000

    def test_empty_reference_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            corpus([("0", "a", ["..."])])

    @settings(max_examples=25, deadline=None)
    @given(st.lists(
        st.tuples(st.lists(st.sampled_from("abcdef"), min_size=0, max_size=6),
                  st.lists(st.lists(st.sampled_from("abcdef"), min_size=1, max_size=6),
                           min_size=1, max_size=3)),
        min_size=2, max_size=5))
    def test_random_corpora_match_oracle(self, raw):
        items = [(str(i), " ".join(h), [" ".join(r) for r in refs])
                 for i, (h, refs) in enumerate(raw)]
        rep = metrics.evaluate(corpus(items)).to_dict()
        oracle = ref_report([(word_tokens(h), [word_tokens(r) for r in refs])
                             for _, h, refs in items])
        for key, val in oracle.items():
            assert rep[key] == pytest.approx(val, abs=1e-9), key


# a few sentences, some sharing n-grams, for corpora that repeat them
POOL = ["a red cup was added", "a red cup was removed", "the red cup moved left",
        "a cup was added", "nothing has changed", "the scene is unchanged"]


class TestSentenceTable:
    @pytest.mark.parametrize("name", ["bleu", "cider_d"])
    def test_counts_each_distinct_sentence_once(self, monkeypatch, name):
        c = corpus([("0", POOL[0], POOL[:3]), ("1", POOL[0], POOL[:3]),
                    ("2", POOL[3], [POOL[0], POOL[4]]), ("3", "", POOL[:3]),
                    ("4", POOL[4], [POOL[4], POOL[5]]), ("5", "", [POOL[5]])])
        counted = []
        original = metrics._counts

        def counting(tokens, max_n):
            counted.append(tuple(tokens))
            return original(tokens, max_n)

        monkeypatch.setattr(metrics, "_counts", counting)
        getattr(metrics, name)(c)
        distinct = {tuple(s) for e in c for s in (e.hypothesis, *e.references)}
        assert sorted(counted) == sorted(distinct)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(
        st.tuples(st.sampled_from(POOL + [""]),
                  st.lists(st.sampled_from(POOL), min_size=1, max_size=3)),
        min_size=2, max_size=8))
    def test_repeated_sentences_match_oracle(self, raw):
        items = [(str(i), h, refs) for i, (h, refs) in enumerate(raw)]
        rep = metrics.evaluate(corpus(items)).to_dict()
        oracle = ref_report([(word_tokens(h), [word_tokens(r) for r in refs])
                             for _, h, refs in items])
        for key, val in oracle.items():
            assert rep[key] == pytest.approx(val, abs=1e-9), key


@pytest.fixture
def computed(monkeypatch):
    """name of each per-call cached function -> the keys it computed."""
    keys = defaultdict(list)

    def recording(fn):
        def compute(*args):
            keys[fn.__name__].append(args)
            return fn(*args)
        return functools.cache(compute)

    monkeypatch.setattr(metrics, "cache", recording)
    return keys


# two reference sets, each used three times; the pair (POOL[0], POOL[0])
# recurs in three entries
REPEATS = [("0", POOL[0], POOL[:3]), ("1", POOL[0], POOL[:3]), ("2", POOL[1], POOL[:3]),
           ("3", POOL[0], [POOL[0], POOL[4]]), ("4", "", [POOL[0], POOL[4]]),
           ("5", POOL[4], [POOL[0], POOL[4]])]


class TestPerCallTables:
    """Each repeated reference set and pair is scored once within one call,
    and nothing carries over to the next call."""

    def test_bleu_builds_each_reference_set_once(self, computed):
        c = corpus(REPEATS)
        metrics.bleu(c)
        built = computed["max_counts"]
        assert sorted(built) == sorted({(tuple(map(tuple, e.references)),) for e in c})

    def test_cider_d_scores_each_set_and_pair_once(self, computed):
        c = corpus(REPEATS)
        metrics.cider_d(c)
        unions = computed["ref_set_ngrams"]
        assert sorted(unions) == sorted({(tuple(map(tuple, e.references)),) for e in c})
        pairs = computed["pair_terms"]
        assert sorted(pairs) == sorted({(tuple(e.hypothesis), tuple(r))
                                        for e in c for r in e.references})
        assert len(pairs) < sum(len(e.references) for e in c)

    def test_back_to_back_corpora_share_nothing(self):
        # the second corpus repeats the first one's sentences under other
        # document frequencies, so a table kept from the first call would
        # give its reference sets the wrong idf
        first = corpus(REPEATS)
        second = corpus(REPEATS[:2] + [("6", POOL[2], [POOL[2], POOL[5]]),
                                       ("7", POOL[5], [POOL[5], POOL[1]])])
        metrics.evaluate(first)
        rep = metrics.evaluate(second).to_dict()
        oracle = ref_report([(e.hypothesis, e.references) for e in second])
        for key, val in oracle.items():
            assert rep[key] == pytest.approx(val, abs=1e-9), key


@pytest.mark.parametrize("seed", range(4))
def test_reports_equal_benchmark_records(seed, tmp_path, monkeypatch):
    """The benchmark's ckpt-metrics corpora score exactly their records."""
    monkeypatch.syspath_prepend(str(BENCH))
    workloads = importlib.import_module("workloads")
    pool = data.generate_dataset(workloads.CORPUS_SCALE * workloads.N_PAIRS, seed, tmp_path,
                                 image_size=workloads.default_config()["encoder.image_size"])
    items = workloads.corpus_items(data.load_manifest(pool), seed)
    recorded = json.loads(workloads.RECORDS.read_text())["ckpt-metrics"][str(seed)]
    assert metrics.evaluate(metrics.make_corpus(items)).to_dict() == recorded

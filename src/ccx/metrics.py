"""Caption evaluation: BLEU-1..4, METEOR, ROUGE-L, CIDEr-D and the
four-way average aggregate score.

Conventions follow the standard captioning toolkits: corpus-level BLEU
with per-entry closest-reference length for the brevity penalty and no
smoothing; ROUGE-L as mean best-reference F with beta=1.2; METEOR with
exact-match greedy alignment and (alpha,beta,gamma)=(0.9,3.0,0.5);
CIDEr-D with n=1..4, sigma=6, clipped tf-idf counts and the x10 entry
scale. BLEU/METEOR/ROUGE-L are reported x100 (0..100), CIDEr-D x100 of
its 0..10 entry scale (0..1000).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cache
from itertools import chain, count

import numpy as np

from .bridge import word_tokens


class CorpusTooSmall(ValueError):
    """Fewer than 2 entries: too few for CIDEr-D's document frequencies."""


def require_entries(n, what="the corpus"):
    if n < 2:
        raise CorpusTooSmall(f"scoring needs at least 2 entries; {what} has {n}")


@dataclass
class EvalEntry:
    id: str
    hypothesis: list
    references: list


@dataclass
class MetricReport:
    bleu: list
    meteor: float
    rouge_l: float
    cider_d: float
    s_star_m: float

    def to_dict(self):
        return {
            "bleu1": self.bleu[0], "bleu2": self.bleu[1],
            "bleu3": self.bleu[2], "bleu4": self.bleu[3],
            "meteor": self.meteor, "rouge_l": self.rouge_l,
            "cider_d": self.cider_d, "s_star_m": self.s_star_m,
        }

    def to_json(self):
        return json.dumps(self.to_dict(), sort_keys=True)

    def format(self):
        d = self.to_dict()
        width = max(len(k) for k in d)
        return "\n".join(f"{k:<{width}}  {v:10.4f}" for k, v in sorted(d.items()))


def make_corpus(items):
    """items: iterable of (id, hyp_text, [ref_texts]) -> list of EvalEntry.

    Each distinct text is tokenized once; every entry gets lists of its own.
    """
    tokens = cache(word_tokens)
    corpus = []
    for id_, hyp, refs in items:
        refs_tok = [list(tokens(r)) for r in refs]
        if not refs_tok or any(not r for r in refs_tok):
            raise ValueError(f"entry {id_}: every reference must be non-empty")
        corpus.append(EvalEntry(str(id_), list(tokens(hyp)), refs_tok))
    return corpus


def _ranges(starts, sizes):
    """The ranges ``starts[i] .. starts[i] + sizes[i] - 1`` concatenated, and
    for each element the ``i`` of its range."""
    owner = np.repeat(np.arange(len(sizes)), sizes)
    return owner, np.arange(len(owner)) - np.repeat(np.cumsum(sizes) - sizes - starts, sizes)


def _lookup(keys, queries):
    """The index of each query in the sorted, distinct ``keys``; -1 where it
    is absent, so an array with one default value appended reads it there."""
    i = np.searchsorted(keys, queries)
    hit = i < len(keys)
    hit[hit] = keys[i[hit]] == queries[hit]
    return np.where(hit, i, -1)


@dataclass
class _Level:
    """The n-grams of one order n in a ``_Table``: one row per distinct
    (sentence, n-gram), the rows grouped by sentence and, within one, in the
    order of each n-gram's first occurrence, which is the order a ``Counter``
    of them iterates. An n-gram id is the same in every sentence."""
    sent: np.ndarray    # sentence of each row
    gram: np.ndarray    # n-gram id of each row, 0 .. n_ids - 1
    count: np.ndarray   # its occurrences in the sentence
    n_ids: int
    start: np.ndarray   # sentence s has rows start[s] .. start[s + 1] - 1
    keys: np.ndarray    # sent * n_ids + gram of every row, sorted
    by_key: np.ndarray  # the row of each sorted key, and -1 after the last

    def rows(self, sentences):
        """The rows of each given sentence, in order: per row, the position
        of its sentence in ``sentences``, and the row."""
        return _ranges(self.start[sentences], np.diff(self.start)[sentences])

    def find(self, sent, gram):
        """The row of each (sentence, n-gram); -1 where the sentence lacks it."""
        return self.by_key[_lookup(self.keys, sent * self.n_ids + gram)]


def _level(sent, gram, n_ids, n_sentences):
    """The ``_Level`` of n-grams ``gram`` occurring in sentences ``sent``, one
    element per occurrence in corpus order."""
    keys, first, counts = np.unique(sent * n_ids + gram, return_index=True,
                                    return_counts=True)
    rows = np.argsort(first)  # the sorted keys' rows in first-occurrence order
    by_key = np.full(len(rows) + 1, -1)
    by_key[rows] = np.arange(len(rows))
    sent = sent[first[rows]]
    return _Level(sent, gram[first[rows]], counts[rows], n_ids,
                  np.searchsorted(sent, np.arange(n_sentences + 1)), keys, by_key)


@dataclass
class _Table:
    """The n-grams of one corpus for n = 1..max_n. ``bleu`` and ``cider_d``
    each build one per call and keep nothing after it."""
    sentences: list       # the distinct sentences, as token tuples
    lengths: np.ndarray   # tokens per sentence
    hyp: np.ndarray       # each entry's hypothesis sentence
    entry_set: np.ndarray  # each entry's reference set
    set_refs: np.ndarray  # the distinct reference sets' sentences, set by set
    set_start: np.ndarray  # set k is set_refs[set_start[k]:set_start[k + 1]]
    levels: list          # one _Level per n

    def slots(self):
        """Entry and reference sentence of each (entry, reference), entry by
        entry, each entry's references in order."""
        sizes = np.diff(self.set_start)[self.entry_set]
        entry, i = _ranges(self.set_start[self.entry_set], sizes)
        return entry, self.set_refs[i]

    def set_grams(self, lv):
        """The sorted keys ``set * lv.n_ids + gram`` of the n-grams in any
        reference of each reference set, and each one's largest count in
        any one reference of the set."""
        sets = np.repeat(np.arange(len(self.set_start) - 1), np.diff(self.set_start))
        member, row = lv.rows(self.set_refs)
        key = sets[member] * lv.n_ids + lv.gram[row]
        counts = lv.count[row]
        order = np.lexsort((counts, key))
        key, counts = key[order], counts[order]
        last = np.ones(len(key), bool)  # the last, largest count of each key
        last[:-1] = key[1:] != key[:-1]
        return key[last], counts[last]


def _table(corpus, max_n):
    """The ``_Table`` of a corpus's n-grams for n = 1..max_n."""
    sentence = {}  # token tuple -> sentence index
    ref_set = {}   # reference set, as token tuples -> set index
    hyp, entry_set, set_refs = [], [], []
    for e in corpus:
        hyp.append(sentence.setdefault(tuple(e.hypothesis), len(sentence)))
        refs = tuple(map(tuple, e.references))
        k = ref_set.setdefault(refs, len(ref_set))
        if k == len(set_refs):
            set_refs.append([sentence.setdefault(r, len(sentence)) for r in refs])
        entry_set.append(k)
    sentences = list(sentence)
    lengths = np.fromiter(map(len, sentences), np.int64, len(sentences))
    flat = list(chain.from_iterable(sentences))
    word_id = dict(zip(dict.fromkeys(flat), count()))
    word = np.fromiter(map(word_id.__getitem__, flat), np.int64, len(flat))
    sent = np.repeat(np.arange(len(sentences)), lengths)
    end = np.repeat(np.cumsum(lengths), lengths)  # where each token's sentence ends
    at = np.arange(len(flat))  # where each n-gram of the current order starts
    gram, n_ids = word, len(word_id)
    levels = []
    for n in range(1, max_n + 1):
        if n > 1:
            keep = at + n <= end[at]
            at = at[keep]
            # an n-gram is its (n-1)-gram and its last word: both ids are
            # below len(flat), so the key stays below len(flat) ** 2
            ids, gram = np.unique(gram[keep] * len(word_id) + word[at + n - 1],
                                  return_inverse=True)
            n_ids = len(ids)
        levels.append(_level(sent[at], gram, n_ids, len(sentences)))
    sizes = list(map(len, set_refs))
    return _Table(sentences, lengths, np.array(hyp, np.int64),
                  np.array(entry_set, np.int64),
                  np.fromiter(chain.from_iterable(set_refs), np.int64, sum(sizes)),
                  np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64), levels)


def _corpus_mean(corpus, entry_score):
    """100 x the mean of ``entry_score(entry)`` over the corpus.

    This is where ROUGE-L and METEOR refuse an empty corpus. CIDEr-D
    needs 2 entries for its document frequencies and checks that before
    its first pass; BLEU divides corpus totals rather than averaging
    entries and checks for itself.
    """
    if not corpus:
        raise ValueError("empty corpus")
    total = 0.0
    for e in corpus:
        total += entry_score(e)
    return 100.0 * total / len(corpus)


def bleu(corpus, max_n=4):
    """Corpus BLEU-1..max_n with per-reference clipping, no smoothing."""
    if not corpus:
        raise ValueError("empty corpus")
    t = _table(corpus, max_n)
    entry, ref = t.slots()
    h_len = t.lengths[t.hyp]
    r_len = t.lengths[ref]
    # closest reference length; ties go to the shorter reference
    width = int(t.lengths.max()) + 1
    closest = np.minimum.reduceat(np.abs(r_len - h_len[entry]) * width + r_len,
                                  np.searchsorted(entry, np.arange(len(corpus)))) % width
    hyp_len = int(h_len.sum())
    ref_len = int(closest.sum())
    match = []
    total = []
    for lv in t.levels:
        keys, clip = t.set_grams(lv)
        e, row = lv.rows(t.hyp)  # each entry's hypothesis n-grams
        clip = np.append(clip, 0)[_lookup(keys, t.entry_set[e] * lv.n_ids + lv.gram[row])]
        counts = lv.count[row]
        match.append(int(np.minimum(counts, clip).sum()))
        total.append(int(counts.sum()))
    bp = 1.0 if hyp_len >= ref_len else math.exp(1.0 - ref_len / max(hyp_len, 1))
    scores = []
    for n in range(1, max_n + 1):
        if 0 in match[:n]:  # no match at some order; zero totals have zero matches
            scores.append(0.0)
            continue
        logsum = 0.0
        for k in range(n):
            logsum += math.log(match[k] / total[k])
        scores.append(100.0 * bp * math.exp(logsum / n))
    return scores


def _lcs_len(hyp, ref):
    """Length of the longest common subsequence, by the bit-parallel
    recurrence of Allison-Dix and Hyyro: bit j of ``v`` is cleared when
    the LCS of the hypothesis so far grows at reference position j."""
    match = {}
    for j, y in enumerate(ref):
        match[y] = match.get(y, 0) | (1 << j)
    mask = (1 << len(ref)) - 1
    v = mask
    for x in hyp:
        u = v & match.get(x, 0)
        v = ((v + u) | (v - u)) & mask
    return len(ref) - v.bit_count()


def _rouge_f(hyp, ref, beta):
    """LCS F-score of one hypothesis against one reference."""
    lcs = _lcs_len(hyp, ref)
    if lcs == 0:
        return 0.0
    p = lcs / len(hyp)
    rr = lcs / len(ref)
    return (1 + beta**2) * rr * p / (rr + beta**2 * p)


def rouge_l(corpus, beta=1.2):
    """Mean over entries of the best-reference LCS F-score, x100."""
    return _corpus_mean(corpus, lambda e: max(
        _rouge_f(e.hypothesis, r, beta) for r in e.references))


def _meteor_score(hyp, ref, alpha, beta, gamma):
    """Greedy leftmost exact alignment of one hypothesis to one reference,
    scored as the F-mean times (1 - the fragmentation penalty)."""
    used = [False] * len(ref)
    align = []
    for i, w in enumerate(hyp):
        for j, r in enumerate(ref):
            if not used[j] and r == w:
                used[j] = True
                align.append((i, j))
                break
    if not align:
        return 0.0
    m = len(align)
    chunks = 1
    for (i0, j0), (i1, j1) in zip(align, align[1:]):
        if i1 != i0 + 1 or j1 != j0 + 1:
            chunks += 1
    p = m / len(hyp)
    rr = m / len(ref)
    f = p * rr / (alpha * p + (1 - alpha) * rr)
    return f * (1.0 - gamma * (chunks / m) ** beta)


def meteor(corpus, alpha=0.9, beta=3.0, gamma=0.5):
    """Exact-match METEOR, best reference per entry, corpus mean x100."""
    return _corpus_mean(corpus, lambda e: max(
        _meteor_score(e.hypothesis, r, alpha, beta, gamma) for r in e.references))


def _pair_terms(lv, value, norm, hyp, ref, penalty):
    """Each distinct (hypothesis, reference) pair's length-penalized clipped
    tf-idf cosine at one order, from the rows' tf-idf ``value`` and the
    sentences' ``norm``: the numerator sums over the hypothesis's n-grams in
    first-occurrence order; 0.0 where a vector is empty."""
    pair, row = lv.rows(hyp)
    r_row = lv.find(ref[pair], lv.gram[row])
    hit = r_row >= 0
    rv = value[r_row[hit]]
    num = np.bincount(pair[hit], weights=np.minimum(value[row[hit]], rv) * rv,
                      minlength=len(hyp))
    denom = norm[hyp] * norm[ref]
    return np.divide(penalty * num, denom, out=np.zeros(len(hyp)), where=denom > 0)


def cider_d(corpus, max_n=4, sigma=6.0):
    """CIDEr-D over the corpus, reported on the 0..1000 scale.

    Per entry the score is 10 * mean over n of the reference-averaged
    clipped tf-idf cosine, times the Gaussian length penalty; the
    reported value is the corpus mean x100.
    """
    require_entries(len(corpus))
    t = _table(corpus, max_n)
    n_sent = len(t.lengths)
    entry, ref = t.slots()
    pairs, slot_pair = np.unique(t.hyp[entry] * n_sent + ref, return_inverse=True)
    hyp, ref = np.divmod(pairs, n_sent)
    gap, inv = np.unique(t.lengths[hyp] - t.lengths[ref], return_inverse=True)
    penalty = np.array([math.exp(-(d**2) / (2.0 * sigma**2)) for d in gap.tolist()])[inv]
    entries_of_set = np.bincount(t.entry_set)
    n_refs = np.diff(t.set_start)[t.entry_set]
    log_docs = math.log(len(corpus))
    score = 0.0
    for lv in t.levels:
        # document frequency: the entries with the n-gram in a reference
        keys, _ = t.set_grams(lv)
        df = np.bincount(keys % lv.n_ids, weights=entries_of_set[keys // lv.n_ids],
                         minlength=lv.n_ids)
        # idf per distinct df; an n-gram in no reference set keeps log_docs
        df, inv = np.unique(df, return_inverse=True)
        idf = np.array([log_docs - math.log(d) if d else log_docs for d in df.tolist()])[inv]
        value = lv.count * idf[lv.gram]
        norm = np.sqrt(np.bincount(lv.sent, weights=value * value, minlength=n_sent))
        term = _pair_terms(lv, value, norm, hyp, ref, penalty)
        # each entry's references in order, then the mean over references
        mean = np.bincount(entry, weights=term[slot_pair], minlength=len(corpus)) / n_refs
        score = score + mean
    # the entry scores summed left to right, as the other metrics sum theirs
    return _corpus_mean((10.0 * score / max_n).tolist(), float)


def s_star_m(bleu4, meteor_score, rouge_score, cider_score):
    """Arithmetic mean of BLEU-4, ROUGE-L, METEOR and CIDEr-D."""
    return (bleu4 + rouge_score + meteor_score + cider_score) / 4.0


def evaluate(corpus) -> MetricReport:
    require_entries(len(corpus))
    b = bleu(corpus)
    m = meteor(corpus)
    r = rouge_l(corpus)
    c = cider_d(corpus)
    return MetricReport(bleu=b, meteor=m, rouge_l=r, cider_d=c,
                       s_star_m=s_star_m(b[3], m, r, c))

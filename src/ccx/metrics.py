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
from collections import Counter
from dataclasses import dataclass
from functools import cache

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


def _counts(tokens, max_n):
    """A sentence's n-gram counts for n = 1..max_n."""
    return [Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))
            for n in range(1, max_n + 1)]


def _keys(entry):
    """An entry's hypothesis and reference set as tuples: the keys of the
    ``functools.cache`` tables that BLEU and CIDEr-D build in each call, so
    each repeated sentence, reference set and pair is scored once per call
    and no table outlives it. Cached values are shared: never mutate them."""
    return tuple(entry.hypothesis), tuple(map(tuple, entry.references))


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
    counts_of = cache(lambda sentence: _counts(sentence, max_n))

    @cache
    def max_counts(refs):
        """Per n: each n-gram's largest count in any one reference."""
        out = [{} for _ in range(max_n)]
        for rc in map(counts_of, refs):
            for best, counts in zip(out, rc):
                for g, c in counts.items():
                    if c > best.get(g, 0):
                        best[g] = c
        return out

    match = [0] * max_n
    total = [0] * max_n
    hyp_len = 0
    ref_len = 0
    for e in corpus:
        h, refs = _keys(e)
        hyp_len += len(h)
        # closest reference length; ties go to the shorter reference
        ref_len += min((abs(len(r) - len(h)), len(r)) for r in refs)[1]
        for n, (counts, clip) in enumerate(zip(counts_of(h), max_counts(refs))):
            match[n] += sum(min(c, clip.get(g, 0)) for g, c in counts.items())
            total[n] += sum(counts.values())
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


def cider_d(corpus, max_n=4, sigma=6.0):
    """CIDEr-D over the corpus, reported on the 0..1000 scale.

    Per entry the score is 10 * mean over n of the reference-averaged
    clipped tf-idf cosine, times the Gaussian length penalty; the
    reported value is the corpus mean x100.
    """
    require_entries(len(corpus))
    counts_of = cache(lambda sentence: _counts(sentence, max_n))

    @cache
    def ref_set_ngrams(refs):
        """Per n: the n-grams in any reference of one set."""
        return [set().union(*grams) for grams in zip(*map(counts_of, refs))]

    # document frequencies over reference sets
    df = [Counter() for _ in range(max_n)]
    for e in corpus:
        for df_n, grams in zip(df, ref_set_ngrams(_keys(e)[1])):
            df_n.update(grams)
    log_docs = math.log(len(corpus))
    # idf per distinct n-gram; one in no reference set has its df of 0
    # clamped to 1, and log(1) = 0 leaves its idf log_docs
    idf = [{g: log_docs - math.log(d) for g, d in df_n.items()} for df_n in df]

    @cache
    def vectors(sentence):
        """Per n: the sentence's tf-idf vector and its norm."""
        out = []
        for idf_n, counts in zip(idf, counts_of(sentence)):
            vec = {g: c * idf_n.get(g, log_docs) for g, c in counts.items()}
            out.append((vec, math.sqrt(sum(v * v for v in vec.values()))))
        return out

    @cache
    def pair_terms(hyp, ref):
        """Per n: the pair's length-penalized clipped tf-idf cosine; 0.0,
        which leaves a non-negative sum's bits as they are, where a vector
        is empty."""
        delta = len(hyp) - len(ref)
        penalty = math.exp(-(delta**2) / (2.0 * sigma**2))
        out = []
        for (hv, h_norm), (rv, r_norm) in zip(vectors(hyp), vectors(ref)):
            num = sum(min(hv[g], rv[g]) * rv[g] for g in hv if g in rv)
            denom = h_norm * r_norm
            out.append(penalty * num / denom if denom > 0 else 0.0)
        return out

    def entry(e):
        h, refs = _keys(e)
        per_n = [0.0] * max_n
        for r in refs:
            for n, term in enumerate(pair_terms(h, r)):
                per_n[n] += term
        return 10.0 * sum(s / len(refs) for s in per_n) / max_n

    return _corpus_mean(corpus, entry)


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

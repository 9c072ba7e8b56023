"""The dict-based BLEU and CIDEr-D that ``ccx.metrics`` computed before it
counted n-grams in numpy arrays, kept unchanged as a bitwise mirror: the
array code must return exactly these floats, since every float sum here is
formed left to right in a fixed order (up to Python 3.11; from 3.12 the
built-in sum() compensates)."""

import math
from collections import Counter
from functools import cache

from ccx.metrics import require_entries


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

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
from collections import Counter, defaultdict
from dataclasses import dataclass

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
    """items: iterable of (id, hyp_text, [ref_texts]) -> list of EvalEntry."""
    corpus = []
    for id_, hyp, refs in items:
        refs_tok = [word_tokens(r) for r in refs]
        if not refs_tok or any(not r for r in refs_tok):
            raise ValueError(f"entry {id_}: every reference must be non-empty")
        corpus.append(EvalEntry(str(id_), word_tokens(hyp), refs_tok))
    return corpus


def _ngrams(tokens, n):
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def bleu(corpus, max_n=4):
    """Corpus BLEU-1..max_n with per-reference clipping, no smoothing."""
    if not corpus:
        raise ValueError("empty corpus")
    match = [0] * max_n
    total = [0] * max_n
    hyp_len = 0
    ref_len = 0
    for e in corpus:
        h = e.hypothesis
        hyp_len += len(h)
        # closest reference length; ties go to the shorter reference
        ref_len += min((abs(len(r) - len(h)), len(r)) for r in e.references)[1]
        for n in range(1, max_n + 1):
            counts = _ngrams(h, n)
            if not counts:
                continue
            clip = Counter()
            for r in e.references:
                rc = _ngrams(r, n)
                for g in counts:
                    clip[g] = max(clip[g], rc.get(g, 0))
            match[n - 1] += sum(min(c, clip[g]) for g, c in counts.items())
            total[n - 1] += sum(counts.values())
    bp = 1.0 if hyp_len >= ref_len else math.exp(1.0 - ref_len / max(hyp_len, 1))
    scores = []
    for n in range(1, max_n + 1):
        logsum = 0.0
        ok = True
        for k in range(n):
            if total[k] == 0 or match[k] == 0:
                ok = False
                break
            logsum += math.log(match[k] / total[k])
        scores.append(100.0 * bp * math.exp(logsum / n) if ok else 0.0)
    return scores


def _lcs_len(a, b):
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0]
        for j, y in enumerate(b, 1):
            cur.append(prev[j - 1] + 1 if x == y else max(prev[j], cur[-1]))
        prev = cur
    return prev[-1]


def rouge_l(corpus, beta=1.2):
    """Mean over entries of the best-reference LCS F-score, x100."""
    if not corpus:
        raise ValueError("empty corpus")
    total = 0.0
    for e in corpus:
        best = 0.0
        if e.hypothesis:
            for r in e.references:
                lcs = _lcs_len(e.hypothesis, r)
                if lcs == 0:
                    continue
                p = lcs / len(e.hypothesis)
                rr = lcs / len(r)
                best = max(best, (1 + beta**2) * rr * p / (rr + beta**2 * p))
        total += best
    return 100.0 * total / len(corpus)


def _meteor_align(hyp, ref):
    """Greedy leftmost exact alignment; returns (matches, chunks)."""
    used = [False] * len(ref)
    align = []
    for i, w in enumerate(hyp):
        for j, r in enumerate(ref):
            if not used[j] and r == w:
                used[j] = True
                align.append((i, j))
                break
    if not align:
        return 0, 0
    chunks = 1
    for (i0, j0), (i1, j1) in zip(align, align[1:]):
        if i1 != i0 + 1 or j1 != j0 + 1:
            chunks += 1
    return len(align), chunks


def meteor(corpus, alpha=0.9, beta=3.0, gamma=0.5):
    """Exact-match METEOR, best reference per entry, corpus mean x100."""
    if not corpus:
        raise ValueError("empty corpus")
    total = 0.0
    for e in corpus:
        best = 0.0
        for r in e.references:
            m, chunks = _meteor_align(e.hypothesis, r)
            if m == 0:
                continue
            p = m / len(e.hypothesis)
            rr = m / len(r)
            f = p * rr / (alpha * p + (1 - alpha) * rr)
            penalty = gamma * (chunks / m) ** beta
            best = max(best, f * (1.0 - penalty))
        total += best
    return 100.0 * total / len(corpus)


def cider_d(corpus, max_n=4, sigma=6.0):
    """CIDEr-D over the corpus, reported on the 0..1000 scale.

    Per entry the score is 10 * mean over n of the reference-averaged
    clipped tf-idf cosine, times the Gaussian length penalty; the
    reported value is the corpus mean x100.
    """
    require_entries(len(corpus))
    # document frequencies over reference sets
    df = [defaultdict(int) for _ in range(max_n)]
    for e in corpus:
        for n in range(1, max_n + 1):
            seen = set()
            for r in e.references:
                seen.update(_ngrams(r, n))
            for g in seen:
                df[n - 1][g] += 1
    log_docs = math.log(len(corpus))

    def tfidf(counts, n):
        return {g: c * (log_docs - math.log(max(df[n - 1][g], 1))) for g, c in counts.items()}

    def norm(vec):
        return math.sqrt(sum(v * v for v in vec.values()))

    total = 0.0
    for e in corpus:
        hyp_counts = [_ngrams(e.hypothesis, n) for n in range(1, max_n + 1)]
        per_n = [0.0] * max_n
        for r in e.references:
            delta = len(e.hypothesis) - len(r)
            penalty = math.exp(-(delta**2) / (2.0 * sigma**2))
            for n in range(1, max_n + 1):
                hv = tfidf(hyp_counts[n - 1], n)
                rv = tfidf(_ngrams(r, n), n)
                num = sum(min(hv[g], rv[g]) * rv[g] for g in hv if g in rv)
                denom = norm(hv) * norm(rv)
                if denom > 0:
                    per_n[n - 1] += penalty * num / denom
        entry = 10.0 * sum(s / len(e.references) for s in per_n) / max_n
        total += entry
    return 100.0 * total / len(corpus)


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

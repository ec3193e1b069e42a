"""Shared fixtures and the independent brute-force scoring oracle."""

from __future__ import annotations

import math
import random
from bisect import bisect_left
from collections import Counter

import pytest

from spanmine import (
    Document,
    SalientSpan,
    SkipDocument,
    TokenizedDoc,
    build_index,
    candidates,
    model_input,
)
from spanmine.corpus import contains

# A version-1 index file (front-coded terms, varint postings) of one
# document "d" holding the token "a"; version 2 refuses it.
V1_INDEX = bytes.fromhex("53504d490100333333333333f33f000000000000e83f0101640101000161010001eeb8d264")
V1_REFUSAL = r"unsupported index version 1 \(expected 2\); rebuild it with spanmine index"


class BruteBM25:
    """Direct evaluation of the closed-form scoring formula.

    Deliberately structure-free (no inverted index, no postings): every
    statistic is recomputed from raw token lists so this stays an
    independent check on the real implementation.
    """

    def __init__(self, docs_tokens, k1=1.2, b=0.75):
        self.docs = [list(d) for d in docs_tokens]
        self.k1 = k1
        self.b = b
        self.n = len(self.docs)
        self.counters = [Counter(d) for d in self.docs]
        self.avgdl = sum(len(d) for d in self.docs) / self.n

    def idf(self, term):
        df = sum(1 for c in self.counters if term in c)
        return math.log(1 + (self.n - df + 0.5) / (df + 0.5))

    def score(self, query, slot):
        total = 0.0
        dl = len(self.docs[slot])
        for term in query:
            tf = self.counters[slot][term]
            if tf == 0:
                continue
            norm = self.k1 * (1 - self.b + self.b * dl / self.avgdl)
            total += self.idf(term) * tf * (self.k1 + 1) / (tf + norm)
        return total

    def rank(self, query, slot):
        own = self.score(query, slot)
        return sum(1 for d in range(self.n) if self.score(query, d) > own)

    def top_k(self, query, k):
        scored = [(d, self.score(query, d)) for d in range(self.n)]
        scored = [item for item in scored if item[1] > 0]
        scored.sort(key=lambda item: (-item[1], item[0]))
        return scored[:k]


def oracle_score(index, query, slot):
    """One document's score by the index's own weight expression, tf found by binary search.

    Evaluates idf * tf * (k1 + 1) / (tf + norm) per query term, summed in
    query order, without term_weights(): the index's sparse scores must
    equal it bitwise.
    """
    total = 0.0
    for term in query:
        plist = index.postings.get(term, [])
        i = bisect_left(plist, slot, key=lambda p: p.doc_ref)
        if i < len(plist) and plist[i].doc_ref == slot:
            tf = plist[i].term_freq
            total += index.idf(term) * tf * (index.k1 + 1.0) / (tf + index._norms[slot])
    return total


def oracle_mine(doc, index, thresholds, stoplist, max_spans=None):
    """Reference miner: one BM25Index.rank call per (document, candidate)."""
    slot = index.slot_of(doc.doc_id)
    kept = []
    for cand in candidates(doc, stoplist):
        rank = index.rank(cand.tokens, slot)
        if rank <= thresholds(len(cand.tokens)):
            kept.append(SalientSpan(tokens=cand.tokens, rank=rank))
    kept.sort(key=lambda s: (s.rank, -s.length, s.tokens))
    return kept if max_spans is None else kept[:max_spans]


def oracle_locate_occurrences(tokens, spans):
    """Reference span locator: slide a window over the document once per distinct span."""
    claimed = [False] * len(tokens)
    found = []
    unique = {}
    for span in sorted(spans, key=lambda s: (-s.length, s.rank, s.tokens)):
        unique.setdefault(span.tokens, span)
    for span in unique.values():
        n = span.length
        i = 0
        while i + n <= len(tokens):
            if tuple(tokens[i : i + n]) == span.tokens and not any(claimed[i : i + n]):
                for j in range(i, i + n):
                    claimed[j] = True
                found.append(((i, i + n), span))
                i += n
            else:
                i += 1
    found.sort(key=lambda item: item[0])
    return found


def oracle_ssp_target(spans, sep=";"):
    """Reference ssp target: prune by a pairwise containment test of every two spans."""
    unique = []
    seen = set()
    for span in sorted(spans, key=lambda s: s.rank):
        if span.tokens not in seen:
            seen.add(span.tokens)
            unique.append(span)
    kept = [
        span
        for span in unique
        if not any(other.length > span.length and contains(other.tokens, span.tokens) for other in unique)
    ]
    if not kept:
        raise SkipDocument("no salient spans to predict")
    out = []
    for i, span in enumerate(kept):
        if i:
            out.append(sep)
        out.extend(span.tokens)
    return out


def random_token_corpus(rng: random.Random, min_docs=5, max_docs=50, max_vocab=30, max_len=40):
    vocab = [f"w{i}" for i in range(rng.randint(2, max_vocab))]
    n_docs = rng.randint(min_docs, max_docs)
    return [[rng.choice(vocab) for _ in range(rng.randint(1, max_len))] for _ in range(n_docs)]


def as_tokenized(docs_tokens):
    return [TokenizedDoc(doc_id=f"d{i}", tokens=tuple(toks), title_len=0) for i, toks in enumerate(docs_tokens)]


@pytest.fixture
def toy_index():
    """The three-document corpus used across scoring tests."""
    docs = as_tokenized([["a", "b"], ["a", "a", "c"], ["c"]])
    return build_index(docs)


@pytest.fixture
def labeled_doc():
    return Document(
        id="struct-2d",
        title="localization and regularization behavior of mixed finite elements "
        "for 2d structural problems with damaging material.",
        body="a class of lagrangian mixed finite elements is presented for applications "
        "to 2d structural problems based on a damage constitutive model. attention is "
        "on localization and regularization issues as compared with the correspondent "
        "behavior of lagrangian displacement based elements.",
        keyphrases=("localization", "regularization", "mixed finite elements", "damage",
                    "hybrid formulations", "plasticity"),
    )


@pytest.fixture
def labeled_tokenized(labeled_doc):
    return model_input(labeled_doc, max_tokens=None)

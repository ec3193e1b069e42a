"""Shared fixtures and the independent reference oracles (BM25 scoring, mining, spans, Porter stemming)."""

from __future__ import annotations

import io
import json
import math
import random
import tempfile
from bisect import bisect_left
from collections import Counter
from pathlib import Path

import pytest

from spanmine import (
    DEFAULT_THRESHOLDS,
    Document,
    SalientSpan,
    TokenizedDoc,
    build_index,
    gen_corpus,
    load_spans,
    mine_corpus,
    model_input,
)
from spanmine.corpus import contains
from spanmine.miner import candidates
from spanmine.stopwords import DEFAULT_STOPWORDS

# Index files of one document "d" holding the token "a" in the two earlier
# formats, which version 3 refuses: version 1 (front-coded terms, varint
# postings) and version 2 (the columns as one zlib stream, terms sorted).
V1_INDEX = bytes.fromhex("53504d490100333333333333f33f000000000000e83f0101640101000161010001eeb8d264")
V1_REFUSAL = r"unsupported index version 1 \(expected 3\); rebuild it with spanmine index"
V2_INDEX = bytes.fromhex(
    "53504d490200333333333333f33f000000000000e83f0100000001000000010000007801636460606044c24026989f920800019900cbe57b5080"
)
V2_REFUSAL = r"unsupported index version 2 \(expected 3\); rebuild it with spanmine index"


def mine_one(doc, index, thresholds=DEFAULT_THRESHOLDS, stoplist=DEFAULT_STOPWORDS, max_spans=None):
    """Salient spans of one indexed document, as mine_corpus writes them and load_spans reads them back."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "spans.jsonl"
        mine_corpus([doc], index, out, thresholds, stoplist, max_spans)
        return load_spans(out)[doc.doc_id]


def corrupt_one(doc, spans, cfg):
    """(source, target) token tuples gen_corpus writes for one document, or its skip reason."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "pairs.jsonl"
        summary = gen_corpus([doc], None if spans is None else {doc.doc_id: spans}, cfg, out)
        if summary.docs_skipped:
            [reason] = summary.docs_skipped
            return reason
        [record] = map(json.loads, out.read_text(encoding="utf-8").splitlines())
    return tuple(record["source"].split()), tuple(record["target"].split())


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
        plist = index.postings.get(term)
        if plist is None:
            continue
        refs = plist.refs
        i = bisect_left(refs, slot)
        if i < len(refs) and refs[i] == slot:
            tf = plist.tfs[i]
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
    kept.sort(key=lambda s: (s.rank, -len(s.tokens), s.tokens))
    return kept if max_spans is None else kept[:max_spans]


def oracle_locate_occurrences(tokens, spans):
    """Reference span locator: slide a window over the document once per distinct span; an empty span matches nothing.

    Returns the claimed (start, end) intervals in ascending order.
    """
    claimed = [False] * len(tokens)
    found = []
    unique = {}
    for span in sorted(spans, key=lambda s: (-len(s.tokens), s.rank, s.tokens)):
        if span.tokens:
            unique.setdefault(span.tokens, span)
    for span in unique.values():
        n = len(span.tokens)
        i = 0
        while i + n <= len(tokens):
            if tuple(tokens[i : i + n]) == span.tokens and not any(claimed[i : i + n]):
                for j in range(i, i + n):
                    claimed[j] = True
                found.append((i, i + n))
                i += n
            else:
                i += 1
    found.sort()
    return found


def oracle_ssp_target(spans, sep=";"):
    """Reference ssp target: prune by a pairwise containment test of every two spans; an empty span predicts nothing."""
    unique = []
    seen = set()
    for span in sorted(spans, key=lambda s: s.rank):
        if span.tokens and span.tokens not in seen:
            seen.add(span.tokens)
            unique.append(span)
    kept = [
        span
        for span in unique
        if not any(len(other.tokens) > len(span.tokens) and contains(other.tokens, span.tokens) for other in unique)
    ]
    out = []
    for i, span in enumerate(kept):
        if i:
            out.append(sep)
        out.extend(span.tokens)
    return out


# Reference Porter stemmer (oracle_stem below): the character-by-character
# form of the algorithm, with its own copy of the suffix tables, so that a
# change to spanmine.porter's tables or dispatch shows up as a mismatch.
_porter_VOWELS = "aeiou"


def _porter_is_cons(word: str, i: int) -> bool:
    ch = word[i]
    if ch in _porter_VOWELS:
        return False
    if ch == "y":
        return i == 0 or not _porter_is_cons(word, i - 1)
    return True


def _porter_measure(stem: str) -> int:
    """Count VC sequences: [C](VC)^m[V] gives m."""
    n = len(stem)
    i = 0
    while True:
        if i >= n:
            return 0
        if not _porter_is_cons(stem, i):
            break
        i += 1
    i += 1
    m = 0
    while True:
        while True:
            if i >= n:
                return m
            if _porter_is_cons(stem, i):
                break
            i += 1
        i += 1
        m += 1
        while True:
            if i >= n:
                return m
            if not _porter_is_cons(stem, i):
                break
            i += 1
        i += 1


def _porter_has_vowel(stem: str) -> bool:
    return any(not _porter_is_cons(stem, i) for i in range(len(stem)))


def _porter_ends_double_cons(stem: str) -> bool:
    return len(stem) >= 2 and stem[-1] == stem[-2] and _porter_is_cons(stem, len(stem) - 1)


def _porter_ends_cvc(stem: str) -> bool:
    """True when the stem ends consonant-vowel-consonant, last not w/x/y."""
    i = len(stem) - 1
    if i < 2 or not _porter_is_cons(stem, i) or _porter_is_cons(stem, i - 1) or not _porter_is_cons(stem, i - 2):
        return False
    return stem[i] not in "wxy"


def _porter_step1ab(w: str) -> str:
    if w.endswith("sses"):
        w = w[:-2]
    elif w.endswith("ies"):
        w = w[:-3] + "i"
    elif w.endswith("ss"):
        pass
    elif w.endswith("s"):
        w = w[:-1]
    if w.endswith("eed"):
        if _porter_measure(w[:-3]) > 0:
            w = w[:-1]
    elif w.endswith("ed") and _porter_has_vowel(w[:-2]):
        w = _porter_step1ab_fixup(w[:-2])
    elif w.endswith("ing") and _porter_has_vowel(w[:-3]):
        w = _porter_step1ab_fixup(w[:-3])
    return w


def _porter_step1ab_fixup(stem: str) -> str:
    if stem.endswith(("at", "bl", "iz")):
        return stem + "e"
    if _porter_ends_double_cons(stem) and stem[-1] not in "lsz":
        return stem[:-1]
    if _porter_measure(stem) == 1 and _porter_ends_cvc(stem):
        return stem + "e"
    return stem


def _porter_step1c(w: str) -> str:
    if w.endswith("y") and _porter_has_vowel(w[:-1]):
        w = w[:-1] + "i"
    return w


# (suffix, replacement) pairs; within each step, the first matching suffix
# decides, and the rewrite fires only when the remaining stem's measure
# clears the step's bar. Longer suffixes precede the suffixes they contain.
ORACLE_STEP2 = (
    ("ational", "ate"), ("tional", "tion"),
    ("enci", "ence"), ("anci", "ance"),
    ("izer", "ize"),
    ("bli", "ble"), ("alli", "al"), ("entli", "ent"), ("eli", "e"), ("ousli", "ous"),
    ("ization", "ize"), ("ation", "ate"), ("ator", "ate"),
    ("alism", "al"), ("iveness", "ive"), ("fulness", "ful"), ("ousness", "ous"),
    ("aliti", "al"), ("iviti", "ive"), ("biliti", "ble"),
    ("logi", "log"),
)

ORACLE_STEP3 = (
    ("icate", "ic"), ("ative", ""), ("alize", "al"),
    ("iciti", "ic"), ("ical", "ic"), ("ful", ""), ("ness", ""),
)

ORACLE_STEP4 = (
    "al", "ance", "ence", "er", "ic", "able", "ible",
    "ant", "ement", "ment", "ent", "ion", "ou",
    "ism", "ate", "iti", "ous", "ive", "ize",
)


def _porter_apply_rules(w: str, rules) -> str:
    for suffix, replacement in rules:
        if w.endswith(suffix):
            stem = w[: -len(suffix)]
            if _porter_measure(stem) > 0:
                w = stem + replacement
            break
    return w


def _porter_step4(w: str) -> str:
    for suffix in ORACLE_STEP4:
        if w.endswith(suffix):
            stem = w[: -len(suffix)]
            if suffix == "ion" and not stem.endswith(("s", "t")):
                continue
            if _porter_measure(stem) > 1:
                w = stem
            break
    return w


def _porter_step5(w: str) -> str:
    if w.endswith("e"):
        m = _porter_measure(w)
        if m > 1 or (m == 1 and not _porter_ends_cvc(w[:-1])):
            w = w[:-1]
    if w.endswith("ll") and _porter_measure(w) > 1:
        w = w[:-1]
    return w


def oracle_stem(token: str) -> str:
    """Reference Porter stemmer: recursive consonant tests and one str.endswith per suffix rule.

    The stems of spanmine.porter.stem must equal it for every token.
    """
    if len(token) <= 2 or not token.isascii() or not token.isalpha():
        return token
    w = token.lower()
    w = _porter_step1ab(w)
    w = _porter_step1c(w)
    w = _porter_apply_rules(w, ORACLE_STEP2)
    w = _porter_apply_rules(w, ORACLE_STEP3)
    w = _porter_step4(w)
    w = _porter_step5(w)
    return w


def random_token_corpus(rng: random.Random, min_docs=5, max_docs=50, max_vocab=30, max_len=40):
    vocab = [f"w{i}" for i in range(rng.randint(2, max_vocab))]
    n_docs = rng.randint(min_docs, max_docs)
    return [[rng.choice(vocab) for _ in range(rng.randint(1, max_len))] for _ in range(n_docs)]


def as_tokenized(docs_tokens):
    return [TokenizedDoc(doc_id=f"d{i}", tokens=tuple(toks), title_len=0) for i, toks in enumerate(docs_tokens)]


class _FullDiskFile(io.FileIO):
    """A file opened for writing whose writes fail, as on a full disk, once its first bytes are written."""

    def write(self, data):
        if self.tell():
            raise OSError(28, "No space left on device")
        return super().write(data)


@pytest.fixture
def full_disk(monkeypatch):
    """Call it to make every file that ``spanmine.corpus`` then opens for writing fail after its first bytes.

    Every artifact writer opens its file through ``spanmine.corpus.replacing``.
    Text files write through to the failing file, so no buffer hides the failure.
    """

    def failing_open(file, mode="r", encoding=None, **kwargs):
        if "w" not in mode:
            return open(file, mode, encoding=encoding, **kwargs)
        raw = _FullDiskFile(file, "w")
        return raw if "b" in mode else io.TextIOWrapper(raw, encoding=encoding, write_through=True)

    return lambda: monkeypatch.setattr("spanmine.corpus.open", failing_open, raising=False)


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

"""Candidate n-gram extraction and salient span mining.

A span is salient when, used as a query against the corpus it came from,
few documents outscore its own: rank(span) <= threshold(len(span)). The
length-dependent threshold counters the scorer's bias toward longer
queries.
"""

from __future__ import annotations

import heapq
import json
import logging
import zlib
from bisect import bisect_left
from collections import Counter
from collections.abc import Collection, Iterable, Mapping, Sequence
from dataclasses import dataclass
from itertools import repeat
from operator import add, neg

from .bm25 import BM25Index, TermWeights, check_term
from .corpus import DIGIT_TOKEN, SEP_TOKEN, TokenizedDoc, read_lines
from .errors import DataError
from .pool import map_shared
from .stopwords import DEFAULT_STOPWORDS

logger = logging.getLogger(__name__)

MAX_NGRAM = 3
_TUNED_CORPUS_DOCS = 500_000  # size of the auxiliary corpus the default thresholds were tuned on


@dataclass(frozen=True)
class CandidateSpan:
    tokens: tuple[str, ...]
    first_occurrence: int

    def __post_init__(self):
        if not 1 <= len(self.tokens) <= MAX_NGRAM:
            raise ValueError(f"candidate length must be 1..{MAX_NGRAM}, got {len(self.tokens)}")


@dataclass(frozen=True)
class SalientSpan:
    tokens: tuple[str, ...]
    rank: int

    @property
    def length(self) -> int:
        return len(self.tokens)

    @property
    def text(self) -> str:
        return " ".join(self.tokens)


@dataclass(frozen=True)
class ThresholdFn:
    """Maximum accepted rank per span length."""

    by_length: Mapping[int, int]

    def __post_init__(self):
        missing = [n for n in range(1, MAX_NGRAM + 1) if n not in self.by_length]
        if missing:
            raise DataError(f"threshold map must cover lengths 1..{MAX_NGRAM}; missing {missing}")
        bad = {n: v for n, v in self.by_length.items() if v < 0}
        if bad:
            raise DataError(f"thresholds must be >= 0, got {bad}")

    def __call__(self, length: int) -> int:
        return self.by_length[length]

    def scaled_to(self, num_docs: int) -> "ThresholdFn":
        """Rescale rank cutoffs tuned on the auxiliary corpus to ``num_docs``.

        Proportional scaling keeps the accepted rank percentile comparable
        on toy corpora.
        """
        return ThresholdFn(
            {n: max(0, round(v * num_docs / _TUNED_CORPUS_DOCS)) for n, v in self.by_length.items()}
        )


DEFAULT_THRESHOLDS = ThresholdFn({1: 500, 2: 430, 3: 360})


def parse_thresholds(text: str) -> ThresholdFn:
    """Parse "1:500,2:430,3:360" into a ThresholdFn."""
    mapping = {}
    try:
        for part in text.split(","):
            length, value = part.split(":")
            mapping[int(length)] = int(value)
    except ValueError as exc:
        raise DataError(f"bad threshold spec {text!r} (want e.g. '1:500,2:430,3:360')") from exc
    return ThresholdFn(mapping)


class _Eligibility(dict):
    """Token -> whether it passes the stop/sentinel filter, decided once per token."""

    def __init__(self, stoplist: frozenset[str] | set[str]):
        super().__init__()
        self.stoplist = stoplist

    def __missing__(self, token: str) -> bool:
        ok = self[token] = (
            token not in (SEP_TOKEN, DIGIT_TOKEN)
            and token not in self.stoplist
            and any(ch.isalnum() for ch in token)
        )
        return ok


def _ngrams(doc: TokenizedDoc, eligible: _Eligibility) -> dict[tuple[str, ...], int]:
    """Distinct eligible 1..3-grams of ``doc`` -> offset of their first occurrence."""
    tokens = tuple(doc.tokens)
    if not tokens:
        raise DataError(f"document {doc.doc_id!r} has no tokens")
    ok = [eligible[tok] for tok in tokens]
    seen: dict[tuple[str, ...], int] = {}
    n_tokens = len(tokens)
    for i in range(n_tokens):
        if not ok[i]:
            continue
        for n in range(1, MAX_NGRAM + 1):
            if i + n > n_tokens or not ok[i + n - 1]:
                break
            gram = tokens[i : i + n]
            if gram not in seen:
                seen[gram] = i
    return seen


def candidates(
    doc: TokenizedDoc,
    stoplist: frozenset[str] | set[str] = DEFAULT_STOPWORDS,
) -> list[CandidateSpan]:
    """Distinct 1..3-grams whose every token passes the stop/sentinel filter.

    Returned in first-occurrence order (a deterministic stand-in for set
    iteration); duplicates keep their earliest offset. n-grams never cross
    the title/body separator because the separator token is ineligible.
    """
    grams = _ngrams(doc, _Eligibility(stoplist))
    return [CandidateSpan(tokens=gram, first_occurrence=i) for gram, i in grams.items()]


def mine(
    doc: TokenizedDoc,
    index: BM25Index,
    thresholds: ThresholdFn = DEFAULT_THRESHOLDS,
    stoplist: frozenset[str] | set[str] = DEFAULT_STOPWORDS,
    max_spans: int | None = None,
) -> list[SalientSpan]:
    """Salient spans of one indexed document, rank ascending.

    Ties order longer spans first, then lexicographically. ``max_spans``
    optionally caps the list after sorting.
    """
    return _mine_docs([doc], index, thresholds, stoplist, max_spans)[0][0]


def _mine_shard(
    doc_list: list[TokenizedDoc],
    slots: list[int],
    index: BM25Index,
    thresholds: ThresholdFn,
    stoplist: frozenset[str] | set[str],
    n_shards: int,
    shard: int,
) -> tuple[list[tuple[int, tuple[str, ...], int]], int, int]:
    """Rank one shard of the distinct candidate queries of ``doc_list``.

    Candidates are grouped by distinct query across all documents, so a
    query shared by many documents is scored once. A query belongs to
    shard crc32(text) % n_shards, which every process computes alike.
    Returns (position, query, rank) for every source document, by input
    position, whose rank clears the threshold, then the number of
    distinct queries and of documents fully scored. A rank counts the
    documents scoring strictly higher; only the best ``threshold + 1``
    scores are ordered, so a rank past the threshold reads as
    threshold + 1 and is dropped.
    """
    eligible = _Eligibility(stoplist)
    sources: dict[tuple[str, ...], list[int]] = {}
    for pos, doc in enumerate(doc_list):
        for gram in _ngrams(doc, eligible):
            if n_shards == 1 or zlib.crc32(" ".join(gram).encode()) % n_shards == shard:
                sources.setdefault(gram, []).append(pos)
    for token, ok in eligible.items():  # each eligible token is also a query term
        if ok:
            check_term(token)
    kept = []
    docs_scored = 0
    for query, positions in sources.items():
        limit = thresholds(len(query))
        terms = [index.term_weights(term) for term in query]
        source_scores = [_score(terms, slots[pos]) for pos in positions]
        scored = _scores_above(terms, min(source_scores))
        docs_scored += len(scored)
        top = heapq.nlargest(limit + 1, scored)  # descending
        for pos, score in zip(positions, source_scores):
            rank = bisect_left(top, -score, key=neg)
            if rank <= limit:
                kept.append((pos, query, rank))
    return kept, len(sources), docs_scored


def _score(terms: list[TermWeights], slot: int) -> float:
    """One document's score, summed in query-term order as BM25Index.scores() does."""
    total = 0.0
    for weights in terms:
        total += weights.by_slot.get(slot, 0.0)
    return total


def _scores_above(terms: list[TermWeights], floor: float) -> Collection[float]:
    """Scores of every document that may score above ``floor`` (MaxScore).

    Query terms turn non-essential in ascending order of their largest
    weight while those largest weights, summed in query order, stay at or
    below ``floor``. Weights are positive and float addition is monotone,
    so a document that holds only non-essential terms scores at most that
    sum and cannot outscore a source scoring ``floor`` or more. Every
    document of an essential term is scored in full, bitwise as
    BM25Index.scores() does.
    """
    if len(terms) == 1:
        return terms[0].by_slot.values() if terms[0].max_weight > floor else ()
    maxes = [weights.max_weight for weights in terms]
    non_essential: set[int] = set()
    for i in sorted(range(len(terms)), key=maxes.__getitem__):
        bound = 0.0
        for j, max_weight in enumerate(maxes):
            if j == i or j in non_essential:
                bound += max_weight
        if bound > floor:
            break
        non_essential.add(i)
    essential = [w.by_slot for i, w in enumerate(terms) if i not in non_essential]
    if not essential:
        return ()
    # _score()'s sum, term-major over the whole union: cheaper than one call per document.
    union = list(set().union(*essential))
    totals = map(terms[0].by_slot.get, union, repeat(0.0))
    for weights in terms[1:]:
        totals = map(add, totals, map(weights.by_slot.get, union, repeat(0.0)))
    return list(totals)


def _mine_docs(
    doc_list: list[TokenizedDoc],
    index: BM25Index,
    thresholds: ThresholdFn,
    stoplist: frozenset[str] | set[str],
    max_spans: int | None,
    workers: int = 1,
) -> tuple[list[list[SalientSpan]], int, int]:
    """Salient spans of each input document, in input order.

    Results map back by input position, not slot, so a document passed
    twice gets two lists. Also returns the distinct queries ranked and the
    documents fully scored, summed over shards.
    """
    if max_spans is not None and max_spans < 0:
        raise DataError(f"max_spans must be >= 0, got {max_spans}")
    slots = [index.slot_of(doc.doc_id) for doc in doc_list]
    n_shards = max(workers, 1)
    shared = (doc_list, slots, index, thresholds, stoplist, n_shards)
    shards = map_shared(_mine_shard, shared, range(n_shards), n_shards)

    span_lists: list[list[SalientSpan]] = [[] for _ in doc_list]
    distinct_queries = docs_scored = 0
    for kept, n_queries, n_scored in shards:
        distinct_queries += n_queries
        docs_scored += n_scored
        for pos, query, rank in kept:
            span_lists[pos].append(SalientSpan(tokens=query, rank=rank))
    for spans in span_lists:
        spans.sort(key=lambda s: (s.rank, -s.length, s.tokens))
        if max_spans is not None:
            del spans[max_spans:]
    return span_lists, distinct_queries, docs_scored


@dataclass(frozen=True)
class MiningSummary:
    docs_processed: int
    total_spans: int
    avg_spans_per_doc: float
    length_distribution: dict[int, float]
    distinct_queries: int  # candidate n-grams ranked, each once
    docs_scored: int  # documents fully scored over all queries, after pruning


def span_mix(span_lists: Iterable[Sequence[SalientSpan]]) -> tuple[int, dict[int, float]]:
    """Total spans over ``span_lists`` and the share of each length 1..MAX_NGRAM."""
    counts = Counter(span.length for spans in span_lists for span in spans)
    total = sum(counts.values())
    return total, {n: counts[n] / total if total else 0.0 for n in range(1, MAX_NGRAM + 1)}


def mine_corpus(
    docs: Iterable[TokenizedDoc],
    index: BM25Index,
    out_path,
    thresholds: ThresholdFn = DEFAULT_THRESHOLDS,
    stoplist: frozenset[str] | set[str] = DEFAULT_STOPWORDS,
    max_spans: int | None = None,
    workers: int = 1,
) -> MiningSummary:
    """Mine every document and write one JSONL record per document.

    Record schema: {"id": ..., "spans": [{"text", "rank", "len"}, ...]};
    documents with no passing spans still get a record. Output is byte
    identical for identical inputs regardless of ``workers``, which shard
    the distinct queries.
    """
    doc_list = list(docs)
    span_lists, distinct_queries, docs_scored = _mine_docs(
        doc_list, index, thresholds, stoplist, max_spans, workers
    )

    with open(out_path, "w", encoding="utf-8") as fh:
        for doc, spans in zip(doc_list, span_lists):
            record = {
                "id": doc.doc_id,
                "spans": [{"text": s.text, "rank": s.rank, "len": s.length} for s in spans],
            }
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")
    total_spans, mix = span_mix(span_lists)
    n_docs = len(doc_list)
    return MiningSummary(
        docs_processed=n_docs,
        total_spans=total_spans,
        avg_spans_per_doc=total_spans / n_docs if n_docs else 0.0,
        length_distribution=mix,
        distinct_queries=distinct_queries,
        docs_scored=docs_scored,
    )


def load_spans(path) -> dict[str, list[SalientSpan]]:
    """Read a spans file back into a doc-id keyed map."""
    spans_by_id: dict[str, list[SalientSpan]] = {}
    for line_no, line in read_lines(path):
        if not line.strip():
            continue
        where = f"{path}: line {line_no}"
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DataError(f"{where}: malformed JSON ({exc.msg})") from exc
        doc_id, spans = _parse_spans_record(record, where)
        if doc_id in spans_by_id:
            raise DataError(f"{where}: duplicate id {doc_id!r}")
        spans_by_id[doc_id] = spans
    return spans_by_id


def _parse_spans_record(record, where: str) -> tuple[str, list[SalientSpan]]:
    if not isinstance(record, dict):
        raise DataError(f"{where}: expected a JSON object, got {type(record).__name__}")
    doc_id = record.get("id")
    if not doc_id or not isinstance(doc_id, str):
        raise DataError(f"{where}: missing or non-string 'id'")
    items = record.get("spans", [])
    if not isinstance(items, list):
        raise DataError(f"{where}: 'spans' must be a list")
    spans = []
    for item in items:
        if not isinstance(item, dict):
            raise DataError(f"{where}: span {item!r} is not an object")
        text, rank = item.get("text"), item.get("rank")
        tokens = tuple(text.split()) if isinstance(text, str) else ()
        if not tokens:
            raise DataError(f"{where}: span {item!r} needs a non-empty 'text'")
        if type(rank) is not int or rank < 0:
            raise DataError(f"{where}: span {item!r} needs a non-negative integer 'rank'")
        spans.append(SalientSpan(tokens=tokens, rank=rank))
    return doc_id, spans

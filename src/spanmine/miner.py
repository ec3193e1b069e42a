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
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from operator import neg

from .bm25 import BM25Index, Query
from .corpus import DIGIT_TOKEN, SEP_TOKEN, TokenizedDoc, read_lines
from .errors import DataError
from .pool import map_shared
from .stopwords import DEFAULT_STOPWORDS

logger = logging.getLogger(__name__)

MAX_NGRAM = 3


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

    def scaled_to(self, num_docs: int, reference_docs: int = 500_000) -> "ThresholdFn":
        """Rescale rank cutoffs tuned on a large corpus to a smaller one.

        The defaults were tuned against an auxiliary corpus of roughly
        half a million documents; proportional scaling keeps the accepted
        rank percentile comparable on toy corpora.
        """
        return ThresholdFn(
            {n: max(0, round(v * num_docs / reference_docs)) for n, v in self.by_length.items()}
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


def _eligible(token: str, stoplist: frozenset[str] | set[str]) -> bool:
    if token in (SEP_TOKEN, DIGIT_TOKEN) or token in stoplist:
        return False
    return any(ch.isalnum() for ch in token)


def candidates(
    doc: TokenizedDoc,
    stoplist: frozenset[str] | set[str] = DEFAULT_STOPWORDS,
) -> list[CandidateSpan]:
    """Distinct 1..3-grams whose every token passes the stop/sentinel filter.

    Returned in first-occurrence order (a deterministic stand-in for set
    iteration); duplicates keep their earliest offset. n-grams never cross
    the title/body separator because the separator token is ineligible.
    """
    if not doc.tokens:
        raise DataError(f"document {doc.doc_id!r} has no tokens")
    ok = [_eligible(tok, stoplist) for tok in doc.tokens]
    seen: dict[tuple[str, ...], int] = {}
    n_tokens = len(doc.tokens)
    for i in range(n_tokens):
        if not ok[i]:
            continue
        for n in range(1, MAX_NGRAM + 1):
            if i + n > n_tokens or not all(ok[i : i + n]):
                break
            gram = tuple(doc.tokens[i : i + n])
            if gram not in seen:
                seen[gram] = i
    return [CandidateSpan(tokens=gram, first_occurrence=i) for gram, i in seen.items()]


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
    return _mine_docs([doc], index, thresholds, stoplist, max_spans)[0]


def _mine_shard(
    doc_list: list[TokenizedDoc],
    slots: list[int],
    index: BM25Index,
    thresholds: ThresholdFn,
    stoplist: frozenset[str] | set[str],
    n_shards: int,
    shard: int,
) -> list[tuple[int, tuple[str, ...], int]]:
    """Rank one shard of the distinct candidate queries of ``doc_list``.

    Candidates are grouped by distinct query across all documents, so a
    query shared by many documents is scored once. A query belongs to
    shard crc32(text) % n_shards, which every process computes alike.
    Returns (position, query, rank) for every source document, by input
    position, whose rank clears the threshold. A rank counts the
    documents scoring strictly higher; only the best ``threshold + 1``
    scores are ordered, so a rank past the threshold reads as
    threshold + 1 and is dropped.
    """
    sources: dict[tuple[str, ...], list[int]] = {}
    for pos, doc in enumerate(doc_list):
        for cand in candidates(doc, stoplist):
            if n_shards == 1 or zlib.crc32(" ".join(cand.tokens).encode()) % n_shards == shard:
                sources.setdefault(cand.tokens, []).append(pos)
    kept = []
    for query, positions in sources.items():
        limit = thresholds(len(query))
        scores = index.scores(Query(query))
        top = heapq.nlargest(limit + 1, scores.values())  # descending
        for pos in positions:
            rank = bisect_left(top, -scores.get(slots[pos], 0.0), key=neg)
            if rank <= limit:
                kept.append((pos, query, rank))
    return kept


def _mine_docs(
    doc_list: list[TokenizedDoc],
    index: BM25Index,
    thresholds: ThresholdFn,
    stoplist: frozenset[str] | set[str],
    max_spans: int | None,
    workers: int = 1,
) -> list[list[SalientSpan]]:
    """Salient spans of each input document, in input order.

    Results map back by input position, not slot, so a document passed
    twice gets two lists.
    """
    slots = [index.slot_of(doc.doc_id) for doc in doc_list]
    n_shards = max(workers, 1)
    shared = (doc_list, slots, index, thresholds, stoplist, n_shards)
    shards = map_shared(_mine_shard, shared, range(n_shards), n_shards)

    span_lists: list[list[SalientSpan]] = [[] for _ in doc_list]
    for kept in shards:
        for pos, query, rank in kept:
            span_lists[pos].append(SalientSpan(tokens=query, rank=rank))
    for spans in span_lists:
        spans.sort(key=lambda s: (s.rank, -s.length, s.tokens))
        if max_spans is not None:
            del spans[max_spans:]
    return span_lists


@dataclass(frozen=True)
class MiningSummary:
    docs_processed: int
    total_spans: int
    avg_spans_per_doc: float
    length_distribution: dict[int, float]


def length_distribution(length_counts: Mapping[int, int]) -> dict[int, float]:
    """Share of each span length 1..MAX_NGRAM in a length -> count map."""
    total = sum(length_counts.values())
    if total == 0:
        return {n: 0.0 for n in range(1, MAX_NGRAM + 1)}
    return {n: length_counts.get(n, 0) / total for n in range(1, MAX_NGRAM + 1)}


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
    span_lists = _mine_docs(doc_list, index, thresholds, stoplist, max_spans, workers)

    total_spans = 0
    length_counts: dict[int, int] = {}
    with open(out_path, "w", encoding="utf-8") as fh:
        for doc, spans in zip(doc_list, span_lists):
            record = {
                "id": doc.doc_id,
                "spans": [{"text": s.text, "rank": s.rank, "len": s.length} for s in spans],
            }
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")
            total_spans += len(spans)
            for s in spans:
                length_counts[s.length] = length_counts.get(s.length, 0) + 1
    n_docs = len(doc_list)
    return MiningSummary(
        docs_processed=n_docs,
        total_spans=total_spans,
        avg_spans_per_doc=total_spans / n_docs if n_docs else 0.0,
        length_distribution=length_distribution(length_counts),
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

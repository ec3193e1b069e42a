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
from collections.abc import Iterable, Mapping
from dataclasses import asdict, dataclass
from functools import partial
from json.encoder import encode_basestring as quote  # the escaper of json.dumps(ensure_ascii=False)
from itertools import compress
from operator import and_, neg
from typing import NamedTuple

from .bm25 import BM25Index, check_term
from .corpus import DIGIT_TOKEN, SEP_TOKEN, TokenizedDoc, read_lines, refuse_lone_surrogates, replacing
from .errors import DataError
from .pool import map_shared
from .stopwords import DEFAULT_STOPWORDS

logger = logging.getLogger(__name__)

MAX_NGRAM = 3
_TUNED_CORPUS_DOCS = 500_000  # size of the auxiliary corpus the default thresholds were tuned on


class CandidateSpan(NamedTuple):
    tokens: tuple[str, ...]
    first_occurrence: int


class SalientSpan(NamedTuple):
    tokens: tuple[str, ...]
    rank: int


@dataclass(frozen=True)
class ThresholdFn:
    """Maximum accepted rank per span length."""

    by_length: Mapping[int, int]

    def __post_init__(self):
        not_int = [n for n in self.by_length if type(n) is not int]  # 1.0 and True would pass as 1
        if not_int:
            raise DataError(f"threshold lengths must be integers, got {not_int}")
        missing = [n for n in range(1, MAX_NGRAM + 1) if n not in self.by_length]
        if missing:
            raise DataError(f"threshold map must cover lengths 1..{MAX_NGRAM}; missing {missing}")
        extra = sorted(n for n in self.by_length if not 1 <= n <= MAX_NGRAM)
        if extra:
            raise DataError(f"threshold map must cover only lengths 1..{MAX_NGRAM}; got {extra}")
        not_int = {n: v for n, v in self.by_length.items() if type(v) is not int}
        if not_int:
            raise DataError(f"thresholds must be integers, got {not_int}")
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
            n = int(length)
            if n in mapping:
                raise DataError(f"threshold spec {text!r} gives length {n} twice")
            mapping[n] = int(value)
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
            and any(map(str.isalnum, token))
        )
        return ok


class _Ownership(dict):
    """Token -> whether n-grams starting with it belong to ``shard`` of ``n_shards``.

    Ownership is crc32(token) % n_shards == shard, decided once per token.
    Equal n-grams have equal first tokens, so shards never share a query.
    """

    def __init__(self, n_shards: int, shard: int):
        super().__init__()
        self.n_shards = n_shards
        self.shard = shard

    def __missing__(self, token: str) -> bool:
        owned = self[token] = zlib.crc32(token.encode()) % self.n_shards == self.shard
        return owned


def candidates(
    doc: TokenizedDoc,
    stoplist: frozenset[str] | set[str] = DEFAULT_STOPWORDS,
) -> list[CandidateSpan]:
    """Distinct 1..3-grams whose every token passes the stop/sentinel filter.

    Returned in first-occurrence order (a deterministic stand-in for set
    iteration); duplicates keep their earliest offset. n-grams never cross
    the title/body separator because the separator token is ineligible.
    """
    tokens = tuple(doc.tokens)
    if not tokens:
        raise DataError(f"document {doc.doc_id!r} has no tokens")
    eligible = _Eligibility(stoplist)
    ok = [eligible[tok] for tok in tokens]
    seen: dict[tuple[str, ...], int] = {}
    for i in range(len(tokens)):
        for n in range(1, min(MAX_NGRAM, len(tokens) - i) + 1):
            if not ok[i + n - 1]:
                break
            seen.setdefault(tokens[i : i + n], i)
    return [CandidateSpan(tokens=gram, first_occurrence=i) for gram, i in seen.items()]


def _owned_ngrams(doc: TokenizedDoc, eligible: _Eligibility, owned: _Ownership | None) -> set[tuple[str, ...]]:
    """The queries of ``candidates(doc)`` whose first token ``owned`` holds; all of them without ``owned``.

    Built at C speed: one eligibility flag per token, then ``compress`` over
    the zipped 1-, 2- and 3-token windows whose every token is eligible.
    """
    tokens = doc.tokens
    if not tokens:
        raise DataError(f"document {doc.doc_id!r} has no tokens")
    ok = list(map(eligible.__getitem__, tokens))
    starts = ok if owned is None else list(map(and_, ok, map(owned.__getitem__, tokens)))
    pairs = list(map(and_, starts, ok[1:]))
    grams = set(compress(zip(tokens), starts))
    grams.update(compress(zip(tokens, tokens[1:]), pairs))
    grams.update(compress(zip(tokens, tokens[1:], tokens[2:]), map(and_, pairs, ok[2:])))
    return grams


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
    query shared by many documents is scored once: ``first`` maps every
    query to the position of its first source, and ``more`` holds all the
    positions of only the queries with several sources. A query belongs to the
    shard that owns its first token (``_Ownership``), so a shard slices only
    its own n-grams, and every process decides alike. Each document's
    n-grams come as one set (``_owned_ngrams``), so queries are met in an
    order that follows the string hash; nothing depends on it, as every
    record is sorted on a total key and every score sums in query order.
    ``weights`` is the shard's memo: each of its terms is weighed once, and
    freed on return.
    Returns (position, query, rank) for every source document, by input
    position, whose rank clears the threshold, then the number of
    distinct queries and of documents fully scored.

    A rank counts the documents scoring strictly higher. A query with one
    source reads ``floor`` from that source's slot and counts the scores
    above it in the pass that computes them, keeping no list. One with
    several orders only its best ``threshold + 1`` scores, so a rank past
    the threshold reads as threshold + 1 and is dropped.

    The kernel is written out per query length. A document's score sums
    its terms' weights in query order, bitwise as BM25Index.scores() does.
    Only documents that may outscore the weakest source, ``floor``, are
    scored (MaxScore): query terms turn non-essential in ascending order of
    their largest weight, ties by query position, while those largest
    weights, summed in query order, stay at or below ``floor``. Weights are
    non-negative and float addition is monotone, so a document that holds
    only non-essential terms scores at most that sum and cannot outscore a
    source. Every document of an essential term is scored in full.

    Most queries keep one essential term, whose own weights are walked as
    ``(slot, w)`` items, so only the other terms are looked up. A bigram
    scores ``w + o``, bitwise ``a + b`` because one float addition
    commutes. A trigram keeps ``(a + b) + c``: ``(a + b) + w`` when c is
    essential, and ``(w + o) + c`` when a or b is, whose inner addition
    commutes alike. With two or three essential terms, the union of their
    slots is scored in query order.
    """
    eligible = _Eligibility(stoplist)
    owned = _Ownership(n_shards, shard) if n_shards > 1 else None
    first: dict[tuple[str, ...], int] = {}  # every query -> its first source's position
    more: dict[tuple[str, ...], list[int]] = {}  # a query with several sources -> their positions, ascending
    for pos, doc in enumerate(doc_list):
        for gram in _owned_ngrams(doc, eligible, owned):
            seen = first.setdefault(gram, pos)
            if seen != pos:
                more.setdefault(gram, [seen]).append(pos)
    for token, ok in eligible.items():  # each eligible token is also a query term
        if ok:
            check_term(token)
    weights = {}
    for token in {token for query in first for token in query}:  # this shard's terms only
        by_slot, max_weight = index.term_weights(token)
        weights[token] = by_slot, by_slot.get, max_weight
    limits = [thresholds.by_length.get(n) for n in range(MAX_NGRAM + 1)]  # by query length
    kept = []
    docs_scored = 0
    for query, pos in first.items():
        positions = more.get(query)  # None: pos is the only source
        if len(query) == 1:
            by_a, get_a, max_a = weights[query[0]]
            if positions is None:
                floor = get_a(slots[pos], 0.0)
            else:
                scores = [get_a(slots[p], 0.0) for p in positions]
                floor = min(scores)
            keys = by_a.values() if max_a > floor else ()
            if positions is None:
                rank = len([1 for a in keys if a > floor])
            else:
                totals = keys
        elif len(query) == 2:
            (by_a, get_a, max_a), (by_b, get_b, max_b) = weights[query[0]], weights[query[1]]
            if positions is None:
                slot = slots[pos]
                floor = get_a(slot, 0.0) + get_b(slot, 0.0)
            else:
                scores = [get_a(slots[p], 0.0) + get_b(slots[p], 0.0) for p in positions]
                floor = min(scores)
            if min(max_a, max_b) > floor:
                keys = by_a.keys() | by_b.keys()
                if positions is None:
                    rank = len([1 for s in keys if get_a(s, 0.0) + get_b(s, 0.0) > floor])
                else:
                    totals = [get_a(s, 0.0) + get_b(s, 0.0) for s in keys]
            else:  # one essential term, or none; ties make the lower query position non-essential first
                keys, get_o = (by_b, get_a) if max_a <= max_b else (by_a, get_b)
                if max_a + max_b <= floor:
                    keys = {}
                if positions is None:  # w + o is bitwise a + b: one float addition commutes
                    rank = len([1 for s, w in keys.items() if w + get_o(s, 0.0) > floor])
                else:
                    totals = [w + get_o(s, 0.0) for s, w in keys.items()]
        else:
            terms = weights[query[0]], weights[query[1]], weights[query[2]]
            (by_a, get_a, max_a), (by_b, get_b, max_b), (by_c, get_c, max_c) = terms
            if positions is None:
                slot = slots[pos]
                floor = get_a(slot, 0.0) + get_b(slot, 0.0) + get_c(slot, 0.0)
            else:
                scores = [get_a(slots[p], 0.0) + get_b(slots[p], 0.0) + get_c(slots[p], 0.0) for p in positions]
                floor = min(scores)
            maxes = max_a, max_b, max_c
            single = None  # the query position of the only essential term, if one is
            if max_a + max_b + max_c <= floor:
                keys = ()
            elif min(maxes) > floor:
                keys = by_a.keys() | by_b.keys() | by_c.keys()
            else:  # i turns non-essential first (lower position on ties), k last (higher position)
                i, k = maxes.index(min(maxes)), 2 - maxes[::-1].index(max(maxes))
                if (max_b + max_c, max_a + max_c, max_a + max_b)[k] > floor:  # all but k, in query order
                    keys = terms[3 - i - k][0].keys() | terms[k][0].keys()
                else:
                    single, keys = k, terms[k][0]
            if single is None:  # score the union
                if positions is None:
                    rank = len([1 for s in keys if get_a(s, 0.0) + get_b(s, 0.0) + get_c(s, 0.0) > floor])
                else:
                    totals = [get_a(s, 0.0) + get_b(s, 0.0) + get_c(s, 0.0) for s in keys]
            elif single == 2:  # (a + b) + w, as in query order
                if positions is None:
                    rank = len([1 for s, w in keys.items() if get_a(s, 0.0) + get_b(s, 0.0) + w > floor])
                else:
                    totals = [get_a(s, 0.0) + get_b(s, 0.0) + w for s, w in keys.items()]
            else:  # (w + o) + c is bitwise (a + b) + c: the inner addition commutes
                get_o = get_b if single == 0 else get_a
                if positions is None:
                    rank = len([1 for s, w in keys.items() if w + get_o(s, 0.0) + get_c(s, 0.0) > floor])
                else:
                    totals = [w + get_o(s, 0.0) + get_c(s, 0.0) for s, w in keys.items()]
        docs_scored += len(keys)
        limit = limits[len(query)]
        if positions is None:
            if rank <= limit:
                kept.append((pos, query, rank))
        else:
            top = heapq.nlargest(limit + 1, totals)  # descending
            for p, score in zip(positions, scores):
                rank = bisect_left(top, -score, key=neg)
                if rank <= limit:
                    kept.append((p, query, rank))
    return kept, len(first), docs_scored


@dataclass(frozen=True)
class MiningSummary:
    docs_processed: int
    total_spans: int
    avg_spans_per_doc: float
    length_distribution: dict[int, float]
    distinct_queries: int  # candidate n-grams ranked, each once
    docs_scored: int  # documents fully scored over all queries, after pruning

    to_dict = asdict  # field names are the JSON keys, in output order


def length_mix(lengths: Iterable[int]) -> tuple[int, dict[int, float]]:
    """Number of span ``lengths`` and the share of each length 1..MAX_NGRAM."""
    counts = Counter(lengths)
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
    documents with no passing spans still get a record. Each line is
    formatted from that schema, byte for byte what json.dumps(record,
    ensure_ascii=False) writes, without building the record. Spans go rank
    ascending, ties longer first, then lexicographically; ``max_spans``
    optionally caps each list after sorting. Results map back by input
    position, not slot, so a document passed twice gets two records.
    Output is byte identical for identical inputs regardless of
    ``workers``, which shard the distinct queries. The file is written
    whole, so a failed write leaves any previous ``out_path`` as it was.
    """
    if max_spans is not None and max_spans < 0:
        raise DataError(f"max_spans must be >= 0, got {max_spans}")
    doc_list = list(docs)
    slots = [index.slot_of(doc.doc_id) for doc in doc_list]
    n_shards = max(workers, 1)
    shard_fn = partial(_mine_shard, doc_list, slots, index, thresholds, stoplist, n_shards)
    shards = map_shared(shard_fn, range(n_shards), n_shards)

    # (rank, -length, tokens) per kept span: the record order, sorted natively.
    span_lists: list[list[tuple[int, int, tuple[str, ...]]]] = [[] for _ in doc_list]
    distinct_queries = docs_scored = 0
    for kept, n_queries, n_scored in shards:
        distinct_queries += n_queries
        docs_scored += n_scored
        for pos, query, rank in kept:
            span_lists[pos].append((rank, -len(query), query))
    with replacing(out_path) as fh:
        for doc, spans in zip(doc_list, span_lists):
            spans.sort()
            if max_spans is not None:
                del spans[max_spans:]
            items = ", ".join(
                f'{{"text": {quote(" ".join(query))}, "rank": {rank}, "len": {-neg_len}}}'
                for rank, neg_len, query in spans
            )
            fh.write(f'{{"id": {quote(doc.doc_id)}, "spans": [{items}]}}\n')
    total_spans, mix = length_mix(-neg_len for spans in span_lists for _, neg_len, _ in spans)
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
        if "\\" in line and "\\u" in line:  # as in load_corpus: most lines hold no "\\"
            refuse_lone_surrogates(where, [("id", doc_id), *(("text", item["text"]) for item in record["spans"])])
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
    items = record.get("spans")
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
        spans.append(SalientSpan(tokens, rank))
    return doc_id, spans

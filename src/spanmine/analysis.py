"""Diagnostics relating salient spans to gold keyphrases.

Two studies: can a document's present keyphrases retrieve it from the
pooled index (success rate by keyphrase length), and how much do mined spans
overlap with present keyphrases (phrase/word recall, word precision).
``span_characteristics`` (spans per document, length mix) is not a study:
``mine`` reports those numbers for the file it writes, and the function
stays only because the benchmark in ``bench/`` times it.

Overlap matching is done on stemmed tokens, consistent with evaluation;
per-document proportions are macro-averaged over documents that have a
nonzero denominator. "Overall" rows pool all lengths before measuring
rather than averaging the per-length cells.
"""

from __future__ import annotations

import logging
from collections.abc import Mapping, Sequence
from dataclasses import asdict, dataclass

from .bm25 import BM25Index
from .corpus import Document
from .errors import DataError
from .evaluation import StemMemo, gold_split
from .miner import MAX_NGRAM, SalientSpan, length_mix

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class SuccessReport:
    top_k: int
    success_rate_by_length: dict[int, float]
    success_rate_overall: float
    keyphrases_by_length: dict[int, int]
    total_keyphrases: int
    documents: int

    to_dict = asdict  # field names are the JSON keys, in output order


@dataclass(frozen=True)
class OverlapCell:
    phrase_recall: float
    word_recall: float
    word_precision: float


@dataclass(frozen=True)
class OverlapReport:
    by_length: dict[int, OverlapCell]
    overall: OverlapCell
    documents: int

    to_dict = asdict


@dataclass(frozen=True)
class SpanStats:
    documents: int
    total_spans: int
    avg_spans_per_doc: float
    length_distribution: dict[int, float]

    to_dict = asdict


def retrieval_success(
    gold_docs: Sequence[Document],
    index: BM25Index,
    k: int = 1000,
) -> SuccessReport:
    """Fraction of present keyphrases that retrieve their document top-k.

    A keyphrase retrieves its document when the document scores above 0
    and fewer than k documents precede it by score, descending, with ties
    going to the lower slot. Rates pool every (document, present
    keyphrase) pair; the by-length buckets cover lengths 1..3 and the
    overall rate includes longer phrases too.
    """
    if k < 1:
        raise DataError(f"k must be >= 1, got {k}")
    hits: dict[int, int] = {n: 0 for n in range(1, MAX_NGRAM + 1)}
    counts: dict[int, int] = {n: 0 for n in range(1, MAX_NGRAM + 1)}
    total = 0
    total_hits = 0
    stems = StemMemo()
    for doc in gold_docs:
        _, present, _ = gold_split(doc, stems)
        slot = index.slot_of(doc.id)
        for phrase in present:
            total += 1
            sparse = index.scores(phrase.tokens)
            own = sparse.get(slot, 0.0)
            hit = own > 0.0 and sum(s > own or (s == own and ref < slot) for ref, s in sparse.items()) < k
            total_hits += hit
            n = len(phrase.tokens)
            if n in counts:
                counts[n] += 1
                hits[n] += hit
    return SuccessReport(
        top_k=k,
        success_rate_by_length={n: (hits[n] / counts[n] if counts[n] else 0.0) for n in counts},
        success_rate_overall=total_hits / total if total else 0.0,
        keyphrases_by_length=counts,
        total_keyphrases=total,
        documents=len(gold_docs),
    )


def _overlap_cell(per_doc: list[tuple[float | None, float | None, float | None]]) -> OverlapCell:
    def mean(values: list[float]) -> float:
        return sum(values) / len(values) if values else 0.0

    return OverlapCell(
        phrase_recall=mean([pr for pr, _, _ in per_doc if pr is not None]),
        word_recall=mean([wr for _, wr, _ in per_doc if wr is not None]),
        word_precision=mean([wp for _, _, wp in per_doc if wp is not None]),
    )


def _doc_overlap(
    present_stemmed: list[tuple[str, ...]],
    all_gold_stemmed: list[tuple[str, ...]],
    span_stemmed: list[tuple[str, ...]],
) -> tuple[float | None, float | None, float | None]:
    """(phrase_recall, word_recall, word_precision); None when undefined."""
    span_set = set(span_stemmed)
    span_words = {w for s in span_stemmed for w in s}
    kp_words = {w for p in present_stemmed for w in p}
    all_gold_words = {w for p in all_gold_stemmed for w in p}
    phrase_recall = (
        sum(1 for p in set(present_stemmed) if p in span_set) / len(set(present_stemmed))
        if present_stemmed
        else None
    )
    word_recall = (
        sum(1 for w in kp_words if w in span_words) / len(kp_words) if kp_words else None
    )
    word_precision = (
        sum(1 for w in span_words if w in all_gold_words) / len(span_words)
        if span_words
        else None
    )
    return phrase_recall, word_recall, word_precision


def overlap_metrics(
    gold_docs: Sequence[Document],
    spans_by_id: Mapping[str, list[SalientSpan]],
) -> OverlapReport:
    """Stemmed overlap between mined spans and gold keyphrases.

    The "len n" cells restrict both keyphrases and spans to length n; the
    overall cell uses everything at once.
    """
    overall_rows: list[tuple] = []
    length_rows: dict[int, list[tuple]] = {n: [] for n in range(1, MAX_NGRAM + 1)}
    stems = StemMemo()
    for doc in gold_docs:
        _, present, absent = gold_split(doc, stems)
        if doc.id not in spans_by_id:
            raise DataError(f"spans file has no entry for document {doc.id!r}")
        present_stemmed = [p.stems for p in present]
        all_gold_stemmed = [p.stems for p in present + absent]
        span_stemmed = [stems.phrase(s.tokens) for s in spans_by_id[doc.id]]
        overall_rows.append(_doc_overlap(present_stemmed, all_gold_stemmed, span_stemmed))
        for n in length_rows:
            length_rows[n].append(
                _doc_overlap(
                    [p for p in present_stemmed if len(p) == n],
                    [p for p in all_gold_stemmed if len(p) == n],
                    [s for s in span_stemmed if len(s) == n],
                )
            )
    return OverlapReport(
        by_length={n: _overlap_cell(rows) for n, rows in length_rows.items()},
        overall=_overlap_cell(overall_rows),
        documents=len(gold_docs),
    )


def span_characteristics(spans_by_id: Mapping[str, list[SalientSpan]]) -> SpanStats:
    """Spans per document (empty documents included) and the length mix."""
    n_docs = len(spans_by_id)
    total, mix = length_mix(len(span.tokens) for spans in spans_by_id.values() for span in spans)
    return SpanStats(
        documents=n_docs,
        total_spans=total,
        avg_spans_per_doc=total / n_docs if n_docs else 0.0,
        length_distribution=mix,
    )

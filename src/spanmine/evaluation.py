"""Keyphrase scoring: stemmed matching, present/absent split, F1@5 / F1@M.

A phrase counts as present when its stemmed token sequence occurs
contiguously in the stemmed document tokens. Predictions and gold are
both split this way, then present predictions score against present gold
and absent against absent. Matching is exact stemmed-sequence equality.

Each top-level call that stems owns one StemMemo, so a distinct token is
stemmed once per call and each document once for both of its splits.

F1@M scores all (deduplicated) predictions; F1@k keeps the first k and
divides precision by k even when fewer predictions exist, mirroring the
convention of the evaluation scripts this protocol follows.
"""

from __future__ import annotations

import json
import logging
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

from .corpus import Document, contains, model_input, normalize, read_lines, tokenize
from .errors import AlignmentError, DataError
from .porter import stem

logger = logging.getLogger(__name__)

REPORT_SCHEMA_VERSION = 1


def stem_phrase(phrase: Sequence[str]) -> tuple[str, ...]:
    """Porter-stem every token of a phrase (uncached)."""
    return tuple(stem(token) for token in phrase)


class StemMemo(dict):
    """Token -> Porter stem, computed on first lookup.

    Make one per top-level call and let it go when the call returns: it
    grows with the call's distinct tokens and is never shared.
    """

    def __missing__(self, token: str) -> str:
        stemmed = self[token] = stem(token)
        return stemmed

    def phrase(self, tokens: Iterable[str]) -> tuple[str, ...]:
        """The stems of ``tokens``, in order."""
        return tuple(map(self.__getitem__, tokens))


@dataclass(frozen=True)
class KeyphraseSet:
    """Phrases in generation order with their stemmed forms in parallel."""

    phrases: tuple[tuple[str, ...], ...]
    stemmed: tuple[tuple[str, ...], ...]

    def __post_init__(self):
        if len(self.phrases) != len(self.stemmed):
            raise ValueError("phrases and stemmed views must stay parallel")

    def __len__(self) -> int:
        return len(self.phrases)

    def deduped(self) -> list[tuple[str, ...]]:
        """Stemmed phrases with later duplicates removed, order preserved."""
        out: list[tuple[str, ...]] = []
        seen: set[tuple[str, ...]] = set()
        for phrase in self.stemmed:
            if phrase not in seen:
                seen.add(phrase)
                out.append(phrase)
        return out


def keyphrase_set(raw_phrases: Iterable[str], stems: StemMemo | None = None) -> KeyphraseSet:
    """Tokenize and stem raw phrase strings, dropping empties."""
    stems = StemMemo() if stems is None else stems
    phrases = []
    for raw in raw_phrases:
        tokens = tuple(tokenize(normalize(raw)))
        if tokens:
            phrases.append(tokens)
    return KeyphraseSet(
        phrases=tuple(phrases),
        stemmed=tuple(stems.phrase(p) for p in phrases),
    )


def parse_predictions(line: str, sep: str = ";", stems: StemMemo | None = None) -> KeyphraseSet:
    """Split one generated line on the separator into a KeyphraseSet."""
    return keyphrase_set((part for part in line.split(sep) if part.strip()), stems)


def split_present_absent(
    phrases: KeyphraseSet, doc_stemmed: tuple[str, ...]
) -> tuple[KeyphraseSet, KeyphraseSet]:
    """Partition phrases by contiguous occurrence in the stemmed document tokens."""
    present = [contains(doc_stemmed, p) for p in phrases.stemmed]

    def pick(keep: bool) -> KeyphraseSet:
        return KeyphraseSet(
            phrases=tuple(p for p, hit in zip(phrases.phrases, present) if hit is keep),
            stemmed=tuple(p for p, hit in zip(phrases.stemmed, present) if hit is keep),
        )

    return pick(True), pick(False)


@dataclass(frozen=True)
class MetricScores:
    precision: float
    recall: float
    f1: float
    num_preds: int
    num_gold: int
    num_matches: int


def _match(preds: list[tuple[str, ...]], gold: KeyphraseSet, denominator: int) -> MetricScores:
    """Score deduplicated ``preds`` against ``gold``; precision divides by ``denominator``."""
    gold_dedup = gold.deduped()
    if not gold_dedup:
        raise DataError("empty gold set; skip this document for the category instead")
    gold_lookup = set(gold_dedup)
    matches = sum(1 for p in preds if p in gold_lookup)
    precision = matches / denominator if denominator else 0.0
    recall = matches / len(gold_dedup)
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return MetricScores(precision, recall, f1, len(preds), len(gold_dedup), matches)


def f1_at_m(preds: KeyphraseSet, gold: KeyphraseSet) -> MetricScores:
    """Precision/recall/F1 over all deduplicated predictions."""
    dedup = preds.deduped()
    return _match(dedup, gold, len(dedup))


def f1_at_k(preds: KeyphraseSet, gold: KeyphraseSet, k: int = 5) -> MetricScores:
    """Precision/recall/F1 over the first k deduplicated predictions.

    With fewer than k predictions the precision denominator stays k.
    """
    if k < 1:
        raise DataError(f"k must be >= 1, got {k}")
    return _match(preds.deduped()[:k], gold, k)


@dataclass(frozen=True)
class DocScores:
    doc_id: str
    at_k: MetricScores
    at_m: MetricScores


@dataclass
class CategoryReport:
    """Macro-averaged scores for one category (present or absent)."""

    f1_at_k: float = 0.0
    f1_at_m: float = 0.0
    precision_at_k: float = 0.0
    recall_at_k: float = 0.0
    precision_at_m: float = 0.0
    recall_at_m: float = 0.0
    docs_scored: int = 0
    docs_skipped: int = 0
    per_doc: list[DocScores] = field(default_factory=list)

    def add(self, doc_id: str, at_k: MetricScores, at_m: MetricScores) -> None:
        self.per_doc.append(DocScores(doc_id, at_k, at_m))

    def finalize(self) -> None:
        n = len(self.per_doc)
        self.docs_scored = n
        if not n:
            return
        self.f1_at_k = sum(d.at_k.f1 for d in self.per_doc) / n
        self.f1_at_m = sum(d.at_m.f1 for d in self.per_doc) / n
        self.precision_at_k = sum(d.at_k.precision for d in self.per_doc) / n
        self.recall_at_k = sum(d.at_k.recall for d in self.per_doc) / n
        self.precision_at_m = sum(d.at_m.precision for d in self.per_doc) / n
        self.recall_at_m = sum(d.at_m.recall for d in self.per_doc) / n


@dataclass
class EvalReport:
    k: int
    num_docs: int
    present: CategoryReport
    absent: CategoryReport

    def to_dict(self, include_per_doc: bool = True) -> dict:
        def cat(report: CategoryReport) -> dict:
            out = {
                f"f1_at_{self.k}": report.f1_at_k,
                "f1_at_m": report.f1_at_m,
                f"precision_at_{self.k}": report.precision_at_k,
                f"recall_at_{self.k}": report.recall_at_k,
                "precision_at_m": report.precision_at_m,
                "recall_at_m": report.recall_at_m,
                "docs_scored": report.docs_scored,
                "docs_skipped": report.docs_skipped,
            }
            if include_per_doc:
                out["per_doc"] = [
                    {
                        "id": d.doc_id,
                        f"at_{self.k}": vars(d.at_k).copy(),
                        "at_m": vars(d.at_m).copy(),
                    }
                    for d in report.per_doc
                ]
            return out

        return {
            "schema_version": REPORT_SCHEMA_VERSION,
            "k": self.k,
            "num_docs": self.num_docs,
            "present": cat(self.present),
            "absent": cat(self.absent),
        }


def evaluate(
    predictions: Sequence[str],
    gold_docs: Sequence[Document],
    sep: str = ";",
    k: int = 5,
) -> EvalReport:
    """Score prediction lines against gold documents, aligned by order.

    Documents with no gold phrases in a category are skipped for that
    category's macro average rather than scored zero.
    """
    if len(predictions) != len(gold_docs):
        raise AlignmentError(
            f"{len(predictions)} prediction lines vs {len(gold_docs)} gold documents"
        )
    present_report = CategoryReport()
    absent_report = CategoryReport()
    stems = StemMemo()
    for line, doc in zip(predictions, gold_docs):
        if doc.keyphrases is None:
            raise DataError(f"gold document {doc.id!r} has no keyphrases")
        doc_stemmed = stems.phrase(model_input(doc, max_tokens=None).tokens)
        preds = parse_predictions(line, sep, stems)
        gold = keyphrase_set(doc.keyphrases, stems)
        pred_present, pred_absent = split_present_absent(preds, doc_stemmed)
        gold_present, gold_absent = split_present_absent(gold, doc_stemmed)
        for report, pred_cat, gold_cat in (
            (present_report, pred_present, gold_present),
            (absent_report, pred_absent, gold_absent),
        ):
            if not len(gold_cat):
                report.docs_skipped += 1
                continue
            report.add(doc.id, f1_at_k(pred_cat, gold_cat, k), f1_at_m(pred_cat, gold_cat))
    present_report.finalize()
    absent_report.finalize()
    return EvalReport(
        k=k,
        num_docs=len(gold_docs),
        present=present_report,
        absent=absent_report,
    )


def evaluate_file(
    preds_path,
    gold_docs: Sequence[Document],
    sep: str = ";",
    k: int = 5,
    report_path=None,
) -> EvalReport:
    """Evaluate a one-line-per-document predictions file; optionally write JSON."""
    predictions = [line.rstrip("\n") for _, line in read_lines(preds_path)]
    while predictions and not predictions[-1].strip():
        predictions.pop()
    report = evaluate(predictions, gold_docs, sep=sep, k=k)
    if report_path is not None:
        with open(report_path, "w", encoding="utf-8") as fh:
            json.dump(report.to_dict(), fh, indent=2)
            fh.write("\n")
    return report

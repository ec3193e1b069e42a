"""Keyphrase scoring: stemmed matching, present/absent split, F1@5 / F1@M.

A phrase counts as present when its stemmed token sequence occurs
contiguously in the stemmed document tokens. Predictions and gold are
both split this way, then present predictions score against present gold
and absent against absent. Matching is exact stemmed-sequence equality.

``gold_split`` owns the gold side of that split: it stems the untruncated
``title <sep> body`` and splits the gold phrases against it, and every
labeled-data stage (``stats``, ``eval`` and the ``success`` and
``overlap`` studies) decides presence only through it.

Each top-level call that stems owns one StemMemo, so a distinct token is
stemmed once per call and each document once for both of its splits.

F1@M scores all (deduplicated) predictions; F1@k keeps the first k and
divides precision by k even when fewer predictions exist, mirroring the
convention of the evaluation scripts this protocol follows.
"""

from __future__ import annotations

import logging
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as quote  # the escaper of json.dumps(ensure_ascii=True)
from typing import NamedTuple

from .corpus import Document, contains, model_input, read_lines, refuse_non_finite, replacing, text_tokens
from .errors import DataError
from .porter import stem

logger = logging.getLogger(__name__)

REPORT_SCHEMA_VERSION = 1


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


class Phrase(NamedTuple):
    """A keyphrase: its tokens, and their stems in order."""

    tokens: tuple[str, ...]
    stems: tuple[str, ...]


def keyphrase_set(raw_phrases: Iterable[str], stems: StemMemo | None = None) -> tuple[Phrase, ...]:
    """Tokenize and stem raw phrase strings, in order, dropping empties."""
    stems = StemMemo() if stems is None else stems
    tokenized = (tuple(text_tokens(raw)) for raw in raw_phrases)
    return tuple(Phrase(tokens, stems.phrase(tokens)) for tokens in tokenized if tokens)


def parse_predictions(line: str, sep: str = ";", stems: StemMemo | None = None) -> tuple[Phrase, ...]:
    """Split one generated line on the separator into its phrases."""
    return keyphrase_set((part for part in line.split(sep) if part.strip()), stems)


def split_present_absent(
    phrases: Sequence[Phrase], doc_stemmed: tuple[str, ...]
) -> tuple[tuple[Phrase, ...], tuple[Phrase, ...]]:
    """Partition phrases, in order, by contiguous occurrence of their stems in the document's."""
    present = tuple(p for p in phrases if contains(doc_stemmed, p.stems))
    # equal phrases have equal stems, so a phrase equal to a present one is present
    return present, tuple(p for p in phrases if p not in present)


def gold_split(doc: Document, stems: StemMemo) -> tuple[tuple[str, ...], tuple[Phrase, ...], tuple[Phrase, ...]]:
    """``(document stems, present gold, absent gold)`` of a labeled document.

    This is the one rule for "labeled": ``keyphrases is None`` raises
    ``DataError``, while an empty tuple is a labeled document with no gold
    phrases. The document is the untruncated ``title <sep> body``, so a
    phrase past any model window still counts as present. ``present +
    absent`` holds every gold phrase.
    """
    if doc.keyphrases is None:
        raise DataError(f"document {doc.id!r} is unlabeled: it has no keyphrases field")
    doc_stemmed = stems.phrase(model_input(doc, max_tokens=None).tokens)
    return (doc_stemmed, *split_present_absent(keyphrase_set(doc.keyphrases, stems), doc_stemmed))


class MetricScores(NamedTuple):
    precision: float
    recall: float
    f1: float
    num_preds: int
    num_gold: int
    num_matches: int


def _match(preds: list[tuple[str, ...]], gold: set[tuple[str, ...]], denominator: int) -> MetricScores:
    """Score deduplicated stemmed ``preds`` against the distinct stemmed ``gold`` phrases, which are not empty.

    Precision divides by ``denominator``.
    """
    matches = len(gold.intersection(preds))  # preds hold no duplicates
    precision = matches / denominator if denominator else 0.0
    recall = matches / len(gold)
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return MetricScores(precision, recall, f1, len(preds), len(gold), matches)


class DocScores(NamedTuple):
    doc_id: str
    at_k: MetricScores
    at_m: MetricScores


@dataclass
class CategoryReport:
    """The scored documents of one category (present or absent); ``EvalReport.to_dict`` averages them."""

    docs_skipped: int = 0
    per_doc: list[DocScores] = field(default_factory=list)


@dataclass
class EvalReport:
    k: int
    num_docs: int
    present: CategoryReport
    absent: CategoryReport

    def to_dict(self) -> dict:
        """The header and each category's means and counts, as ``spanmine eval`` prints them; no ``per_doc`` rows."""

        def cat(report: CategoryReport) -> dict:
            rows = report.per_doc
            n = len(rows)

            def mean(values) -> float:
                return sum(values) / n if n else 0.0

            return {
                f"f1_at_{self.k}": mean(d.at_k.f1 for d in rows),
                "f1_at_m": mean(d.at_m.f1 for d in rows),
                f"precision_at_{self.k}": mean(d.at_k.precision for d in rows),
                f"recall_at_{self.k}": mean(d.at_k.recall for d in rows),
                "precision_at_m": mean(d.at_m.precision for d in rows),
                "recall_at_m": mean(d.at_m.recall for d in rows),
                "docs_scored": n,
                "docs_skipped": report.docs_skipped,
            }

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
    if not sep:
        raise DataError("the prediction separator must not be empty")
    if k < 1:
        raise DataError(f"k must be >= 1, got {k}")
    if len(predictions) != len(gold_docs):
        raise DataError(f"{len(predictions)} prediction lines vs {len(gold_docs)} gold documents")
    present_report = CategoryReport()
    absent_report = CategoryReport()
    stems = StemMemo()
    for line, doc in zip(predictions, gold_docs):
        doc_stemmed, gold_present, gold_absent = gold_split(doc, stems)
        pred_present, pred_absent = split_present_absent(parse_predictions(line, sep, stems), doc_stemmed)
        for report, pred_cat, gold_cat in (
            (present_report, pred_present, gold_present),
            (absent_report, pred_absent, gold_absent),
        ):
            if not gold_cat:
                report.docs_skipped += 1
                continue
            # F1@k scores the first k distinct stemmed predictions, F1@M all of them
            preds = list(dict.fromkeys(p.stems for p in pred_cat))
            gold_set = {p.stems for p in gold_cat}
            report.per_doc.append(DocScores(doc.id, _match(preds[:k], gold_set, k), _match(preds, gold_set, len(preds))))
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
    """Evaluate a one-line-per-document predictions file; optionally write the JSON report.

    The report at ``report_path`` is ``report.to_dict()`` with each
    category's ``per_doc`` rows added, formatted from that fixed schema: its
    bytes are identical to what ``json.dump(record, fh, indent=2)`` and a
    newline write. A NaN or infinity anywhere in it raises DataError before
    anything is written. Trailing blank lines are dropped only past the
    last gold document, so a blank last line still predicts nothing for it.
    """
    predictions = [line.rstrip("\n") for _, line in read_lines(preds_path)]
    while len(predictions) > len(gold_docs) and not predictions[-1].strip():
        predictions.pop()
    report = evaluate(predictions, gold_docs, sep=sep, k=k)
    if report_path is not None:
        _write_report(report, report_path)
    return report


# One score object of a per_doc row, as json.dumps(indent=2) lays it out at
# its depth: the MetricScores fields in declaration order.
_SCORES = "{\n" + ",\n".join(f'          "{name}": %r' for name in MetricScores._fields) + "\n        }"


def _write_report(report: EvalReport, path) -> None:
    """Write ``report.to_dict()`` and the ``per_doc`` rows to ``path`` as ``json.dumps(indent=2)`` and a newline.

    Each category is the summary's means and counts (written in its key
    order), then a ``per_doc`` list of one ``{"id", "at_<k>", "at_m"}``
    object per scored document, each score object the ``MetricScores``
    fields. Ids are escaped as ``ensure_ascii`` escapes them, floats and
    ints are written by their ``repr``, and each row is one write. The
    summary and every row are checked as ``write_json`` checks a record, so
    a NaN or infinity raises DataError before ``path`` is opened. The file
    is written whole.
    """
    summary = report.to_dict()
    categories = {"present": report.present.per_doc, "absent": report.absent.per_doc}
    refuse_non_finite([summary, *categories.values()], f"report {path}")
    with replacing(path) as fh:
        fh.write(
            f'{{\n  "schema_version": {summary["schema_version"]!r},\n  "k": {summary["k"]!r},'
            f'\n  "num_docs": {summary["num_docs"]!r}'
        )
        for name, rows in categories.items():
            fh.write(f',\n  "{name}": {{\n')
            fh.write("".join(f'    "{key}": {value!r},\n' for key, value in summary[name].items()))
            if not rows:
                fh.write('    "per_doc": []\n  }')
                continue
            fh.write('    "per_doc": [')
            lead = "\n"
            for d in rows:
                fh.write(
                    f'{lead}      {{\n        "id": {quote(d.doc_id)},'
                    f'\n        "at_{report.k}": {_SCORES % d.at_k},'
                    f'\n        "at_m": {_SCORES % d.at_m}\n      }}'
                )
                lead = ",\n"
            fh.write("\n    ]\n  }")
        fh.write("\n}\n")

"""Build (source, target) training pairs under six denoising objectives.

Span-driven objectives (ssr-m, ssr-d, ssp-m, ssp-d) corrupt every located
occurrence of a salient span with probability k_s and every token outside
those occurrences with probability k_o; -m variants replace each marked
interval with a single mask token, -d variants delete it. Baselines: ti
masks random Poisson-length spans, tg strips the title and predicts it.

All randomness comes from an RNG keyed by (seed, doc_id), so output is
reproducible per document no matter the processing order or worker count.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import random
from collections import defaultdict
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field

from .corpus import TokenizedDoc
from .errors import DataError, SkipDocument
from .miner import SalientSpan
from .pool import map_shared

logger = logging.getLogger(__name__)

SPAN_OBJECTIVES = ("ssr-m", "ssr-d", "ssp-m", "ssp-d")  # the objectives that need mined spans
OBJECTIVES = (*SPAN_OBJECTIVES, "ti", "tg")
_MASK_OBJECTIVES = frozenset({"ssr-m", "ssp-m", "ti"})  # sources that carry mask tokens

_SSP_SEP = ";"  # joins the spans of an ssp target
_TI_MASK_BUDGET = 0.3  # share of a document's tokens that ti masks

# Interval: half-open [start, end) over token positions. A zero-length
# interval marks a bare-mask insertion point (ti only).
Interval = tuple[int, int]


@dataclass(frozen=True)
class CorruptionConfig:
    objective: str
    k_s: float = 0.4
    k_o: float = 0.2
    mask_token: str = "<mask>"
    poisson_lambda: float = 3.0
    seed: int = 0

    def __post_init__(self):
        if self.objective not in OBJECTIVES:
            raise DataError(f"unknown objective {self.objective!r}; choose from {OBJECTIVES}")
        if not 0.0 <= self.k_s <= 1.0 or not 0.0 <= self.k_o <= 1.0:
            raise DataError(f"k_s and k_o must be probabilities, got {self.k_s}, {self.k_o}")
        if self.poisson_lambda <= 0:
            raise DataError(f"poisson_lambda must be > 0, got {self.poisson_lambda}")
        if not self.mask_token:
            raise DataError("mask_token must be nonempty")


@dataclass(frozen=True)
class CorruptionExample:
    doc_id: str
    source: tuple[str, ...]
    target: tuple[str, ...]
    objective: str


def _doc_rng(seed: int, doc_id: str) -> random.Random:
    digest = hashlib.blake2b(f"{seed}:{doc_id}".encode("utf-8"), digest_size=8).digest()
    return random.Random(int.from_bytes(digest, "big"))


def _poisson(rng: random.Random, lam: float) -> int:
    # Knuth's multiplication method; fine for the small lambdas used here.
    threshold = math.exp(-lam)
    k = 0
    p = 1.0
    while True:
        p *= rng.random()
        if p <= threshold:
            return k
        k += 1


def locate_occurrences(
    tokens: Sequence[str], spans: Sequence[SalientSpan]
) -> list[tuple[Interval, SalientSpan]]:
    """Find non-overlapping span occurrences, longest spans first.

    A position index built per call, one pass over the document for each
    distinct span length, maps every n-gram that is a span to its ascending
    start positions; each distinct span then visits only its own starts,
    so the cost follows the document length times the number of lengths
    plus the occurrences, not spans times tokens. Claim rule, unchanged
    from a left-to-right window scan: spans go by (longer, lower rank,
    tokens), and each span claims, in ascending order, every start none of
    whose positions is claimed yet. A start inside the same span's
    previous claim always fails that test, and a region claimed by a
    longer span is never re-matched by a shorter one. Returned in
    ascending start order.
    """
    tokens = tuple(tokens)
    unique: dict[tuple[str, ...], SalientSpan] = {}
    for span in sorted(spans, key=lambda s: (-s.length, s.rank, s.tokens)):
        unique.setdefault(span.tokens, span)
    starts: defaultdict[tuple[str, ...], list[int]] = defaultdict(list)
    for n in {len(gram) for gram in unique}:
        for i in range(len(tokens) - n + 1):
            gram = tokens[i : i + n]
            if gram in unique:
                starts[gram].append(i)
    claimed = [False] * len(tokens)
    found: list[tuple[Interval, SalientSpan]] = []
    for gram, span in unique.items():
        n = len(gram)
        for i in starts.get(gram, ()):
            if not any(claimed[i : i + n]):
                claimed[i : i + n] = [True] * n
                found.append(((i, i + n), span))
    found.sort(key=lambda item: item[0])
    return found


def plan_corruption(
    doc: TokenizedDoc, spans: Sequence[SalientSpan], cfg: CorruptionConfig
) -> tuple[Interval, ...]:
    """Choose the intervals to corrupt for the span-driven objectives.

    Draw order is fixed: span occurrences by ascending start (each kept
    with probability k_s), then every uncovered position ascending (kept
    with probability k_o).
    """
    rng = _doc_rng(cfg.seed, doc.doc_id)
    occurrences = locate_occurrences(doc.tokens, spans)
    covered = [False] * len(doc.tokens)
    for (start, end), _ in occurrences:
        for j in range(start, end):
            covered[j] = True
    marks: list[Interval] = []
    for (start, end), _ in occurrences:
        if rng.random() < cfg.k_s:
            marks.append((start, end))
    for pos in range(len(doc.tokens)):
        if not covered[pos] and rng.random() < cfg.k_o:
            marks.append((pos, pos + 1))
    marks.sort()
    return tuple(marks)


def _check_plan(plan: Sequence[Interval]) -> None:
    prev_end = -1
    for start, end in plan:
        if start > end:
            raise ValueError(f"bad interval ({start}, {end})")
        if start < prev_end:
            raise ValueError(f"overlapping plan intervals at ({start}, {end})")
        prev_end = max(prev_end, end)


def apply_mask(tokens: Sequence[str], plan: Sequence[Interval], mask_token: str) -> list[str]:
    """Replace each marked interval with exactly one mask token.

    Adjacent intervals each keep their own mask; zero-length intervals
    insert a bare mask at their position.
    """
    _check_plan(plan)
    out: list[str] = []
    pos = 0
    for start, end in plan:
        out.extend(tokens[pos:start])
        out.append(mask_token)
        pos = end
    out.extend(tokens[pos:])
    return out


def apply_delete(tokens: Sequence[str], plan: Sequence[Interval]) -> list[str]:
    """Drop the marked intervals; the result is a subsequence of the input."""
    _check_plan(plan)
    out: list[str] = []
    pos = 0
    for start, end in plan:
        out.extend(tokens[pos:start])
        pos = end
    out.extend(tokens[pos:])
    return out


def build_ssp_target(spans: Sequence[SalientSpan]) -> list[str]:
    """Concatenate spans by ascending rank, separator-joined, after pruning.

    Pruning drops exact duplicates and any span whose token sequence
    appears contiguously inside a strictly longer span of the same
    document: one set holds every shorter contiguous sub-sequence of each
    span, so the test is one lookup per span, not one scan per pair.
    """
    ordered = sorted(spans, key=lambda s: s.rank)
    unique: list[SalientSpan] = []
    seen: set[tuple[str, ...]] = set()
    for span in ordered:
        if span.tokens not in seen:
            seen.add(span.tokens)
            unique.append(span)
    inside_longer = {
        span.tokens[i : i + n]
        for span in unique
        for n in range(1, span.length)
        for i in range(span.length - n + 1)
    }
    kept = [span for span in unique if span.tokens not in inside_longer]
    if not kept:
        raise SkipDocument("no salient spans to predict")
    out: list[str] = []
    for i, span in enumerate(kept):
        if i:
            out.append(_SSP_SEP)
        out.extend(span.tokens)
    return out


def _ti_plan(doc: TokenizedDoc, cfg: CorruptionConfig) -> tuple[Interval, ...]:
    """Poisson-length random span marks until ~_TI_MASK_BUDGET of the tokens.

    Zero-length draws become bare-mask insertion points. Placement
    rejection keeps intervals disjoint; a bounded attempt budget prevents
    spinning on short documents.
    """
    rng = _doc_rng(cfg.seed, doc.doc_id)
    n = len(doc.tokens)
    budget = round(_TI_MASK_BUDGET * n)
    claimed = [False] * n
    insertions: set[int] = set()
    intervals: list[Interval] = []
    masked = 0
    attempts = 0
    max_attempts = 10 * n + 20
    while masked < budget and attempts < max_attempts:
        attempts += 1
        length = _poisson(rng, cfg.poisson_lambda)
        if length == 0:
            pos = rng.randrange(n + 1)
            inside = 0 < pos < n and claimed[pos - 1] and claimed[pos]
            if pos not in insertions and not inside:
                insertions.add(pos)
                intervals.append((pos, pos))
            continue
        if length > n:
            continue
        start = rng.randrange(n - length + 1)
        if any(claimed[start : start + length]):
            continue
        if any(start < p < start + length for p in insertions):
            continue
        for j in range(start, start + length):
            claimed[j] = True
        intervals.append((start, start + length))
        masked += length
    intervals.sort()
    return tuple(intervals)


def _body_tokens(doc: TokenizedDoc) -> tuple[str, ...]:
    # tokens = title ++ [<sep>] ++ body; the separator survives truncation
    # only if the title did, hence the +1 guard.
    if len(doc.tokens) <= doc.title_len:
        return ()
    return doc.tokens[doc.title_len + 1 :]


def build_example(
    doc: TokenizedDoc,
    spans: Sequence[SalientSpan] | None,
    cfg: CorruptionConfig,
) -> CorruptionExample:
    """One (source, target) pair for the configured objective.

    Raises SkipDocument when the document cannot yield an example (ssp
    with no spans, tg with an empty title or body).
    """
    return _example_and_plan(doc, spans, cfg)[0]


def _example_and_plan(
    doc: TokenizedDoc,
    spans: Sequence[SalientSpan] | None,
    cfg: CorruptionConfig,
) -> tuple[CorruptionExample, tuple[Interval, ...]]:
    objective = cfg.objective
    plan: tuple[Interval, ...] = ()
    if objective in SPAN_OBJECTIVES:
        if spans is None:
            raise DataError(f"objective {objective} needs mined spans for {doc.doc_id!r}")
        if objective.startswith("ssp"):
            target = tuple(build_ssp_target(spans))
        else:
            target = doc.tokens
        plan = plan_corruption(doc, spans, cfg)
        if objective in _MASK_OBJECTIVES:
            source = tuple(apply_mask(doc.tokens, plan, cfg.mask_token))
        else:
            source = tuple(apply_delete(doc.tokens, plan))
            if not source:
                logger.warning("document %s: corruption deleted every token", doc.doc_id)
    elif objective == "ti":
        plan = _ti_plan(doc, cfg)
        source = tuple(apply_mask(doc.tokens, plan, cfg.mask_token))
        target = doc.tokens
    elif objective == "tg":
        title = doc.tokens[: doc.title_len]
        body = _body_tokens(doc)
        if not title:
            raise SkipDocument("empty title")
        if not body:
            raise SkipDocument("empty body")
        source = body
        target = title
    else:  # pragma: no cover - config validation rules this out
        raise DataError(f"unknown objective {objective!r}")
    example = CorruptionExample(doc_id=doc.doc_id, source=source, target=target, objective=objective)
    return example, plan


@dataclass
class GenSummary:
    objective: str
    examples_written: int = 0
    docs_skipped: dict[str, int] = field(default_factory=dict)
    original_tokens: int = 0
    corrupted_tokens: int = 0
    mask_tokens: int = 0
    source_tokens: int = 0

    @property
    def corrupted_token_pct(self) -> float:
        return 100.0 * self.corrupted_tokens / self.original_tokens if self.original_tokens else 0.0

    @property
    def mask_token_pct(self) -> float:
        """Mask tokens as a share of the emitted (corrupted) source text."""
        return 100.0 * self.mask_tokens / self.source_tokens if self.source_tokens else 0.0

    @property
    def mask_per_original_pct(self) -> float:
        return 100.0 * self.mask_tokens / self.original_tokens if self.original_tokens else 0.0

    def to_dict(self) -> dict:
        return {
            "objective": self.objective,
            "examples_written": self.examples_written,
            "docs_skipped": dict(self.docs_skipped),
            "corrupted_token_pct": self.corrupted_token_pct,
            "mask_token_pct": self.mask_token_pct,
            "mask_per_original_pct": self.mask_per_original_pct,
        }


def _build_record(spans_by_id, cfg: CorruptionConfig, doc: TokenizedDoc):
    spans = None
    if cfg.objective in SPAN_OBJECTIVES:
        if spans_by_id is None or doc.doc_id not in spans_by_id:
            raise DataError(f"spans file has no entry for document {doc.doc_id!r}")
        spans = spans_by_id[doc.doc_id]
    try:
        example, plan = _example_and_plan(doc, spans, cfg)
    except SkipDocument as skip:
        return doc.doc_id, skip.reason, None, (len(doc.tokens), 0, 0, 0)
    corrupted = sum(end - start for start, end in plan)
    masks = len(plan) if cfg.objective in _MASK_OBJECTIVES else 0
    stats = (len(doc.tokens), corrupted, masks, len(example.source))
    line = json.dumps(
        {"id": example.doc_id, "source": " ".join(example.source), "target": " ".join(example.target)},
        ensure_ascii=False,
    )
    return doc.doc_id, None, line, stats


def gen_corpus(
    docs: Iterable[TokenizedDoc],
    spans_by_id: Mapping[str, list[SalientSpan]] | None,
    cfg: CorruptionConfig,
    out_path,
    workers: int = 1,
) -> GenSummary:
    """Write one JSONL example per eligible document and return statistics.

    Output depends only on (docs, spans, cfg); same seed means byte
    identical files across runs and worker counts.
    """
    shared = (dict(spans_by_id) if spans_by_id is not None else None, cfg)
    results = map_shared(_build_record, shared, list(docs), workers, chunksize=64)

    summary = GenSummary(objective=cfg.objective)
    with open(out_path, "w", encoding="utf-8") as fh:
        for _, skip_reason, line, stats in results:
            if skip_reason is not None:
                summary.docs_skipped[skip_reason] = summary.docs_skipped.get(skip_reason, 0) + 1
                continue
            original, corrupted, masks, source_len = stats
            fh.write(line + "\n")
            summary.examples_written += 1
            summary.original_tokens += original
            summary.corrupted_tokens += corrupted
            summary.mask_tokens += masks
            summary.source_tokens += source_len
    return summary

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
from dataclasses import asdict, dataclass

from .corpus import TokenizedDoc
from .errors import DataError, SkipDocument
from .miner import SalientSpan
from .pool import map_shared

logger = logging.getLogger(__name__)

SPAN_OBJECTIVES = ("ssr-m", "ssr-d", "ssp-m", "ssp-d")  # the objectives that need mined spans
OBJECTIVES = (*SPAN_OBJECTIVES, "ti", "tg")
MASK_TOKEN = "<mask>"
_MASK_OBJECTIVES = frozenset({"ssr-m", "ssp-m", "ti"})  # sources that carry mask tokens

_SSP_SEP = ";"  # joins the spans of an ssp target
_TI_MASK_BUDGET = 0.3  # share of a document's tokens that ti masks
_TI_POISSON_LAMBDA = 3.0  # mean length of a ti masked span

# Interval: half-open [start, end) over token positions. A zero-length
# interval marks a bare-mask insertion point (ti only).
Interval = tuple[int, int]


@dataclass(frozen=True)
class CorruptionConfig:
    objective: str
    k_s: float = 0.4
    k_o: float = 0.2
    seed: int = 0

    def __post_init__(self):
        if self.objective not in OBJECTIVES:
            raise DataError(f"unknown objective {self.objective!r}; choose from {OBJECTIVES}")
        if not 0.0 <= self.k_s <= 1.0 or not 0.0 <= self.k_o <= 1.0:
            raise DataError(f"k_s and k_o must be probabilities, got {self.k_s}, {self.k_o}")


def _doc_rng(seed: int, doc_id: str) -> random.Random:
    digest = hashlib.blake2b(f"{seed}:{doc_id}".encode("utf-8"), digest_size=8).digest()
    return random.Random(int.from_bytes(digest, "big"))


def _poisson(rng: random.Random, lam: float) -> int:
    # Knuth's multiplication method; fine for a small lambda such as ti's.
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
    for span in sorted(spans, key=lambda s: (-len(s.tokens), s.rank, s.tokens)):
        unique.setdefault(span.tokens, span)
    starts: defaultdict[tuple[str, ...], list[int]] = defaultdict(list)
    for n in {len(gram) for gram in unique}:
        for i, gram in enumerate(zip(*(tokens[k:] for k in range(n)))):
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
    draw = _doc_rng(cfg.seed, doc.doc_id).random
    occurrences = locate_occurrences(doc.tokens, spans)
    covered = [False] * len(doc.tokens)
    for (start, end), _ in occurrences:
        covered[start:end] = [True] * (end - start)
    k_s, k_o = cfg.k_s, cfg.k_o
    marks = [interval for interval, _ in occurrences if draw() < k_s]
    marks += [(pos, pos + 1) for pos, hit in enumerate(covered) if not hit and draw() < k_o]
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


def _splice(tokens: Sequence[str], plan: Sequence[Interval], filler: tuple[str, ...]) -> list[str]:
    """``tokens`` with each interval of ``plan`` replaced by ``filler``."""
    _check_plan(plan)
    out: list[str] = []
    pos = 0
    for start, end in plan:
        out += tokens[pos:start]
        out += filler
        pos = end
    out += tokens[pos:]
    return out


def apply_mask(tokens: Sequence[str], plan: Sequence[Interval]) -> list[str]:
    """Replace each marked interval with exactly one mask token.

    Adjacent intervals each keep their own mask; zero-length intervals
    insert a bare mask at their position.
    """
    return _splice(tokens, plan, (MASK_TOKEN,))


def apply_delete(tokens: Sequence[str], plan: Sequence[Interval]) -> list[str]:
    """Drop the marked intervals; the result is a subsequence of the input."""
    return _splice(tokens, plan, ())


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
        for n in range(1, len(span.tokens))
        for i in range(len(span.tokens) - n + 1)
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
        length = _poisson(rng, _TI_POISSON_LAMBDA)
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


def _corrupt(
    doc: TokenizedDoc, spans: Sequence[SalientSpan], cfg: CorruptionConfig
) -> tuple[tuple[str, ...], tuple[str, ...], tuple[Interval, ...]]:
    """(source, target, plan) of ``doc`` under the configured objective.

    Raises SkipDocument when the document cannot yield an example (ssp
    with no spans, tg with an empty title or body).
    """
    objective = cfg.objective
    plan: tuple[Interval, ...] = ()
    if objective in SPAN_OBJECTIVES:
        target = tuple(build_ssp_target(spans)) if objective.startswith("ssp") else doc.tokens
        plan = plan_corruption(doc, spans, cfg)
        if objective in _MASK_OBJECTIVES:
            source = tuple(apply_mask(doc.tokens, plan))
        else:
            source = tuple(apply_delete(doc.tokens, plan))
            if not source:
                logger.warning("document %s: corruption deleted every token", doc.doc_id)
    elif objective == "ti":
        plan = _ti_plan(doc, cfg)
        source = tuple(apply_mask(doc.tokens, plan))
        target = doc.tokens
    elif objective == "tg":
        # tokens = title ++ [<sep>] ++ body, cut to the window; a cut inside the title leaves no body
        source, target = doc.tokens[doc.title_len + 1 :], doc.tokens[: doc.title_len]
        if not target:
            raise SkipDocument("empty title")
        if not source:
            raise SkipDocument("empty body")
    else:  # pragma: no cover - config validation rules this out
        raise DataError(f"unknown objective {objective!r}")
    return source, target, plan


@dataclass(frozen=True)
class GenSummary:
    objective: str
    examples_written: int
    docs_skipped: dict[str, int]  # by reason, in order of first skip
    corrupted_token_pct: float  # of the original tokens of the written examples
    mask_token_pct: float  # of the emitted (corrupted) source tokens
    mask_per_original_pct: float

    to_dict = asdict  # field names are the JSON keys, in output order


def _build_record(spans_by_id, cfg: CorruptionConfig, doc: TokenizedDoc):
    """(skip reason, JSON line, token stats) of one document; the line is None on a skip."""
    spans = ()
    if cfg.objective in SPAN_OBJECTIVES:
        if spans_by_id is None or doc.doc_id not in spans_by_id:
            raise DataError(f"spans file has no entry for document {doc.doc_id!r}")
        spans = spans_by_id[doc.doc_id]
    try:
        source, target, plan = _corrupt(doc, spans, cfg)
    except SkipDocument as skip:
        return skip.reason, None, (len(doc.tokens), 0, 0, 0)
    corrupted = sum(end - start for start, end in plan)
    masks = len(plan) if cfg.objective in _MASK_OBJECTIVES else 0
    stats = (len(doc.tokens), corrupted, masks, len(source))
    line = json.dumps(
        {"id": doc.doc_id, "source": " ".join(source), "target": " ".join(target)},
        ensure_ascii=False,
    )
    return None, line, stats


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
    results = map_shared(_build_record, shared, list(docs), workers)

    examples = original = corrupted = masks = source = 0
    skipped: dict[str, int] = {}
    with open(out_path, "w", encoding="utf-8") as fh:
        for skip_reason, line, (n_original, n_corrupted, n_masks, n_source) in results:
            if skip_reason is not None:
                skipped[skip_reason] = skipped.get(skip_reason, 0) + 1
                continue
            fh.write(line + "\n")
            examples += 1
            original += n_original
            corrupted += n_corrupted
            masks += n_masks
            source += n_source
    return GenSummary(
        objective=cfg.objective,
        examples_written=examples,
        docs_skipped=skipped,
        corrupted_token_pct=100.0 * corrupted / original if original else 0.0,
        mask_token_pct=100.0 * masks / source if source else 0.0,
        mask_per_original_pct=100.0 * masks / original if original else 0.0,
    )

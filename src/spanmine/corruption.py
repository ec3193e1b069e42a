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
import logging
import math
import random
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import asdict, dataclass
from functools import partial
from json.encoder import encode_basestring as quote  # the escaper of json.dumps(ensure_ascii=False)

from .corpus import TokenizedDoc, replacing
from .errors import DataError
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


def locate_occurrences(tokens: Sequence[str], spans: Iterable[SalientSpan]) -> list[Interval]:
    """Find non-overlapping span occurrences, longest spans first.

    An index built per call, in one pass over the document, maps the
    first token of every distinct span to that token's ascending
    positions; each distinct span then visits only those starts,
    comparing one slice at each when it is longer than one token. The
    cost follows the document length plus the starts visited, not spans
    times tokens. Spans may come as any iterable. Claim rule, unchanged
    from a left-to-right window scan: spans go by (longer, lower rank,
    tokens), and each span claims, in ascending order, every start none of
    whose positions is claimed yet. A start inside the same span's
    previous claim always fails that test, and a region claimed by a
    longer span is never re-matched by a shorter one. Returns the claimed
    (start, end) intervals in ascending order.
    """
    tokens = tuple(tokens)
    # distinct token tuples in claim order; an empty span matches nothing
    ordered = sorted([s for s in spans if s.tokens], key=lambda s: (-len(s.tokens), s.rank, s.tokens))
    grams = dict.fromkeys(span.tokens for span in ordered)
    starts: dict[str, list[int]] = {gram[0]: [] for gram in grams}
    for i, token in enumerate(tokens):
        positions = starts.get(token)
        if positions is not None:
            positions.append(i)
    claimed = [False] * len(tokens)
    found: list[Interval] = []
    for gram in grams:
        n = len(gram)
        for i in starts[gram[0]]:
            if n > 1 and tokens[i : i + n] != gram:
                continue
            if not any(claimed[i : i + n]):
                claimed[i : i + n] = [True] * n
                found.append((i, i + n))
    found.sort()
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
    for start, end in occurrences:
        covered[start:end] = [True] * (end - start)
    k_s, k_o = cfg.k_s, cfg.k_o
    marks = [interval for interval in occurrences if draw() < k_s]
    marks += [(pos, pos + 1) for pos, hit in enumerate(covered) if not hit and draw() < k_o]
    marks.sort()
    return tuple(marks)


def _splice(tokens: Sequence[str], plan: Sequence[Interval], filler: tuple[str, ...]) -> list[str]:
    """``tokens`` with each interval of ``plan`` replaced by ``filler``.

    Raises ValueError unless every interval lies in the tokens after the
    one before it: prev_end <= start <= end <= len(tokens).
    """
    out: list[str] = []
    pos = 0
    n = len(tokens)
    for start, end in plan:
        if not pos <= start <= end <= n:
            raise ValueError(f"plan interval ({start}, {end}) is not within [{pos}, {n}]")
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
    The target is [] when no span is left to predict.
    """
    ordered = sorted([s for s in spans if s.tokens], key=lambda s: s.rank)  # an empty span predicts nothing
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
    """(skip reason, JSON line, token stats) of ``doc`` under the configured objective.

    The line and the stats are None on a skip: ssp with no spans to
    predict, tg with an empty title or body.
    """
    objective, tokens = cfg.objective, doc.tokens
    if objective in SPAN_OBJECTIVES:
        if spans_by_id is None or doc.doc_id not in spans_by_id:
            raise DataError(f"spans file has no entry for document {doc.doc_id!r}")
        spans = spans_by_id[doc.doc_id]
        if objective.startswith("ssp"):
            target = build_ssp_target(spans)
            if not target:
                return "no salient spans to predict", None, None
        else:
            target = tokens
        plan = plan_corruption(doc, spans, cfg)
    elif objective == "ti":
        target, plan = tokens, _ti_plan(doc, cfg)
    else:  # tg: tokens = title ++ [<sep>] ++ body, cut to the window; a cut inside the title leaves no body
        source, target, plan = tokens[doc.title_len + 1 :], tokens[: doc.title_len], ()
        if not target:
            return "empty title", None, None
        if not source:
            return "empty body", None, None
    masks = 0
    if objective in _MASK_OBJECTIVES:
        source, masks = apply_mask(tokens, plan), len(plan)
    elif objective != "tg":
        source = apply_delete(tokens, plan)
        if not source:
            logger.warning("document %s: corruption deleted every token", doc.doc_id)
    stats = (len(tokens), sum(end - start for start, end in plan), masks, len(source))
    # {"id", "source", "target"}, byte for byte what json.dumps(record, ensure_ascii=False) writes
    line = f'{{"id": {quote(doc.doc_id)}, "source": {quote(" ".join(source))}, "target": {quote(" ".join(target))}}}'
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
    identical files across runs and worker counts. The file is written
    whole, so a failed write leaves any previous ``out_path`` as it was.
    """
    results = map_shared(partial(_build_record, spans_by_id, cfg), list(docs), workers)

    examples = original = corrupted = masks = source = 0
    skipped: dict[str, int] = {}
    with replacing(out_path) as fh:
        for skip_reason, line, stats in results:
            if skip_reason is not None:
                skipped[skip_reason] = skipped.get(skip_reason, 0) + 1
                continue
            n_original, n_corrupted, n_masks, n_source = stats
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

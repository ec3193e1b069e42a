"""The benchmark's workloads: their inputs, the pipeline each one times, and
the checks and counts made on its outputs outside the timed region.

Every stage is one call into a public toolkit function, made exactly as the
CLI and the demo make it, inside a span named ``<module>.<stage>``.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
import resource
import sys
from dataclasses import dataclass, field
from pathlib import Path

import zipfgen
from spanmine.analysis import overlap_metrics, retrieval_success, span_characteristics
from spanmine.bm25 import BM25Index, build_index, load_index, save_index
from spanmine.corpus import dataset_stats, load_corpus, model_input, normalize, tokenize, write_corpus
from spanmine.corruption import OBJECTIVES, CorruptionConfig, gen_corpus
from spanmine.demo import generate_demo_corpus, generate_demo_predictions
from spanmine.evaluation import evaluate_file
from spanmine.miner import DEFAULT_THRESHOLDS, candidates, load_spans, mine_corpus

BASELINE = Path(__file__).resolve().parent / "baseline.json"


@dataclass(frozen=True)
class Workload:
    name: str
    docs: int
    generator: str  # "demo" or "zipf"
    stages: tuple[str, ...]  # run after index set-up, in this order
    workers: int = 1
    success_k: int = 1000
    success_share: float = 1.0  # seeded share of documents queried by analysis.success


# Sizes keep one pipeline pass at 1.5-3 s on a 2-core machine, so a run
# takes the median of several passes.
WORKLOADS = {
    w.name: w
    for w in (
        # Demo vocabulary: every posting list is close to N long and each
        # distinct query recurs ~4.7 times; mining is nearly all of the time.
        Workload("dense-mine", 400, "demo", ("mine", "span_stats")),
        # Zipfian postings, the full pipeline, and the only per-document
        # process pools (mining and corruption with two workers).
        Workload(
            "zipf-pipeline",
            150,
            "zipf",
            ("mine", "corrupt", "evaluate", "success", "overlap", "span_stats"),
            workers=2,
            success_k=20,
        ),
        # Stemming-bound scoring of a labeled set: no mining, no corruption.
        Workload("zipf-score", 500, "zipf", ("stats", "evaluate", "success"), success_share=0.25),
    )
}

def _corrupt_name(objective: str) -> str:
    return f"corrupt_{objective.replace('-', '_')}.jsonl"


# Artifacts whose bytes are pinned per seed in baseline.json, by the stage
# that writes them.
PINNED = {
    "spans.jsonl": "miner.mine",
    **{_corrupt_name(obj): f"corruption.gen.{obj}" for obj in OBJECTIVES},
    "eval_report.json": "evaluation.evaluate",
}


@dataclass
class Context:
    """Inputs and output paths of one benchmark run."""

    workload: Workload
    seed: int
    docs: int
    dir: Path
    success_subset: list[int] = field(default_factory=list)
    miner_workers_rss_kb: int | None = None

    @property
    def corpus(self) -> Path:
        return self.dir / "corpus.jsonl"

    @property
    def preds(self) -> Path:
        return self.dir / "predictions.txt"

    def artifact(self, name: str) -> Path:
        return self.dir / "out" / name


def prepare(workload: Workload, run_dir: Path, seed: int, docs: int) -> Context:
    """Write the seeded inputs; nothing here is timed."""
    (run_dir / "out").mkdir(parents=True, exist_ok=True)
    ctx = Context(workload, seed, docs, run_dir)
    if workload.generator == "zipf":
        zipfgen.generate(seed, docs, ctx.corpus, ctx.preds)
    else:
        corpus = generate_demo_corpus(n_docs=docs, seed=seed)
        write_corpus(corpus, ctx.corpus)
        ctx.preds.write_text("\n".join(generate_demo_predictions(corpus, seed=seed)) + "\n", encoding="utf-8")
    n_success = round(docs * workload.success_share)
    ctx.success_subset = sorted(random.Random(f"success:{seed}").sample(range(docs), n_success))
    return ctx


def run_pipeline(ctx: Context, tr) -> dict:
    """One pass from the first corpus read to the last artifact written.

    Returns the stage outputs, keyed by span name. Set-up (corpus load and
    tokenization, index build, save and reload) ends with ``bm25.load``.
    """
    w = ctx.workload
    out: dict = {}
    with tr.span("corpus.load"):
        out["corpus.load"] = docs = list(load_corpus(ctx.corpus))
    with tr.span("corpus.tokenize"):
        out["corpus.tokenize"] = tokenized = [model_input(doc) for doc in docs]
    with tr.span("bm25.build"):
        out["bm25.build"] = built = build_index(tokenized)
    with tr.span("bm25.save"):
        save_index(built, ctx.artifact("index.spmi"))
    with tr.span("bm25.load"):
        out["bm25.load"] = index = load_index(ctx.artifact("index.spmi"))

    reports = {}
    if "stats" in w.stages:
        with tr.span("corpus.stats"):
            out["corpus.stats"] = dataset_stats(docs)
    if "mine" in w.stages:
        thresholds = DEFAULT_THRESHOLDS.scaled_to(len(docs))
        with tr.span("miner.mine"):
            out["miner.mine"] = mine_corpus(
                tokenized, index, ctx.artifact("spans.jsonl"), thresholds=thresholds, workers=w.workers
            )
        if ctx.miner_workers_rss_kb is None and w.workers > 1:
            # First pass only: later passes' figures include corruption workers.
            ctx.miner_workers_rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        with tr.span("miner.load_spans"):
            out["miner.load_spans"] = spans_by_id = load_spans(ctx.artifact("spans.jsonl"))
    if "corrupt" in w.stages:
        for objective in OBJECTIVES:
            cfg = CorruptionConfig(objective=objective, seed=ctx.seed)
            spans = spans_by_id if objective.startswith("ss") else None
            with tr.span(f"corruption.gen.{objective}"):
                out[f"corruption.gen.{objective}"] = gen_corpus(
                    tokenized, spans, cfg, ctx.artifact(_corrupt_name(objective)), workers=w.workers
                )
    if "evaluate" in w.stages:
        with tr.span("evaluation.evaluate"):
            out["evaluation.evaluate"] = evaluate_file(
                ctx.preds, docs, report_path=ctx.artifact("eval_report.json")
            )
    if "success" in w.stages:
        subset = [docs[i] for i in ctx.success_subset]
        with tr.span("analysis.success"):
            out["analysis.success"] = reports["success"] = retrieval_success(subset, index, k=w.success_k)
    if "overlap" in w.stages:
        with tr.span("analysis.overlap"):
            out["analysis.overlap"] = reports["overlap"] = overlap_metrics(docs, spans_by_id)
    if "span_stats" in w.stages:
        with tr.span("analysis.span_stats"):
            out["analysis.span_stats"] = reports["span_stats"] = span_characteristics(spans_by_id)
    with open(ctx.artifact("analysis.json"), "w", encoding="utf-8") as fh:
        json.dump({name: r.to_dict() for name, r in reports.items()}, fh, indent=2)
    return out


# Files each stage writes; their bytes join the stage's fingerprint.
def _stage_files(ctx: Context) -> dict[str, Path]:
    files = {"bm25.save": ctx.artifact("index.spmi")}
    for name, stage in PINNED.items():
        if ctx.artifact(name).exists():
            files[stage] = ctx.artifact(name)
    return files


_ADDRESS = re.compile(r" at 0x[0-9a-f]+")  # default reprs differ between passes


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def fingerprints(out: dict, ctx: Context) -> tuple[dict[str, str], list[tuple[str, str]]]:
    """A digest of each stage's returned value and written file, and the
    problems visible within the pass.

    Every pass of one run must reproduce the first pass's fingerprints.
    """
    fps = {}
    for stage, value in out.items():
        if isinstance(value, BM25Index):
            value = (value.doc_ids, value.doc_lens, value.k1, value.b, sorted(value.postings.items()))
        fps[stage] = _digest(_ADDRESS.sub("", repr(value)).encode())
    for stage, path in _stage_files(ctx).items():
        fps[stage] = fps.get(stage, "") + _digest(path.read_bytes())
    problems = []
    if fps["bm25.load"] != fps["bm25.build"]:
        problems.append(("bm25.load", "reloaded index differs from the built one"))
    return fps, problems


@dataclass
class Artifacts:
    """The last pass's inputs and outputs, reloaded through the public API."""

    docs: list
    tokenized: list
    index: BM25Index
    spans: dict[str, list[dict]]  # spans.jsonl parsed as plain JSON

    @classmethod
    def load(cls, ctx: Context) -> "Artifacts":
        docs = list(load_corpus(ctx.corpus))
        spans = {}
        if ctx.artifact("spans.jsonl").exists():
            with open(ctx.artifact("spans.jsonl"), encoding="utf-8") as fh:
                for line in fh:
                    record = json.loads(line)
                    spans[record["id"]] = record["spans"]
        return cls(docs, [model_input(d) for d in docs], load_index(ctx.artifact("index.spmi")), spans)


def recorded_digests(ctx: Context) -> dict[str, str] | None:
    """Pinned artifact digests for this workload and seed, if recorded."""
    if not BASELINE.exists() or ctx.docs != ctx.workload.docs:
        return None
    baseline = json.loads(BASELINE.read_text(encoding="utf-8"))
    pinned = baseline.get("digests", {})
    if pinned.get("python") != "%d.%d" % sys.version_info[:2]:
        return None
    return pinned.get(ctx.workload.name, {}).get(str(ctx.seed))


def artifact_digests(ctx: Context) -> dict[str, str]:
    return {name: _digest(ctx.artifact(name).read_bytes()) for name in PINNED if ctx.artifact(name).exists()}


def verify(ctx: Context, art: Artifacts) -> list[tuple[str, str]]:
    """Checks on the last pass's outputs; returns (stage, problem) pairs."""
    w = ctx.workload
    problems: list[tuple[str, str]] = []
    expected = recorded_digests(ctx)
    if expected is not None:
        for name, digest in artifact_digests(ctx).items():
            if expected.get(name) != digest:
                problems.append((PINNED[name], f"{name}: digest {digest}, recorded {expected.get(name)}"))
    ids = [d.id for d in art.docs]
    if "mine" in w.stages:
        if list(art.spans) != ids:
            problems.append(("miner.mine", "spans.jsonl ids differ from the corpus ids"))
        else:
            problems += [("miner.mine", p) for p in _check_ranks(ctx, art)]
    if "corrupt" in w.stages and w.workers > 1:
        problems += _check_workers(ctx, art)
    if "evaluate" in w.stages:
        report = json.loads(ctx.artifact("eval_report.json").read_text(encoding="utf-8"))
        if report["num_docs"] != len(ids):
            problems.append(("evaluation.evaluate", f"report covers {report['num_docs']} of {len(ids)} docs"))
    return problems


def _check_ranks(ctx: Context, art: Artifacts, per_doc: int = 3) -> list[str]:
    """Kept <=> rank <= threshold, re-ranked with BM25Index.rank as the oracle.

    Samples ``per_doc`` candidates and ``per_doc`` kept spans per document.
    """
    thresholds = DEFAULT_THRESHOLDS.scaled_to(len(art.docs))
    rng = random.Random(f"oracle:{ctx.seed}")
    problems = []
    for doc in art.tokenized:
        kept = {tuple(s["text"].split()): s["rank"] for s in art.spans[doc.doc_id]}
        cands = [c.tokens for c in candidates(doc)]
        stray = kept.keys() - set(cands)
        if stray:
            problems.append(f"{doc.doc_id}: kept spans that are not candidates: {sorted(stray)[:3]}")
        sample = rng.sample(cands, min(per_doc, len(cands))) + rng.sample(sorted(kept), min(per_doc, len(kept)))
        slot = art.index.slot_of(doc.doc_id)
        for tokens in sample:
            rank = art.index.rank(tokens, slot)
            passes = rank <= thresholds(len(tokens))
            if passes != (tokens in kept) or (passes and kept[tokens] != rank):
                problems.append(f"{doc.doc_id}: {' '.join(tokens)!r} ranks {rank}, spans file has {kept.get(tokens)}")
    return problems


def _check_workers(ctx: Context, art: Artifacts, n_docs: int = 40) -> list[tuple[str, str]]:
    """A slice corrupted with one worker matches the same documents' lines
    in the multi-worker output."""
    part = art.tokenized[:n_docs]
    ids = {d.doc_id for d in part}
    spans_by_id = load_spans(ctx.artifact("spans.jsonl"))
    problems = []
    for objective in OBJECTIVES:
        cfg = CorruptionConfig(objective=objective, seed=ctx.seed)
        spans = spans_by_id if objective.startswith("ss") else None
        serial = ctx.dir / "serial.jsonl"
        gen_corpus(part, spans, cfg, serial, workers=1)
        with open(ctx.artifact(_corrupt_name(objective)), encoding="utf-8") as fh:
            parallel = [line for line in fh if json.loads(line)["id"] in ids]
        with open(serial, encoding="utf-8") as fh:
            if fh.readlines() != parallel:
                problems.append((f"corruption.gen.{objective}", "1-worker and multi-worker output differ"))
    return problems


def df_quantiles(index: BM25Index) -> dict[str, int]:
    dfs = sorted(len(plist) for plist in index.postings.values())
    quantiles = {f"p{round(q * 100)}": dfs[int(q * len(dfs))] for q in (0.5, 0.9, 0.99)}
    return {**quantiles, "max": dfs[-1]}


def layer_counts(ctx: Context, art: Artifacts) -> dict[str, float]:
    """Work counts from inputs, outputs and public functions (traced runs)."""
    w = ctx.workload
    index = art.index
    n = len(art.docs)
    counts: dict[str, float] = {
        "corpus.docs": n,
        "corpus.tokens": sum(len(t.tokens) for t in art.tokenized),
        "bm25.index_bytes": ctx.artifact("index.spmi").stat().st_size,
        "bm25.terms": len(index.postings),
        "bm25.postings": sum(len(p) for p in index.postings.values()),
        **{f"bm25.df_{q}": v for q, v in df_quantiles(index).items()},
    }
    if "mine" in w.stages:
        queries = [c.tokens for doc in art.tokenized for c in candidates(doc)]
        kept = [s for spans in art.spans.values() for s in spans]
        counts["bm25.postings_scanned"] = sum(len(index.postings.get(t, ())) for q in queries for t in q)
        counts["miner.candidates"] = len(queries)
        counts["miner.distinct_queries"] = len(set(queries))
        counts["miner.query_reuse"] = len(queries) / len(set(queries))
        for length in (1, 2, 3):
            counts[f"miner.spans_kept.len{length}"] = sum(1 for s in kept if s["len"] == length)
        counts["miner.keep_ratio"] = len(kept) / len(queries)
        counts["miner.workers_peak_rss_mb"] = (ctx.miner_workers_rss_kb or 0) / 1024
    if "corrupt" in w.stages:
        examples = 0
        for objective in OBJECTIVES:
            with open(ctx.artifact(_corrupt_name(objective)), encoding="utf-8") as fh:
                examples += sum(1 for _ in fh)
        counts["corruption.examples"] = examples
        counts["corruption.skipped"] = n * len(OBJECTIVES) - examples
        counts["corruption.spans_per_doc"] = sum(len(s) for s in art.spans.values()) / n
        counts["corruption.span_scan_work"] = sum(
            len({s["text"] for s in art.spans[doc.doc_id]}) * len(doc.tokens) for doc in art.tokenized
        )
    if "evaluate" in w.stages:
        report = json.loads(ctx.artifact("eval_report.json").read_text(encoding="utf-8"))
        counts["evaluation.docs_scored"] = report["present"]["docs_scored"] + report["absent"]["docs_scored"]
        counts["evaluation.docs_skipped"] = report["present"]["docs_skipped"] + report["absent"]["docs_skipped"]
        stemmed = _eval_stem_inputs(ctx, art)
        counts["evaluation.tokens_stemmed"] = len(stemmed)
        counts["evaluation.distinct_stem_tokens"] = len(set(stemmed))
    if "success" in w.stages:
        analysis = json.loads(ctx.artifact("analysis.json").read_text(encoding="utf-8"))
        counts["analysis.success_queries"] = analysis["success"]["total_keyphrases"]
    return counts


def _eval_stem_inputs(ctx: Context, art: Artifacts) -> list[str]:
    """Tokens evaluate() passes to the stemmer at the seed commit: each
    untruncated document twice (predictions' and gold's present/absent
    split), then every predicted and gold phrase token."""
    with open(ctx.preds, encoding="utf-8") as fh:
        lines = [line.rstrip("\n") for line in fh]
    tokens: list[str] = []
    for doc, line in zip(art.docs, lines):
        doc_tokens = model_input(doc, max_tokens=None).tokens
        tokens += doc_tokens * 2
        for phrase in [p for p in line.split(";") if p.strip()] + list(doc.keyphrases):
            tokens += tokenize(normalize(phrase))
    return tokens

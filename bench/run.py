"""spanmine benchmark: times the toolkit's public pipeline calls on seeded inputs.

    python3 bench/run.py --workload dense-mine --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the toolkit is imported from its ``src/``.
One run generates the workload's inputs from ``--seed`` (untimed), makes one
warm-up pass, then repeats the pass until ``--seconds`` have elapsed (at
least MIN_PASSES times) and reports medians over the timed passes. End-to-end
times are scaled to a reference machine speed, gauged after every toolkit
call (see ``refspeed.py``); per-layer times are as measured.

Every pass's outputs must reproduce the warm-up pass's; the last pass's
artifacts are then verified (pinned digests, a BM25 rank oracle, worker
parity). Each call into the toolkit is one operation; it fails if it raises or
its output fails a check.

With ``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` passes alternate traced and untraced, and it carries the
per-layer metrics. The line before it is a full record of the run (machine,
samples, df quantiles, failures). Spans of traced runs are written to
``.bench_work/traces/``. Exit status is 0 only when every check passes.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import refspeed

ROOT = Path(__file__).resolve().parents[1]
WORK = ROOT / ".bench_work"

MIN_PASSES = 4
MAX_LOOP_S = 90.0  # stop early when passes are far slower than expected

END_TO_END = {
    "wall_s": "s",
    "docs_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

_STAGES = (
    "corpus.load", "corpus.tokenize", "corpus.stats",
    "bm25.build", "bm25.save", "bm25.load",
    "miner.mine", "miner.load_spans",
    "corruption.gen.ssr-m", "corruption.gen.ssr-d", "corruption.gen.ssp-m",
    "corruption.gen.ssp-d", "corruption.gen.ti", "corruption.gen.tg",
    "evaluation.evaluate",
    "analysis.success", "analysis.overlap", "analysis.span_stats",
)  # fmt: skip
_LAYERS = ("corpus", "bm25", "miner", "corruption", "evaluation", "analysis", "pipeline")


def _stage_metric(stage: str) -> str:
    layer, _, rest = stage.partition(".")
    if rest.startswith("gen."):
        return f"{layer}.gen_s.{rest[4:]}"
    return f"{stage}_s"


PER_LAYER = {
    **{_stage_metric(stage): "s" for stage in _STAGES},
    **{f"{layer}.self_s": "s" for layer in _LAYERS},
    "corpus.docs": "count",
    "corpus.tokens": "count",
    "bm25.index_bytes": "bytes",
    "bm25.terms": "count",
    "bm25.postings": "count",
    "bm25.postings_scanned": "count",
    "bm25.df_p50": "count",
    "bm25.df_p90": "count",
    "bm25.df_p99": "count",
    "bm25.df_max": "count",
    "miner.docs_per_s": "1/s",
    "miner.candidates": "count",
    "miner.distinct_queries": "count",
    "miner.query_reuse": "ratio",
    "miner.spans_kept.len1": "count",
    "miner.spans_kept.len2": "count",
    "miner.spans_kept.len3": "count",
    "miner.keep_ratio": "ratio",
    "miner.workers_peak_rss_mb": "MB",
    "corruption.examples": "count",
    "corruption.skipped": "count",
    "corruption.spans_per_doc": "ratio",
    "corruption.span_scan_work": "count",
    "evaluation.docs_scored": "count",
    "evaluation.docs_skipped": "count",
    "evaluation.tokens_stemmed": "count",
    "evaluation.distinct_stem_tokens": "count",
    "analysis.success_queries": "count",
    "trace.overhead_s": "s",
    "trace.stage_coverage": "ratio",
    "error_rate": "ratio",
}


def use_checkout_toolkit() -> None:
    src = ROOT / "src"
    if not (src / "spanmine" / "__init__.py").is_file():
        raise SystemExit(f"bench: no toolkit at {src}/spanmine; run from the root of a checkout")
    sys.path.insert(0, str(src))


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        ref_file = ROOT / ".git" / name
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": _commit(),
    }


def measure(ctx, seconds: float, trace: bool, tracer, workloads) -> dict:
    """Warm-up pass, then timed passes; returns samples and failures."""
    first: dict[str, str] | None = None
    failures: dict[tuple[int, str], str] = {}
    passes: list[dict] = []
    loop_start = None
    i = 0
    while True:
        traced = trace and i % 2 == 1
        run_id = f"{ctx.workload.name}-{ctx.seed}-{i}"
        tracer.start_run(run_id, traced)
        gc.collect()  # every pass starts from a clean heap, as a fresh process would
        # Traced passes are not gauged, so the spans cover the whole pass.
        tracer.clock = clock = refspeed.Clock(gauged=not traced)
        try:
            with tracer.span("pipeline", op=False):
                out = workloads.run_pipeline(ctx, tracer)
        except Exception:
            traceback.print_exc()
            failures[(i, tracer.failed_op or "pipeline")] = "raised"
            return {"passes": passes, "failures": failures, "last": None}
        clock.lap("pass")
        tracer.clock = None
        fps, problems = workloads.fingerprints(out, ctx)
        del out
        first = first or fps
        for stage, fp in fps.items():
            if first.get(stage) != fp:
                problems.append((stage, f"pass {i} output differs from the warm-up pass"))
        for stage, problem in problems:
            failures[(i, stage)] = problem
        if loop_start is None:
            loop_start = perf_counter()  # the warm-up pass is not a sample
        else:
            wall_s, wall_ref_s = clock.marks["pass"]
            setup_s, setup_ref_s = clock.marks["bm25.load"]
            passes.append(
                {
                    "run": run_id,
                    "traced": traced,
                    "wall_s": wall_s,
                    "setup_s": setup_s,
                    "wall_ref_s": wall_ref_s,
                    "setup_ref_s": setup_ref_s,
                }
            )
        i += 1
        elapsed = perf_counter() - loop_start
        if (elapsed >= seconds and len(passes) >= MIN_PASSES) or elapsed >= MAX_LOOP_S:
            return {"passes": passes, "failures": failures, "last": i - 1}


def end_to_end_metrics(ctx, passes: list[dict]) -> dict[str, float]:
    walls = [p["wall_ref_s"] for p in passes]
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return {
        "wall_s": _median(walls),
        "docs_per_s": _median([ctx.docs / w for w in walls]),
        "setup_s": _median([p["setup_ref_s"] for p in passes]),
        "peak_rss_mb": peak_kb / 1024,
    }


def per_layer_metrics(ctx, passes: list[dict], tracer, counts: dict, error_rate: float) -> dict[str, float]:
    from tracing import self_times

    metrics = dict.fromkeys(PER_LAYER, 0.0)
    traced = [p for p in passes if p["traced"]]
    per_pass = []
    for p in traced:
        spans = tracer.run_spans(p["run"])
        durations: dict[str, float] = {}
        for s in spans:
            durations[s["name"]] = durations.get(s["name"], 0.0) + s["end"] - s["start"]
        selfs: dict[str, float] = {}
        for name, t in self_times(spans).items():
            layer = name.split(".")[0]
            selfs[layer] = selfs.get(layer, 0.0) + t
        root = next(s for s in spans if s["parent"] is None)
        staged = sum(s["end"] - s["start"] for s in spans if s["parent"] == root["id"])
        per_pass.append((durations, selfs, staged / (root["end"] - root["start"])))
    for stage in _STAGES:
        metrics[_stage_metric(stage)] = _median([d.get(stage, 0.0) for d, _, _ in per_pass])
    for layer in _LAYERS:
        metrics[f"{layer}.self_s"] = _median([s.get(layer, 0.0) for _, s, _ in per_pass])
    metrics["trace.stage_coverage"] = _median([c for _, _, c in per_pass])
    metrics["trace.overhead_s"] = _median([p["wall_s"] for p in traced]) - _median(
        [p["wall_s"] for p in passes if not p["traced"]]
    )
    if metrics["miner.mine_s"]:
        metrics["miner.docs_per_s"] = ctx.docs / metrics["miner.mine_s"]
    metrics.update(counts)
    metrics["error_rate"] = error_rate
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="spanmine benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--docs", type=int, help="corpus size (default: the workload's; pinned digests apply only then)")
    args = parser.parse_args(argv)

    use_checkout_toolkit()
    import workloads
    from tracing import Tracer

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    docs = args.docs or workload.docs
    run_dir = WORK / f"{workload.name}-s{args.seed}-t{args.trace}-{os.getpid()}"
    tracer = Tracer()
    try:
        ctx = workloads.prepare(workload, run_dir, args.seed, docs)
        result = measure(ctx, args.seconds, bool(args.trace), tracer, workloads)
        failures = result["failures"]
        df_quantiles: dict = {}
        counts: dict = {}
        if result["last"] is not None:
            art = workloads.Artifacts.load(ctx)
            df_quantiles = workloads.df_quantiles(art.index)
            for stage, problem in workloads.verify(ctx, art):
                failures[(result["last"], stage)] = problem
            if args.trace:
                counts = workloads.layer_counts(ctx, art)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    attempted = max(1, tracer.attempted)
    failed = min(attempted, len(failures))
    passes = result["passes"]
    if args.trace:
        traces = WORK / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        tracer.write(traces / f"{workload.name}-s{args.seed}-{os.getpid()}.jsonl")
        values, units = per_layer_metrics(ctx, passes, tracer, counts, failed / attempted), PER_LAYER
    else:
        values, units = end_to_end_metrics(ctx, passes), END_TO_END
    correct = failed == 0 and bool(passes)
    for (i, stage), problem in sorted(failures.items()):
        print(f"bench: pass {i}: {stage}: {problem}", file=sys.stderr)
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "docs": docs,
        "trace": args.trace,
        "passes": len(passes),
        "environment": environment(),
        "df_quantiles": df_quantiles,
        "samples": {key: [p[key] for p in passes] for key in ("wall_s", "setup_s", "wall_ref_s", "setup_ref_s")},
        "failures": [f"pass {i}: {stage}: {problem}" for (i, stage), problem in sorted(failures.items())],
    }
    print(json.dumps(record))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""Maintains bench/baseline.json: pinned artifact digests, the mining growth
curve, and each workload's baseline medians.

    python3 bench/record.py digests            # one pass per workload and seed
    python3 bench/record.py scaling            # miner.mine_s at growing corpus sizes
    python3 bench/record.py runs --runs 10     # BENCHMARK.json's command, one seed per run

None of this runs during a benchmark run; ``run.py`` only reads the digests.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import run

BASELINE = Path(__file__).resolve().parent / "baseline.json"
SPEC = run.ROOT / "BENCHMARK.json"
DIGEST_SEEDS = range(20)
SCALING_DOCS = (250, 500, 1000, 2000)


def _load() -> dict:
    return json.loads(BASELINE.read_text(encoding="utf-8")) if BASELINE.exists() else {}


def _save(baseline: dict) -> None:
    BASELINE.write_text(json.dumps(baseline, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def record_digests(workloads) -> dict:
    from tracing import Tracer

    pinned = {"python": "%d.%d" % sys.version_info[:2]}
    for w in workloads.WORKLOADS.values():
        pinned[w.name] = {}
        for seed in DIGEST_SEEDS:
            run_dir = run.WORK / f"record-{w.name}-{seed}"
            try:
                ctx = workloads.prepare(w, run_dir, seed, w.docs)
                workloads.run_pipeline(ctx, Tracer())
                pinned[w.name][str(seed)] = workloads.artifact_digests(ctx)
            finally:
                shutil.rmtree(run_dir, ignore_errors=True)
            print(f"{w.name} seed {seed}: {pinned[w.name][str(seed)]}", file=sys.stderr)
    return pinned


def record_scaling(workloads) -> dict:
    """One mining pass of the dense corpus per size: the baseline growth
    curve, recorded once and not gated."""
    from spanmine import DEFAULT_THRESHOLDS, build_index, load_corpus, mine_corpus, model_input

    w = workloads.WORKLOADS["dense-mine"]
    points = []
    for n_docs in SCALING_DOCS:
        run_dir = run.WORK / f"scaling-{n_docs}"
        try:
            ctx = workloads.prepare(w, run_dir, 1, n_docs)
            tokenized = [model_input(doc) for doc in load_corpus(ctx.corpus)]
            index = build_index(tokenized)
            start = perf_counter()
            mine_corpus(tokenized, index, ctx.artifact("spans.jsonl"), thresholds=DEFAULT_THRESHOLDS.scaled_to(n_docs))
            points.append({"docs": n_docs, "mine_s": perf_counter() - start})
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
        print(points[-1], file=sys.stderr)
    return {
        "workload": "dense-mine",
        "metric": "miner.mine_s",
        "seed": 1,
        "workers": 1,
        "points": points,
        "environment": run.environment(),
    }


def record_runs(names: list[str], n_runs: int) -> dict:
    """Run the benchmark command ``n_runs`` times per workload, seeds 1..n,
    and keep each end-to-end metric's median and quartile spread."""
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    out = {}
    for name in names:
        values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in range(1, n_runs + 1):
            cmd = [*spec["command"], "--workload", name, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]  # fmt: skip
            proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=600)
            result = json.loads(proc.stdout.splitlines()[-1])
            if proc.returncode or not result["correct"]:
                raise SystemExit(f"{name} seed {seed} failed:\n{proc.stderr}")
            for metric, entry in result["metrics"].items():
                values[metric].append(entry["value"])
        summary = {}
        for metric, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            summary[metric] = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": vals}
            print(f"{name:14s} {metric:12s} median {med:10.4f} spread {(q3 - q1) / med:.3f}", file=sys.stderr)
        out[name] = summary
    return {"runs": n_runs, "run_seconds": spec["run_seconds"], "environment": run.environment(), "workloads": out}


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("what", choices=("digests", "scaling", "runs"))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append", help="runs: only these workloads")
    args = parser.parse_args(argv)
    run.use_checkout_toolkit()
    import workloads

    baseline = _load()
    if args.what == "digests":
        baseline["digests"] = record_digests(workloads)
    elif args.what == "scaling":
        baseline["scaling"] = record_scaling(workloads)
    else:
        names = args.workload or list(workloads.WORKLOADS)
        recorded = baseline.setdefault("end_to_end", {"workloads": {}})
        fresh = record_runs(names, args.runs)
        recorded.update({k: v for k, v in fresh.items() if k != "workloads"})
        recorded["workloads"].update(fresh["workloads"])
    _save(baseline)


if __name__ == "__main__":
    main()

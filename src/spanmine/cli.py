"""Command line interface.

Subcommands: stats, index, mine, corrupt, eval, analyze, demo. Every run
prints a machine-readable JSON summary to stdout and logs parameters and
wall time to stderr. Exit codes: 0 ok, 1 data error, 2 usage error, 3 I/O
error.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import time

from . import __version__, analysis, demo
from .bm25 import DEFAULT_B, DEFAULT_K1, build_index, load_index, save_index
from .corpus import DEFAULT_MAX_TOKENS, Document, dataset_stats, load_corpus, model_input
from .corruption import OBJECTIVES, SPAN_OBJECTIVES, CorruptionConfig, gen_corpus
from .errors import DataError, SpanmineError
from .evaluation import evaluate_file
from .miner import DEFAULT_THRESHOLDS, load_spans, mine_corpus, parse_thresholds
from .stopwords import DEFAULT_STOPWORDS, load_stoplist

logger = logging.getLogger("spanmine")

SUMMARY_SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_DATA = 1
EXIT_USAGE = 2
EXIT_IO = 3


def _schema_from_args(args) -> dict[str, str]:
    return {
        "id": args.id_field,
        "title": args.title_field,
        "body": args.body_field,
        "keyphrases": args.keyphrases_field,
    }


def _add_schema_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("corpus schema")
    group.add_argument("--id-field", default="id", help="JSONL key holding the document id")
    group.add_argument("--title-field", default="title")
    group.add_argument("--body-field", default="abstract")
    group.add_argument("--keyphrases-field", default="keywords")


def _add_threads_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--threads",
        type=int,
        default=os.cpu_count() or 1,
        help="worker processes; mining shards distinct n-grams, corruption shards documents (default: cores)",
    )


def _path_flag(parser: argparse.ArgumentParser, name: str, required: bool = True, help: str = "") -> None:
    """Path option whose default can come from SPANMINE_<NAME>."""
    env = "SPANMINE_" + name.lstrip("-").upper().replace("-", "_")
    default = os.environ.get(env)
    parser.add_argument(
        name,
        default=default,
        required=required and default is None,
        help=(help + " " if help else "") + f"(env: {env})",
    )


def _load_docs(args, path) -> tuple[list[Document], int]:
    """Documents at ``path`` under the schema flags, and how many load issues were logged."""
    issues = 0

    def on_issue(line_no: int, message: str) -> None:
        nonlocal issues
        issues += 1
        logger.warning("%s: line %d: %s", path, line_no, message)

    docs = list(load_corpus(path, _schema_from_args(args), on_issue))
    logger.info("loaded %d documents from %s (%d issues)", len(docs), path, issues)
    return docs, issues


def _cmd_stats(args) -> dict:
    docs, issues = _load_docs(args, args.corpus)
    stats = dataset_stats(docs)
    return {"documents": len(docs), "load_issues": issues, "stats": vars(stats).copy()}


def _cmd_index(args) -> dict:
    docs, _ = _load_docs(args, args.corpus)
    tokenized = (model_input(doc, args.max_tokens) for doc in docs)
    index = build_index(tokenized, k1=args.k1, b=args.b)
    save_index(index, args.out)
    return {
        "documents": index.num_docs,
        "terms": len(index.postings),
        "postings": sum(map(len, index.postings.values())),
        "avg_doc_len": index.avg_doc_len,
        "k1": index.k1,
        "b": index.b,
        "out": str(args.out),
    }


def _cmd_mine(args) -> dict:
    index = load_index(args.index)
    docs, _ = _load_docs(args, args.corpus)
    tokenized = [model_input(doc, args.max_tokens) for doc in docs]
    thresholds = parse_thresholds(args.thresholds) if args.thresholds else DEFAULT_THRESHOLDS
    stoplist = load_stoplist(args.stoplist) if args.stoplist else DEFAULT_STOPWORDS
    logger.info(
        "mining %d documents against %d-doc index, thresholds %s",
        len(tokenized),
        index.num_docs,
        dict(thresholds.by_length),
    )
    summary = mine_corpus(
        tokenized,
        index,
        args.out,
        thresholds=thresholds,
        stoplist=stoplist,
        max_spans=args.max_spans,
        workers=args.threads,
    )
    return {
        "docs_processed": summary.docs_processed,
        "total_spans": summary.total_spans,
        "avg_spans_per_doc": summary.avg_spans_per_doc,
        "length_distribution": {str(n): f for n, f in summary.length_distribution.items()},
        "distinct_queries": summary.distinct_queries,
        "docs_scored": summary.docs_scored,
        "out": str(args.out),
    }


def _cmd_corrupt(args) -> dict:
    docs, _ = _load_docs(args, args.corpus)
    tokenized = [model_input(doc, args.max_tokens) for doc in docs]
    cfg = CorruptionConfig(
        objective=args.objective,
        k_s=args.ks,
        k_o=args.ko,
        mask_token=args.mask_token,
        poisson_lambda=getattr(args, "lambda"),
        seed=args.seed,
    )
    spans_by_id = None
    if cfg.objective in SPAN_OBJECTIVES:
        if not args.spans:
            raise UsageError(f"objective {cfg.objective} requires --spans")
        spans_by_id = load_spans(args.spans)
    summary = gen_corpus(tokenized, spans_by_id, cfg, args.out, workers=args.threads)
    result = summary.to_dict()
    result["out"] = str(args.out)
    return result


def _cmd_eval(args) -> dict:
    docs, _ = _load_docs(args, args.gold)
    report = evaluate_file(args.preds, docs, sep=args.sep, k=args.k, report_path=args.report)
    result = report.to_dict(include_per_doc=False)
    if args.report:
        result["report"] = str(args.report)
    return result


def _cmd_analyze(args) -> dict:
    if args.study == "success":
        docs, _ = _load_docs(args, args.gold)
        index = load_index(args.index)
        result = analysis.retrieval_success(docs, index, k=args.k).to_dict()
    elif args.study == "overlap":
        docs, _ = _load_docs(args, args.gold)
        result = analysis.overlap_metrics(docs, load_spans(args.spans)).to_dict()
    else:
        result = analysis.span_characteristics(load_spans(args.spans)).to_dict()
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=2)
            fh.write("\n")
    return result


def _cmd_demo(args) -> dict:
    return demo.run_demo(args.out, seed=args.seed, threads=args.threads)


class UsageError(SpanmineError):
    pass


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spanmine",
        description="Mine salient spans, build denoising corpora, and score keyphrases.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument("-q", "--quiet", action="store_true", help="suppress stderr logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stats", help="dataset label statistics")
    _path_flag(p, "--corpus")
    _add_schema_flags(p)
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("index", help="build a BM25 index from a JSONL corpus")
    _path_flag(p, "--corpus")
    _path_flag(p, "--out")
    p.add_argument("--k1", type=float, default=DEFAULT_K1)
    p.add_argument("--b", type=float, default=DEFAULT_B)
    p.add_argument("--max-tokens", type=int, default=DEFAULT_MAX_TOKENS)
    _add_schema_flags(p)
    p.set_defaults(func=_cmd_index)

    p = sub.add_parser("mine", help="mine salient spans for every document")
    _path_flag(p, "--index")
    _path_flag(p, "--corpus")
    _path_flag(p, "--out")
    p.add_argument("--thresholds", default=None, help="e.g. '1:500,2:430,3:360' (the default)")
    p.add_argument("--stoplist", default=None, help="stop word file (default: bundled list)")
    p.add_argument("--max-spans", type=int, default=None)
    p.add_argument("--max-tokens", type=int, default=DEFAULT_MAX_TOKENS)
    _add_schema_flags(p)
    _add_threads_flag(p)
    p.set_defaults(func=_cmd_mine)

    p = sub.add_parser("corrupt", help="emit (source, target) training pairs")
    p.add_argument("--objective", required=True, choices=OBJECTIVES)
    _path_flag(p, "--corpus")
    _path_flag(p, "--out")
    _path_flag(p, "--spans", required=False, help="spans file (required for ssr-*/ssp-*)")
    p.add_argument("--ks", type=float, default=0.4, help="span corruption probability")
    p.add_argument("--ko", type=float, default=0.2, help="other-word corruption probability")
    p.add_argument("--mask-token", default="<mask>")
    p.add_argument("--lambda", type=float, default=3.0, help="Poisson length for ti")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-tokens", type=int, default=DEFAULT_MAX_TOKENS)
    _add_schema_flags(p)
    _add_threads_flag(p)
    p.set_defaults(func=_cmd_corrupt)

    p = sub.add_parser("eval", help="score keyphrase predictions")
    _path_flag(p, "--preds", help="text file, one prediction line per document")
    _path_flag(p, "--gold", help="JSONL corpus with keyphrases")
    p.add_argument("--sep", default=";")
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--report", default=None, help="write the full JSON report here")
    _add_schema_flags(p)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("analyze", help="span/keyphrase diagnostics")
    study = p.add_subparsers(dest="study", required=True)
    s = study.add_parser("success", help="keyphrase retrieval success rate")
    _path_flag(s, "--gold")
    _path_flag(s, "--index")
    s.add_argument("--k", type=int, default=1000)
    s.add_argument("--report", default=None)
    _add_schema_flags(s)
    s.set_defaults(func=_cmd_analyze)
    s = study.add_parser("overlap", help="span vs keyphrase overlap measures")
    _path_flag(s, "--gold")
    _path_flag(s, "--spans")
    s.add_argument("--report", default=None)
    _add_schema_flags(s)
    s.set_defaults(func=_cmd_analyze)
    s = study.add_parser("spans", help="span population statistics")
    _path_flag(s, "--spans")
    s.add_argument("--report", default=None)
    s.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("demo", help="full pipeline on a bundled synthetic corpus")
    p.add_argument("--out", default="spanmine-demo")
    p.add_argument("--seed", type=int, default=demo.DEMO_SEED)
    _add_threads_flag(p)
    p.set_defaults(func=_cmd_demo)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.ERROR if args.quiet else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    params = {k: v for k, v in vars(args).items() if k not in ("func", "quiet", "command")}
    logger.info("%s parameters: %s", args.command, params)
    started = time.perf_counter()
    try:
        result = args.func(args)
    except UsageError as exc:
        parser.error(str(exc))  # exits 2
    except DataError as exc:
        logger.error("data error: %s", exc)
        return EXIT_DATA
    except OSError as exc:
        logger.error("I/O error: %s", exc)
        return EXIT_IO
    elapsed = time.perf_counter() - started
    logger.info("%s finished in %.2fs", args.command, elapsed)
    summary = {
        "schema_version": SUMMARY_SCHEMA_VERSION,
        "command": args.command,
        "elapsed_sec": round(elapsed, 3),
        **result,
    }
    json.dump(summary, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return EXIT_OK


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()

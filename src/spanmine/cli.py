"""Command line interface.

Subcommands: stats, index, mine, corrupt, eval, analyze, demo. Every run
prints a machine-readable JSON summary to stdout and logs parameters and
wall time to stderr. Exit codes: 0 ok, 1 data error, 2 usage error, 3 I/O
error, 4 internal error (a bug; the traceback is logged), 130 and 143 for a
run stopped by SIGINT and SIGTERM.

``demo`` writes a synthetic corpus and predictions, then runs the other
subcommands on them in order, each parsed and checked as on the command line.
"""

from __future__ import annotations

import argparse
import logging
import os
import signal
import sys
import time
from dataclasses import asdict
from pathlib import Path

from . import __version__, analysis, demo
from .bm25 import DEFAULT_B, DEFAULT_K1, BM25Index, build_index, load_index, save_index
from .corpus import (
    DEFAULT_MAX_TOKENS,
    Document,
    TokenizedDoc,
    dataset_stats,
    load_corpus,
    model_input,
    replacing,
    write_corpus,
    write_json,
)
from .corruption import OBJECTIVES, SPAN_OBJECTIVES, CorruptionConfig, gen_corpus
from .errors import DataError
from .evaluation import evaluate_file
from .miner import DEFAULT_THRESHOLDS, load_spans, mine_corpus, parse_thresholds
from .pool import usable_cpus
from .stopwords import DEFAULT_STOPWORDS, load_stoplist

logger = logging.getLogger("spanmine")

SUMMARY_SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_DATA = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_INTERNAL = 4
EXIT_SIGINT = 128 + signal.SIGINT
EXIT_SIGTERM = 128 + signal.SIGTERM


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


def _worker_count(text: str) -> int:
    """``--threads`` capped at the CPUs this process may use: every worker runs at once; output never depends on it."""
    try:
        n = int(text)
    except ValueError:
        n = 0
    if n < 1:
        raise argparse.ArgumentTypeError(f"expected a whole number of at least 1, got {text!r}")
    return min(n, usable_cpus())


def _add_threads_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--threads",
        type=_worker_count,
        default=usable_cpus(),
        help="worker processes, at most the CPUs this process may use (default: those CPUs); "
        "mining shards n-grams, corruption documents",
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


# Path flags a command reads, and those it writes.
_INPUT_FLAGS = ("corpus", "index", "spans", "stoplist", "preds", "gold")
_OUTPUT_FLAGS = ("out", "report")


def _check_paths(args) -> None:
    """The checks every command line gets before its command reads any input.

    An output path that is a directory, or whose directory does not exist,
    is an I/O error; one that is the same file as an input is a data error.
    ``demo --out`` names the directory the demo writes into, so it gets
    neither directory check.
    """
    for out_flag in _OUTPUT_FLAGS:
        out = getattr(args, out_flag, None)
        if not out:
            continue
        if args.func is not _cmd_demo:
            if os.path.isdir(out):
                raise IsADirectoryError(f"--{out_flag} {out} is a directory")
            parent = os.path.dirname(out) or os.curdir
            if not os.path.isdir(parent):
                raise FileNotFoundError(f"--{out_flag} {out}: there is no directory {parent} to write it in")
        if not os.path.exists(out):
            continue
        for in_flag in _INPUT_FLAGS:
            src = getattr(args, in_flag, None)
            if src and os.path.exists(src) and os.path.samefile(out, src):
                raise DataError(
                    f"--{out_flag} {out} is the same file as --{in_flag} {src}; writing it would overwrite that input"
                )


def _cmd_stats(args) -> dict:
    docs, issues = _load_docs(args, args.corpus)
    stats = dataset_stats(docs)
    return {"documents": len(docs), "load_issues": issues, "stats": asdict(stats)}


def _cmd_index(args) -> dict:
    docs, _ = _load_docs(args, args.corpus)
    tokenized = (model_input(doc, args.max_tokens) for doc in docs)
    index = build_index(tokenized, k1=args.k1, b=args.b)
    save_index(index, args.out)
    return {
        "documents": index.num_docs,
        "terms": len(index.dfs),
        "postings": len(index.refs),
        "avg_doc_len": index.avg_doc_len,
        "k1": index.k1,
        "b": index.b,
        "out": str(args.out),
    }


def _slot_in_index(args, corpus, index: BM25Index, doc_id: str) -> int:
    """The slot of ``doc_id``, a document of ``corpus``, in the index ``args.index``."""
    try:
        return index.slot_of(doc_id)
    except DataError:
        raise DataError(
            f"{corpus}: document {doc_id!r} is not in the index {args.index}; rebuild the index from this corpus"
        ) from None


def _indexed_windows(args, index: BM25Index) -> list[TokenizedDoc]:
    """Each document of ``args.corpus`` tokenized to the window ``index`` holds for it.

    Truncation is a prefix cut, so each document's indexed length is the
    token window the index was built with.
    """
    docs, _ = _load_docs(args, args.corpus)
    tokenized = []
    for doc in docs:
        indexed = index.doc_lens[_slot_in_index(args, args.corpus, index, doc.id)]
        if not indexed:
            raise DataError(
                f"{args.index}: document {doc.id!r} has 0 tokens in the index; rebuild it with spanmine index"
            )
        window = model_input(doc, indexed)
        if len(window.tokens) < indexed:
            raise DataError(
                f"{args.corpus}: document {doc.id!r} has {len(window.tokens)} tokens but the index holds"
                f" {indexed}; rebuild the index from this corpus"
            )
        tokenized.append(window)
    return tokenized


def _spans_covering(args, doc_ids: list[str], corpus) -> dict:
    """The spans file ``args.spans``, refused unless it has an entry for each document of ``corpus``."""
    spans_by_id = load_spans(args.spans)
    missing = [doc_id for doc_id in doc_ids if doc_id not in spans_by_id]
    if missing:
        raise DataError(
            f"{corpus}: document {missing[0]!r} has no entry in the spans file {args.spans}"
            f" ({len(missing)} of {len(doc_ids)} missing); mine the spans from this corpus"
        )
    return spans_by_id


def _cmd_mine(args) -> dict:
    thresholds = parse_thresholds(args.thresholds) if args.thresholds else None  # a bad spec fails before any I/O
    index = load_index(args.index)
    tokenized = _indexed_windows(args, index)
    if thresholds is None:
        thresholds = DEFAULT_THRESHOLDS.scaled_to(index.num_docs)
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
    return {**summary.to_dict(), "out": str(args.out)}


def _cmd_corrupt(args) -> dict:
    cfg = CorruptionConfig(
        objective=args.objective,
        k_s=args.ks,
        k_o=args.ko,
        seed=args.seed,
    )
    if cfg.objective in SPAN_OBJECTIVES and not args.spans:
        raise UsageError(f"objective {cfg.objective} requires --spans")
    tokenized = _indexed_windows(args, load_index(args.index))
    spans_by_id = None
    if cfg.objective in SPAN_OBJECTIVES:
        spans_by_id = _spans_covering(args, [doc.doc_id for doc in tokenized], args.corpus)
    summary = gen_corpus(tokenized, spans_by_id, cfg, args.out, workers=args.threads)
    return {**summary.to_dict(), "out": str(args.out)}


def _cmd_eval(args) -> dict:
    docs, _ = _load_docs(args, args.gold)
    report = evaluate_file(args.preds, docs, sep=args.sep, k=args.k, report_path=args.report)
    result = report.to_dict()
    if args.report:
        result["report"] = str(args.report)
    return result


def _cmd_analyze(args) -> dict:
    docs, _ = _load_docs(args, args.gold)
    if args.study == "success":
        index = load_index(args.index)
        for doc in docs:
            _slot_in_index(args, args.gold, index, doc.id)
        result = analysis.retrieval_success(docs, index, k=args.k).to_dict()
    else:
        spans_by_id = _spans_covering(args, [doc.id for doc in docs], args.gold)
        result = analysis.overlap_metrics(docs, spans_by_id).to_dict()
    if args.report:
        write_json(result, args.report, f"report {args.report}")
    return result


def _cmd_demo(args) -> dict:
    """Write the synthetic corpus and predictions into ``args.out``, then run each subcommand on them.

    Each stage is a command line, parsed, checked and run as ``run()`` would;
    the summary keeps each stage's result without the paths it wrote.
    """
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    corpus, preds, index, spans = (
        out / name for name in ("corpus.jsonl", "predictions.txt", "index.spmi", "spans.jsonl")
    )
    docs = demo.generate_demo_corpus(seed=args.seed)
    write_corpus(docs, corpus)
    with replacing(preds) as fh:
        fh.write("\n".join(demo.generate_demo_predictions(docs, seed=args.seed)) + "\n")
    written = {corpus.name, preds.name}

    def stage(*argv: str) -> dict:
        logger.info("demo: spanmine %s", " ".join(argv))
        stage_args = build_parser().parse_args(argv)
        _check_paths(stage_args)
        result = stage_args.func(stage_args)
        written.update(Path(path).name for flag in _OUTPUT_FLAGS if (path := getattr(stage_args, flag, None)))
        return {key: value for key, value in result.items() if key not in _OUTPUT_FLAGS}

    # Paths go in as --flag=path, so a path that starts with "-" still parses as a value.
    threads = f"--threads={args.threads}"
    stats = stage("stats", f"--corpus={corpus}")
    stage("index", f"--corpus={corpus}", f"--out={index}")
    mining = stage("mine", f"--index={index}", f"--corpus={corpus}", f"--out={spans}", threads)
    corruption = {}
    for objective in OBJECTIVES:
        target = out / f"corrupt_{objective.replace('-', '_')}.jsonl"
        corruption[objective] = stage(
            "corrupt", f"--objective={objective}", f"--index={index}", f"--corpus={corpus}", f"--spans={spans}",
            f"--seed={args.seed}", threads, f"--out={target}",
        )
    evaluation = stage("eval", f"--preds={preds}", f"--gold={corpus}", f"--report={out / 'eval_report.json'}")
    analyses = {
        "retrieval_success": stage("analyze", "success", f"--gold={corpus}", f"--index={index}", "--k=20"),
        "overlap": stage("analyze", "overlap", f"--gold={corpus}", f"--spans={spans}"),
    }
    return {
        "out_dir": str(out),
        "seed": args.seed,
        "artifacts": sorted(written),
        "corpus_stats": stats["stats"],
        "mining": mining,
        "corruption": corruption,
        "evaluation": evaluation,
        "analysis": analyses,
    }


class UsageError(Exception):
    pass


class _Terminated(BaseException):
    """SIGTERM as an exception: every ``finally`` on the way out runs, and ``except Exception`` lets it pass."""


def _raise_terminated(signum, frame):
    raise _Terminated


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spanmine",
        description="Mine salient spans, build denoising corpora, and score keyphrases.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument("-q", "--quiet", action="store_true", help="suppress stderr logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stats", help="dataset label statistics")
    p.add_argument("--corpus", required=True, help="JSONL corpus")
    _add_schema_flags(p)
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("index", help="build a BM25 index from a JSONL corpus")
    p.add_argument("--corpus", required=True, help="JSONL corpus")
    p.add_argument("--out", required=True, help="index file to write")
    p.add_argument("--k1", type=float, default=DEFAULT_K1)
    p.add_argument("--b", type=float, default=DEFAULT_B)
    p.add_argument("--max-tokens", type=int, default=DEFAULT_MAX_TOKENS, help="token window; mine and corrupt read it")
    _add_schema_flags(p)
    p.set_defaults(func=_cmd_index)

    p = sub.add_parser("mine", help="mine salient spans for every document")
    p.add_argument("--index", required=True, help="index built from this corpus by spanmine index")
    p.add_argument("--corpus", required=True, help="JSONL corpus")
    p.add_argument("--out", required=True, help="spans file to write")
    p.add_argument(
        "--thresholds", default=None, help="e.g. '1:500,2:430,3:360' (the default, scaled from 500k docs to the index)"
    )
    p.add_argument(
        "--stoplist",
        default=None,
        help="stop word file, one word per line (default: bundled list); an entry that tokenizes "
        "into other tokens, such as COVID-19, stops nothing, and one warning counts them",
    )
    p.add_argument("--max-spans", type=int, default=None)
    _add_schema_flags(p)
    _add_threads_flag(p)
    p.set_defaults(func=_cmd_mine)

    p = sub.add_parser("corrupt", help="emit (source, target) training pairs")
    p.add_argument("--objective", required=True, choices=OBJECTIVES)
    p.add_argument("--index", required=True, help="index built from this corpus by spanmine index")
    p.add_argument("--corpus", required=True, help="JSONL corpus")
    p.add_argument("--out", required=True, help="training pairs file to write")
    p.add_argument("--spans", help="spans file (required for ssr-*/ssp-*)")
    p.add_argument("--ks", type=float, default=0.4, help="span corruption probability")
    p.add_argument("--ko", type=float, default=0.2, help="other-word corruption probability")
    p.add_argument("--seed", type=int, default=0)
    _add_schema_flags(p)
    _add_threads_flag(p)
    p.set_defaults(func=_cmd_corrupt)

    p = sub.add_parser("eval", help="score keyphrase predictions")
    p.add_argument("--preds", required=True, help="text file, one prediction line per document")
    p.add_argument("--gold", required=True, help="JSONL corpus with keyphrases")
    p.add_argument("--sep", default=";", help="string that joins the phrases of a prediction line (default: ;)")
    p.add_argument("--k", type=int, default=5, help="cut-off of F1@k: the first k deduplicated predictions (default: 5)")
    p.add_argument("--report", default=None, help="write the full JSON report here")
    _add_schema_flags(p)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("analyze", help="span/keyphrase diagnostics")
    study = p.add_subparsers(dest="study", required=True)
    s = study.add_parser("success", help="keyphrase retrieval success rate")
    s.add_argument("--gold", required=True, help="JSONL corpus with keyphrases")
    s.add_argument("--index", required=True, help="index to retrieve from")
    s.add_argument("--k", type=int, default=1000)
    s.add_argument("--report", default=None)
    _add_schema_flags(s)
    s.set_defaults(func=_cmd_analyze)
    s = study.add_parser("overlap", help="span vs keyphrase overlap measures")
    s.add_argument("--gold", required=True, help="JSONL corpus with keyphrases")
    s.add_argument("--spans", required=True, help="spans file")
    s.add_argument("--report", default=None)
    _add_schema_flags(s)
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
    caller_sigterm = signal.signal(signal.SIGTERM, _raise_terminated)
    try:
        _check_paths(args)
        result = args.func(args)
        elapsed = time.perf_counter() - started
        header = {
            "schema_version": SUMMARY_SCHEMA_VERSION,
            "command": args.command,
            "elapsed_sec": round(elapsed, 3),
        }
        # The header comes first and wins over a result's own keys, such as eval's schema_version.
        write_json({**header, **result, **header}, sys.stdout, "the run summary")
    except UsageError as exc:
        parser.error(str(exc))  # exits 2
    except DataError as exc:
        logger.error("data error: %s", exc)
        return EXIT_DATA
    except OSError as exc:
        logger.error("I/O error: %s", exc)
        return EXIT_IO
    except Exception:
        logger.exception("internal error in %s; please report this traceback", args.command)
        return EXIT_INTERNAL
    except KeyboardInterrupt:
        logger.error("%s interrupted by SIGINT", args.command)
        return EXIT_SIGINT
    except _Terminated:
        logger.error("%s terminated by SIGTERM", args.command)
        return EXIT_SIGTERM
    finally:
        signal.signal(signal.SIGTERM, caller_sigterm)
    logger.info("%s finished in %.2fs", args.command, elapsed)
    return EXIT_OK


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()

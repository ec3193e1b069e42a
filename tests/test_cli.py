import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spanmine
from spanmine import (
    DEFAULT_THRESHOLDS,
    CorruptionConfig,
    DataError,
    TokenizedDoc,
    build_index,
    gen_corpus,
    load_corpus,
    load_index,
    load_spans,
    mine_corpus,
    model_input,
    save_index,
    write_corpus,
)
from spanmine import cli
from spanmine.cli import EXIT_DATA, EXIT_IO, EXIT_OK, build_parser, run
from spanmine.corruption import OBJECTIVES
from spanmine.demo import generate_demo_corpus
from spanmine.pool import usable_cpus
from tests.conftest import V1_INDEX, V1_REFUSAL, V2_INDEX, V2_REFUSAL
from tests.test_bm25 import HEADER, HEADER_COUNTS, INDEX_EDITS, edited_index
from tests.test_corruption import CORRUPTION_DIGESTS


def _corpus_lines():
    return [
        {"id": "c0", "title": "sparse solvers", "abstract": "we study sparse solvers for lattice problems", "keywords": "sparse solvers;lattice problems;missing phrase"},
        {"id": "c1", "title": "graph pruning", "abstract": "pruning graphs with spectral bounds", "keywords": ["graph pruning", "spectral bounds", "absent thing"]},
        {"id": "c2", "title": "codec design", "abstract": "a codec design study with entropy models", "keywords": "codec design;entropy models;phantom idea"},
    ]


@pytest.fixture
def corpus(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text("\n".join(json.dumps(r) for r in _corpus_lines()) + "\n", encoding="utf-8")
    return path


def _json_out(capsys):
    return json.loads(capsys.readouterr().out)


class TestSubcommands:
    def test_stats(self, corpus, capsys):
        assert run(["-q", "stats", "--corpus", str(corpus)]) == EXIT_OK
        out = _json_out(capsys)
        assert out["command"] == "stats"
        assert out["schema_version"] == 1
        assert out["stats"]["num_docs"] == 3

    def test_full_pipeline(self, corpus, tmp_path, capsys):
        index = tmp_path / "idx.spmi"
        assert run(["-q", "index", "--corpus", str(corpus), "--out", str(index)]) == EXIT_OK
        out = _json_out(capsys)
        loaded = spanmine.load_index(index)
        assert (out["documents"], out["terms"], out["postings"]) == (3, len(loaded.term_id), sum(loaded.dfs))
        assert out["postings"] > out["terms"]  # some term is in two documents

        spans = tmp_path / "spans.jsonl"
        assert run([
            "-q", "mine", "--index", str(index), "--corpus", str(corpus),
            "--out", str(spans), "--thresholds", "1:0,2:0,3:0", "--threads", "1",
        ]) == EXIT_OK
        out = _json_out(capsys)
        assert out["docs_processed"] == 3
        assert out["distinct_queries"] > 0 and 0 <= out["docs_scored"]

        corrupted = tmp_path / "ssr.jsonl"
        assert run([
            "-q", "corrupt", "--objective", "ssr-m", "--index", str(index), "--corpus", str(corpus),
            "--spans", str(spans), "--out", str(corrupted), "--seed", "3", "--threads", "1",
        ]) == EXIT_OK
        assert _json_out(capsys)["examples_written"] == 3

        preds = tmp_path / "preds.txt"
        preds.write_text("sparse solvers\ngraph pruning ; wrong\ncodec design\n", encoding="utf-8")
        bom_preds = tmp_path / "bom-preds.txt"
        bom_preds.write_text("\ufeff" + preds.read_text(encoding="utf-8"), encoding="utf-8")
        eval_runs = {"report.json": [preds], "report-k3.json": [preds, "--k", "3"], "bom-report.json": [bom_preds]}
        for name, args in eval_runs.items():
            report = tmp_path / name
            argv = ["-q", "eval", "--gold", str(corpus), "--preds", *map(str, args), "--report", str(report)]
            assert run(argv) == EXIT_OK
            out = _json_out(capsys)
            assert out["present"]["docs_scored"] == 3 and out["k"] == (3 if "--k" in args else 5)
            text = report.read_text(encoding="utf-8")
            assert text == json.dumps(json.loads(text), indent=2) + "\n"
            written = json.loads(text)
            for category in ("present", "absent"):
                del written[category]["per_doc"]
            assert {k: v for k, v in out.items() if k not in ("command", "elapsed_sec", "report")} == written
        assert (tmp_path / "bom-report.json").read_bytes() == (tmp_path / "report.json").read_bytes()

        rates = []
        for k in ("3", "1000"):  # 1000 is more than the corpus holds
            assert run(["-q", "analyze", "success", "--gold", str(corpus), "--index", str(index), "--k", k]) == EXIT_OK
            rates.append(_json_out(capsys)["success_rate_overall"])
        assert 0.0 <= rates[0] <= rates[1] <= 1.0
        assert run(["-q", "analyze", "overlap", "--gold", str(corpus), "--spans", str(spans)]) == EXIT_OK
        _json_out(capsys)

    def test_missing_required_flag_is_usage_error(self, corpus):
        with pytest.raises(SystemExit) as excinfo:
            run(["-q", "mine", "--corpus", str(corpus), "--out", "x.jsonl"])
        assert excinfo.value.code == 2

    def test_unknown_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            run(["-q", "frobnicate"])
        assert excinfo.value.code == 2

    def test_data_error_exit_code(self, corpus, tmp_path, caplog, capsys):
        preds = tmp_path / "preds.txt"
        preds.write_text("one\ntwo\n", encoding="utf-8")  # 2 preds vs 3 gold
        assert run(["-q", "eval", "--preds", str(preds), "--gold", str(corpus)]) == EXIT_DATA
        corpus.write_text("{\n", encoding="utf-8")
        assert run(["-q", "stats", "--corpus", str(corpus)]) == EXIT_DATA
        assert f"data error: {corpus}: line 1: malformed JSON" in caplog.text and "Traceback" not in caplog.text
        assert capsys.readouterr().out == ""

    def test_stats_on_an_empty_corpus_is_data_error(self, tmp_path, caplog, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("", encoding="utf-8")
        assert run(["-q", "stats", "--corpus", str(empty)]) == EXIT_DATA
        assert "data error: corpus contains no documents" in caplog.text and "Traceback" not in caplog.text
        assert capsys.readouterr().out == ""

    def test_index_of_a_corpus_whose_records_were_all_skipped_is_data_error(self, tmp_path, caplog, capsys):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text('{"title": "sparse solvers"}\n{"title": "graph pruning"}\n', encoding="utf-8")
        index = tmp_path / "idx.spmi"
        assert run(["-q", "index", "--corpus", str(corpus), "--out", str(index)]) == EXIT_DATA
        assert "data error: cannot build an index from a corpus with no documents" in caplog.text
        assert capsys.readouterr().out == "" and not index.exists()

    def test_eval_empty_separator_is_data_error(self, corpus, tmp_path, caplog):
        preds = tmp_path / "preds.txt"
        preds.write_text("sparse solvers\ngraph pruning\ncodec design\n", encoding="utf-8")
        assert run(["-q", "eval", "--preds", str(preds), "--gold", str(corpus), "--sep", ""]) == EXIT_DATA
        assert "the prediction separator must not be empty" in caplog.text

    @pytest.mark.parametrize(
        "record,message",
        [
            ({"spans": []}, "missing or non-string 'id'"),
            ({"id": "b"}, "'spans' must be a list"),
            ([1, 2], "expected a JSON object, got list"),
            ({"id": "b", "spans": [{"rank": 0}]}, "span {'rank': 0} needs a non-empty 'text'"),
            ({"id": "b", "spans": [{"text": "x"}]}, "span {'text': 'x'} needs a non-negative integer 'rank'"),
        ],
        ids=["missing-id", "missing-spans", "non-object-line", "item-missing-text", "item-missing-rank"],
    )
    def test_analyze_malformed_spans_is_data_error(self, corpus, tmp_path, caplog, capsys, record, message):
        spans = tmp_path / "spans.jsonl"
        spans.write_text(json.dumps(record) + "\n", encoding="utf-8")
        assert run(["-q", "analyze", "overlap", "--gold", str(corpus), "--spans", str(spans)]) == EXIT_DATA
        assert f"data error: {spans}: line 1: {message}" in caplog.text
        assert "Traceback" not in caplog.text and capsys.readouterr().out == ""

    def test_non_finite_summary_is_data_error(self, corpus, capsys, caplog, monkeypatch):
        monkeypatch.setattr(cli, "_cmd_stats", lambda args: {"documents": float("nan")})
        assert run(["-q", "stats", "--corpus", str(corpus)]) == EXIT_DATA
        assert capsys.readouterr().out == ""
        assert "data error: the run summary holds nan, which strict JSON cannot encode" in caplog.text

    def test_data_error_in_a_worker_block_exits_1(self, corpus, tmp_path, caplog, capsys, monkeypatch):
        index = tmp_path / "idx.spmi"
        assert run(["-q", "index", "--corpus", str(corpus), "--out", str(index)]) == EXIT_OK
        capsys.readouterr()

        ti_plan = spanmine.corruption._ti_plan

        def plan_all_but_the_last(doc, cfg):  # c2 is in the forked worker's block
            if doc.doc_id == "c2":
                raise DataError("planted failure in c2")
            return ti_plan(doc, cfg)

        monkeypatch.setattr(spanmine.corruption, "_ti_plan", plan_all_but_the_last)
        out = tmp_path / "out.jsonl"
        argv = ["-q", "corrupt", "--objective", "ti", "--index", str(index), "--corpus", str(corpus)]
        assert run([*argv, "--out", str(out), "--threads", "2"]) == EXIT_DATA
        assert "planted failure in c2" in caplog.text

    def test_non_finite_analyze_report_is_data_error(self, corpus, tmp_path, capsys, caplog, monkeypatch):
        spans = tmp_path / "spans.jsonl"
        spans.write_text("".join(json.dumps({"id": doc_id, "spans": []}) + "\n" for doc_id in ("c0", "c1", "c2")),
                         encoding="utf-8")
        report = tmp_path / "report.json"
        overlap = argparse.Namespace(to_dict=lambda: {"word_precision": float("inf")})
        monkeypatch.setattr(spanmine.analysis, "overlap_metrics", lambda docs, spans_by_id: overlap)
        argv = ["-q", "analyze", "overlap", "--gold", str(corpus), "--spans", str(spans), "--report", str(report)]
        assert run(argv) == EXIT_DATA
        assert capsys.readouterr().out == "" and not report.exists()
        assert f"data error: report {report} holds inf, which strict JSON cannot encode" in caplog.text

    def test_bad_utf8_corpus_is_data_error(self, corpus, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(corpus.read_bytes() + b'{"id": "c9", "title": "caf\xe9", "abstract": "x"}\n')
        assert run(["-q", "stats", "--corpus", str(bad)]) == EXIT_DATA

    def test_bad_utf8_spans_is_data_error(self, corpus, tmp_path, caplog, capsys):
        spans = tmp_path / "spans.jsonl"
        spans.write_bytes(b'{"id": "a", "spans": [{"text": "caf\xe9", "rank": 0}]}\n')
        assert run(["-q", "analyze", "overlap", "--gold", str(corpus), "--spans", str(spans)]) == EXIT_DATA
        assert f"data error: {spans}: line 1: invalid UTF-8 (byte 0xE9)" in caplog.text
        assert "Traceback" not in caplog.text and capsys.readouterr().out == ""

    def test_analyze_spans_is_gone(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run(["-q", "analyze", "spans", "--spans", str(tmp_path / "spans.jsonl")])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'spans'" in err and "Traceback" not in err

    # Line 3 of the corpus or of the spans file, escaping a lone surrogate in one field.
    LONE_SURROGATE_LINES = {
        "id": '{"id": "c3\\ud800", "title": "t", "abstract": "b"}',
        "title": '{"id": "c3", "title": "x\\ud800y", "abstract": "b"}',
        "text": '{"id": "c2", "spans": [{"text": "x\\ud800", "rank": 0}]}',
    }

    @pytest.mark.parametrize("field", list(LONE_SURROGATE_LINES))
    def test_a_lone_surrogate_is_a_data_error(self, corpus, tmp_path, caplog, capsys, field):
        index, spans, out = tmp_path / "idx.spmi", tmp_path / "spans.jsonl", tmp_path / "out.jsonl"
        if field == "text":  # ssp-m writes span texts into its targets
            assert run(["-q", "index", "--corpus", str(corpus), "--out", str(index)]) == EXIT_OK
            assert run(_window_argv("mine", index, corpus, spans)) == EXIT_OK
            path = spans
            argv = ["corrupt", "--objective", "ssp-m", "--index", str(index), "--corpus", str(corpus),
                    "--spans", str(spans), "--threads", "1", "--out", str(out)]
        else:  # the index holds ids and title tokens
            path, out = corpus, index
            argv = ["index", "--corpus", str(corpus), "--out", str(index)]
        lines = path.read_text(encoding="utf-8").splitlines()[:2]
        path.write_text("\n".join([*lines, self.LONE_SURROGATE_LINES[field]]) + "\n", encoding="utf-8")
        capsys.readouterr()
        assert run(["-q", *argv]) == EXIT_DATA
        assert f"data error: {path}: line 3: field {field!r} holds a lone surrogate (U+D800)" in caplog.text
        assert "Traceback" not in caplog.text and capsys.readouterr().out == "" and not out.exists()

    @pytest.mark.parametrize("bad_file", ["preds", "gold"])
    def test_bad_utf8_eval_is_data_error(self, corpus, tmp_path, bad_file):
        preds = tmp_path / "preds.txt"
        preds.write_text("sparse solvers\ngraph pruning\ncodec design\n", encoding="utf-8")
        bad = preds if bad_file == "preds" else corpus
        bad.write_bytes(bad.read_bytes().replace(b"pruning", b"pr\xe9ning", 1))
        assert run(["-q", "eval", "--preds", str(preds), "--gold", str(corpus)]) == EXIT_DATA

    @pytest.mark.parametrize(
        "bad_line",
        ["{broken", '{"id": "c0", "title": "again", "abstract": "x"}'],
        ids=["malformed-json", "duplicate-id"],
    )
    def test_eval_malformed_gold_names_the_file(self, corpus, tmp_path, caplog, bad_line):
        preds = tmp_path / "preds.txt"
        preds.write_text("sparse solvers\ngraph pruning\ncodec design\n", encoding="utf-8")
        corpus.write_text(corpus.read_text(encoding="utf-8") + bad_line + "\n", encoding="utf-8")
        assert run(["-q", "eval", "--preds", str(preds), "--gold", str(corpus)]) == EXIT_DATA
        assert f"{corpus}: line 4:" in caplog.text

    @pytest.mark.parametrize("command", ["stats", "mine"])
    def test_corpus_issue_warning_names_the_file(self, corpus, tmp_path, caplog, capsys, command):
        index, stoplist = tmp_path / "idx.spmi", tmp_path / "stop.txt"
        assert run(["-q", "index", "--corpus", str(corpus), "--out", str(index)]) == EXIT_OK
        corpus.write_text(
            corpus.read_text(encoding="utf-8") + '{"title": "no id", "abstract": "x"}\n', encoding="utf-8"
        )
        stoplist.write_text("the\nCOVID-19\n", encoding="utf-8")
        argv = {
            "stats": ["stats", "--corpus", str(corpus)],
            "mine": ["mine", "--index", str(index), "--corpus", str(corpus), "--stoplist", str(stoplist),
                     "--out", str(tmp_path / "spans.jsonl"), "--threads", "1"],
        }[command]
        with caplog.at_level("WARNING", logger="spanmine"):
            assert run(["-q", *argv]) == EXIT_OK
        assert f"{corpus}: line 4: missing or empty 'id' field" in caplog.text
        unmatchable = (
            f"{stoplist}: 1 of the stop list's entries can never match a token; "
            "the first, on line 2, tokenizes as 'covid - <digit>'"
        )
        assert (unmatchable in caplog.text) == (command == "mine")
        capsys.readouterr()

    @pytest.mark.parametrize(
        "command, flag, value",
        [("index", "--max-tokens", "0"), ("mine", "--max-spans", "-1")],
    )
    def test_out_of_range_count_is_data_error(self, corpus, tmp_path, capsys, command, flag, value):
        index = tmp_path / "idx.spmi"
        assert run(["-q", "index", "--corpus", str(corpus), "--out", str(index)]) == EXIT_OK
        capsys.readouterr()
        out = str(tmp_path / "out")
        argv = {
            "index": ["index", "--corpus", str(corpus), "--out", out],
            "mine": ["mine", "--index", str(index), "--corpus", str(corpus), "--out", out, "--threads", "1"],
        }[command]
        assert run(["-q", *argv, flag, value]) == EXIT_DATA

    @pytest.mark.parametrize("k1", ["nan", "inf"])
    def test_non_finite_k1_is_data_error(self, corpus, tmp_path, caplog, k1):
        index = tmp_path / "idx.spmi"
        assert run(["-q", "index", "--corpus", str(corpus), "--out", str(index), "--k1", k1]) == EXIT_DATA
        assert f"k1 must be finite and > 0, got {k1}" in caplog.text
        assert not index.exists()

    @pytest.mark.parametrize("extra", ["0:2", "4:2"])
    def test_threshold_length_outside_the_miner_is_data_error(self, corpus, tmp_path, capsys, extra):
        index = tmp_path / "idx.spmi"
        assert run(["-q", "index", "--corpus", str(corpus), "--out", str(index)]) == EXIT_OK
        capsys.readouterr()
        argv = ["-q", "mine", "--index", str(index), "--corpus", str(corpus), "--out", str(tmp_path / "spans.jsonl"),
                "--thresholds", f"1:5,2:4,3:3,{extra}", "--threads", "1"]
        assert run(argv) == EXIT_DATA

    @pytest.mark.parametrize("missing", ["corpus", "index"])
    def test_a_bad_threshold_spec_fails_before_any_input_is_read(self, corpus, tmp_path, capsys, caplog, missing):
        index = tmp_path / "idx.spmi"
        assert run(["-q", "index", "--corpus", str(corpus), "--out", str(index)]) == EXIT_OK
        capsys.readouterr()
        inputs = {"index": index, "corpus": corpus, missing: tmp_path / "missing"}
        argv = ["-q", "mine", "--index", str(inputs["index"]), "--corpus", str(inputs["corpus"]),
                "--out", str(tmp_path / "spans.jsonl"), "--thresholds", "1:5,1:5,2:4,3:3", "--threads", "1"]
        assert run(argv) == EXIT_DATA  # not EXIT_IO for the missing file
        assert "gives length 1 twice" in caplog.text

    def test_v1_index_is_refused(self, corpus, tmp_path, caplog):
        index = tmp_path / "idx.spmi"
        index.write_bytes(V1_INDEX)
        argv = ["-q", "mine", "--index", str(index), "--corpus", str(corpus), "--out", str(tmp_path / "spans.jsonl")]
        assert run(argv) == EXIT_DATA
        assert re.search(V1_REFUSAL, caplog.text)

    def test_v2_index_is_refused(self, corpus, tmp_path, caplog):
        index = tmp_path / "idx.spmi"
        index.write_bytes(V2_INDEX)
        argv = ["-q", "mine", "--index", str(index), "--corpus", str(corpus), "--out", str(tmp_path / "spans.jsonl")]
        assert run(argv) == EXIT_DATA
        assert re.search(V2_REFUSAL, caplog.text)
        assert "Traceback" not in caplog.text
        assert not (tmp_path / "spans.jsonl").exists()

    def test_io_error_exit_code(self, tmp_path, caplog, capsys):
        assert run(["-q", "stats", "--corpus", str(tmp_path / "nope.jsonl")]) == EXIT_IO
        assert f"I/O error: [Errno 2] No such file or directory: {str(tmp_path / 'nope.jsonl')!r}" in caplog.text
        assert "Traceback" not in caplog.text and capsys.readouterr().out == ""

    def test_environment_supplies_no_path(self, corpus, tmp_path, capsys, monkeypatch):
        index = tmp_path / "idx.spmi"
        assert run(["-q", "index", "--corpus", str(corpus), "--out", str(index)]) == EXIT_OK
        capsys.readouterr()
        before = index.read_bytes()
        monkeypatch.setenv("SPANMINE_OUT", str(index))
        monkeypatch.setenv("SPANMINE_CORPUS", str(corpus))
        for argv in (["stats"], ["mine", "--index", str(index), "--corpus", str(corpus), "--threads", "1"]):
            with pytest.raises(SystemExit) as excinfo:
                run(["-q", *argv])
            assert excinfo.value.code == 2
        assert index.read_bytes() == before

    def test_corrupt_requires_spans_for_span_objectives(self, corpus, tmp_path, capsys):
        index = tmp_path / "idx.spmi"
        assert run(["-q", "index", "--corpus", str(corpus), "--out", str(index)]) == EXIT_OK
        capsys.readouterr()
        with pytest.raises(SystemExit) as excinfo:
            run(["-q", "corrupt", "--objective", "ssp-d", "--index", str(index), "--corpus", str(corpus),
                 "--out", str(tmp_path / "x.jsonl")])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("command", ["corrupt", "analyze overlap"])
    def test_spans_missing_a_document_names_both_files(self, corpus, tmp_path, caplog, capsys, command):
        index = tmp_path / "idx.spmi"
        spans = tmp_path / "spans.jsonl"
        out = tmp_path / "out.jsonl"
        assert run(["-q", "index", "--corpus", str(corpus), "--out", str(index)]) == EXIT_OK
        assert run(_window_argv("mine", index, corpus, spans)) == EXIT_OK
        capsys.readouterr()
        spans.write_text("".join(spans.read_text(encoding="utf-8").splitlines(keepends=True)[:2]), encoding="utf-8")
        argv = {
            "corrupt": ["corrupt", "--objective", "ssr-d", "--index", str(index), "--corpus", str(corpus),
                        "--spans", str(spans), "--out", str(out), "--threads", "1"],
            "analyze overlap": ["analyze", "overlap", "--gold", str(corpus), "--spans", str(spans)],
        }[command]
        assert run(["-q", *argv]) == EXIT_DATA
        assert f"{corpus}: document 'c2' has no entry in the spans file {spans} (1 of 3 missing)" in caplog.text
        assert capsys.readouterr().out == "" and not out.exists()

    def test_a_corpus_read_as_spans_is_data_error(self, corpus, tmp_path, caplog, capsys):
        index = tmp_path / "idx.spmi"
        out = tmp_path / "out.jsonl"
        assert run(["-q", "index", "--corpus", str(corpus), "--out", str(index)]) == EXIT_OK
        capsys.readouterr()
        assert run(["-q", "corrupt", "--objective", "ssp-m", "--index", str(index), "--corpus", str(corpus),
                    "--spans", str(corpus), "--out", str(out), "--threads", "1"]) == EXIT_DATA
        assert f"data error: {corpus}: line 1: 'spans' must be a list" in caplog.text
        assert capsys.readouterr().out == "" and not out.exists()

    @pytest.mark.parametrize(
        "command,victim",
        [
            ("index", "corpus"),
            ("mine", "index"),
            ("corrupt", "spans"),
            ("eval", "preds"),
            ("analyze success", "index"),
            ("analyze overlap", "gold"),
            ("analyze overlap", "spans"),
        ],
    )
    def test_output_naming_an_input_is_refused(self, corpus, tmp_path, caplog, capsys, command, victim):
        index = tmp_path / "idx.spmi"
        spans = tmp_path / "spans.jsonl"
        preds = tmp_path / "preds.txt"
        preds.write_text("sparse solvers\ngraph pruning\ncodec design\n", encoding="utf-8")
        assert run(["-q", "index", "--corpus", str(corpus), "--out", str(index)]) == EXIT_OK
        assert run(_window_argv("mine", index, corpus, spans)) == EXIT_OK
        capsys.readouterr()
        path = {"corpus": corpus, "gold": corpus, "index": index, "spans": spans, "preds": preds}[victim]
        before = path.read_bytes()
        out_flag = "--out" if command in ("index", "mine", "corrupt") else "--report"
        argv = {
            "index": ["index", "--corpus", str(corpus)],
            "mine": ["mine", "--index", str(index), "--corpus", str(corpus), "--threads", "1"],
            "corrupt": ["corrupt", "--objective", "ssp-m", "--index", str(index), "--corpus", str(corpus),
                        "--spans", str(spans), "--threads", "1"],
            "eval": ["eval", "--preds", str(preds), "--gold", str(corpus)],
            "analyze success": ["analyze", "success", "--gold", str(corpus), "--index", str(index)],
            "analyze overlap": ["analyze", "overlap", "--gold", str(corpus), "--spans", str(spans)],
        }[command]
        assert run(["-q", *argv, out_flag, str(path)]) == EXIT_DATA
        assert f"{out_flag} {path} is the same file as --{victim} {path}" in caplog.text
        assert capsys.readouterr().out == ""
        assert path.read_bytes() == before

    def test_output_through_another_path_to_an_input_is_refused(self, corpus, tmp_path, caplog, monkeypatch):
        before = corpus.read_bytes()
        monkeypatch.chdir(tmp_path)
        assert run(["-q", "index", "--corpus", str(corpus), "--out", f"../{tmp_path.name}/{corpus.name}"]) == EXIT_DATA
        assert "is the same file as --corpus" in caplog.text
        assert corpus.read_bytes() == before

    # Each output flag's command line, less the flag, and the stage function it runs.
    OUTPUT_HEADS = {
        "index --out": (["index", "--corpus", "{corpus}"], "_cmd_index"),
        "mine --out": (["mine", "--index", "{index}", "--corpus", "{corpus}", "--threads", "1"], "_cmd_mine"),
        "corrupt --out": (["corrupt", "--objective", "ti", "--index", "{index}", "--corpus", "{corpus}"], "_cmd_corrupt"),
        "eval --report": (["eval", "--preds", "{corpus}", "--gold", "{corpus}"], "_cmd_eval"),
        "analyze success --report": (["analyze", "success", "--gold", "{corpus}", "--index", "{index}"], "_cmd_analyze"),
        "analyze overlap --report": (["analyze", "overlap", "--gold", "{corpus}", "--spans", "{corpus}"], "_cmd_analyze"),
    }

    @pytest.mark.parametrize("unwritable", ["missing directory", "a directory"])
    @pytest.mark.parametrize("flag", list(OUTPUT_HEADS))
    def test_an_unwritable_output_fails_before_any_input_is_read(
        self, corpus, tmp_path, caplog, capsys, monkeypatch, flag, unwritable
    ):
        head, stage = self.OUTPUT_HEADS[flag]
        called = []
        monkeypatch.setattr(cli, stage, lambda args: called.append(args) or {})
        index = tmp_path / "idx.spmi"  # never built: nothing may read it
        argv = [arg.format(corpus=corpus, index=index) for arg in head]
        out = tmp_path / "missing" / "out.json" if unwritable == "missing directory" else tmp_path
        assert run(["-q", *argv, flag.split()[-1], str(out)]) == EXIT_IO
        assert called == []
        expected = f"there is no directory {out.parent} to write it in" if unwritable == "missing directory" else "is a directory"
        assert f"I/O error: {flag.split()[-1]} {out}" in caplog.text and expected in caplog.text
        assert "Traceback" not in caplog.text and capsys.readouterr().out == ""

    @pytest.mark.parametrize("command", ["mine", "corrupt"])
    def test_a_write_cut_short_names_the_output(self, corpus, tmp_path, caplog, capsys, full_disk, command):
        index, spans, out = tmp_path / "idx.spmi", tmp_path / "spans.jsonl", tmp_path / "out.jsonl"
        assert run(["-q", "index", "--corpus", str(corpus), "--out", str(index)]) == EXIT_OK
        common = ["--index", str(index), "--corpus", str(corpus), "--threads", "1"]
        assert run(["-q", "mine", *common, "--thresholds", "1:0,2:0,3:0", "--out", str(spans)]) == EXIT_OK
        capsys.readouterr()
        full_disk()
        extra = ["--objective", "ssr-m", "--spans", str(spans)] if command == "corrupt" else []
        assert run(["-q", command, *common, *extra, "--out", str(out)]) == EXIT_IO
        assert f"I/O error: [Errno 28] No space left on device: {str(out)!r}" in caplog.text
        assert ".tmp" not in caplog.text and "Traceback" not in caplog.text and capsys.readouterr().out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus.jsonl", "idx.spmi", "spans.jsonl"]

    def test_eval_prints_the_summary_schema_version(self, corpus, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("spanmine.evaluation.REPORT_SCHEMA_VERSION", 7)
        preds, report = tmp_path / "preds.txt", tmp_path / "report.json"
        preds.write_text("sparse solvers\ngraph pruning\ncodec design\n", encoding="utf-8")
        assert run(["-q", "eval", "--preds", str(preds), "--gold", str(corpus), "--report", str(report)]) == EXIT_OK
        out = _json_out(capsys)
        assert list(out)[:3] == ["schema_version", "command", "elapsed_sec"]
        assert out["schema_version"] == cli.SUMMARY_SCHEMA_VERSION == 1
        assert json.loads(report.read_text(encoding="utf-8"))["schema_version"] == 7

    def test_an_unwritable_output_wins_over_a_bad_threshold_spec(self, corpus, tmp_path, caplog, capsys):
        argv = ["-q", "mine", "--index", str(tmp_path / "idx.spmi"), "--corpus", str(corpus),
                "--out", str(tmp_path / "missing" / "spans.jsonl"), "--thresholds", "1:5,1:5", "--threads", "1"]
        assert run(argv) == EXIT_IO
        assert "gives length 1 twice" not in caplog.text

    # A parsable command line of each subcommand that takes --threads.
    THREADS_HEADS = {
        "mine": ["mine", "--index", "i", "--corpus", "c", "--out", "o"],
        "corrupt": ["corrupt", "--objective", "ti", "--index", "i", "--corpus", "c", "--out", "o"],
        "demo": ["demo"],
    }

    @pytest.mark.parametrize("command", ["mine", "corrupt", "demo"])
    def test_threads_capped_at_core_count(self, command):
        head = self.THREADS_HEADS[command]
        parser = build_parser()
        assert parser.parse_args([*head, "--threads", "100000"]).threads == usable_cpus()
        assert parser.parse_args([*head, "--threads", "1"]).threads == 1

    @pytest.mark.parametrize("command", ["mine", "corrupt", "demo"])
    def test_threads_counts_only_the_cpus_this_process_may_use(self, command, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {1}, raising=False)
        head = self.THREADS_HEADS[command]
        parser = build_parser()
        assert parser.parse_args([*head, "--threads", "2"]).threads == 1
        assert parser.parse_args(head).threads == 1

    @pytest.mark.parametrize("value", ["0", "-3", "2.5"])
    @pytest.mark.parametrize("command", ["mine", "corrupt", "demo"])
    def test_threads_below_one_or_fractional_is_usage_error(self, command, value, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([*self.THREADS_HEADS[command], f"--threads={value}"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument --threads: expected a whole number of at least 1, got {value!r}" in err
        assert "_worker_count" not in err


@pytest.mark.parametrize(("keywords", "status"), [([], EXIT_OK), (None, EXIT_DATA)], ids=["empty-list", "null"])
@pytest.mark.parametrize("stage", ["stats", "eval", "analyze success", "analyze overlap"])
def test_an_empty_keyword_list_is_labeled_and_null_is_not(tmp_path, caplog, capsys, stage, keywords, status):
    corpus = tmp_path / "corpus.jsonl"
    records = [_corpus_lines()[0], {"id": "u1", "title": "plain title", "abstract": "plain body", "keywords": keywords}]
    corpus.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    index, spans, preds = tmp_path / "idx.spmi", tmp_path / "spans.jsonl", tmp_path / "preds.txt"
    assert run(["-q", "index", "--corpus", str(corpus), "--out", str(index)]) == EXIT_OK
    assert run(["-q", "mine", "--index", str(index), "--corpus", str(corpus), "--out", str(spans)]) == EXIT_OK
    preds.write_text("sparse solvers\nplain title\n", encoding="utf-8")
    capsys.readouterr()
    argv = {
        "stats": ["stats", "--corpus", str(corpus)],
        "eval": ["eval", "--preds", str(preds), "--gold", str(corpus)],
        "analyze success": ["analyze", "success", "--gold", str(corpus), "--index", str(index)],
        "analyze overlap": ["analyze", "overlap", "--gold", str(corpus), "--spans", str(spans)],
    }[stage]
    assert run(["-q", *argv]) == status
    if status == EXIT_OK:
        assert _json_out(capsys)
    else:
        assert capsys.readouterr().out == ""
        assert "document 'u1' is unlabeled: it has no keyphrases field" in caplog.text


def _fuzz_text(specials):
    """Plain words, so that runs get past the loaders; or any code point, with ``specials`` drawn often."""
    words = st.sampled_from(["graph", "cut", "sparse", "é", "東京", 'say"hi"', "back\\slash"])
    chars = st.one_of(st.characters(exclude_categories=()), st.sampled_from(specials))
    return st.one_of(st.lists(words, min_size=1, max_size=4).map(" ".join), st.lists(chars, max_size=8).map("".join))


# Documents as (id, title, body, keyphrases, span text). Half the examples draw lone surrogates,
# which make every loader refuse the file; the other half can get through the whole pipeline.
_FUZZ_SPECIALS = ['"', "\\", "\x00", "\x1f", "\r", "\n", "\u2028", " ", "graph"]
_FUZZ_DOCS = st.sampled_from([_FUZZ_SPECIALS, [*_FUZZ_SPECIALS, "\ud800", "\udfff"]]).flatmap(
    lambda specials: st.lists(
        st.tuples(*[_fuzz_text(specials)] * 3, st.lists(_fuzz_text(specials), max_size=3), _fuzz_text(specials)),
        min_size=1,
        max_size=4,
        unique_by=lambda doc: doc[0],
    )
)


def _refuse_constant(name):
    raise ValueError(f"{name} is not strict JSON")


@settings(max_examples=40, deadline=None)
@given(docs=_FUZZ_DOCS, ensure_ascii=st.booleans())
def test_any_string_in_the_inputs_exits_0_or_1_with_strict_json(docs, ensure_ascii):
    """Ids, titles, bodies, keyphrases and span texts from all of Unicode, written as JSON with and without escapes."""

    def write(path, lines) -> None:  # a lone surrogate written unescaped is bytes that are not UTF-8
        Path(path).write_bytes("".join(line + "\n" for line in lines).encode("utf-8", "surrogatepass"))

    with tempfile.TemporaryDirectory() as tmp:
        names = ("corpus.jsonl", "spans.jsonl", "preds.txt", "idx.spmi", "mined.jsonl", "out.jsonl")
        corpus, spans, preds, index, mined, out = (os.path.join(tmp, name) for name in names)
        records = [{"id": doc_id, "title": title, "abstract": body, "keywords": keyphrases}
                   for doc_id, title, body, keyphrases, _ in docs]
        write(corpus, (json.dumps(record, ensure_ascii=ensure_ascii) for record in records))
        span_records = [{"id": doc[0], "spans": [{"text": doc[4], "rank": 0}]} for doc in docs]
        write(spans, (json.dumps(record, ensure_ascii=ensure_ascii) for record in span_records))
        # One line per document, never blank: a blank last line would end the file early.
        write(preds, ("graph;" + ";".join(doc[3]).replace("\r", " ").replace("\n", " ") for doc in docs))
        stages = {
            "index": ["index", "--corpus", corpus, "--out", index],
            "mine": ["mine", "--index", index, "--corpus", corpus, "--out", mined, "--threads", "1"],
            "corrupt": ["corrupt", "--objective", "ssp-m", "--index", index, "--corpus", corpus, "--spans", spans,
                        "--out", out, "--threads", "1"],
            "eval": ["eval", "--preds", preds, "--gold", corpus],
            "analyze overlap": ["analyze", "overlap", "--gold", corpus, "--spans", spans],
        }
        status = {}
        for stage, argv in stages.items():
            if stage in ("mine", "corrupt") and status["index"] != EXIT_OK:
                continue
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                status[stage] = run(["-q", *argv])
            assert status[stage] in (EXIT_OK, EXIT_DATA), stage
            if status[stage] == EXIT_OK:
                assert json.loads(stdout.getvalue(), parse_constant=_refuse_constant)["command"] == stage.split()[0]
            else:
                assert stdout.getvalue() == "", stage
        if status.get("mine") == EXIT_OK:
            written = Path(mined).read_bytes().decode("utf-8").split("\n")  # not splitlines(): an id may hold U+2028
            assert written.pop() == ""
            assert written == [json.dumps(json.loads(line), ensure_ascii=False) for line in written]


def _window_argv(command, index, corpus, out):
    """A `mine`, `corrupt --objective ti` or `analyze success` command line against ``index``."""
    if command == "analyze success":
        return ["-q", "analyze", "success", "--index", str(index), "--gold", str(corpus)]
    head = ["mine"] if command == "mine" else ["corrupt", "--objective", "ti"]
    return ["-q", *head, "--index", str(index), "--corpus", str(corpus), "--out", str(out), "--threads", "1"]


@pytest.fixture(scope="module")
def fuzz_index_base(tmp_path_factory):
    """A directory, the 3-document corpus in it, and the header and body of the index `spanmine index` writes for it."""
    tmp = tmp_path_factory.mktemp("index-fuzz")
    corpus, index = tmp / "corpus.jsonl", tmp / "idx.spmi"
    corpus.write_text("".join(json.dumps(record) + "\n" for record in _corpus_lines()), encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()):
        assert run(["-q", "index", "--corpus", str(corpus), "--out", str(index)]) == EXIT_OK
    data = index.read_bytes()
    return tmp, corpus, data[: HEADER.size], data[HEADER.size : -4]


@settings(max_examples=100, deadline=None)
@given(edits=INDEX_EDITS, counts=HEADER_COUNTS)
def test_an_edited_index_file_exits_0_or_1_with_strict_json(fuzz_index_base, edits, counts):
    """Index files edited as TestLoadFuzz edits them, with a valid checksum, read by each command that reads an index."""
    tmp, corpus, header, body = fuzz_index_base
    index = tmp / "edited.spmi"
    index.write_bytes(edited_index(header, body, edits, counts))
    for command in ("mine", "analyze success"):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            status = run(_window_argv(command, index, corpus, tmp / "spans.jsonl"))
        assert status in (EXIT_OK, EXIT_DATA), command
        if status == EXIT_OK:
            assert json.loads(stdout.getvalue(), parse_constant=_refuse_constant)["command"] == command.split()[0]
        else:
            assert stdout.getvalue() == "", command


class TestMineReadsTheIndex:
    """`mine` and `corrupt` tokenize to the window the index holds; `mine` scales its default cutoffs to it."""

    @pytest.fixture
    def demo_corpus(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        write_corpus(generate_demo_corpus(), path)
        return path

    def test_window_comes_from_the_index(self, demo_corpus, tmp_path, capsys):
        index = tmp_path / "idx.spmi"
        spans = tmp_path / "spans.jsonl"
        assert run(["-q", "index", "--corpus", str(demo_corpus), "--out", str(index), "--max-tokens", "20"]) == EXIT_OK
        assert run([
            "-q", "mine", "--index", str(index), "--corpus", str(demo_corpus), "--out", str(spans), "--threads", "1",
        ]) == EXIT_OK
        capsys.readouterr()
        expected = tmp_path / "expected.jsonl"
        docs = [model_input(doc, 20) for doc in load_corpus(demo_corpus)]
        mine_corpus(docs, load_index(index), expected, thresholds=DEFAULT_THRESHOLDS.scaled_to(len(docs)))
        assert spans.read_bytes() == expected.read_bytes()

    @pytest.mark.parametrize("objective", ["ssr-m", "tg"])
    def test_corrupt_window_comes_from_the_index(self, demo_corpus, tmp_path, capsys, objective):
        index = tmp_path / "idx.spmi"
        spans = tmp_path / "spans.jsonl"
        out = tmp_path / "out.jsonl"
        assert run(["-q", "index", "--corpus", str(demo_corpus), "--out", str(index), "--max-tokens", "20"]) == EXIT_OK
        assert run(_window_argv("mine", index, demo_corpus, spans)) == EXIT_OK
        assert run([
            "-q", "corrupt", "--objective", objective, "--index", str(index), "--corpus", str(demo_corpus),
            "--spans", str(spans), "--out", str(out), "--seed", "3", "--threads", "1",
        ]) == EXIT_OK
        capsys.readouterr()
        expected = tmp_path / "expected.jsonl"
        docs = [model_input(doc, 20) for doc in load_corpus(demo_corpus)]
        gen_corpus(docs, load_spans(spans), CorruptionConfig(objective, seed=3), expected)
        assert out.read_bytes() == expected.read_bytes()

    @pytest.mark.parametrize("command", ["mine", "corrupt"])
    def test_document_shorter_than_indexed_is_data_error(self, corpus, tmp_path, caplog, capsys, command):
        index = tmp_path / "idx.spmi"
        assert run(["-q", "index", "--corpus", str(corpus), "--out", str(index)]) == EXIT_OK
        capsys.readouterr()
        lines = _corpus_lines()
        lines[1]["abstract"] = "pruning graphs"
        corpus.write_text("\n".join(json.dumps(r) for r in lines) + "\n", encoding="utf-8")
        assert run(_window_argv(command, index, corpus, tmp_path / "out.jsonl")) == EXIT_DATA
        assert f"{corpus}: document 'c1' has 5 tokens but the index holds 8" in caplog.text

    @pytest.mark.parametrize("command", ["mine", "corrupt"])
    def test_zero_token_indexed_document_is_data_error(self, tmp_path, caplog, command):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("\n".join(json.dumps(r) for r in _corpus_lines()[:2]) + "\n", encoding="utf-8")
        first, second = load_corpus(corpus)
        index = tmp_path / "idx.spmi"
        save_index(build_index([TokenizedDoc(first.id, (), 0), model_input(second)]), index)
        assert run(_window_argv(command, index, corpus, tmp_path / "out.jsonl")) == EXIT_DATA
        assert f"{index}: document 'c0' has 0 tokens in the index" in caplog.text

    @pytest.mark.parametrize("command", ["mine", "corrupt", "analyze success"])
    def test_document_missing_from_the_index_names_both_files(self, corpus, tmp_path, caplog, command):
        lines = _corpus_lines()
        indexed = tmp_path / "indexed.jsonl"
        indexed.write_text("\n".join(json.dumps(r) for r in lines[:2]) + "\n", encoding="utf-8")
        index = tmp_path / "idx.spmi"
        save_index(build_index(model_input(doc) for doc in load_corpus(indexed)), index)
        assert run(_window_argv(command, index, corpus, tmp_path / "out.jsonl")) == EXIT_DATA
        assert f"{corpus}: document 'c2' is not in the index {index}" in caplog.text

    def test_cli_index_and_mine_reproduce_the_demo(self, tmp_path, capsys):
        demo_dir = tmp_path / "demo"
        assert run(["-q", "demo", "--out", str(demo_dir)]) == EXIT_OK
        demo_mining = _json_out(capsys)["mining"]
        index = tmp_path / "idx.spmi"
        spans = tmp_path / "spans.jsonl"
        corpus = str(demo_dir / "corpus.jsonl")
        assert run(["-q", "index", "--corpus", corpus, "--out", str(index)]) == EXIT_OK
        capsys.readouterr()
        assert index.read_bytes() == (demo_dir / "index.spmi").read_bytes()
        argv = ["-q", "mine", "--index", str(index), "--corpus", corpus, "--out", str(spans), "--threads", "1"]
        assert run(argv) == EXIT_OK
        mine_summary = _json_out(capsys)
        assert spans.read_bytes() == (demo_dir / "spans.jsonl").read_bytes()
        assert list(mine_summary)[3:-1] == list(demo_mining)  # one serialization, between the header and "out"
        assert {k: mine_summary[k] for k in demo_mining} == demo_mining


class TestDemoDeterminism:
    def _hashes(self, out_dir):
        return {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.iterdir())
        }

    def test_demo_runs_and_repeats(self, tmp_path, capsys):
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert run(["-q", "demo", "--out", str(a), "--threads", "1"]) == EXIT_OK
        summary = _json_out(capsys)
        assert summary["evaluation"]["present"]["docs_scored"] > 0
        assert run(["-q", "demo", "--out", str(b), "--threads", "1"]) == EXIT_OK
        capsys.readouterr()
        assert self._hashes(a) == self._hashes(b)

    # sha256 of every file `spanmine demo` writes at the default seed.
    DEMO_DIGESTS = {
        "corpus.jsonl": "aeb3d5f1a6bf822d5c2c04c97919e3591a7e0c967e278ec9daa999e00f52b358",
        "predictions.txt": "276976767f4b16925695a81a1282ea98fee909ea73621940a38e10ec9012516e",
        "index.spmi": "95e485bd1401d9ae11b17a56d39ea8562bf7d7beb6cea6cdba420ca48712fe2e",
        "spans.jsonl": "08baabdf77f82da7cf0689a2dc47de92123ebf08fd0f48e4c6f41ae2eeccc282",
        "eval_report.json": "f1b3fcf0f3937bc892ec305c97b5ae206dbf11f784ea61e57e880789c7a2611e",
        **{f"corrupt_{objective.replace('-', '_')}.jsonl": CORRUPTION_DIGESTS[objective] for objective in OBJECTIVES},
    }

    # sha256 of the demo's stdout less elapsed_sec and out_dir, re-serialized in its own key order:
    # pins the keys, order and values of every stage's summary.
    DEMO_SUMMARY_DIGEST = "0835dba04844b45c14ebeb817961b2af8272bda848fdd3af402d15a1aa854a29"

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_demo_artifacts_golden_digest(self, tmp_path, capsys, threads):
        assert run(["-q", "demo", "--out", str(tmp_path), "--threads", threads]) == EXIT_OK
        summary = _json_out(capsys)
        assert summary["artifacts"] == sorted(self.DEMO_DIGESTS)
        assert self._hashes(tmp_path) == self.DEMO_DIGESTS
        del summary["elapsed_sec"], summary["out_dir"]
        assert hashlib.sha256(json.dumps(summary, indent=2).encode()).hexdigest() == self.DEMO_SUMMARY_DIGEST

    def test_demo_lists_only_the_files_it_wrote(self, tmp_path, capsys):
        notes = tmp_path / "notes.txt"
        notes.write_text("kept\n", encoding="utf-8")
        assert run(["-q", "demo", "--out", str(tmp_path), "--threads", "1"]) == EXIT_OK
        assert _json_out(capsys)["artifacts"] == sorted(self.DEMO_DIGESTS)
        assert notes.read_text(encoding="utf-8") == "kept\n"


def _checkout_env() -> dict[str, str]:
    """The environment of a fresh interpreter that imports this checkout's spanmine."""
    src = str(Path(spanmine.__file__).resolve().parent.parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def _python(*argv: str) -> subprocess.CompletedProcess:
    """Run a fresh interpreter that imports this checkout's spanmine."""
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=_checkout_env(), timeout=60)


def test_python_m_spanmine_version():
    proc = _python("-m", "spanmine", "--version")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == f"spanmine {spanmine.__version__}"


def test_internal_error_exits_4_with_its_traceback(corpus):
    # In a fresh interpreter, so that the CLI's own stderr logging is what reports the bug.
    script = (
        "import sys\n"
        "from spanmine import cli\n"
        "def boom(args):\n"
        "    raise RuntimeError('boom')\n"
        "cli._cmd_stats = boom\n"
        f"sys.exit(cli.run(['-q', 'stats', '--corpus', {str(corpus)!r}]))\n"
    )
    proc = _python("-c", script)
    assert proc.returncode == 4, proc.stderr
    assert proc.stdout == ""
    assert "Traceback" in proc.stderr and "RuntimeError: boom" in proc.stderr


# Driver scripts for `mine --threads 2`, each blocking at one point while a forked worker is alive.
# Two CPUs are claimed so --threads 2 forks on any box, and SIGINT raises KeyboardInterrupt
# even where the test runner's shell started this interpreter with SIGINT ignored.
_BLOCKING_MINE = {
    "mining": "miner._mine_shard = lambda *args: time.sleep(60)\n",  # in the parent's and the worker's shard
    "writing": (  # inside the spans file's `replacing` block, once part of it is written
        "real_replacing = miner.replacing\n"
        "@contextlib.contextmanager\n"
        "def replacing(path):\n"
        "    with real_replacing(path) as fh:\n"
        "        fh.write('partial')\n"
        "        fh.flush()\n"
        "        map_shared(lambda item: time.sleep(60), range(2), 2)\n"
        "        yield fh\n"
        "miner.replacing = replacing\n"
    ),
}


# Each signal's exit code and the one line a run it stops logs.
_STOPPED = {
    "SIGINT": (130, "ERROR spanmine: mine interrupted by SIGINT"),
    "SIGTERM": (143, "ERROR spanmine: mine terminated by SIGTERM"),
}


def _children(pid: int) -> list[int]:
    return [int(child) for child in Path(f"/proc/{pid}/task/{pid}/children").read_text().split()]


@pytest.mark.skipif(
    not hasattr(os, "fork") or not Path(f"/proc/{os.getpid()}/task/{os.getpid()}/children").exists(),
    reason="needs os.fork and /proc/<pid>/task/<pid>/children",
)
@pytest.mark.parametrize("stage", list(_BLOCKING_MINE))
@pytest.mark.parametrize("signame", list(_STOPPED))
def test_a_signal_to_mine_ends_it_clean(corpus, tmp_path, capsys, stage, signame):
    index, out = tmp_path / "idx.spmi", tmp_path / "spans.jsonl"
    assert run(["-q", "index", "--corpus", str(corpus), "--out", str(index)]) == EXIT_OK
    capsys.readouterr()
    out.write_text("previous\n", encoding="utf-8")
    argv = ["-q", "mine", "--index", str(index), "--corpus", str(corpus), "--out", str(out), "--threads", "2"]
    script = (
        "import contextlib, signal, sys, time\n"
        "from spanmine import cli, miner\n"
        "from spanmine.pool import map_shared\n"
        "signal.signal(signal.SIGINT, signal.default_int_handler)\n"
        "cli.usable_cpus = lambda: 2\n"
        f"{_BLOCKING_MINE[stage]}"
        f"sys.exit(cli.run({argv!r}))\n"
    )
    # Files, not pipes: an orphaned worker would hold a pipe open after the parent exits.
    with tempfile.TemporaryFile("w+") as stdout, tempfile.TemporaryFile("w+") as stderr:
        proc = subprocess.Popen([sys.executable, "-c", script], stdout=stdout, stderr=stderr, env=_checkout_env())
        children = []
        try:
            deadline = time.monotonic() + 30
            # A worker of the blocking stage: in "writing", the temporary file exists once mining's worker is reaped.
            while not children or (stage == "writing" and not list(tmp_path.glob("*.tmp"))):
                assert proc.poll() is None and time.monotonic() < deadline
                time.sleep(0.01)
                children = _children(proc.pid)
            proc.send_signal(getattr(signal, signame))
            proc.wait(timeout=30)
        finally:
            proc.kill()
            proc.wait()
            alive = []
            for child in children:
                with contextlib.suppress(ProcessLookupError):
                    os.kill(child, signal.SIGKILL)
                    alive.append(child)
        stdout.seek(0)
        stderr.seek(0)
        code, line = _STOPPED[signame]
        assert (proc.returncode, stdout.read(), stderr.read().splitlines()) == (code, "", [line])
    assert alive == []
    assert sorted(path.name for path in tmp_path.iterdir()) == ["corpus.jsonl", "idx.spmi", "spans.jsonl"]
    assert out.read_text(encoding="utf-8") == "previous\n"


def test_run_restores_the_callers_sigterm_handler(corpus, capsys):
    def handler(signum, frame):
        pass

    caller = signal.signal(signal.SIGTERM, handler)
    try:
        assert run(["-q", "stats", "--corpus", str(corpus)]) == EXIT_OK
        assert signal.getsignal(signal.SIGTERM) is handler
    finally:
        signal.signal(signal.SIGTERM, caller)


def _options(parser: argparse.ArgumentParser) -> set[str]:
    return {opt for action in parser._actions for opt in action.option_strings}


def _subcommands(parser: argparse.ArgumentParser) -> dict[str, argparse.ArgumentParser]:
    actions = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return actions[0].choices if actions else {}


def _command_options(parser: argparse.ArgumentParser, words: list[str]) -> set[str]:
    """Flags a `spanmine <words>` line may use: its subcommand's and the global ones."""
    options = _options(parser)
    for word in words:
        parser = _subcommands(parser).get(word)
        if parser is None:
            break
        options |= _options(parser)
    return options


def test_readme_names_only_real_flags():
    """README.md names only flags the CLI takes: that subcommand's on a `spanmine ...` line, any in backticks."""
    parser = build_parser()
    any_command, pending = set(), [parser]
    while pending:
        sub = pending.pop()
        any_command |= _options(sub)
        pending.extend(_subcommands(sub).values())
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    unknown = []
    for line in readme.replace("\\\n", " ").splitlines():
        if line.split()[:1] in (["pip"], ["pytest"]):
            continue
        spans = re.findall(r"`([^`]+)`", line)
        for text in [line, *spans]:
            words = text.split()
            if words[:1] == ["spanmine"]:
                allowed = _command_options(parser, words[1:])
            elif text in spans:
                allowed = any_command
            else:
                continue
            unknown += [(flag, text) for flag in re.findall(r"--[a-z][a-z0-9-]*", text) if flag not in allowed]
    assert not unknown

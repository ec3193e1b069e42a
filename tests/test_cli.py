import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

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
from tests.conftest import V1_INDEX, V1_REFUSAL
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
        dfs = [len(plist) for plist in spanmine.load_index(index).postings.values()]
        assert (out["documents"], out["terms"], out["postings"]) == (3, len(dfs), sum(dfs))
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
        report = tmp_path / "report.json"
        assert run([
            "-q", "eval", "--preds", str(preds), "--gold", str(corpus), "--report", str(report),
        ]) == EXIT_OK
        out = _json_out(capsys)
        assert out["present"]["docs_scored"] == 3
        assert report.exists()

        assert run(["-q", "analyze", "success", "--gold", str(corpus), "--index", str(index), "--k", "3"]) == EXIT_OK
        assert 0.0 <= _json_out(capsys)["success_rate_overall"] <= 1.0
        assert run(["-q", "analyze", "overlap", "--gold", str(corpus), "--spans", str(spans)]) == EXIT_OK
        _json_out(capsys)
        assert run(["-q", "analyze", "spans", "--spans", str(spans)]) == EXIT_OK
        assert _json_out(capsys)["documents"] == 3

    def test_missing_required_flag_is_usage_error(self, corpus):
        with pytest.raises(SystemExit) as excinfo:
            run(["-q", "mine", "--corpus", str(corpus), "--out", "x.jsonl"])
        assert excinfo.value.code == 2

    def test_unknown_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            run(["-q", "frobnicate"])
        assert excinfo.value.code == 2

    def test_data_error_exit_code(self, corpus, tmp_path, capsys):
        preds = tmp_path / "preds.txt"
        preds.write_text("one\ntwo\n", encoding="utf-8")  # 2 preds vs 3 gold
        assert run(["-q", "eval", "--preds", str(preds), "--gold", str(corpus)]) == EXIT_DATA

    def test_eval_empty_separator_is_data_error(self, corpus, tmp_path, caplog):
        preds = tmp_path / "preds.txt"
        preds.write_text("sparse solvers\ngraph pruning\ncodec design\n", encoding="utf-8")
        assert run(["-q", "eval", "--preds", str(preds), "--gold", str(corpus), "--sep", ""]) == EXIT_DATA
        assert "the prediction separator must not be empty" in caplog.text

    @pytest.mark.parametrize(
        "record",
        [{"spans": []}, [1, 2], {"id": "b", "spans": [{"rank": 0}]}, {"id": "b", "spans": [{"text": "x"}]}],
        ids=["missing-id", "non-object-line", "item-missing-text", "item-missing-rank"],
    )
    def test_analyze_malformed_spans_is_data_error(self, tmp_path, record):
        spans = tmp_path / "spans.jsonl"
        spans.write_text(json.dumps(record) + "\n", encoding="utf-8")
        assert run(["-q", "analyze", "spans", "--spans", str(spans)]) == EXIT_DATA

    def test_non_finite_summary_is_data_error(self, corpus, capsys, caplog, monkeypatch):
        monkeypatch.setattr(cli, "_cmd_stats", lambda args: {"documents": float("nan")})
        assert run(["-q", "stats", "--corpus", str(corpus)]) == EXIT_DATA
        assert capsys.readouterr().out == ""
        assert "data error: the run summary holds nan, which strict JSON cannot encode" in caplog.text

    def test_data_error_in_a_worker_block_exits_1(self, corpus, tmp_path, caplog, capsys, monkeypatch):
        index = tmp_path / "idx.spmi"
        assert run(["-q", "index", "--corpus", str(corpus), "--out", str(index)]) == EXIT_OK
        capsys.readouterr()

        corrupt = spanmine.corruption._corrupt

        def corrupt_all_but_the_last(doc, spans, cfg):  # c2 is in the forked worker's block
            if doc.doc_id == "c2":
                raise DataError("planted failure in c2")
            return corrupt(doc, spans, cfg)

        monkeypatch.setattr(spanmine.corruption, "_corrupt", corrupt_all_but_the_last)
        out = tmp_path / "out.jsonl"
        argv = ["-q", "corrupt", "--objective", "ti", "--index", str(index), "--corpus", str(corpus)]
        assert run([*argv, "--out", str(out), "--threads", "2"]) == EXIT_DATA
        assert "planted failure in c2" in caplog.text

    def test_non_finite_analyze_report_is_data_error(self, tmp_path, capsys, caplog, monkeypatch):
        spans = tmp_path / "spans.jsonl"
        spans.write_text(json.dumps({"id": "a", "spans": []}) + "\n", encoding="utf-8")
        report = tmp_path / "report.json"
        stats = argparse.Namespace(to_dict=lambda: {"avg_span_len": float("inf")})
        monkeypatch.setattr(spanmine.analysis, "span_characteristics", lambda spans_by_id: stats)
        assert run(["-q", "analyze", "spans", "--spans", str(spans), "--report", str(report)]) == EXIT_DATA
        assert capsys.readouterr().out == "" and not report.exists()
        assert f"data error: report {report} holds inf, which strict JSON cannot encode" in caplog.text

    def test_bad_utf8_corpus_is_data_error(self, corpus, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(corpus.read_bytes() + b'{"id": "c9", "title": "caf\xe9", "abstract": "x"}\n')
        assert run(["-q", "stats", "--corpus", str(bad)]) == EXIT_DATA

    def test_bad_utf8_spans_is_data_error(self, tmp_path):
        spans = tmp_path / "spans.jsonl"
        spans.write_bytes(b'{"id": "a", "spans": [{"text": "caf\xe9", "rank": 0}]}\n')
        assert run(["-q", "analyze", "spans", "--spans", str(spans)]) == EXIT_DATA

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
        index = tmp_path / "idx.spmi"
        assert run(["-q", "index", "--corpus", str(corpus), "--out", str(index)]) == EXIT_OK
        corpus.write_text(
            corpus.read_text(encoding="utf-8") + '{"title": "no id", "abstract": "x"}\n', encoding="utf-8"
        )
        argv = {
            "stats": ["stats", "--corpus", str(corpus)],
            "mine": ["mine", "--index", str(index), "--corpus", str(corpus),
                     "--out", str(tmp_path / "spans.jsonl"), "--threads", "1"],
        }[command]
        with caplog.at_level("WARNING", logger="spanmine"):
            assert run(["-q", *argv]) == EXIT_OK
        assert f"{corpus}: line 4: missing or empty 'id' field" in caplog.text
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

    def test_v1_index_is_refused(self, corpus, tmp_path, caplog):
        index = tmp_path / "idx.spmi"
        index.write_bytes(V1_INDEX)
        argv = ["-q", "mine", "--index", str(index), "--corpus", str(corpus), "--out", str(tmp_path / "spans.jsonl")]
        assert run(argv) == EXIT_DATA
        assert re.search(V1_REFUSAL, caplog.text)

    def test_io_error_exit_code(self, tmp_path):
        assert run(["-q", "stats", "--corpus", str(tmp_path / "nope.jsonl")]) == EXIT_IO

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

    @pytest.mark.parametrize(
        "command,victim",
        [
            ("index", "corpus"),
            ("mine", "index"),
            ("corrupt", "spans"),
            ("eval", "preds"),
            ("analyze success", "index"),
            ("analyze overlap", "gold"),
            ("analyze spans", "spans"),
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
            "analyze spans": ["analyze", "spans", "--spans", str(spans)],
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
        assert parser.parse_args([*head, "--threads", "100000"]).threads == (os.cpu_count() or 1)
        assert parser.parse_args([*head, "--threads", "1"]).threads == 1

    @pytest.mark.parametrize("value", ["0", "-3", "2.5"])
    @pytest.mark.parametrize("command", ["mine", "corrupt", "demo"])
    def test_threads_below_one_or_fractional_is_usage_error(self, command, value, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([*self.THREADS_HEADS[command], f"--threads={value}"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument --threads: expected a whole number of at least 1, got {value!r}" in err
        assert "_worker_count" not in err


def _window_argv(command, index, corpus, out):
    """A `mine`, `corrupt --objective ti` or `analyze success` command line against ``index``."""
    if command == "analyze success":
        return ["-q", "analyze", "success", "--index", str(index), "--gold", str(corpus)]
    head = ["mine"] if command == "mine" else ["corrupt", "--objective", "ti"]
    return ["-q", *head, "--index", str(index), "--corpus", str(corpus), "--out", str(out), "--threads", "1"]


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
        "index.spmi": "21a84551a4afcb41c102e732e182a124136654c7082267a658a10fb8f6638eb3",
        "spans.jsonl": "08baabdf77f82da7cf0689a2dc47de92123ebf08fd0f48e4c6f41ae2eeccc282",
        "eval_report.json": "f1b3fcf0f3937bc892ec305c97b5ae206dbf11f784ea61e57e880789c7a2611e",
        **{f"corrupt_{objective.replace('-', '_')}.jsonl": CORRUPTION_DIGESTS[objective] for objective in OBJECTIVES},
    }

    # sha256 of the demo's stdout less elapsed_sec and out_dir, re-serialized in its own key order:
    # pins the keys, order and values of every stage's summary.
    DEMO_SUMMARY_DIGEST = "8582f9f7eb4bb595cf3d56466175c707c5ea56cbadf542d4d1eabf990754275e"

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


def _python(*argv: str) -> subprocess.CompletedProcess:
    """Run a fresh interpreter that imports this checkout's spanmine."""
    src = str(Path(spanmine.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env, timeout=60)


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

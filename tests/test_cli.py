import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import spanmine
from spanmine.cli import EXIT_DATA, EXIT_IO, EXIT_OK, run
from tests.conftest import V1_INDEX, V1_REFUSAL


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
            "-q", "corrupt", "--objective", "ssr-m", "--corpus", str(corpus),
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

    @pytest.mark.parametrize(
        "record",
        [{"spans": []}, [1, 2], {"id": "b", "spans": [{"rank": 0}]}, {"id": "b", "spans": [{"text": "x"}]}],
        ids=["missing-id", "non-object-line", "item-missing-text", "item-missing-rank"],
    )
    def test_analyze_malformed_spans_is_data_error(self, tmp_path, record):
        spans = tmp_path / "spans.jsonl"
        spans.write_text(json.dumps(record) + "\n", encoding="utf-8")
        assert run(["-q", "analyze", "spans", "--spans", str(spans)]) == EXIT_DATA

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
        [("index", "--max-tokens", "0"), ("mine", "--max-tokens", "0"), ("corrupt", "--max-tokens", "0"),
         ("mine", "--max-spans", "-1")],
    )
    def test_out_of_range_count_is_data_error(self, corpus, tmp_path, capsys, command, flag, value):
        index = tmp_path / "idx.spmi"
        assert run(["-q", "index", "--corpus", str(corpus), "--out", str(index)]) == EXIT_OK
        capsys.readouterr()
        out = str(tmp_path / "out")
        argv = {
            "index": ["index", "--corpus", str(corpus), "--out", out],
            "mine": ["mine", "--index", str(index), "--corpus", str(corpus), "--out", out, "--threads", "1"],
            "corrupt": ["corrupt", "--objective", "ti", "--corpus", str(corpus), "--out", out, "--threads", "1"],
        }[command]
        assert run(["-q", *argv, flag, value]) == EXIT_DATA

    def test_v1_index_is_refused(self, corpus, tmp_path, caplog):
        index = tmp_path / "idx.spmi"
        index.write_bytes(V1_INDEX)
        argv = ["-q", "mine", "--index", str(index), "--corpus", str(corpus), "--out", str(tmp_path / "spans.jsonl")]
        assert run(argv) == EXIT_DATA
        assert re.search(V1_REFUSAL, caplog.text)

    def test_io_error_exit_code(self, tmp_path):
        assert run(["-q", "stats", "--corpus", str(tmp_path / "nope.jsonl")]) == EXIT_IO

    def test_env_var_supplies_default_path(self, corpus, capsys, monkeypatch):
        monkeypatch.setenv("SPANMINE_CORPUS", str(corpus))
        assert run(["-q", "stats"]) == EXIT_OK
        assert _json_out(capsys)["stats"]["num_docs"] == 3

    def test_corrupt_requires_spans_for_span_objectives(self, corpus, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            run(["-q", "corrupt", "--objective", "ssp-d", "--corpus", str(corpus),
                 "--out", str(tmp_path / "x.jsonl")])
        assert excinfo.value.code == 2


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


def test_python_m_spanmine_version():
    src = str(Path(spanmine.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "spanmine", "--version"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == f"spanmine {spanmine.__version__}"

"""The Zipfian generator is a pure function of its seed and size."""

import json

import zipfgen
from spanmine import dataset_stats, load_corpus, model_input
from spanmine.stopwords import DEFAULT_STOPWORDS


def _generate(tmp_path, seed, tag, n_docs=40):
    corpus, preds = tmp_path / f"c{tag}.jsonl", tmp_path / f"p{tag}.txt"
    zipfgen.generate(seed, n_docs, corpus, preds)
    return corpus.read_bytes(), preds.read_bytes()


def test_same_seed_same_bytes(tmp_path):
    first = _generate(tmp_path, 7, "a")
    assert _generate(tmp_path, 7, "b") == first
    assert _generate(tmp_path, 8, "c") != first


def test_corpus_properties(tmp_path):
    zipfgen.generate(3, 300, tmp_path / "c.jsonl", tmp_path / "p.txt")
    docs = list(load_corpus(tmp_path / "c.jsonl"))
    assert len(docs) == 300
    assert all(len(doc.keyphrases) == zipfgen.KEYPHRASES_PER_DOC for doc in docs)
    stats = dataset_stats(docs)
    assert 38.0 <= stats.pct_absent_kp <= 48.0
    tokens = [t for doc in docs for t in model_input(doc, max_tokens=None).tokens]
    assert 0.35 <= sum(t in DEFAULT_STOPWORDS for t in tokens) / len(tokens) <= 0.45
    assert "<digit>" in tokens
    lines = (tmp_path / "p.txt").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 300 and all(line.strip() for line in lines)
    assert set(zipfgen.STOPWORDS) <= DEFAULT_STOPWORDS
    record = json.loads((tmp_path / "c.jsonl").read_text(encoding="utf-8").splitlines()[0])
    assert set(record) == {"id", "title", "abstract", "keywords"}

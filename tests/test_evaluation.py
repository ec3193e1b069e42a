import dataclasses
import hashlib
import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spanmine.evaluation
from spanmine import (
    DataError,
    Document,
    SalientSpan,
    build_index,
    dataset_stats,
    evaluate,
    evaluate_file,
    keyphrase_set,
    model_input,
    parse_predictions,
    split_present_absent,
)
from spanmine.analysis import overlap_metrics, retrieval_success
from spanmine.corpus import contains
from spanmine.evaluation import DocScores, EvalReport, MetricScores, StemMemo, gold_split
from tests.conftest import oracle_f1, oracle_stem


class TestParsePredictions:
    def test_splits_on_separator(self):
        out = parse_predictions("short signatures ; pairing ;")
        assert tuple(p.tokens for p in out) == (("short", "signatures"), ("pairing",))

    def test_only_separators_empty(self):
        assert len(parse_predictions(";;;")) == 0

    def test_raw_duplicates_survive_until_dedup(self):
        out = parse_predictions("a b;a b")
        assert len(out) == 2
        assert len({p.stems for p in out}) == 1

    def test_normalizes_digits_and_case(self):
        out = parse_predictions("Top 100 Models")
        assert tuple(p.tokens for p in out) == (("top", "<digit>", "models"),)

    def test_custom_separator(self):
        out = parse_predictions("one | two", sep="|")
        assert tuple(p.tokens for p in out) == (("one",), ("two",))


def test_a_phrase_is_a_plain_tokens_stems_tuple(labeled_doc):
    assert keyphrase_set(["Neural Networks", "  ", "graph"]) == (
        (("neural", "networks"), ("neural", "network")),
        (("graph",), ("graph",)),
    )
    doc_stems, present, absent = gold_split(labeled_doc, StemMemo())
    assert sorted(present + absent) == sorted(keyphrase_set(labeled_doc.keyphrases))
    assert present and absent
    assert all(contains(doc_stems, p.stems) for p in present)
    assert not any(contains(doc_stems, p.stems) for p in absent)


class TestPresentAbsentSplit:
    def test_structural_mechanics_document(self, labeled_doc, labeled_tokenized):
        gold = keyphrase_set(labeled_doc.keyphrases)
        present, absent = split_present_absent(gold, StemMemo().phrase(labeled_tokenized.tokens))
        present_texts = {" ".join(p.tokens) for p in present}
        absent_texts = {" ".join(p.tokens) for p in absent}
        assert "mixed finite elements" in present_texts
        assert "hybrid formulations" in absent_texts
        assert "plasticity" in absent_texts
        assert present_texts | absent_texts == {" ".join(p.tokens) for p in gold}
        assert present_texts.isdisjoint(absent_texts)

    def test_stem_match_counts_as_present(self):
        doc = model_input(Document("d", "", "graph networks at scale"), max_tokens=None)
        present, absent = split_present_absent(keyphrase_set(["network"]), StemMemo().phrase(doc.tokens))
        assert len(present) == 1
        assert len(absent) == 0

    def test_contiguity_required(self):
        doc = model_input(Document("d", "", "alpha beta gamma"), max_tokens=None)
        present, absent = split_present_absent(keyphrase_set(["alpha gamma"]), StemMemo().phrase(doc.tokens))
        assert len(present) == 0
        assert len(absent) == 1

    @pytest.mark.parametrize("stage", ["stats", "eval", "success", "overlap"])
    def test_presence_uses_the_untruncated_text(self, stage):
        # The gold phrase starts at token 703, past the default 512-token model window.
        doc = Document("late", "long note", "filler " * 700 + "quantum sieve", ("quantum sieve",))
        span = SalientSpan(("quantum", "sieve"), 0)
        counts_present = {
            "stats": lambda: dataset_stats([doc]).pct_absent_kp == 0.0,
            "eval": lambda: evaluate(["x"], [doc]).to_dict()["present"]["docs_scored"] == 1,
            "success": lambda: retrieval_success([doc], build_index([model_input(doc)])).total_keyphrases == 1,
            "overlap": lambda: overlap_metrics([doc], {doc.id: [span]}).overall.phrase_recall == 1.0,
        }[stage]
        assert counts_present()


def _absent_row(preds, gold, k=5) -> DocScores:
    """``evaluate``'s row for one document whose text holds none of the phrases, so every phrase is absent."""
    report = evaluate([" ; ".join(preds)], [Document("d", "", "nothing here", tuple(gold))], k=k)
    assert report.present.per_doc == [] and len(report.absent.per_doc) == 1
    return report.absent.per_doc[0]


class TestF1AtM:
    def test_arithmetic(self):
        scores = _absent_row(["a", "c", "d"], ["a", "b"]).at_m
        assert scores.precision == pytest.approx(1 / 3)
        assert scores.recall == pytest.approx(1 / 2)
        assert scores.f1 == pytest.approx(0.4)

    def test_exact_match_is_one(self):
        scores = _absent_row(["x y", "z"], ["z", "x y"]).at_m
        assert scores.f1 == 1.0

    def test_no_predictions(self):
        scores = _absent_row([], ["a"]).at_m
        assert (scores.precision, scores.recall, scores.f1) == (0.0, 0.0, 0.0)

    def test_duplicates_never_change_scores(self):
        gold = ["a", "c"]
        assert _absent_row(["a", "a", "b"], gold) == _absent_row(["a", "b"], gold)

    def test_stemmed_matching(self):
        scores = _absent_row(["neural networks"], ["neural network"]).at_m
        assert scores.f1 == 1.0

    @given(
        st.lists(st.sampled_from(["pa", "pb", "pc", "pd qe", "rf"]), max_size=6),
        st.lists(st.sampled_from(["pa", "pb", "pc", "pd qe", "rf"]), min_size=1, max_size=6),
    )
    @settings(max_examples=150)
    def test_perfect_score_iff_sets_equal(self, preds, gold):
        scores = _absent_row(preds, gold).at_m
        sets_equal = {p.stems for p in keyphrase_set(preds)} == {p.stems for p in keyphrase_set(gold)}
        assert (scores.f1 == 1.0) == sets_equal


class TestF1AtK:
    def test_padded_denominator(self):
        scores = _absent_row(["hit", "miss1", "miss2"], ["hit", "other"], k=5).at_k
        assert scores.precision == pytest.approx(1 / 5)
        assert scores.recall == pytest.approx(1 / 2)
        assert scores.f1 == pytest.approx(2 / 7)

    def test_exactly_five_used(self):
        scores = _absent_row(["ga", "gb", "gc", "gd", "ge", "gf", "gg"], ["gf", "gg"], k=5).at_k
        assert scores.precision == 0.0  # hits sit beyond position 5

    def test_perfect_short_output(self):
        scores = _absent_row(["a", "b"], ["a", "b"], k=2).at_k
        assert scores.f1 == 1.0

    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=12))
    @settings(max_examples=80)
    def test_invariant_to_tail_beyond_k(self, k, extra):
        base = [f"p{chr(97 + i)}" for i in range(k)]
        tail = [f"tail{chr(97 + i)}" for i in range(extra)]
        gold = ["pa", "pb"]
        assert _absent_row(base, gold, k).at_k == _absent_row(base + tail, gold, k).at_k


# Words whose stems collide in pairs, so repeats and stem matches both occur.
_VOCAB = ["graph", "graphs", "prune", "pruning", "network", "networks", "tool"]
_PHRASES = st.lists(st.lists(st.sampled_from(_VOCAB), min_size=1, max_size=3).map(" ".join), max_size=6)
_TEXT = st.lists(st.sampled_from(_VOCAB), max_size=8).map(" ".join)


def _by_presence(phrases, texts) -> dict[bool, list[tuple[str, ...]]]:
    """The stems of ``phrases``, in order, under True where they occur contiguously in one of ``texts``, else False."""
    split = {True: [], False: []}
    for phrase in phrases:
        stems = tuple(map(oracle_stem, phrase.split()))
        split[any(text[i : i + len(stems)] == stems for text in texts for i in range(len(text)))].append(stems)
    return split


@given(st.lists(st.tuples(_TEXT, _TEXT, _PHRASES, _PHRASES), min_size=1, max_size=4), st.integers(1, 6))
@settings(max_examples=150)
def test_every_row_equals_the_oracle(docs, k):
    """Each document is (title, body, gold, predictions); a phrase is present when its stems occur
    contiguously in the stemmed title or the stemmed body."""
    gold_docs = [Document(f"d{i}", title, body, tuple(gold)) for i, (title, body, gold, _) in enumerate(docs)]
    report = evaluate([" ; ".join(preds) for *_, preds in docs], gold_docs, k=k)
    expected = {"present": [], "absent": []}
    for doc, (title, body, gold, preds) in zip(gold_docs, docs):
        texts = [tuple(map(oracle_stem, text.split())) for text in (title, body)]
        gold_by, preds_by = _by_presence(gold, texts), _by_presence(preds, texts)
        for name, present in (("present", True), ("absent", False)):
            if gold_by[present]:
                expected[name].append((doc.id, *oracle_f1(preds_by[present], gold_by[present], k)))
    for name in ("present", "absent"):
        assert getattr(report, name).per_doc == expected[name]
        assert getattr(report, name).docs_skipped == len(docs) - len(expected[name])


class TestEvaluate:
    def _gold_doc(self):
        return Document(
            id="g0",
            title="graph pruning",
            body="we prune graphs with spectral tools",
            keyphrases=("graph pruning", "spectral tools", "sparse solvers"),
        )

    def test_single_doc_hand_computed(self):
        # Present gold: {graph pruning, spectral tools}; absent: {sparse solvers}.
        # Present preds: {graph pruning}; absent preds: {dense solvers}.
        report = evaluate(["graph pruning ; dense solvers"], [self._gold_doc()])
        present = report.present.per_doc[0]
        assert present.at_m.precision == 1.0
        assert present.at_m.recall == 0.5
        assert present.at_m.f1 == pytest.approx(2 / 3)
        assert present.at_k.precision == pytest.approx(1 / 5)
        absent = report.absent.per_doc[0]
        assert absent.at_m.f1 == 0.0

    def test_empty_category_skipped_not_zeroed(self):
        doc = Document("d", "t", "alpha beta", keyphrases=("alpha beta",))  # no absent gold
        report = evaluate(["alpha beta"], [doc]).to_dict()
        assert report["absent"]["docs_skipped"] == 1
        assert report["absent"]["docs_scored"] == 0
        assert report["present"]["f1_at_m"] == 1.0

    def test_misalignment_rejected(self):
        docs = [self._gold_doc()]
        with pytest.raises(DataError, match="2 .*1"):
            evaluate(["a", "b"], docs)

    def test_macro_average_is_mean_over_scored_docs(self):
        docs = [
            Document("d1", "", "alpha beta", ("alpha", "zz")),
            Document("d2", "", "gamma delta", ("gamma", "qq")),
        ]
        report = evaluate(["alpha", "nothing"], docs)
        f1s = [d.at_m.f1 for d in report.present.per_doc]
        assert report.to_dict()["present"]["f1_at_m"] == pytest.approx(sum(f1s) / 2)
        assert report.to_dict()["present"]["f1_at_m"] == pytest.approx(0.5)

    def test_document_order_invariance_of_macro(self):
        docs = [
            Document("d1", "", "alpha beta", ("alpha", "zz")),
            Document("d2", "", "gamma delta", ("gamma", "delta")),
        ]
        preds = ["alpha", "gamma ; delta"]
        forward = evaluate(preds, docs).to_dict()
        backward = evaluate(list(reversed(preds)), list(reversed(docs))).to_dict()
        assert forward["present"]["f1_at_m"] == pytest.approx(backward["present"]["f1_at_m"])
        assert forward["absent"]["docs_skipped"] == backward["absent"]["docs_skipped"]

    def test_evaluate_file_and_report(self, tmp_path):
        preds = tmp_path / "preds.txt"
        preds.write_text("graph pruning ; dense solvers\n", encoding="utf-8")
        report_path = tmp_path / "report.json"
        report = evaluate_file(preds, [self._gold_doc()], report_path=report_path)
        assert report.num_docs == 1
        written = json.loads(report_path.read_text())
        assert written["schema_version"] == 1
        assert written["present"]["f1_at_m"] == pytest.approx(2 / 3)
        assert written["present"]["per_doc"][0]["id"] == "g0"

    @pytest.mark.parametrize(
        "text, n_docs, kept",
        [
            ("graph\n\n", 2, 1),  # the last document predicts nothing
            ("\n", 1, 0),  # the only document predicts nothing
            ("graph\n\n\n\n", 2, 1),  # blank lines past the last document are dropped
            ("graph\n \n", 1, 1),  # a line of spaces is blank too
        ],
    )
    def test_trailing_blank_lines_past_the_gold_only_are_dropped(self, tmp_path, text, n_docs, kept):
        preds = tmp_path / "preds.txt"
        preds.write_text(text, encoding="utf-8")
        docs = [dataclasses.replace(self._gold_doc(), id=f"g{i}") for i in range(n_docs)]
        report = evaluate_file(preds, docs)
        assert report.num_docs == n_docs
        assert [d.at_m.num_preds for d in report.present.per_doc] == [1] * kept + [0] * (n_docs - kept)

    def test_scores_equal_plain_tuples(self):
        report = evaluate(["graph pruning ; dense solvers"], [self._gold_doc()])
        row = report.present.per_doc[0]
        assert row.at_m == MetricScores(1.0, 0.5, 2 / 3, 1, 2, 1) == (1.0, 0.5, 2 / 3, 1, 2, 1)
        assert row == DocScores("g0", row.at_k, row.at_m) == ("g0", tuple(row.at_k), tuple(row.at_m))
        assert MetricScores._fields == ("precision", "recall", "f1", "num_preds", "num_gold", "num_matches")
        assert row._replace(doc_id="other") == ("other", row.at_k, row.at_m)

    def test_non_finite_report_is_refused_before_writing(self, tmp_path, monkeypatch):
        preds = tmp_path / "preds.txt"
        preds.write_text("graph pruning\n", encoding="utf-8")
        report_path = tmp_path / "report.json"
        monkeypatch.setattr(EvalReport, "to_dict", lambda self: {"f1": float("nan")})
        with pytest.raises(DataError, match="holds nan, which strict JSON cannot encode"):
            evaluate_file(preds, [self._gold_doc()], report_path=report_path)
        assert not report_path.exists()

    def test_empty_separator_rejected(self):
        with pytest.raises(DataError, match="separator must not be empty"):
            evaluate(["graph pruning"], [self._gold_doc()], sep="")

    def test_k_below_one_rejected_without_gold(self):
        # No category has gold, so nothing is scored; k is still checked.
        with pytest.raises(DataError, match="k must be >= 1"):
            evaluate(["x"], [Document("d", "t", "b", ())], k=0)

    def test_gold_without_keyphrases_rejected(self):
        with pytest.raises(DataError):
            evaluate(["x"], [Document("d", "t", "b", None)])


class TestReportWriter:
    """The report file is byte for byte what json.dumps(indent=2) writes for ``report.to_dict()`` plus its rows."""

    LINES = ["graph pruning ; dense solvers ; spectral tools", "alpha ; zz ; alpha", "x ; y"]
    DOCS = [
        Document("g0", "graph pruning", "we prune graphs with spectral tools", ("graph pruning", "sparse solvers")),
        Document("g1", "", "alpha beta", ("alpha", "zz", "Alpha")),
        Document("g2", "t", "b", ()),  # empty gold: skipped in both categories
    ]
    ODD_IDS = ['quote " in it', "back\\slash", "café", "東京大学", "line\u2028separator", "bell\x07"]

    @staticmethod
    def _written(tmp_path, lines, docs, **kw):
        preds = tmp_path / "preds.txt"
        preds.write_text("\n".join(lines) + "\n", encoding="utf-8")
        report_path = tmp_path / "report.json"
        report = evaluate_file(preds, docs, report_path=report_path, **kw)
        return report_path.read_bytes(), report

    @staticmethod
    def _dumped(report) -> bytes:
        record = report.to_dict()
        for name in ("present", "absent"):
            record[name]["per_doc"] = [
                {"id": d.doc_id, f"at_{report.k}": d.at_k._asdict(), "at_m": d.at_m._asdict()}
                for d in getattr(report, name).per_doc
            ]
        return (json.dumps(record, indent=2, allow_nan=False) + "\n").encode("utf-8")

    def test_summary_is_the_written_report_less_its_rows(self, tmp_path):
        written, report = self._written(tmp_path, self.LINES, self.DOCS)
        record = json.loads(written)
        assert [len(record[name].pop("per_doc")) for name in ("present", "absent")] == [2, 2]
        assert report.to_dict() == record

    @pytest.mark.parametrize("k", [1, 5, 10])
    def test_matches_json_dumps_for_each_k(self, tmp_path, k):
        written, report = self._written(tmp_path, self.LINES, self.DOCS, k=k)
        assert written == self._dumped(report)
        assert report.present.docs_skipped == report.absent.docs_skipped == 1

    def test_matches_json_dumps_for_ids_that_need_escapes(self, tmp_path):
        docs = [Document(doc_id, "alpha beta", "gamma", ("alpha", "delta")) for doc_id in self.ODD_IDS]
        written, report = self._written(tmp_path, ["alpha ; delta"] * len(docs), docs)
        assert written == self._dumped(report)
        assert written.isascii()  # ensure_ascii: every non-ASCII id is escaped
        assert [row["id"] for row in json.loads(written)["absent"]["per_doc"]] == self.ODD_IDS

    @pytest.mark.parametrize("category", ["present", "absent"])
    def test_matches_json_dumps_for_a_category_with_no_scored_document(self, tmp_path, category):
        gold = ("alpha beta",) if category == "absent" else ("omega",)  # all present, or all absent
        written, report = self._written(tmp_path, ["alpha beta"], [Document("d", "alpha beta", "", gold)])
        assert written == self._dumped(report)
        assert f'"{category}": {{\n    "f1_at_5": 0.0,'.encode() in written
        assert b'"per_doc": []\n' in written

    def test_matches_json_dumps_when_no_document_has_gold(self, tmp_path):
        written, report = self._written(tmp_path, ["x"], [Document("d", "t", "b", ())])
        assert written == self._dumped(report)

    def test_a_nan_score_is_refused_and_nothing_is_written(self, tmp_path, monkeypatch):
        match = spanmine.evaluation._match
        calls = []

        def nan_on_the_third_call(*args):
            calls.append(args)
            scores = match(*args)
            return scores._replace(f1=float("nan")) if len(calls) == 3 else scores

        monkeypatch.setattr(spanmine.evaluation, "_match", nan_on_the_third_call)
        report_path = tmp_path / "report.json"
        with pytest.raises(DataError, match=re.escape(f"report {report_path} holds nan, which strict JSON cannot encode")):
            self._written(tmp_path, self.LINES, self.DOCS)
        assert len(calls) > 3 and not report_path.exists()


@pytest.fixture(scope="module")
def demo_scores(tmp_path_factory):
    """Every stemming call's output on the 200-document demo corpus."""
    from spanmine import load_index, load_spans, mine_corpus, save_index
    from spanmine.demo import generate_demo_corpus, generate_demo_predictions
    from spanmine.miner import DEFAULT_THRESHOLDS

    tmp = tmp_path_factory.mktemp("demo")
    docs = generate_demo_corpus()
    preds = tmp / "predictions.txt"
    preds.write_text("\n".join(generate_demo_predictions(docs)) + "\n", encoding="utf-8")
    evaluate_file(preds, docs, report_path=tmp / "eval_report.json")
    tokenized = [model_input(doc) for doc in docs]
    save_index(build_index(tokenized), tmp / "index.spmi")
    index = load_index(tmp / "index.spmi")
    thresholds = DEFAULT_THRESHOLDS.scaled_to(len(docs))
    mine_corpus(tokenized, index, tmp / "spans.jsonl", thresholds=thresholds, workers=1)
    spans = load_spans(tmp / "spans.jsonl")

    def digest(obj) -> bytes:
        return json.dumps(obj, sort_keys=True).encode("utf-8")

    return {
        "eval-report": (tmp / "eval_report.json").read_bytes(),
        "dataset-stats": digest(vars(dataset_stats(docs))),
        "retrieval-success": digest(retrieval_success(docs, index, k=20).to_dict()),
        "overlap": digest(overlap_metrics(docs, spans).to_dict()),
    }


# sha256 of the demo's eval_report.json bytes and of the sorted-key JSON of
# dataset_stats and the two analysis reports. Pins scoring output bytes.
@pytest.mark.parametrize(
    "name, digest",
    [
        ("eval-report", "f1b3fcf0f3937bc892ec305c97b5ae206dbf11f784ea61e57e880789c7a2611e"),
        ("dataset-stats", "dfb362851667591903c284b891a0586868b3aaa109e7e1bd8042aa3605753e4a"),
        ("retrieval-success", "342df961f9f848a95215fcdfe10ae7ef1c12d831dd883aa5092ac8a023501dd7"),
        ("overlap", "6108bfbc3e6024544ccecba035933f4375e636bf0611924c8bf80e34f0a9b335"),
    ],
)
def test_demo_scores_golden_digest(demo_scores, name, digest):
    assert hashlib.sha256(demo_scores[name]).hexdigest() == digest

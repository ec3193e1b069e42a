import random

import pytest

from spanmine import DataError, Document, SalientSpan, build_index, model_input
from spanmine.analysis import overlap_metrics, retrieval_success, span_characteristics
from tests.conftest import BruteBM25


def _tag(i):
    # Digit-free doc tag so normalization cannot collapse planted phrases.
    return chr(ord("a") + i % 26) + chr(ord("a") + i // 26)


def _pool(seed=0, n=30):
    """Labeled corpus where each doc plants one unique phrase."""
    rng = random.Random(seed)
    vocab = [f"c{_tag(i)}" for i in range(25)]
    docs = []
    for i in range(n):
        planted = f"uniq{_tag(i)}x uniq{_tag(i)}y"
        body_words = [rng.choice(vocab) for _ in range(rng.randint(10, 25))]
        body_words[3:3] = planted.split()
        shared = rng.choice(vocab)
        docs.append(
            Document(
                id=f"p{i}",
                title=f"study of {shared}",
                body=" ".join(body_words),
                keyphrases=(planted, shared, "nowhere phrase"),
            )
        )
    return docs


class TestRetrievalSuccess:
    def test_unique_phrase_always_succeeds(self):
        docs = _pool()
        index = build_index([model_input(d) for d in docs])
        report = retrieval_success(docs, index, k=1000)
        assert report.success_rate_by_length[2] == 1.0

    def test_matches_brute_force(self):
        docs = _pool(seed=5)
        tokenized = [model_input(d) for d in docs]
        index = build_index(tokenized)
        brute = BruteBM25([list(t.tokens) for t in tokenized])
        from spanmine import keyphrase_set, split_present_absent
        from spanmine.evaluation import StemMemo

        pairs = []  # (source slot, present keyphrase)
        for slot, doc in enumerate(docs):
            present, _ = split_present_absent(
                keyphrase_set(doc.keyphrases), StemMemo().phrase(model_input(doc, max_tokens=None).tokens)
            )
            pairs.extend((slot, phrase.tokens) for phrase in present)
        for k in (1, 5, 1000):  # 1000 exceeds the 30-doc pool
            report = retrieval_success(docs, index, k=k)
            hits = [slot in {s for s, _ in brute.top_k(list(phrase), k)} for slot, phrase in pairs]
            assert report.success_rate_overall == pytest.approx(sum(hits) / len(hits))
            for n in (1, 2):
                of_n = [hit for hit, (_, phrase) in zip(hits, pairs) if len(phrase) == n]
                assert report.success_rate_by_length[n] == pytest.approx(sum(of_n) / len(of_n) if of_n else 0.0)

    def test_tie_goes_to_the_lower_slot(self):
        twin = dict(title="spectral codec", body="a spectral codec design", keyphrases=("spectral codec",))
        docs = [Document(id="t0", **twin), Document(id="t1", **twin)]
        index = build_index([model_input(d) for d in docs])
        scores = index.scores(["spectral", "codec"])
        assert scores[0] == scores[1] > 0
        assert [retrieval_success([doc], index, k=1).success_rate_overall for doc in docs] == [1.0, 0.0]
        assert [retrieval_success([doc], index, k=2).success_rate_overall for doc in docs] == [1.0, 1.0]
        with pytest.raises(DataError, match="k must be >= 1"):
            retrieval_success(docs, index, k=0)

    def test_source_scoring_zero_is_a_miss(self):
        # "pruned bound" is present by its stems, but neither raw token is indexed.
        doc = Document(id="s0", title="lattice", body="lattice pruning bounds", keyphrases=("pruned bound",))
        index = build_index([model_input(doc)])
        report = retrieval_success([doc], index, k=1)
        assert (report.total_keyphrases, report.success_rate_overall) == (1, 0.0)

    def test_success_monotone_in_k(self):
        docs = _pool(seed=2)
        index = build_index([model_input(d) for d in docs])
        rates = [retrieval_success(docs, index, k=k).success_rate_overall for k in (1, 3, 10, 1000)]
        assert rates == sorted(rates)

    def test_absent_doc_rejected(self):
        docs = _pool()
        index = build_index([model_input(d) for d in docs[:-1]])
        with pytest.raises(DataError):
            retrieval_success(docs, index, k=10)


class TestOverlapMetrics:
    def _spans(self, docs, mode):
        spans = {}
        for doc in docs:
            planted = doc.keyphrases[0].split()
            if mode == "exact":
                spans[doc.id] = [SalientSpan(tokens=tuple(planted), rank=0)]
            elif mode == "disjoint":
                spans[doc.id] = [SalientSpan(tokens=("zzz", "yyy"), rank=0)]
            else:
                spans[doc.id] = []
        return spans

    def test_spans_equal_present_phrases(self):
        docs = _pool(seed=1)
        # Keep only the planted (present) keyphrase as gold.
        docs = [
            Document(d.id, d.title, d.body, (d.keyphrases[0],)) for d in docs
        ]
        report = overlap_metrics(docs, self._spans(docs, "exact"))
        assert report.overall.phrase_recall == 1.0
        assert report.overall.word_recall == 1.0
        assert report.overall.word_precision == 1.0

    def test_disjoint_vocabulary_all_zero(self):
        docs = _pool(seed=3)
        report = overlap_metrics(docs, self._spans(docs, "disjoint"))
        assert report.overall.phrase_recall == 0.0
        assert report.overall.word_recall == 0.0
        assert report.overall.word_precision == 0.0

    def test_length_cells_restrict_both_sides(self):
        doc = Document("d", "", "alpha beta gamma solo", ("alpha beta", "solo"))
        spans = {"d": [SalientSpan(("alpha", "beta"), 0), SalientSpan(("gamma",), 1)]}
        report = overlap_metrics([doc], spans)
        assert report.by_length[2].phrase_recall == 1.0  # alpha beta matched
        assert report.by_length[1].phrase_recall == 0.0  # solo unmatched by len-1 span
        assert report.by_length[1].word_precision == 0.0  # gamma not in any gold
        assert report.overall.phrase_recall == 0.5

    def test_missing_spans_entry_rejected(self):
        docs = _pool()
        with pytest.raises(DataError):
            overlap_metrics(docs, {})

    def test_order_invariance(self):
        docs = _pool(seed=7)
        spans = self._spans(docs, "exact")
        fwd = overlap_metrics(docs, spans)
        rev = overlap_metrics(list(reversed(docs)), spans)
        assert fwd.overall == rev.overall


class TestSpanCharacteristics:
    def test_single_doc_distribution(self):
        spans = {"d": [SalientSpan(("a",), 0), SalientSpan(("b", "c", "d"), 1), SalientSpan(("e", "f", "g"), 2)]}
        stats = span_characteristics(spans)
        assert stats.avg_spans_per_doc == 3.0
        assert stats.length_distribution == {1: pytest.approx(1 / 3), 2: 0.0, 3: pytest.approx(2 / 3)}

    def test_empty_docs_counted_in_average(self):
        spans = {"a": [SalientSpan(("x",), 0)], "b": [], "c": []}
        stats = span_characteristics(spans)
        assert stats.avg_spans_per_doc == pytest.approx(1 / 3)

    def test_all_empty_reports_zeros(self):
        stats = span_characteristics({"a": [], "b": []})
        assert stats.avg_spans_per_doc == 0.0
        assert stats.length_distribution == {1: 0.0, 2: 0.0, 3: 0.0}

import functools
import hashlib
import json
import random

import pytest

from spanmine import (
    DataError,
    SalientSpan,
    ThresholdFn,
    TokenizedDoc,
    build_index,
    candidates,
    load_index,
    load_spans,
    mine,
    mine_corpus,
    model_input,
    save_index,
)
from spanmine.analysis import span_characteristics
from spanmine.demo import generate_demo_corpus
from spanmine.miner import DEFAULT_THRESHOLDS, parse_thresholds
from tests.conftest import BruteBM25, as_tokenized, oracle_mine, random_token_corpus


def doc_of(tokens, doc_id="d", title_len=0):
    return TokenizedDoc(doc_id=doc_id, tokens=tuple(tokens), title_len=title_len)


class TestCandidates:
    def test_stoplist_filters_every_position(self):
        spans = candidates(doc_of(["the", "finite", "elements"]), stoplist={"the"})
        assert {c.tokens for c in spans} == {("finite",), ("elements",), ("finite", "elements")}

    def test_no_crossing_separator(self):
        spans = candidates(doc_of(["a", "<sep>", "b"]), stoplist=set())
        assert {c.tokens for c in spans} == {("a",), ("b",)}

    def test_trigram_from_abstract_text(self):
        text = (
            "we extract event trigger words from biomedical text corpora "
            "using statistical features"
        ).split()
        grams = {c.tokens for c in candidates(doc_of(text), stoplist={"we", "from", "using"})}
        assert ("event", "trigger", "words") in grams

    def test_dedup_keeps_first_occurrence(self):
        spans = candidates(doc_of(["x", "y", "x", "y"]), stoplist=set())
        by_tokens = {c.tokens: c.first_occurrence for c in spans}
        assert by_tokens[("x", "y")] == 0
        assert by_tokens[("y", "x")] == 1

    def test_sentinels_and_punctuation_excluded(self):
        spans = candidates(doc_of(["ok", "<digit>", "<sep>", ".", "-", "fine"]), stoplist=set())
        assert {c.tokens for c in spans} == {("ok",), ("fine",)}

    def test_empty_doc_rejected(self):
        with pytest.raises(DataError):
            candidates(doc_of([]))

    def test_max_length_three(self):
        spans = candidates(doc_of(["a", "b", "c", "d"]), stoplist=set())
        assert max(len(c.tokens) for c in spans) == 3


class TestThresholds:
    def test_parse(self):
        fn = parse_thresholds("1:500,2:430,3:360")
        assert fn(1) == 500 and fn(2) == 430 and fn(3) == 360

    def test_default_values(self):
        assert dict(DEFAULT_THRESHOLDS.by_length) == {1: 500, 2: 430, 3: 360}

    def test_parse_rejects_garbage(self):
        with pytest.raises(DataError):
            parse_thresholds("nope")

    def test_requires_all_lengths(self):
        with pytest.raises(DataError):
            ThresholdFn({1: 5})

    def test_rejects_negative(self):
        with pytest.raises(DataError):
            ThresholdFn({1: 5, 2: 5, 3: -1})

    def test_scaling(self):
        scaled = DEFAULT_THRESHOLDS.scaled_to(1000)
        assert dict(scaled.by_length) == {1: 1, 2: 1, 3: 1}
        assert dict(DEFAULT_THRESHOLDS.scaled_to(200).by_length) == {1: 0, 2: 0, 3: 0}


def build_synthetic(seed=3, n_docs=20):
    """Corpus where doc 7 alone contains the bigram "zq qx"."""
    rng = random.Random(seed)
    vocab = [f"t{i}" for i in range(12)]
    docs = []
    for i in range(n_docs):
        tokens = [rng.choice(vocab) for _ in range(rng.randint(6, 14))]
        if i == 7:
            tokens[2:2] = ["zq", "qx"]
        docs.append(tokens)
    return docs


class TestMine:
    def test_unique_bigram_rank_zero(self):
        corpus = build_synthetic()
        index = build_index(as_tokenized(corpus))
        thresholds = ThresholdFn({1: 0, 2: 0, 3: 0})
        spans = mine(as_tokenized(corpus)[7], index, thresholds, stoplist=frozenset())
        mined = {s.tokens: s.rank for s in spans}
        assert mined[("zq", "qx")] == 0

    def test_threshold_boundary_inclusive(self):
        corpus = build_synthetic()
        index = build_index(as_tokenized(corpus))
        doc = as_tokenized(corpus)[7]
        brute = BruteBM25(corpus)
        all_ranks = {
            c.tokens: brute.rank(list(c.tokens), 7)
            for c in candidates(doc, frozenset())
        }
        cut = sorted(set(all_ranks.values()))[len(set(all_ranks.values())) // 2]
        thresholds = ThresholdFn({1: cut, 2: cut, 3: cut})
        mined = {s.tokens for s in mine(doc, index, thresholds, stoplist=frozenset())}
        expected = {tokens for tokens, r in all_ranks.items() if r <= cut}
        assert mined == expected

    def test_ubiquitous_term_dropped(self):
        # "omni" occurs once in every doc; the longest doc hosts the query.
        corpus = [["omni"] + [f"u{i}"] * (3 + i) for i in range(10)]
        index = build_index(as_tokenized(corpus))
        brute = BruteBM25(corpus)
        assert brute.rank(["omni"], 9) == 9
        thresholds = ThresholdFn({1: 3, 2: 3, 3: 3})
        mined = {s.tokens for s in mine(as_tokenized(corpus)[9], index, thresholds, frozenset())}
        assert ("omni",) not in mined

    def test_spans_sorted_rank_then_longer_first(self):
        corpus = build_synthetic()
        index = build_index(as_tokenized(corpus))
        doc = as_tokenized(corpus)[7]
        spans = mine(doc, index, ThresholdFn({1: 30, 2: 30, 3: 30}), frozenset())
        keys = [(s.rank, -s.length, s.tokens) for s in spans]
        assert keys == sorted(keys)

    def test_doc_not_in_index(self):
        index = build_index(as_tokenized([["a"]]))
        with pytest.raises(DataError):
            mine(doc_of(["a"], doc_id="ghost"), index)

    def test_ranks_match_brute_force(self):
        corpus = build_synthetic(seed=11)
        index = build_index(as_tokenized(corpus))
        brute = BruteBM25(corpus)
        for slot in (0, 7, 13):
            doc = as_tokenized(corpus)[slot]
            for span in mine(doc, index, ThresholdFn({1: 50, 2: 50, 3: 50}), frozenset()):
                assert span.rank == brute.rank(list(span.tokens), slot)

    def test_mined_spans_are_contiguous_subsequences(self):
        corpus = build_synthetic(seed=23)
        index = build_index(as_tokenized(corpus))
        doc = as_tokenized(corpus)[4]
        text = list(doc.tokens)
        for span in mine(doc, index, ThresholdFn({1: 25, 2: 25, 3: 25}), frozenset()):
            n = len(span.tokens)
            assert any(tuple(text[i : i + n]) == span.tokens for i in range(len(text) - n + 1))

    def test_threshold_monotonicity(self):
        corpus = build_synthetic(seed=9)
        index = build_index(as_tokenized(corpus))
        doc = as_tokenized(corpus)[7]
        small = {s.tokens for s in mine(doc, index, ThresholdFn({1: 2, 2: 2, 3: 2}), frozenset())}
        large = {s.tokens for s in mine(doc, index, ThresholdFn({1: 9, 2: 9, 3: 9}), frozenset())}
        assert small <= large

    def test_reorder_invariance(self):
        corpus = build_synthetic(seed=17)
        shuffled = corpus[::-1]
        idx_a = build_index(as_tokenized(corpus))
        idx_b = build_index(as_tokenized(shuffled))
        doc_a = as_tokenized(corpus)[7]
        doc_b = [d for d in as_tokenized(shuffled) if d.tokens == doc_a.tokens]
        # Renaming slots: find doc 7's position in the reversed corpus.
        assert doc_b, "doc 7 must exist in the shuffled corpus"
        spans_a = {(s.tokens, s.rank) for s in mine(doc_a, idx_a, ThresholdFn({1: 8, 2: 8, 3: 8}), frozenset())}
        spans_b = {(s.tokens, s.rank) for s in mine(doc_b[0], idx_b, ThresholdFn({1: 8, 2: 8, 3: 8}), frozenset())}
        assert spans_a == spans_b

    def test_max_spans_cap(self, tmp_path):
        corpus = build_synthetic()
        index = build_index(as_tokenized(corpus))
        doc = as_tokenized(corpus)[7]
        thresholds = ThresholdFn({1: 50, 2: 50, 3: 50})
        spans = mine(doc, index, thresholds, frozenset(), max_spans=3)
        assert len(spans) == 3
        with pytest.raises(DataError, match="max_spans"):
            mine(doc, index, thresholds, frozenset(), max_spans=-1)
        with pytest.raises(DataError, match="max_spans"):
            mine_corpus([doc], index, tmp_path / "spans.jsonl", thresholds, frozenset(), max_spans=-1)


class TestMineCorpus:
    def test_writes_record_per_doc_and_summary(self, tmp_path):
        corpus = build_synthetic()
        docs = as_tokenized(corpus)
        index = build_index(docs)
        out = tmp_path / "spans.jsonl"
        summary = mine_corpus(docs, index, out, thresholds=ThresholdFn({1: 0, 2: 0, 3: 0}), stoplist=frozenset())
        lines = out.read_text().splitlines()
        assert len(lines) == len(docs)
        assert summary.docs_processed == len(docs)
        record7 = json.loads(lines[7])
        assert {"text": "zq qx", "rank": 0, "len": 2} in record7["spans"]

    def test_empty_span_docs_still_emitted(self, tmp_path):
        docs = as_tokenized([["zq", "qx"], ["filler", "words"], ["filler", "words"]])
        index = build_index(docs)
        out = tmp_path / "spans.jsonl"
        mine_corpus(
            docs,
            index,
            out,
            thresholds=ThresholdFn({1: 0, 2: 0, 3: 0}),
            stoplist=frozenset({"filler", "words"}),
        )
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(records) == 3
        assert records[0]["spans"] != []
        assert all(r["spans"] == [] for r in records[1:])

    def test_deterministic_bytes(self, tmp_path):
        corpus = build_synthetic()
        docs = as_tokenized(corpus)
        index = build_index(docs)
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        mine_corpus(docs, index, a, stoplist=frozenset())
        mine_corpus(docs, index, b, stoplist=frozenset())
        assert a.read_bytes() == b.read_bytes()

    def test_parallel_equals_serial(self, tmp_path):
        corpus = build_synthetic(seed=31)
        docs = as_tokenized(corpus)
        index = build_index(docs)
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        mine_corpus(docs, index, a, stoplist=frozenset(), workers=1)
        mine_corpus(docs, index, b, stoplist=frozenset(), workers=3)
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_whitespace_token_rejected(self, tmp_path, workers):
        docs = [doc_of(["alpha", "a b", "gamma"], doc_id="w0"), doc_of(["alpha", "delta"], doc_id="w1")]
        index = build_index(docs)
        with pytest.raises(DataError, match="contains whitespace"):
            mine_corpus(docs, index, tmp_path / "spans.jsonl", stoplist=frozenset(), workers=workers)

    def test_load_spans_round_trip(self, tmp_path):
        corpus = build_synthetic()
        docs = as_tokenized(corpus)
        index = build_index(docs)
        out = tmp_path / "spans.jsonl"
        mine_corpus(docs, index, out, thresholds=ThresholdFn({1: 1, 2: 1, 3: 1}), stoplist=frozenset())
        spans_by_id = load_spans(out)
        assert set(spans_by_id) == {d.doc_id for d in docs}
        assert SalientSpan(tokens=("zq", "qx"), rank=0) in spans_by_id["d7"]


def _records(path):
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]


def _as_items(spans):
    return [{"text": s.text, "rank": s.rank, "len": s.length} for s in spans]


def _random_mining_case(rng):
    """A small random corpus with tied scores, its index, and what to mine.

    A few documents are duplicated under new ids, so their scores tie; a
    random subset is mined against the full index, and one of its
    documents is passed twice.
    """
    corpus = random_token_corpus(rng, min_docs=3, max_docs=12, max_vocab=10, max_len=10)
    corpus += [list(corpus[i]) for i in rng.sample(range(len(corpus)), 2)]
    docs = as_tokenized(corpus)
    n = len(docs)
    thresholds = ThresholdFn({k: rng.choice([0, 1, rng.randrange(n), n, n + 3]) for k in (1, 2, 3)})
    subset = rng.sample(docs, rng.randint(1, n))
    subset.append(subset[0])
    return corpus, docs, thresholds, subset, rng.choice([None, 0, 1, 3])


def _assert_matches_oracles(out, subset, index, brute, thresholds, stoplist=frozenset(), max_spans=None):
    """Each record of ``out`` equals oracle_mine's spans and BruteBM25's ranks."""
    records = _records(out)
    assert [r["id"] for r in records] == [d.doc_id for d in subset]
    for doc, record in zip(subset, records):
        expected = oracle_mine(doc, index, thresholds, stoplist, max_spans)
        assert record["spans"] == _as_items(expected)
        slot = index.slot_of(doc.doc_id)
        by_brute = [
            SalientSpan(tokens=c.tokens, rank=brute.rank(list(c.tokens), slot))
            for c in candidates(doc, stoplist)
        ]
        by_brute = sorted(
            (s for s in by_brute if s.rank <= thresholds(s.length)),
            key=lambda s: (s.rank, -s.length, s.tokens),
        )
        assert record["spans"] == _as_items(by_brute[:max_spans] if max_spans is not None else by_brute)


def _cached_brute(corpus):
    brute = BruteBM25(corpus)
    brute.idf = functools.cache(brute.idf)
    return brute


class TestQueryMajorOracle:
    def test_random_corpora_match_rank_oracles(self, tmp_path):
        rng = random.Random(606)
        out = tmp_path / "spans.jsonl"
        for _ in range(150):
            corpus, docs, thresholds, subset, max_spans = _random_mining_case(rng)
            index = build_index(docs)
            mine_corpus(subset, index, out, thresholds, stoplist=frozenset(), max_spans=max_spans)
            _assert_matches_oracles(out, subset, index, _cached_brute(corpus), thresholds, max_spans=max_spans)
            assert mine(subset[0], index, thresholds, frozenset(), max_spans) == oracle_mine(
                subset[0], index, thresholds, frozenset(), max_spans
            )

    def test_workers_give_identical_bytes(self, tmp_path):
        rng = random.Random(4242)
        for _ in range(3):
            _, docs, thresholds, subset, max_spans = _random_mining_case(rng)
            index = build_index(docs)
            serial, parallel = tmp_path / "serial.jsonl", tmp_path / "parallel.jsonl"
            mine_corpus(subset, index, serial, thresholds, frozenset(), max_spans, workers=1)
            mine_corpus(subset, index, parallel, thresholds, frozenset(), max_spans, workers=3)
            assert serial.read_bytes() == parallel.read_bytes()


def _distinct_queries(subset, stoplist=frozenset()):
    return {c.tokens for doc in subset for c in candidates(doc, stoplist)}


class TestPrunedMining:
    """Documents pruned by the MaxScore bound never change a rank."""

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("n_sources", [1, 2])
    def test_sources_holding_every_largest_weight_score_nothing_else(self, tmp_path, workers, n_sources):
        # d0 and d1 are identical and hold each of a, b, c at its largest
        # weight, so every query's floor equals the query-order sum of the
        # largest weights: each term is non-essential, and d1 ties d0 exactly.
        # Summed in any other order, the largest weights of "a b c" overshoot
        # that floor by one ulp.
        corpus = [["a", "b", "c"], ["a", "b", "c"], ["c"] + ["z"] * 5, ["c"] + ["z"] * 5, ["z"] * 6]
        docs = as_tokenized(corpus)
        index = build_index(docs)
        ma, mb, mc = (index.term_weights(t).max_weight for t in "abc")
        assert (ma + mb) + mc < min((ma + mc) + mb, (mb + mc) + ma)
        subset = docs[:n_sources]
        stoplist = frozenset({"z"})
        out = tmp_path / "spans.jsonl"
        thresholds = ThresholdFn({1: 0, 2: 0, 3: 0})
        summary = mine_corpus(subset, index, out, thresholds, stoplist, workers=workers)
        _assert_matches_oracles(out, subset, index, _cached_brute(corpus), thresholds, stoplist)
        assert all(span["rank"] == 0 for record in _records(out) for span in record["spans"])
        assert (summary.distinct_queries, summary.docs_scored) == (6, 0)

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("limit", [0, 1, 7])
    def test_sources_missing_from_the_index_prune_nothing(self, tmp_path, workers, limit):
        # The index holds only the first token of d0 and d1 (as if indexed
        # with fewer tokens than they are mined with), which no candidate
        # uses, so every query's floor is 0.0 and every posting is scored.
        rng = random.Random(77)
        corpus = random_token_corpus(rng, min_docs=6, max_docs=6, max_vocab=6, max_len=8)
        mined = as_tokenized([["q"] + doc for doc in corpus[:2]])
        indexed = [["q"]] * 2 + corpus[2:]
        index = build_index(as_tokenized(indexed))
        stoplist = frozenset({"q"})
        out = tmp_path / "spans.jsonl"
        thresholds = ThresholdFn({1: limit, 2: limit, 3: limit})
        summary = mine_corpus(mined, index, out, thresholds, stoplist, workers=workers)
        _assert_matches_oracles(out, mined, index, _cached_brute(indexed), thresholds, stoplist)
        queries = _distinct_queries(mined, stoplist)
        unions = [{ref for t in q if t in index.postings for ref in index.postings[t].refs} for q in queries]
        assert (summary.distinct_queries, summary.docs_scored) == (len(unions), sum(map(len, unions)))

    def test_repeated_terms_count_per_occurrence(self, tmp_path):
        corpus = [["a", "a", "b"], ["a", "a", "a", "x"], ["a", "b", "x", "x"], ["b", "x"], ["a", "x", "x"]]
        docs = as_tokenized(corpus)
        index = build_index(docs)
        out = tmp_path / "spans.jsonl"
        thresholds = ThresholdFn({1: 1, 2: 1, 3: 1})
        mine_corpus(docs, index, out, thresholds, frozenset({"x"}))
        _assert_matches_oracles(out, docs, index, _cached_brute(corpus), thresholds, frozenset({"x"}))

    def test_random_corpora_at_the_bound(self, tmp_path):
        """Tiny vocabularies give repeated terms, duplicate documents and tied floors."""
        rng = random.Random(2718)
        for _ in range(120):
            corpus = random_token_corpus(rng, min_docs=2, max_docs=9, max_vocab=4, max_len=7)
            corpus += [list(corpus[0])] * rng.randint(0, 2)
            docs = as_tokenized(corpus)
            n = len(docs)
            thresholds = ThresholdFn({k: rng.choice([0, 1, n - 1, n, n + 2]) for k in (1, 2, 3)})
            subset = rng.sample(docs, rng.randint(1, n))
            index = build_index(docs)
            summaries = []
            for workers in (1, 3):
                out = tmp_path / f"spans-{workers}.jsonl"
                summaries.append(mine_corpus(subset, index, out, thresholds, frozenset(), workers=workers))
                _assert_matches_oracles(out, subset, index, _cached_brute(corpus), thresholds)
            assert (tmp_path / "spans-1.jsonl").read_bytes() == (tmp_path / "spans-3.jsonl").read_bytes()
            queries = _distinct_queries(subset)
            serial, parallel = summaries
            assert serial == parallel
            assert serial.distinct_queries == len(queries)
            assert serial.docs_scored <= sum(len(index.postings.get(t, ())) for q in queries for t in q)


# sha256 of spans.jsonl for the 200-document demo corpus, mined against a
# saved and reloaded index. Pins the miner's output bytes; the summary's span
# count and length mix must also agree with the file's.
@pytest.mark.parametrize(
    "thresholds, subset_step, max_spans, workers, digest",
    [
        (None, 1, None, 1, "08baabdf77f82da7cf0689a2dc47de92123ebf08fd0f48e4c6f41ae2eeccc282"),
        ("1:20,2:10,3:5", 1, None, 1, "aca8ff3ae9bb3d672a2ac4f950ece759ca659030c57218bde5b90db72c8cbf53"),
        ("1:20,2:10,3:5", 1, None, 2, "aca8ff3ae9bb3d672a2ac4f950ece759ca659030c57218bde5b90db72c8cbf53"),
        ("1:20,2:10,3:5", 3, 4, 1, "459572df76a2ed115942f10654030c86b7c6af0b5ec857bdaf43009b8f0b44cd"),
    ],
    ids=["demo-default", "demo-thresholds", "demo-thresholds-2-workers", "demo-subset-max-spans"],
)
def test_demo_spans_golden_digest(tmp_path, thresholds, subset_step, max_spans, workers, digest):
    docs = [model_input(doc) for doc in generate_demo_corpus()]
    save_index(build_index(docs), tmp_path / "index.spmi")
    index = load_index(tmp_path / "index.spmi")
    fn = parse_thresholds(thresholds) if thresholds else DEFAULT_THRESHOLDS.scaled_to(len(docs))
    out = tmp_path / "spans.jsonl"
    summary = mine_corpus(docs[::subset_step], index, out, thresholds=fn, max_spans=max_spans, workers=workers)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
    from_file = span_characteristics(load_spans(out))
    assert (summary.total_spans, summary.length_distribution) == (
        from_file.total_spans,
        from_file.length_distribution,
    )


MALFORMED_SPANS = {
    "missing-id": {"spans": []},
    "duplicate-id": {"id": "a", "spans": []},
    "empty-id": {"id": "", "spans": []},
    "non-string-id": {"id": 7, "spans": []},
    "non-object-line": [1, 2],
    "spans-not-a-list": {"id": "b", "spans": "x y"},
    "item-not-an-object": {"id": "b", "spans": ["x y"]},
    "item-missing-text": {"id": "b", "spans": [{"rank": 0, "len": 1}]},
    "item-empty-text": {"id": "b", "spans": [{"text": " ", "rank": 0, "len": 1}]},
    "item-missing-rank": {"id": "b", "spans": [{"text": "x", "len": 1}]},
    "non-integer-rank": {"id": "b", "spans": [{"text": "x", "rank": 1.5, "len": 1}]},
    "string-rank": {"id": "b", "spans": [{"text": "x", "rank": "1", "len": 1}]},
    "boolean-rank": {"id": "b", "spans": [{"text": "x", "rank": True, "len": 1}]},
    "negative-rank": {"id": "b", "spans": [{"text": "x", "rank": -1, "len": 1}]},
}


def write_spans_with_bad_line(path, bad_record):
    good = {"id": "a", "spans": [{"text": "x y", "rank": 0, "len": 2}]}
    path.write_text(json.dumps(good) + "\n" + json.dumps(bad_record) + "\n", encoding="utf-8")
    return path


@pytest.mark.parametrize("case", sorted(MALFORMED_SPANS))
def test_load_spans_rejects_malformed_record(tmp_path, case):
    path = write_spans_with_bad_line(tmp_path / "spans.jsonl", MALFORMED_SPANS[case])
    with pytest.raises(DataError, match=r"spans\.jsonl: line 2"):
        load_spans(path)

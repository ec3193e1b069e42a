import math
import random

import pytest

from spanmine import (
    ChecksumError,
    DataError,
    IndexFormatError,
    Posting,
    Query,
    build_index,
    load_index,
    save_index,
)
from tests.conftest import BruteBM25, as_tokenized, oracle_score, random_token_corpus


class TestBuildIndex:
    def test_mean_length(self):
        docs = as_tokenized([["a", "b"], ["a"] * 4, ["b"] * 6])
        index = build_index(docs)
        assert index.avg_doc_len == 4.0
        assert index.num_docs == 3

    def test_term_frequency(self):
        index = build_index(as_tokenized([["x", "y", "x"]]))
        assert index.postings["x"] == [(0, 2)]

    def test_empty_stream(self):
        for docs in ([], as_tokenized([[], []])):
            with pytest.raises(DataError, match="no tokens"):
                build_index(docs)

    def test_postings_sorted_unique(self):
        rng = random.Random(0)
        docs = as_tokenized(random_token_corpus(rng))
        index = build_index(docs)
        for plist in index.postings.values():
            refs = [p.doc_ref for p in plist]
            assert refs == sorted(set(refs))
            assert all(p.term_freq >= 1 for p in plist)

    def test_param_validation(self):
        docs = as_tokenized([["a"]])
        with pytest.raises(DataError):
            build_index(docs, k1=0)
        with pytest.raises(DataError):
            build_index(docs, b=1.5)


class TestScore:
    def test_absent_term_contributes_zero(self, toy_index):
        assert toy_index.scores(["zzz"]).get(0, 0.0) == 0.0
        with_term = toy_index.scores(["a"]).get(1, 0.0)
        assert toy_index.scores(["a", "zzz"]).get(1, 0.0) == pytest.approx(with_term)

    def test_toy_corpus_ordering(self, toy_index):
        # d1 has tf=2 for "a"; d0 has tf=1 and is shorter. Oracle decides.
        brute = BruteBM25([["a", "b"], ["a", "a", "c"], ["c"]])
        scores = toy_index.scores(["a"])
        assert scores.get(1, 0.0) > scores.get(0, 0.0)
        for slot in range(3):
            assert scores.get(slot, 0.0) == pytest.approx(brute.score(["a"], slot), abs=1e-12)

    def test_b_zero_removes_length_effect(self):
        docs = as_tokenized([["q", "x"], ["q"] + ["y"] * 20])
        index = build_index(docs, b=0.0)
        assert index.scores(["q"])[0] == pytest.approx(index.scores(["q"])[1])

    def test_repeated_query_terms_bag_semantics(self, toy_index):
        single = toy_index.scores(["a"])[1]
        assert toy_index.scores(["a", "a"])[1] == pytest.approx(2 * single)

    def test_out_of_range(self, toy_index):
        for source in (-1, 3):
            with pytest.raises(DataError):
                toy_index.rank(["a"], source)

    def test_query_validation(self):
        with pytest.raises(DataError):
            Query(())
        with pytest.raises(DataError):
            Query(("a b",))


class TestRank:
    def test_unique_term_rank_zero(self):
        docs = as_tokenized([["common", "unique"], ["common"], ["common"]])
        index = build_index(docs)
        assert index.rank(["unique"], 0) == 0

    def test_terms_absent_from_source(self):
        docs = as_tokenized([["a"], ["b"], ["b", "c"]])
        index = build_index(docs)
        # Source 0 scores zero; both docs containing "b" score positive.
        assert index.rank(["b"], 0) == 2

    def test_five_doc_exhaustive(self):
        corpus = [["a", "b"], ["b", "b"], ["a", "c", "b"], ["c"], ["a", "a", "a"]]
        index = build_index(as_tokenized(corpus))
        brute = BruteBM25(corpus)
        for query in (["a"], ["b"], ["a", "b"], ["c", "a"], ["zz"]):
            for slot in range(5):
                assert index.rank(query, slot) == brute.rank(query, slot)


class TestTopK:
    def test_k_exceeds_corpus(self, toy_index):
        hits = toy_index.top_k(["a"], 100)
        assert [slot for slot, _ in hits] == [1, 0]
        assert all(score > 0 for _, score in hits)

    def test_tie_breaks_by_slot(self):
        docs = as_tokenized([["t", "u"], ["t", "v"], ["w"]])
        index = build_index(docs)
        hits = index.top_k(["t"], 5)
        assert [slot for slot, _ in hits] == [0, 1]
        assert hits[0][1] == hits[1][1]

    def test_matches_exhaustive_sort(self):
        rng = random.Random(7)
        corpus = random_token_corpus(rng, min_docs=10, max_docs=10)
        index = build_index(as_tokenized(corpus))
        brute = BruteBM25(corpus)
        query = [corpus[0][0], corpus[-1][-1]]
        assert index.top_k(query, 3) == pytest.approx(brute.top_k(query, 3))


class TestOracleEquivalence:
    def test_random_corpora(self):
        rng = random.Random(2024)
        for _ in range(40):
            corpus = random_token_corpus(rng)
            index = build_index(as_tokenized(corpus))
            brute = BruteBM25(corpus)
            vocab = sorted({t for doc in corpus for t in doc}) + ["oov"]
            for _ in range(5):
                query = [rng.choice(vocab) for _ in range(rng.randint(1, 3))]
                slot = rng.randrange(len(corpus))
                assert index.scores(query).get(slot, 0.0) == pytest.approx(brute.score(query, slot), abs=1e-9)
                assert index.rank(query, slot) == brute.rank(query, slot)

    def test_rank_partition_identity(self):
        rng = random.Random(5)
        for _ in range(20):
            corpus = random_token_corpus(rng, max_docs=25)
            index = build_index(as_tokenized(corpus))
            query = [rng.choice(corpus[0])]
            scores = [oracle_score(index, query, d) for d in range(len(corpus))]
            for slot in range(len(corpus)):
                own = scores[slot]
                higher = sum(1 for s in scores if s > own)
                equal = sum(1 for s in scores if s == own)
                lower = sum(1 for s in scores if s < own)
                assert index.rank(query, slot) == higher
                assert higher + equal + lower == index.num_docs

    def test_idf_nonnegative(self):
        rng = random.Random(11)
        corpus = random_token_corpus(rng)
        index = build_index(as_tokenized(corpus))
        # Includes the everywhere-term case df == N.
        everywhere = corpus[0][0]
        for doc in corpus:
            doc.append(everywhere)
        index = build_index(as_tokenized(corpus))
        for term in list(index.postings) + ["oov"]:
            assert index.idf(term) >= 0.0

    def test_tf_monotonicity(self):
        # Adding one occurrence of the query term (length held fixed by
        # swapping out a filler token) never lowers the score.
        base = [["q", "x", "x", "x"], ["y"] * 4, ["q", "q", "x", "x"]]
        more = [["q", "q", "x", "x"], ["y"] * 4, ["q", "q", "x", "x"]]
        s_base = build_index(as_tokenized(base)).scores(["q"])[0]
        s_more = build_index(as_tokenized(more)).scores(["q"])[0]
        assert s_more >= s_base


class TestPersistence:
    def test_round_trip_scores_bit_identical(self, tmp_path):
        rng = random.Random(13)
        corpus = random_token_corpus(rng)
        index = build_index(as_tokenized(corpus))
        path = tmp_path / "idx.spmi"
        save_index(index, path)
        loaded = load_index(path)
        assert loaded.doc_ids == index.doc_ids
        assert loaded.doc_lens == index.doc_lens
        assert loaded.avg_doc_len == index.avg_doc_len
        assert loaded.postings == index.postings
        vocab = sorted(index.postings)
        for _ in range(25):
            query = [rng.choice(vocab) for _ in range(rng.randint(1, 3))]
            slot = rng.randrange(index.num_docs)
            assert loaded.scores(query) == index.scores(query)
            assert loaded.scores(query).get(slot, 0.0) == oracle_score(index, query, slot)
            assert loaded.rank(query, slot) == index.rank(query, slot)

    def test_truncated_file_checksum_error(self, tmp_path, toy_index):
        path = tmp_path / "idx.spmi"
        save_index(toy_index, path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(ChecksumError):
            load_index(path)

    def test_corrupted_byte_checksum_error(self, tmp_path, toy_index):
        path = tmp_path / "idx.spmi"
        save_index(toy_index, path)
        data = bytearray(path.read_bytes())
        data[10] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(ChecksumError):
            load_index(path)

    def test_wrong_magic_version_error(self, tmp_path, toy_index):
        path = tmp_path / "idx.spmi"
        save_index(toy_index, path)
        data = bytearray(path.read_bytes())
        data[:4] = b"XXXX"
        path.write_bytes(bytes(data))
        with pytest.raises(IndexFormatError):
            load_index(path)

    @pytest.mark.parametrize(
        "fault, message",
        [("zero-lengths", "lengths sum to 0"), ("posting-past-table", "posts to document 3 of 3")],
        ids=["zero-lengths", "posting-past-table"],
    )
    def test_inconsistent_file_is_index_format_error(self, tmp_path, toy_index, fault, message):
        if fault == "zero-lengths":
            toy_index.doc_lens[:] = [0] * toy_index.num_docs
        else:
            toy_index.postings["c"].append(Posting(toy_index.num_docs, 1))
        path = tmp_path / "idx.spmi"
        save_index(toy_index, path)
        with pytest.raises(IndexFormatError, match=message):
            load_index(path)

    def test_unsupported_version(self, tmp_path, toy_index):
        import struct
        import zlib

        path = tmp_path / "idx.spmi"
        save_index(toy_index, path)
        data = bytearray(path.read_bytes())[:-4]
        data[4:6] = struct.pack("<H", 99)
        data += struct.pack("<I", zlib.crc32(bytes(data)))
        path.write_bytes(bytes(data))
        with pytest.raises(IndexFormatError, match="version"):
            load_index(path)

    @pytest.mark.parametrize("field", ["doc-id", "term"])
    def test_invalid_utf8_is_index_format_error(self, tmp_path, field):
        import struct
        import zlib

        from spanmine import TokenizedDoc

        # "é" is two bytes (c3 a9); overwrite them with an invalid pair.
        doc_id, term = ("dé", "x") if field == "doc-id" else ("d", "é")
        path = tmp_path / "idx.spmi"
        save_index(build_index([TokenizedDoc(doc_id, (term,), 0)]), path)
        data = path.read_bytes()[:-4]
        data = data.replace("é".encode("utf-8"), b"\xe9\x41")
        path.write_bytes(data + struct.pack("<I", zlib.crc32(data)))
        with pytest.raises(IndexFormatError, match="invalid UTF-8"):
            load_index(path)


def test_expected_idf_formula(toy_index):
    # df("a") = 2 of 3 docs.
    assert toy_index.idf("a") == pytest.approx(math.log(1 + (3 - 2 + 0.5) / 2.5))


def test_term_weights_are_single_term_scores():
    rng = random.Random(13)
    docs = as_tokenized(random_token_corpus(rng, min_docs=8, max_docs=8, max_vocab=5, max_len=9))
    index = build_index(docs)
    for term in index.postings:
        weights = index.term_weights(term)
        assert weights.by_slot == {
            slot: oracle_score(index, [term], slot)
            for slot in range(index.num_docs)
            if oracle_score(index, [term], slot) > 0
        }
        assert weights.max_weight == max(weights.by_slot.values())
        assert index.term_weights(term) is weights
    assert index.term_weights("absent") == ({}, 0.0)

import gc
import math
import random
import struct
import zlib
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spanmine import (
    ChecksumError,
    DataError,
    IndexFormatError,
    PostingList,
    Query,
    build_index,
    load_index,
    save_index,
)
from tests.conftest import V1_INDEX, V1_REFUSAL, BruteBM25, as_tokenized, oracle_score, random_token_corpus

V2_HEADER = struct.Struct("<4sHddIII")  # magic, version, k1, b, documents, terms, postings


def _read_v2(path):
    """A saved index's header and decompressed body."""
    data = path.read_bytes()
    return data[: V2_HEADER.size], zlib.decompress(data[V2_HEADER.size : -4])


def _write_v2(path, header, body):
    """Recompress ``body`` behind ``header`` and append a valid CRC32."""
    out = header + zlib.compress(body)
    path.write_bytes(out + struct.pack("<I", zlib.crc32(out)))


class TestBuildIndex:
    def test_mean_length(self):
        docs = as_tokenized([["a", "b"], ["a"] * 4, ["b"] * 6])
        index = build_index(docs)
        assert index.avg_doc_len == 4.0
        assert index.num_docs == 3

    def test_term_frequency(self):
        index = build_index(as_tokenized([["x", "y", "x"]]))
        assert index.postings["x"] == PostingList(array("I", [0]), array("I", [2]))

    def test_empty_stream(self):
        for docs in ([], as_tokenized([[], []])):
            with pytest.raises(DataError, match="no tokens"):
                build_index(docs)

    def test_postings_sorted_unique(self):
        rng = random.Random(0)
        docs = as_tokenized(random_token_corpus(rng))
        index = build_index(docs)
        for plist in index.postings.values():
            assert list(plist.refs) == sorted(set(plist.refs))
            assert len(plist.tfs) == len(plist) and all(tf >= 1 for tf in plist.tfs)

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
        # Built lists are sliced in first-seen term order, loaded ones in
        # sorted order; the reprs must still agree.
        assert repr(sorted(loaded.postings.items())) == repr(sorted(index.postings.items()))
        vocab = sorted(index.postings)
        for _ in range(25):
            query = [rng.choice(vocab) for _ in range(rng.randint(1, 3))]
            slot = rng.randrange(index.num_docs)
            assert loaded.scores(query) == index.scores(query)
            assert loaded.scores(query).get(slot, 0.0) == oracle_score(index, query, slot)
            assert loaded.rank(query, slot) == index.rank(query, slot)

    def test_no_tracked_object_per_posting(self, tmp_path):
        # 20 documents holding all 60 terms: 1,200 postings, 20 per term.
        # Building or loading may add GC-tracked objects per term and per
        # document, but not per posting.
        docs = as_tokenized([[f"t{j}" for j in range(60) for _ in range(1 + (i + j) % 3)] for i in range(20)])
        path = tmp_path / "idx.spmi"
        save_index(build_index(docs), path)
        load_index(path)  # first calls fill interpreter caches

        def tracked_objects_added(make):
            gc.collect()
            before = len(gc.get_objects())
            index = make()
            gc.collect()
            return len(gc.get_objects()) - before, index

        for make in (lambda: build_index(docs), lambda: load_index(path)):
            added, index = tracked_objects_added(make)
            assert added < len(index.postings) + index.num_docs + 20

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
        [
            ("zero-lengths", "lengths sum to 0"),
            ("posting-past-table", "posts to document 3 of 3"),
            ("repeated-doc-id", "document id 'd0' appears twice"),
            ("repeated-doc-ref", "term 'a' repeats or reorders document 1"),
            ("descending-doc-ref", "term 'a' repeats or reorders document 0"),
        ],
        ids=["zero-lengths", "posting-past-table", "repeated-doc-id", "repeated-doc-ref", "descending-doc-ref"],
    )
    def test_inconsistent_file_is_index_format_error(self, tmp_path, toy_index, fault, message):
        if fault == "zero-lengths":
            toy_index.doc_lens[:] = [0] * toy_index.num_docs
        elif fault == "posting-past-table":
            toy_index.postings["c"] = PostingList(array("I", [1, 2, toy_index.num_docs]), array("I", [1, 1, 1]))
        elif fault == "repeated-doc-id":
            toy_index.doc_ids[1] = "d0"
        elif fault == "repeated-doc-ref":
            toy_index.postings["a"] = PostingList(array("I", [0, 1, 1]), array("I", [1, 2, 5]))
        else:
            toy_index.postings["a"] = PostingList(array("I", [1, 0]), array("I", [2, 1]))
        path = tmp_path / "idx.spmi"
        save_index(toy_index, path)
        with pytest.raises(IndexFormatError, match=message):
            load_index(path)

    @pytest.mark.parametrize(
        "fault, message",
        [
            ("repeated-term", "term 'a' appears twice"),
            ("short-body", "body shorter than its header counts"),
            ("extra-text", "section sizes disagree"),
            ("postings-count", "section sizes disagree"),
            ("zero-tf", "term frequency 0"),
        ],
        ids=["repeated-term", "short-body", "extra-text", "postings-count", "zero-tf"],
    )
    def test_inconsistent_body_is_index_format_error(self, tmp_path, toy_index, fault, message):
        # toy_index: 3 docs, terms "a", "b", "c" with 5 postings; the body
        # ends with the ids "d0d1d2" and the terms "abc".
        path = tmp_path / "idx.spmi"
        save_index(toy_index, path)
        header, body = _read_v2(path)
        if fault == "repeated-term":
            body = body[:-3] + b"aac"
        elif fault == "short-body":
            body = body[:-10]
        elif fault == "extra-text":
            body += b"z"
        elif fault == "postings-count":
            header = header[:-4] + struct.pack("<I", 4)
        else:
            tfs_at = 4 * (2 * 3 + 2 * 3 + 5)
            body = body[:tfs_at] + struct.pack("<I", 0) + body[tfs_at + 4 :]
        _write_v2(path, header, body)
        with pytest.raises(IndexFormatError, match=message):
            load_index(path)

    def test_unsupported_version(self, tmp_path, toy_index):
        path = tmp_path / "idx.spmi"
        save_index(toy_index, path)
        data = bytearray(path.read_bytes())[:-4]
        data[4:6] = struct.pack("<H", 99)
        data += struct.pack("<I", zlib.crc32(bytes(data)))
        path.write_bytes(bytes(data))
        with pytest.raises(IndexFormatError, match="version"):
            load_index(path)

    def test_v1_file_is_refused(self, tmp_path):
        # Any prefix of a valid v1 file, down to magic plus version, is
        # refused by version; the whole file is shorter than a v2 header.
        path = tmp_path / "idx.spmi"
        for end in range(6, len(V1_INDEX) + 1):
            path.write_bytes(V1_INDEX[:end])
            with pytest.raises(IndexFormatError, match=V1_REFUSAL):
                load_index(path)

    @pytest.mark.parametrize("field", ["doc-id", "term"])
    def test_invalid_utf8_is_index_format_error(self, tmp_path, field):
        from spanmine import TokenizedDoc

        # "é" is two bytes (c3 a9); overwrite them with an invalid pair.
        doc_id, term = ("dé", "x") if field == "doc-id" else ("d", "é")
        path = tmp_path / "idx.spmi"
        save_index(build_index([TokenizedDoc(doc_id, (term,), 0)]), path)
        header, body = _read_v2(path)
        _write_v2(path, header, body.replace("é".encode("utf-8"), b"\xe9\x41"))
        with pytest.raises(IndexFormatError, match="invalid UTF-8"):
            load_index(path)


@pytest.fixture(scope="module")
def fuzz_base(tmp_path_factory):
    """A path for fuzz inputs, and the v2 header and body of a small index."""
    path = tmp_path_factory.mktemp("fuzz") / "idx.spmi"
    docs = as_tokenized([["graph", "cut", "graph"], ["cut", "flow"], ["é", "flow", "flow", "x"], ["x"]])
    save_index(build_index(docs), path)
    return path, *_read_v2(path)


def _fuzz_load(path, data: bytes) -> None:
    """Load ``data``: only IndexFormatError may escape, and an index that
    loads holds what build_index guarantees."""
    path.write_bytes(data)
    try:
        loaded = load_index(path)
    except IndexFormatError:
        return
    assert len(set(loaded.doc_ids)) == loaded.num_docs and sum(loaded.doc_lens) > 0
    for term, plist in loaded.postings.items():
        refs = list(plist.refs)
        assert refs == sorted(set(refs)) and len(plist.tfs) == len(refs) and all(tf >= 1 for tf in plist.tfs)
        assert set(loaded.term_weights(term).by_slot) == set(refs)


class TestLoadFuzz:
    """Malformed files end as IndexFormatError, never zlib/struct/Index/Overflow/MemoryError."""

    @given(
        edits=st.lists(
            st.tuples(
                st.sampled_from(["truncate", "flip", "splice", "copy"]),
                st.integers(min_value=0, max_value=2**16),
                st.integers(min_value=0, max_value=2**16),
                st.integers(min_value=1, max_value=255),
            ),
            min_size=1,
            max_size=3,
        ),
        counts=st.none() | st.tuples(*[st.integers(min_value=0, max_value=2**32 - 1)] * 3),
    )
    @settings(max_examples=300, deadline=None)
    def test_edited_body(self, fuzz_base, edits, counts):
        # Edits go to the decompressed body (and optionally the header
        # counts), which is then recompressed and re-checksummed, so the
        # parser and not the CRC meets them.
        path, header, body = fuzz_base
        if counts is not None:
            header = header[:-12] + struct.pack("<III", *counts)
        for op, i, j, k in edits:
            i, j = i % (len(body) + 1), j % (len(body) + 1)
            if op == "truncate":
                body = body[:i]
            elif op == "flip" and i < len(body):
                body = body[:i] + bytes([body[i] ^ k]) + body[i + 1 :]
            elif op == "splice":  # insert up to k bytes from j at i
                body = body[:i] + body[j : j + k] + body[i:]
            elif op == "copy":  # one u32 over another: the section sizes still agree
                i, j = i - i % 4, j - j % 4
                chunk = body[j : j + 4][: len(body) - i]
                body = body[:i] + chunk + body[i + len(chunk) :]
        out = header + zlib.compress(body)
        _fuzz_load(path, out + struct.pack("<I", zlib.crc32(out)))

    @given(st.binary(max_size=200), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_random_bytes(self, fuzz_base, data, behind_header):
        # Raw bytes, or raw bytes as the body behind a valid header and CRC.
        path, header, _ = fuzz_base
        if behind_header:
            out = header + data
            data = out + struct.pack("<I", zlib.crc32(out))
        _fuzz_load(path, data)


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

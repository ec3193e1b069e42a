"""Okapi BM25 inverted index with per-query rank statistics.

Scores use the non-negative smoothed idf ln(1 + (N - df + 0.5)/(df + 0.5))
and the standard tf saturation with parameters k1 and b. A query is a bag
of terms scored disjunctively; rank(q, source) counts the documents that
score strictly higher than the source, so ties favor the source.

The on-disk format is a single binary file: header (magic, version,
params, counts), a document table, a front-coded term dictionary with
delta-encoded varint postings, and a trailing CRC32.
"""

from __future__ import annotations

import heapq
import math
import struct
import zlib
from collections import Counter
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

from .corpus import TokenizedDoc
from .errors import ChecksumError, DataError, DuplicateIdError, IndexFormatError

_MAGIC = b"SPMI"
_VERSION = 1

DEFAULT_K1 = 1.2
DEFAULT_B = 0.75


class Posting(NamedTuple):
    doc_ref: int
    term_freq: int


class TermWeights(NamedTuple):
    """A term's score contribution to each document that holds it, by slot."""

    by_slot: dict[int, float]
    max_weight: float


@dataclass(frozen=True)
class Query:
    """A bag of query terms; each occurrence contributes to the score."""

    terms: tuple[str, ...]

    def __post_init__(self):
        if not self.terms:
            raise DataError("query must contain at least one term")
        for term in self.terms:
            check_term(term)


def check_term(term: str) -> None:
    """Reject a query term that is empty or contains whitespace."""
    if term.split() != [term]:  # str.split() splits on exactly what str.isspace() matches
        raise DataError(f"query term {term!r} is empty or contains whitespace")


def _as_query(query: Query | Sequence[str]) -> Query:
    if isinstance(query, Query):
        return query
    return Query(terms=tuple(query))


@dataclass
class BM25Index:
    postings: dict[str, list[Posting]]
    doc_lens: list[int]
    doc_ids: list[str]
    avg_doc_len: float
    k1: float
    b: float
    _slot_by_id: dict[str, int] = field(init=False, repr=False)
    _norms: list[float] = field(init=False, repr=False)
    # Per-term weights by slot, filled on first use so that building or
    # loading an index does no scoring work.
    _weights: dict[str, TermWeights] = field(init=False, default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        self._slot_by_id = {doc_id: slot for slot, doc_id in enumerate(self.doc_ids)}
        # Length normalization is per document and query-independent.
        self._norms = [
            self.k1 * (1.0 - self.b + self.b * doc_len / self.avg_doc_len)
            for doc_len in self.doc_lens
        ]

    @property
    def num_docs(self) -> int:
        return len(self.doc_lens)

    def slot_of(self, doc_id: str) -> int:
        try:
            return self._slot_by_id[doc_id]
        except KeyError:
            raise DataError(f"document {doc_id!r} is not in the index") from None

    def idf(self, term: str) -> float:
        df = len(self.postings.get(term, ()))
        return math.log(1.0 + (self.num_docs - df + 0.5) / (df + 0.5))

    def term_weights(self, term: str) -> TermWeights:
        """Each posting's score contribution, idf * tf * (k1 + 1) / (tf + norm).

        Cached per indexed term; a term the index lacks weighs nothing.
        """
        cached = self._weights.get(term)
        if cached is None:
            plist = self.postings.get(term)
            if not plist:
                return TermWeights({}, 0.0)
            idf = self.idf(term)
            norms = self._norms
            k1p1 = self.k1 + 1.0
            by_slot = {doc_ref: idf * tf * k1p1 / (tf + norms[doc_ref]) for doc_ref, tf in plist}
            cached = self._weights[term] = TermWeights(by_slot, max(by_slot.values()))
        return cached

    def scores(self, query: Query | Sequence[str]) -> dict[int, float]:
        """Sparse scores over the union of the query terms' postings.

        Documents absent from the result score exactly 0.0. Per-document
        contributions accumulate in query-term order, so the same query
        gives bitwise equal scores on every call and after a reload.
        """
        query = _as_query(query)
        acc: dict[int, float] = {}
        get = acc.get
        for term in query.terms:
            by_slot = self.term_weights(term).by_slot
            if acc:
                for doc_ref, weight in by_slot.items():
                    acc[doc_ref] = get(doc_ref, 0.0) + weight
            else:  # 0.0 + weight == weight, so the first term seeds the sums
                acc.update(by_slot)
        return acc

    def rank(self, query: Query | Sequence[str], source: int) -> int:
        """Number of documents scoring strictly higher than ``source``."""
        if not 0 <= source < self.num_docs:
            raise DataError(f"source {source} out of range (num_docs={self.num_docs})")
        sparse = self.scores(query)
        source_score = sparse.get(source, 0.0)
        return sum(1 for s in sparse.values() if s > source_score)

    def top_k(self, query: Query | Sequence[str], k: int) -> list[tuple[int, float]]:
        """The k best positive-scoring documents, score desc, slot asc on ties."""
        if k < 1:
            raise DataError(f"k must be >= 1, got {k}")
        sparse = self.scores(query)
        positive = [(slot, s) for slot, s in sparse.items() if s > 0.0]
        best = heapq.nlargest(k, positive, key=lambda item: (item[1], -item[0]))
        return best


def build_index(
    docs: Iterable[TokenizedDoc],
    k1: float = DEFAULT_K1,
    b: float = DEFAULT_B,
) -> BM25Index:
    """Index a tokenized corpus; document order defines slots."""
    if k1 <= 0:
        raise DataError(f"k1 must be > 0, got {k1}")
    if not 0 <= b <= 1:
        raise DataError(f"b must be in [0, 1], got {b}")
    postings: dict[str, list[Posting]] = {}
    doc_lens: list[int] = []
    doc_ids: list[str] = []
    seen: set[str] = set()
    for slot, doc in enumerate(docs):
        if doc.doc_id in seen:
            raise DuplicateIdError(f"duplicate document id {doc.doc_id!r} while indexing")
        seen.add(doc.doc_id)
        doc_ids.append(doc.doc_id)
        doc_lens.append(len(doc.tokens))
        for term, tf in Counter(doc.tokens).items():
            postings.setdefault(term, []).append(Posting(slot, tf))
    total_len = sum(doc_lens)
    if not total_len:
        raise DataError("cannot build an index from a corpus with no tokens")
    avg_doc_len = total_len / len(doc_lens)
    return BM25Index(
        postings=postings,
        doc_lens=doc_lens,
        doc_ids=doc_ids,
        avg_doc_len=avg_doc_len,
        k1=k1,
        b=b,
    )


def _write_varint(out: bytearray, value: int) -> None:
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


class _Reader:
    def __init__(self, data: bytes, pos: int = 0):
        self.data = data
        self.pos = pos

    def varint(self) -> int:
        result = 0
        shift = 0
        while True:
            if self.pos >= len(self.data):
                raise ChecksumError("index file truncated inside a varint")
            byte = self.data[self.pos]
            self.pos += 1
            result |= (byte & 0x7F) << shift
            if not byte & 0x80:
                return result
            shift += 7

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise ChecksumError("index file truncated")
        chunk = self.data[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def text(self, what: str) -> str:
        """A varint-length-prefixed UTF-8 string."""
        raw = self.take(self.varint())
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise IndexFormatError(f"index file corrupt (invalid UTF-8 in a {what})") from exc


def save_index(index: BM25Index, path) -> None:
    """Serialize to the single-file binary format described above."""
    out = bytearray()
    out += _MAGIC
    out += struct.pack("<H", _VERSION)
    out += struct.pack("<dd", index.k1, index.b)
    _write_varint(out, index.num_docs)
    for doc_id, doc_len in zip(index.doc_ids, index.doc_lens):
        raw = doc_id.encode("utf-8")
        _write_varint(out, len(raw))
        out += raw
        _write_varint(out, doc_len)
    terms = sorted(index.postings)
    _write_varint(out, len(terms))
    prev = ""
    for term in terms:
        shared = 0
        for a, b in zip(prev, term):
            if a != b:
                break
            shared += 1
        suffix = term[shared:].encode("utf-8")
        _write_varint(out, shared)
        _write_varint(out, len(suffix))
        out += suffix
        plist = index.postings[term]
        _write_varint(out, len(plist))
        prev_ref = 0
        for posting in plist:
            _write_varint(out, posting.doc_ref - prev_ref)
            _write_varint(out, posting.term_freq)
            prev_ref = posting.doc_ref
        prev = term
    out += struct.pack("<I", zlib.crc32(out))
    with open(path, "wb") as fh:
        fh.write(out)


def load_index(path) -> BM25Index:
    """Load a saved index; scores reproduce bit-identically."""
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 4 or data[:4] != _MAGIC:
        raise IndexFormatError("not an index file (bad magic bytes)")
    if len(data) < 8 or zlib.crc32(data[:-4]) != struct.unpack("<I", data[-4:])[0]:
        raise ChecksumError("index file corrupt (checksum mismatch)")
    reader = _Reader(data[:-4], pos=4)
    (version,) = struct.unpack("<H", reader.take(2))
    if version != _VERSION:
        raise IndexFormatError(f"unsupported index version {version} (expected {_VERSION})")
    k1, b = struct.unpack("<dd", reader.take(16))
    num_docs = reader.varint()
    doc_ids = []
    doc_lens = []
    for _ in range(num_docs):
        doc_ids.append(reader.text("document id"))
        doc_lens.append(reader.varint())
    total_len = sum(doc_lens)
    if not total_len:
        raise IndexFormatError("index file corrupt (document lengths sum to 0)")
    postings: dict[str, list[Posting]] = {}
    prev = ""
    for _ in range(reader.varint()):
        shared = reader.varint()
        term = prev[:shared] + reader.text("term")
        plist = []
        doc_ref = 0
        for _ in range(reader.varint()):
            doc_ref += reader.varint()
            plist.append(Posting(doc_ref, reader.varint()))
        # Deltas are non-negative, so the last ref is the largest.
        if doc_ref >= num_docs:
            raise IndexFormatError(
                f"index file corrupt (term {term!r} posts to document {doc_ref} of {num_docs})"
            )
        postings[term] = plist
        prev = term
    avg_doc_len = total_len / num_docs
    return BM25Index(
        postings=postings,
        doc_lens=doc_lens,
        doc_ids=doc_ids,
        avg_doc_len=avg_doc_len,
        k1=k1,
        b=b,
    )

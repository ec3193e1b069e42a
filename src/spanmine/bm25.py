"""Okapi BM25 inverted index with per-query rank statistics.

Scores use the non-negative smoothed idf ln(1 + (N - df + 0.5)/(df + 0.5))
and the standard tf saturation with parameters k1 and b. A query is a bag
of terms scored disjunctively; rank(q, source) counts the documents that
score strictly higher than the source, so ties favor the source.

The on-disk format (version 2) is a single binary file: a fixed header
(magic, version, k1, b and the counts of documents, terms and postings),
one zlib stream of little-endian u32 columns (id byte lengths, document
lengths, term byte lengths, dfs, doc refs, term frequencies) followed by
the UTF-8 ids and terms, and a trailing CRC32 of everything before it.

In memory, the doc refs and term frequencies are likewise two corpus-wide
u32 columns, term by term, and each term's PostingList is its slice of
them. No Python object is made per posting, so the cyclic garbage
collector never walks them.
"""

from __future__ import annotations

import heapq
import math
import struct
import sys
import zlib
from array import array
from bisect import bisect_right
from collections import Counter
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from itertools import accumulate, chain, compress, count, islice
from operator import ge
from typing import NamedTuple

from .corpus import TokenizedDoc
from .errors import ChecksumError, DataError, DuplicateIdError, IndexFormatError

_MAGIC = b"SPMI"
_VERSION = 2
_HEADER = struct.Struct("<4sHddIII")  # magic, version, k1, b, documents, terms, postings
_ZLIB_LEVEL = 1
_BIG_ENDIAN = sys.byteorder == "big"

DEFAULT_K1 = 1.2
DEFAULT_B = 0.75


class PostingList:
    """One term's postings: doc refs, ascending, and their term frequencies.

    They are the slice [start, stop) of two u32 columns that the index's
    terms share; len() is the document frequency. ``refs`` and ``tfs``
    return copies of the slice, and two lists are equal when these are.
    """

    __slots__ = ("_refs", "_tfs", "_start", "_stop")

    def __init__(self, refs: array, tfs: array, start: int = 0, stop: int | None = None):
        self._refs, self._tfs = refs, tfs
        self._start, self._stop = start, len(refs) if stop is None else stop

    def __len__(self) -> int:
        return self._stop - self._start

    @property
    def refs(self) -> array:
        return self._refs[self._start : self._stop]

    @property
    def tfs(self) -> array:
        return self._tfs[self._start : self._stop]

    def __eq__(self, other):
        if not isinstance(other, PostingList):
            return NotImplemented
        return self.refs == other.refs and self.tfs == other.tfs

    def __repr__(self) -> str:
        return f"PostingList(refs={self.refs!r}, tfs={self.tfs!r})"


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
    postings: dict[str, PostingList]
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
            by_slot = {ref: idf * tf * k1p1 / (tf + norms[ref]) for ref, tf in zip(plist.refs, plist.tfs)}
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
    term_refs: dict[str, array] = {}
    term_tfs: dict[str, array] = {}
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
            column = term_refs.get(term)
            if column is None:
                term_refs[term] = array("I", (slot,))
                term_tfs[term] = array("I", (tf,))
            else:
                column.append(slot)
                term_tfs[term].append(tf)
    total_len = sum(doc_lens)
    if not total_len:
        raise DataError("cannot build an index from a corpus with no tokens")
    avg_doc_len = total_len / len(doc_lens)
    # Concatenate the per-term columns, freeing each once it is copied.
    refs, tfs = array("I"), array("I")
    postings: dict[str, PostingList] = {}
    for term in list(term_refs):
        start = len(refs)
        refs.extend(term_refs.pop(term))
        tfs.extend(term_tfs.pop(term))
        postings[term] = PostingList(refs, tfs, start, len(refs))
    return BM25Index(
        postings=postings,
        doc_lens=doc_lens,
        doc_ids=doc_ids,
        avg_doc_len=avg_doc_len,
        k1=k1,
        b=b,
    )


def _columns(raw: bytes, counts: Sequence[int]) -> list[array]:
    """Consecutive little-endian u32 columns of the given lengths."""
    view = memoryview(raw)
    columns, pos = [], 0
    for n in counts:
        column = array("I")
        column.frombytes(view[pos : pos + 4 * n])
        if _BIG_ENDIAN:
            column.byteswap()
        columns.append(column)
        pos += 4 * n
    return columns


def _decode(blob: bytes, lens: array, what: str) -> list[str]:
    """Split a blob of UTF-8 strings by their byte lengths."""
    offsets = list(accumulate(lens, initial=0))
    try:
        return [blob[start:end].decode("utf-8") for start, end in zip(offsets, offsets[1:])]
    except UnicodeDecodeError as exc:
        raise IndexFormatError(f"index file corrupt (invalid UTF-8 in a {what})") from exc


def save_index(index: BM25Index, path) -> None:
    """Serialize to the single-file binary format described above."""
    terms = sorted(index.postings)
    plists = [index.postings[term] for term in terms]
    ids = [doc_id.encode("utf-8") for doc_id in index.doc_ids]
    words = [term.encode("utf-8") for term in terms]
    dfs = array("I", map(len, plists))
    columns = array("I", map(len, ids))
    for column in (index.doc_lens, map(len, words), dfs):
        columns.extend(column)
    # Slices of the shared columns, without the per-call cost of the
    # refs/tfs properties: these loops run once per term.
    for plist in plists:
        columns.extend(plist._refs[plist._start : plist._stop])
    for plist in plists:
        columns.extend(plist._tfs[plist._start : plist._stop])
    if _BIG_ENDIAN:
        columns.byteswap()
    out = _HEADER.pack(_MAGIC, _VERSION, index.k1, index.b, index.num_docs, len(terms), sum(dfs))
    out += zlib.compress(columns.tobytes() + b"".join(ids) + b"".join(words), _ZLIB_LEVEL)
    with open(path, "wb") as fh:
        fh.write(out)
        fh.write(struct.pack("<I", zlib.crc32(out)))


def load_index(path) -> BM25Index:
    """Load a saved index; scores reproduce bit-identically.

    Any file that is not a consistent v2 index raises IndexFormatError
    (ChecksumError for a checksum mismatch or a truncated file).
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != _MAGIC:
        raise IndexFormatError("not an index file (bad magic bytes)")
    if len(data) < 6:
        raise ChecksumError("index file truncated")
    version = int.from_bytes(data[4:6], "little")
    if version != _VERSION:
        raise IndexFormatError(
            f"unsupported index version {version} (expected {_VERSION}); rebuild it with spanmine index"
        )
    if len(data) < _HEADER.size + 4 or zlib.crc32(memoryview(data)[:-4]) != int.from_bytes(data[-4:], "little"):
        raise ChecksumError("index file corrupt (checksum mismatch)")
    _, _, k1, b, num_docs, num_terms, num_postings = _HEADER.unpack_from(data)
    if not (k1 > 0 and 0 <= b <= 1):
        raise IndexFormatError(f"index file corrupt (k1={k1}, b={b})")
    try:
        raw = zlib.decompress(memoryview(data)[_HEADER.size : -4])
    except zlib.error as exc:
        raise IndexFormatError(f"index file corrupt ({exc})") from exc
    del data
    # Counts are checked against the body before anything is sized by them.
    counts = (num_docs, num_docs, num_terms, num_terms, num_postings, num_postings)
    width = 4 * sum(counts)
    if len(raw) < width:
        raise IndexFormatError("index file corrupt (body shorter than its header counts)")
    id_lens, doc_lens, term_lens, dfs, refs, tfs = _columns(raw, counts)
    text = raw[width:]
    del raw
    id_bytes = sum(id_lens)
    if id_bytes + sum(term_lens) != len(text) or sum(dfs) != num_postings:
        raise IndexFormatError("index file corrupt (section sizes disagree with the header counts)")
    doc_ids = _decode(text[:id_bytes], id_lens, "document id")
    terms = _decode(text[id_bytes:], term_lens, "term")
    del text
    total_len = sum(doc_lens)
    if not total_len:
        raise IndexFormatError("index file corrupt (document lengths sum to 0)")
    for what, names in (("document id", doc_ids), ("term", terms)):
        if len(set(names)) != len(names):
            repeated = Counter(names).most_common(1)[0][0]
            raise IndexFormatError(f"index file corrupt ({what} {repeated!r} appears twice)")
    ends = list(accumulate(dfs))
    doc_ref = max(refs, default=0)
    if doc_ref >= num_docs:
        term = terms[bisect_right(ends, refs.index(doc_ref))]
        raise IndexFormatError(f"index file corrupt (term {term!r} posts to document {doc_ref} of {num_docs})")
    # Doc refs ascend strictly within a term: a ref not above its
    # predecessor may only start the next term's list.
    unordered = set(compress(count(1), map(ge, refs, islice(refs, 1, None)))).difference(ends)
    if unordered:
        pos = min(unordered)
        term = terms[bisect_right(ends, pos)]
        raise IndexFormatError(f"index file corrupt (term {term!r} repeats or reorders document {refs[pos]})")
    if 0 in tfs:
        raise IndexFormatError("index file corrupt (a posting has term frequency 0)")
    postings = {
        term: PostingList(refs, tfs, start, end) for term, start, end in zip(terms, chain((0,), ends), ends)
    }
    return BM25Index(
        postings=postings,
        doc_lens=doc_lens.tolist(),
        doc_ids=doc_ids,
        avg_doc_len=total_len / num_docs,
        k1=k1,
        b=b,
    )

"""Okapi BM25 inverted index with per-query rank statistics.

Scores use the non-negative smoothed idf ln(1 + (N - df + 0.5)/(df + 0.5))
and the standard tf saturation with parameters k1 and b. A query is a bag
of terms scored disjunctively; rank(q, source) counts the documents that
score strictly higher than the source, so ties favor the source.

The on-disk format (version 3) is a single uncompressed binary file: a
fixed header (magic, version, k1, b and the counts of documents, terms and
postings), little-endian u32 columns (id byte lengths, document lengths,
term byte lengths, dfs, doc refs, term frequencies), the UTF-8 ids and
terms in the order build_index first met them, and a trailing CRC32.

In memory, BM25Index holds the same columns, the dfs, doc refs and term
frequencies as u32 arrays, and each term's PostingList is its slice of
the last two. So saving writes each column whole and loading slices them
out of the file's bytes. No Python object is made per posting, so the
cyclic garbage collector never walks them.
"""

from __future__ import annotations

import math
import struct
import sys
import zlib
from array import array
from bisect import bisect_right
from collections import Counter
from collections.abc import Iterable, Sequence
from dataclasses import InitVar, dataclass, field
from itertools import accumulate, chain, compress, count, islice
from operator import ge
from typing import NamedTuple

from .corpus import TokenizedDoc, replacing
from .errors import DataError

_MAGIC = b"SPMI"
_VERSION = 3
_HEADER = struct.Struct("<4sHddIII")  # magic, version, k1, b, documents, terms, postings
_BIG_ENDIAN = sys.byteorder == "big"

DEFAULT_K1 = 1.2
DEFAULT_B = 0.75


class PostingList:
    """One term's postings: doc refs, ascending, and their term frequencies.

    They are the slice [start, stop) of two u32 columns that the index's
    terms share; len() is the document frequency. ``refs`` and ``tfs``
    return copies of the slice.
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

    def __repr__(self) -> str:
        return f"PostingList(refs={self.refs!r}, tfs={self.tfs!r})"


class TermWeights(NamedTuple):
    """A term's score contribution to each document that holds it, by slot."""

    by_slot: dict[int, float]
    max_weight: float


def check_term(term: str) -> None:
    """Reject a query term that is empty or contains whitespace."""
    if term.split() != [term]:  # str.split() splits on exactly what str.isspace() matches
        raise DataError(f"query term {term!r} is empty or contains whitespace")


@dataclass
class BM25Index:
    """The columns of an index file, and each term's PostingList view of them.

    Slot i is document ``doc_ids[i]``, ``doc_lens[i]`` tokens long. The
    ``terms``, in order, own consecutive runs of ``dfs`` postings in ``refs``
    and ``tfs``; ``postings`` maps each term to its run.
    """

    doc_ids: list[str]
    doc_lens: list[int]
    terms: InitVar[Sequence[str]]
    dfs: array
    refs: array
    tfs: array
    k1: float
    b: float
    postings: dict[str, PostingList] = field(init=False, repr=False)
    avg_doc_len: float = field(init=False)
    _slot_by_id: dict[str, int] = field(init=False, repr=False)
    _norms: list[float] = field(init=False, repr=False)

    def __post_init__(self, terms: Sequence[str]):
        ends = list(accumulate(self.dfs))
        runs = zip(terms, chain((0,), ends), ends)
        self.postings = {term: PostingList(self.refs, self.tfs, start, end) for term, start, end in runs}
        self.avg_doc_len = sum(self.doc_lens) / len(self.doc_lens)
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

        Computed on each call; a caller that reuses terms keeps its own
        memo. A term the index lacks weighs nothing.
        """
        plist = self.postings.get(term)
        if not plist:
            return TermWeights({}, 0.0)
        idf = self.idf(term)
        norms = self._norms
        k1p1 = self.k1 + 1.0
        by_slot = {ref: idf * tf * k1p1 / (tf + norms[ref]) for ref, tf in zip(plist.refs, plist.tfs)}
        return TermWeights(by_slot, max(by_slot.values()))

    def scores(self, query: Sequence[str]) -> dict[int, float]:
        """Sparse scores over the union of the query terms' postings.

        Documents absent from the result score exactly 0.0. Per-document
        contributions accumulate in query-term order, so the same query
        gives bitwise equal scores on every call and after a reload.
        """
        if not query:
            raise DataError("query must contain at least one term")
        for term in query:
            check_term(term)
        acc = self.term_weights(query[0]).by_slot  # a new dict on each call, so it can hold the sums
        get = acc.get
        for term in query[1:]:
            for doc_ref, weight in self.term_weights(term).by_slot.items():
                acc[doc_ref] = get(doc_ref, 0.0) + weight
        return acc

    def rank(self, query: Sequence[str], source: int) -> int:
        """Number of documents scoring strictly higher than ``source``."""
        if not 0 <= source < self.num_docs:
            raise DataError(f"source {source} out of range (num_docs={self.num_docs})")
        sparse = self.scores(query)
        source_score = sparse.get(source, 0.0)
        return sum(1 for s in sparse.values() if s > source_score)


def build_index(
    docs: Iterable[TokenizedDoc],
    k1: float = DEFAULT_K1,
    b: float = DEFAULT_B,
) -> BM25Index:
    """Index a tokenized corpus; document order defines slots."""
    if not (math.isfinite(k1) and k1 > 0):
        raise DataError(f"k1 must be finite and > 0, got {k1}")
    if not 0 <= b <= 1:
        raise DataError(f"b must be in [0, 1], got {b}")
    term_refs: dict[str, array] = {}
    term_tfs: dict[str, array] = {}
    doc_lens: list[int] = []
    doc_ids: list[str] = []
    seen: set[str] = set()
    for slot, doc in enumerate(docs):
        if doc.doc_id in seen:
            raise DataError(f"duplicate document id {doc.doc_id!r} while indexing")
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
    if not doc_lens:
        raise DataError("cannot build an index from a corpus with no documents")
    if not sum(doc_lens):
        raise DataError("cannot build an index from a corpus with no tokens")
    # Concatenate the per-term columns, freeing each once it is copied.
    terms = list(term_refs)
    dfs, refs, tfs = array("I"), array("I"), array("I")
    for term in terms:
        column = term_refs.pop(term)
        dfs.append(len(column))
        refs.extend(column)
        tfs.extend(term_tfs.pop(term))
    return BM25Index(doc_ids, doc_lens, terms, dfs, refs, tfs, k1, b)


def _little_endian(column: array) -> array:
    """``column`` between host and file (little-endian) byte order: a swapped copy on a big-endian host."""
    if _BIG_ENDIAN:
        column = array(column.typecode, column)
        column.byteswap()
    return column


def _columns(raw: bytes, counts: Sequence[int]) -> list[array]:
    """Consecutive little-endian u32 columns of the given lengths."""
    view = memoryview(raw)
    columns, pos = [], 0
    for n in counts:
        column = array("I")
        column.frombytes(view[pos : pos + 4 * n])
        columns.append(_little_endian(column))
        pos += 4 * n
    return columns


def _decode(blob: bytes, lens: array, what: str) -> list[str]:
    """Split a blob of UTF-8 strings by their byte lengths."""
    offsets = list(accumulate(lens, initial=0))
    try:
        return [blob[start:end].decode("utf-8") for start, end in zip(offsets, offsets[1:])]
    except UnicodeDecodeError as exc:
        raise DataError(f"index file corrupt (invalid UTF-8 in a {what})") from exc


def save_index(index: BM25Index, path) -> None:
    """Serialize to the single-file binary format described above.

    The file is written beside ``path`` and moved onto it once complete, so
    a failed save leaves ``path`` as it was.
    """
    ids = [doc_id.encode("utf-8") for doc_id in index.doc_ids]
    words = [term.encode("utf-8") for term in index.postings]
    lens = array("I", chain(map(len, ids), index.doc_lens, map(len, words)))
    header = _HEADER.pack(_MAGIC, _VERSION, index.k1, index.b, index.num_docs, len(words), len(index.refs))
    parts = [header, *map(_little_endian, (lens, index.dfs, index.refs, index.tfs)), b"".join(ids), b"".join(words)]
    with replacing(path, "wb") as fh:
        crc = 0
        for part in parts:
            fh.write(part)
            crc = zlib.crc32(part, crc)
        fh.write(struct.pack("<I", crc))


def load_index(path) -> BM25Index:
    """Load a saved index; scores reproduce bit-identically.

    Any file that is not a consistent v3 index raises DataError, a
    checksum mismatch or a truncated file included.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != _MAGIC:
        raise DataError("not an index file (bad magic bytes)")
    if len(data) < 6:
        raise DataError("index file truncated")
    version = int.from_bytes(data[4:6], "little")
    if version != _VERSION:
        raise DataError(
            f"unsupported index version {version} (expected {_VERSION}); rebuild it with spanmine index"
        )
    if len(data) < _HEADER.size + 4 or zlib.crc32(memoryview(data)[:-4]) != int.from_bytes(data[-4:], "little"):
        raise DataError("index file corrupt (checksum mismatch)")
    _, _, k1, b, num_docs, num_terms, num_postings = _HEADER.unpack_from(data)
    if not (math.isfinite(k1) and k1 > 0 and 0 <= b <= 1):
        raise DataError(f"index file corrupt (k1={k1}, b={b})")
    # Counts are checked against the body before anything is sized by them.
    counts = (num_docs, num_docs, num_terms, num_terms, num_postings, num_postings)
    width = 4 * sum(counts)
    if len(data) - _HEADER.size - 4 < width:
        raise DataError("index file corrupt (body shorter than its header counts)")
    id_lens, doc_lens, term_lens, dfs, refs, tfs = _columns(memoryview(data)[_HEADER.size :], counts)
    text = data[_HEADER.size + width : -4]
    del data
    id_bytes = sum(id_lens)
    if id_bytes + sum(term_lens) != len(text) or sum(dfs) != num_postings:
        raise DataError("index file corrupt (section sizes disagree with the header counts)")
    doc_ids = _decode(text[:id_bytes], id_lens, "document id")
    terms = _decode(text[id_bytes:], term_lens, "term")
    del text
    if not sum(doc_lens):
        raise DataError("index file corrupt (document lengths sum to 0)")
    for what, names in (("document id", doc_ids), ("term", terms)):
        if len(set(names)) != len(names):
            repeated = Counter(names).most_common(1)[0][0]
            raise DataError(f"index file corrupt ({what} {repeated!r} appears twice)")
    if 0 in dfs:
        raise DataError(f"index file corrupt (term {terms[dfs.index(0)]!r} has no postings)")
    ends = list(accumulate(dfs))
    doc_ref = max(refs, default=0)
    if doc_ref >= num_docs:
        term = terms[bisect_right(ends, refs.index(doc_ref))]
        raise DataError(f"index file corrupt (term {term!r} posts to document {doc_ref} of {num_docs})")
    # Doc refs ascend strictly within a term: a ref not above its
    # predecessor may only start the next term's list.
    unordered = set(compress(count(1), map(ge, refs, islice(refs, 1, None)))).difference(ends)
    if unordered:
        pos = min(unordered)
        term = terms[bisect_right(ends, pos)]
        raise DataError(f"index file corrupt (term {term!r} repeats or reorders document {refs[pos]})")
    if 0 in tfs:
        raise DataError("index file corrupt (a posting has term frequency 0)")
    return BM25Index(doc_ids, doc_lens.tolist(), terms, dfs, refs, tfs, k1, b)

"""Corpus ingestion, text normalization, tokenization, and dataset statistics.

One tokenizer is shared by indexing, span mining, corruption, and the
present/absent test so that every component agrees on token boundaries.
"""

from __future__ import annotations

import json
import logging
import math
import os
import re
from collections.abc import Callable, Iterable, Iterator, Mapping
from contextlib import contextmanager, nullcontext, suppress
from dataclasses import asdict, dataclass

from .errors import DataError

logger = logging.getLogger(__name__)

SEP_TOKEN = "<sep>"
DIGIT_TOKEN = "<digit>"
DEFAULT_MAX_TOKENS = 512

# Logical field -> JSONL key. Values are remappable via CLI flags.
DEFAULT_SCHEMA = {
    "id": "id",
    "title": "title",
    "body": "abstract",
    "keyphrases": "keywords",
}


@dataclass(frozen=True)
class Document:
    """One corpus record. ``keyphrases`` is None for unlabeled records."""

    id: str
    title: str
    body: str
    keyphrases: tuple[str, ...] | None = None


@dataclass(frozen=True)
class TokenizedDoc:
    """A document rendered as the token sequence the whole pipeline consumes.

    ``tokens`` is title tokens, then one SEP_TOKEN, then body tokens,
    possibly truncated. ``title_len`` counts the tokens of the title prefix
    (the separator is not part of it).
    """

    doc_id: str
    tokens: tuple[str, ...]
    title_len: int


@dataclass(frozen=True)
class CorpusStats:
    num_docs: int
    avg_kp_per_doc: float
    avg_kp_len: float
    pct_absent_kp: float
    avg_doc_len: float

    to_dict = asdict  # field names are the JSON keys, in output order


_DIGIT_RUN = re.compile(r"[0-9]+")

# Order matters: the sentinels must win over the punctuation branch, and a
# word may keep internal hyphens only when both sides are word characters.
_TOKEN = re.compile(r"<digit>|<sep>|\w+(?:-\w+)*|[^\w\s]")


def read_lines(path) -> Iterator[tuple[int, str]]:
    """Yield ``(line number, line)`` from a UTF-8 text file, less a leading byte-order mark.

    Bytes that are not valid UTF-8 raise DataError naming the file, the
    line and the first bad byte.
    """
    try:
        with open(path, encoding="utf-8-sig") as fh:
            yield from enumerate(fh, start=1)
    except UnicodeDecodeError as exc:
        raise DataError(_where_utf8_fails(path)) from exc


@contextmanager
def replacing(path, mode: str = "w"):
    """Write a file beside ``path`` (UTF-8 in a text ``mode``) and move it onto ``path`` once the block ends.

    An exception in the block, or in the file's last flush, removes the
    partial file and leaves ``path`` as it was; an ``OSError`` that names no
    file, or the file beside ``path``, is raised again naming ``path``, so
    the block should only write. ``os.replace`` puts a new file in place, so a
    ``path`` that is a symlink becomes a regular file.
    """
    temp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(temp, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
        os.replace(temp, path)
    except BaseException as exc:
        with suppress(OSError):
            os.unlink(temp)
        if isinstance(exc, OSError) and exc.errno is not None and exc.filename in (None, temp):
            raise OSError(exc.errno, exc.strerror, os.fspath(path)) from exc
        raise


def refuse_non_finite(record, what: str) -> None:
    """Raise DataError naming ``what`` when a NaN or infinity sits anywhere in ``record``."""
    stack = [[record]]
    while stack:
        container = stack.pop()
        for value in container.values() if isinstance(container, dict) else container:
            if isinstance(value, float):
                if not math.isfinite(value):
                    raise DataError(f"{what} holds {value}, which strict JSON cannot encode")
            elif isinstance(value, (dict, list, tuple)):
                stack.append(value)


def write_json(record, dest, what: str) -> None:
    """Stream ``record`` as indented strict JSON and a newline to ``dest``, a path or an open text stream.

    A NaN or infinity anywhere in ``record`` raises DataError naming
    ``what`` before ``dest`` is opened or written. A path is written whole.
    """
    refuse_non_finite(record, what)
    with nullcontext(dest) if hasattr(dest, "write") else replacing(dest) as fh:
        json.dump(record, fh, indent=2, allow_nan=False)
        fh.write("\n")


# Undecodable bytes read with errors="surrogateescape" become U+DC80..U+DCFF,
# which strict UTF-8 never produces.
_ESCAPED_BYTE = re.compile("[\udc80-\udcff]")


def _where_utf8_fails(path) -> str:
    """Locate the first undecodable byte, splitting lines as the strict read does."""
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for line_no, line in enumerate(fh, start=1):
            bad = _ESCAPED_BYTE.search(line)
            if bad:
                return f"{path}: line {line_no}: invalid UTF-8 (byte 0x{ord(bad.group()) - 0xDC00:02X})"
    return f"{path}: invalid UTF-8"


def refuse_lone_surrogates(where: str, fields: Iterable[tuple[str, str]]) -> None:
    """Raise DataError at ``where`` naming the first ``(field, text)`` that holds a lone surrogate.

    Strict UTF-8 encoding fails on a lone surrogate and nothing else. Text
    decoded as strict UTF-8 holds none, but ``json.loads`` decodes a ``\\u``
    escape of one, so callers check only lines that hold ``\\u``.
    """
    for field, text in fields:
        try:
            text.encode("utf-8")
        except UnicodeEncodeError as exc:
            code = ord(text[exc.start])
            raise DataError(
                f"{where}: field {field!r} holds a lone surrogate (U+{code:04X}), which UTF-8 cannot encode"
            ) from None


def contains(hay: tuple[str, ...], needle: tuple[str, ...]) -> bool:
    """True when ``needle`` occurs contiguously in ``hay``; never for an empty needle.

    Jumps between occurrences of the needle's first token and compares one
    slice at each.
    """
    n = len(needle)
    if not n or n > len(hay):
        return False
    first = needle[0]
    stop = len(hay) - n + 1
    find = hay.index
    i = 0
    try:
        while True:
            i = find(first, i, stop)
            if hay[i : i + n] == needle:
                return True
            i += 1
    except ValueError:
        return False


def normalize(text: str) -> str:
    """Lowercase and collapse every maximal ASCII digit run to ``<digit>``."""
    return _DIGIT_RUN.sub(DIGIT_TOKEN, text.lower())


def tokenize(text: str) -> list[str]:
    """Split normalized text into tokens.

    Rule table: ``<digit>`` and ``<sep>`` are atomic; maximal word runs
    keep intra-word hyphens ("self-stabilizing"); every other
    non-whitespace character becomes its own token ("end.start" ->
    ["end", ".", "start"]).
    """
    return _TOKEN.findall(text)


def text_tokens(text: str) -> list[str]:
    """``tokenize(normalize(text))``, one whitespace chunk at a time.

    No token, digit run or ``<digit>`` spans whitespace, and ``str.split``
    splits on exactly what ``\\s`` matches, so each chunk tokenizes alone.
    A letters-only chunk holds no ASCII digit and is one ``\\w+`` match, so
    it is its own token and neither rule runs on it.
    """
    tokens: list[str] = []
    for chunk in text.lower().split():
        if chunk.isalpha():
            tokens.append(chunk)
        else:
            tokens += _TOKEN.findall(_DIGIT_RUN.sub(DIGIT_TOKEN, chunk))
    return tokens


def model_input(doc: Document, max_tokens: int | None = DEFAULT_MAX_TOKENS) -> TokenizedDoc:
    """Build the token sequence ``title ++ [<sep>] ++ body``, truncated.

    ``max_tokens=None`` disables truncation (used by evaluation, which
    tests presence against the full text).
    """
    if max_tokens is not None and max_tokens < 1:
        raise DataError(f"max_tokens must be >= 1, got {max_tokens}")
    title_tokens = text_tokens(doc.title)
    body_tokens = text_tokens(doc.body)
    tokens = [*title_tokens, SEP_TOKEN, *body_tokens]
    if max_tokens is not None:
        tokens = tokens[:max_tokens]
    title_len = min(len(title_tokens), len(tokens))
    return TokenizedDoc(doc_id=doc.id, tokens=tuple(tokens), title_len=title_len)


def _text_field(record: dict, key: str, path, line_no: int) -> str:
    """The string at ``key``; "" when it is missing or null."""
    value = record.get(key)
    if value is None:
        return ""
    if not isinstance(value, str):
        raise DataError(
            f"{path}: line {line_no}: field {key!r} must be a string or null, got {type(value).__name__}"
        )
    return value


def _parse_keyphrases(record: dict, key: str, path, line_no: int) -> tuple[str, ...] | None:
    raw = record.get(key)
    if raw is None:
        return None
    if isinstance(raw, str):
        parts = raw.split(";")
    elif isinstance(raw, list):
        parts = raw
        for item in parts:
            if not isinstance(item, str):
                raise DataError(
                    f"{path}: line {line_no}: field {key!r} must list only strings, got {type(item).__name__}"
                )
    else:
        raise DataError(
            f"{path}: line {line_no}: keyphrase field must be a list or string, got {type(raw).__name__}"
        )
    return tuple(p.strip() for p in parts if p.strip())


def load_corpus(
    path,
    schema: Mapping[str, str] | None = None,
    on_issue: Callable[[int, str], None] | None = None,
) -> Iterator[Document]:
    """Stream Documents from a JSONL file.

    Malformed JSON and duplicate ids raise; records missing mapped fields
    are reported through ``on_issue`` (default: a logged warning) and
    skipped rather than silently dropped.
    """
    schema = dict(DEFAULT_SCHEMA, **(schema or {}))
    report = on_issue or (lambda n, msg: logger.warning("%s: line %d: %s", path, n, msg))
    seen: set[str] = set()
    for line_no, line in read_lines(path):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}: line {line_no}: malformed JSON ({exc.msg})") from exc
        if not isinstance(record, dict):
            raise DataError(f"{path}: line {line_no}: line is not a JSON object")
        doc_id = record.get(schema["id"])
        if doc_id is not None and not isinstance(doc_id, str):
            raise DataError(
                f"{path}: line {line_no}: field {schema['id']!r} must be a string, got {type(doc_id).__name__}"
            )
        if not doc_id:
            report(line_no, f"missing or empty {schema['id']!r} field; record skipped")
            continue
        if doc_id in seen:
            raise DataError(f"{path}: line {line_no}: duplicate document id {doc_id!r}")
        seen.add(doc_id)
        missing = [name for name in ("title", "body") if schema[name] not in record]
        if missing:
            report(line_no, f"id {doc_id!r}: missing field(s) {', '.join(schema[m] for m in missing)}")
        title = _text_field(record, schema["title"], path, line_no)
        body = _text_field(record, schema["body"], path, line_no)
        if not title and not body:
            report(line_no, f"id {doc_id!r}: both title and body empty; record skipped")
            continue
        keyphrases = _parse_keyphrases(record, schema["keyphrases"], path, line_no)
        if "\\" in line and "\\u" in line:  # most lines hold no "\\", and one character is a fast search
            fields = [(schema["id"], doc_id), (schema["title"], title), (schema["body"], body)]
            fields += [(schema["keyphrases"], phrase) for phrase in keyphrases or ()]
            refuse_lone_surrogates(f"{path}: line {line_no}", fields)
        yield Document(id=doc_id, title=title, body=body, keyphrases=keyphrases)


def write_corpus(docs: Iterable[Document], path) -> None:
    """Serialize Documents back to JSONL under the default schema, written whole; inverse of load_corpus."""
    schema = DEFAULT_SCHEMA
    with replacing(path) as fh:
        for doc in docs:
            record = {
                schema["id"]: doc.id,
                schema["title"]: doc.title,
                schema["body"]: doc.body,
            }
            if doc.keyphrases is not None:
                record[schema["keyphrases"]] = list(doc.keyphrases)
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")


def dataset_stats(corpus: Iterable[Document]) -> CorpusStats:
    """Per-corpus label statistics: #KP, |KP|, %AKP, and document length.

    ``evaluation.gold_split``, the split the evaluator uses, decides which
    documents are labeled and which keyphrases are absent.
    """
    from .evaluation import StemMemo, gold_split

    stems = StemMemo()
    num_docs = 0
    total_kp = 0
    total_kp_tokens = 0
    total_absent = 0
    total_doc_tokens = 0
    for doc in corpus:
        num_docs += 1
        doc_stemmed, present, absent = gold_split(doc, stems)
        total_doc_tokens += len(doc_stemmed)
        total_kp += len(present) + len(absent)
        total_kp_tokens += sum(len(p.tokens) for p in present + absent)
        total_absent += len(absent)
    if num_docs == 0:
        raise DataError("corpus contains no documents")
    return CorpusStats(
        num_docs=num_docs,
        avg_kp_per_doc=total_kp / num_docs,
        avg_kp_len=total_kp_tokens / total_kp if total_kp else 0.0,
        pct_absent_kp=100.0 * total_absent / total_kp if total_kp else 0.0,
        avg_doc_len=total_doc_tokens / num_docs,
    )

"""Exception taxonomy shared by all subcommands.

The CLI maps these onto exit codes: usage errors exit 2 (argparse),
DataError and subclasses exit 1, OSError exits 3, and any other exception
exits 4 as an internal error (a bug) with its traceback logged.
"""


class SpanmineError(Exception):
    """Base class for all toolkit errors."""


class DataError(SpanmineError):
    """Input data is invalid, inconsistent, or missing required pieces."""


class CorpusFormatError(DataError):
    """A corpus line violates the expected JSONL schema."""


class DuplicateIdError(DataError):
    """The same document id appeared twice in one corpus."""


class AlignmentError(DataError):
    """Prediction and gold files do not line up one-to-one."""


class IndexFormatError(DataError):
    """An index file has the wrong magic bytes, an unsupported version or inconsistent contents."""


class ChecksumError(IndexFormatError):
    """An index file is corrupt: checksum mismatch or truncation."""


class SkipDocument(SpanmineError):
    """A document cannot yield an example for the requested objective.

    Not fatal: generators catch this, count the skip, and move on.
    """

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason

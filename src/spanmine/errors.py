"""The toolkit's one exception type.

The CLI maps errors onto exit codes: usage errors exit 2 (argparse),
DataError exits 1, OSError exits 3, and any other exception exits 4 as an
internal error (a bug) with its traceback logged.
"""


class DataError(Exception):
    """Input data is invalid, inconsistent, or missing required pieces.

    The message names the file, the line or the document at fault.
    """

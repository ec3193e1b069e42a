"""Every Python file of the project parses under the oldest Python that pyproject.toml allows."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _oldest_python() -> tuple[int, int]:
    # a regex, not tomllib: tomllib needs Python 3.11, and the oldest allowed version may be older
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    major, minor = re.search(r'^requires-python\s*=\s*">=\s*(\d+)\.(\d+)', pyproject, re.MULTILINE).groups()
    return int(major), int(minor)


def test_every_file_parses_under_the_oldest_allowed_python():
    """Best effort: ``feature_version`` makes the parser reject ``except*`` and
    PEP 695 syntax, but it still accepts some newer forms, such as ``a[*b]``
    (3.11). A run under the oldest version itself is the full check."""
    version = _oldest_python()
    files = sorted(path for folder in ("src", "tests", "bench") for path in (ROOT / folder).rglob("*.py"))
    assert files
    failures = []
    for path in files:
        try:
            ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=version)
        except SyntaxError as error:
            failures.append(f"{path.relative_to(ROOT)}:{error.lineno}: {error.msg}")
    assert failures == []

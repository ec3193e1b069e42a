"""Every Python file of the project parses under, and names only standard-library
names of, the oldest Python that pyproject.toml allows."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Standard-library names newer than the oldest allowed Python, with the
# version that added each: a module, "module.name", or "builtins.name".
NEWER_STDLIB = dict.fromkeys(
    [
        "tomllib",
        *(f"typing.{name}" for name in ("Self", "LiteralString", "Never", "assert_never", "reveal_type", "Required",
                                        "NotRequired", "TypeVarTuple", "Unpack", "dataclass_transform")),
        "enum.StrEnum",
        "datetime.UTC",
        "hashlib.file_digest",
        "contextlib.chdir",
        "operator.call",
        "asyncio.TaskGroup",
        "asyncio.timeout",
        "math.exp2",
        "math.cbrt",
        "builtins.ExceptionGroup",
        "builtins.BaseExceptionGroup",
    ],
    (3, 11),
)


def _oldest_python() -> tuple[int, int]:
    # a regex, not tomllib: tomllib needs Python 3.11, and the oldest allowed version may be older
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    major, minor = re.search(r'^requires-python\s*=\s*">=\s*(\d+)\.(\d+)', pyproject, re.MULTILINE).groups()
    return int(major), int(minor)


def _python_files() -> list[Path]:
    files = sorted(path for folder in ("src", "tests", "bench") for path in (ROOT / folder).rglob("*.py"))
    assert files
    return files


def _newer_names(tree: ast.AST, newer: dict[str, tuple[int, int]]) -> list[tuple[int, str]]:
    """(line, name) of each use in ``tree`` of a name in ``newer``: an import of
    it, an attribute of an imported module, or a builtin."""
    modules = {}  # local name -> the module it binds
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                top = alias.name.split(".")[0]
                modules[alias.asname or top] = alias.name if alias.asname else top
    hits = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module, *(f"{node.module}.{alias.name}" for alias in node.names)]
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
            names = [f"{modules[node.value.id]}.{node.attr}"]
        elif isinstance(node, ast.Name):
            names = [f"builtins.{node.id}"]
        else:
            continue
        hits += [(node.lineno, name) for name in names if name in newer]
    return hits


def test_every_file_parses_under_the_oldest_allowed_python():
    """Best effort: ``feature_version`` makes the parser reject ``except*`` and
    PEP 695 syntax, but it still accepts some newer forms, such as ``a[*b]``
    (3.11). A run under the oldest version itself is the full check."""
    version = _oldest_python()
    failures = []
    for path in _python_files():
        try:
            ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=version)
        except SyntaxError as error:
            failures.append(f"{path.relative_to(ROOT)}:{error.lineno}: {error.msg}")
    assert failures == []


def test_no_file_names_a_standard_library_name_newer_than_the_oldest_allowed_python():
    """Best effort: only the names in NEWER_STDLIB are known, and a name reached
    some other way, such as through getattr, is not seen."""
    version = _oldest_python()
    newer = {name: added for name, added in NEWER_STDLIB.items() if added > version}
    failures = []
    for path in _python_files():
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for line, name in sorted(_newer_names(tree, newer)):
            failures.append(f"{path.relative_to(ROOT)}:{line}: {name} needs Python {'.'.join(map(str, newer[name]))}")
    assert failures == []

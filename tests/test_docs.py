"""The README names only APIs and commands that exist, and spanmine exports only APIs that code uses."""

import argparse
import ast
import dataclasses
import importlib
import pkgutil
import re
from pathlib import Path

import spanmine
from spanmine.cli import build_parser

REPO = Path(__file__).resolve().parents[1]
README = (REPO / "README.md").read_text(encoding="utf-8")
FROM_PYTHON = README[README.index("From Python") :].split("\n\n", 1)[0]
MODULES = [spanmine] + [importlib.import_module(f"spanmine.{info.name}") for info in pkgutil.iter_modules(spanmine.__path__)]
CLASSES = [obj for m in MODULES for obj in vars(m).values() if isinstance(obj, type) and obj.__module__ == m.__name__]

# Backticked words in these sections that name no spanmine API: the standard
# library, and the index file's magic and header fields.
NOT_SPANMINE = {"array", "b", "dataclasses.asdict", "k1", "len", "os.replace", "SPMI", "struct"}


def _members(obj) -> set[str]:
    fields = {f.name for f in dataclasses.fields(obj)} if dataclasses.is_dataclass(obj) else set()
    return set(dir(obj)) | fields


def _resolves(name: str) -> bool:
    """``name`` is a name of spanmine or one of its modules, ``Owner.member`` of one, or a member of a class there."""
    owner, _, member = name.rpartition(".")
    if owner:
        return any(member in _members(vars(m)[owner]) for m in MODULES if owner in vars(m))
    return any(name in vars(m) for m in MODULES) or any(name in _members(cls) for cls in CLASSES)


def _api_names(section: str) -> set[str]:
    """Backticked identifiers, each alone or called with arguments, such as `load_spans` or `mine_corpus(docs, ...)`."""
    return set(re.findall(r"`([A-Za-z_][\w.]*)(?:\([^`]*\))?`", section)) - NOT_SPANMINE


def test_readme_names_only_apis_that_exist():
    index_format = README[README.index("## Index file format") :].split("\n## ", 1)[0]
    names = _api_names(FROM_PYTHON) | _api_names(index_format)
    assert {"mine_corpus", "load_spans", "to_dict", "BM25Index.postings", "PostingList"} <= names
    assert {"evaluate_file", "EvalReport.to_dict", "DocScores", "MetricScores", "_replace"} <= names
    assert {"Phrase", "keyphrase_set", "gold_split", "StemMemo"} <= names
    assert {"locate_occurrences", "plan_corruption", "apply_mask", "apply_delete"} <= names
    assert {"DataError", "build_ssp_target"} <= names
    assert sorted(name for name in names if not _resolves(name)) == []


def test_readme_gives_the_keyphrase_shapes():
    fields = ", ".join(spanmine.Phrase._fields)
    assert f"`Phrase({fields})`" in FROM_PYTHON and f"plain tuple `({fields})`" in FROM_PYTHON
    assert "returns `(doc_stems, present, absent)`" in FROM_PYTHON


def test_readme_gives_the_interval_shapes():
    prose = " ".join(FROM_PYTHON.split())
    assert "`locate_occurrences(tokens, spans)` returns the ascending `(start, end)` intervals" in prose
    assert "`prev_end <= start <= end <= len(tokens)`, or both raise ValueError" in prose


def test_readme_gives_the_refusal_and_skip_contracts():
    prose = " ".join(FROM_PYTHON.split())
    assert "Every refusal of bad input raises `DataError`, whose message names the file, the line or the document" in prose
    assert "`build_ssp_target(spans)`, which returns `[]` when no span is left to predict" in prose


def _loaded_or_imported(node: ast.AST, enclosing: frozenset = frozenset()) -> set[str]:
    """Names that ``node`` loads, as a name or an attribute, or imports, outside the body of a def or class of that name."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        enclosing |= {node.name}
    names = set()
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        names.add(node.id)
    elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        names.add(node.attr)
    elif isinstance(node, (ast.Import, ast.ImportFrom)):
        names.update(alias.name for alias in node.names)
    names -= enclosing
    for child in ast.iter_child_nodes(node):
        names |= _loaded_or_imported(child, enclosing)
    return names


def test_every_export_is_used_by_code_or_named_in_the_readme():
    """A test's use alone does not keep a name in ``spanmine``: the library or the bench must use it, or the
    README's "From Python" paragraph name it. Docstrings and comments are not uses."""
    src = REPO / "src" / "spanmine"
    init = ast.parse((src / "__init__.py").read_text(encoding="utf-8"))
    exports = {alias.asname or alias.name for node in init.body if isinstance(node, ast.ImportFrom) for alias in node.names}
    code = [path for path in src.glob("*.py") if path.name != "__init__.py"]
    code += [path for path in (REPO / "bench").rglob("*.py") if "tests" not in path.relative_to(REPO / "bench").parts]
    used = set().union(*(_loaded_or_imported(ast.parse(path.read_text(encoding="utf-8"))) for path in code))
    assert {"mine_corpus", "evaluate_file", "DataError"} <= exports
    assert sorted(exports - used - _api_names(FROM_PYTHON)) == []


def _subparsers(parser: argparse.ArgumentParser) -> dict[str, argparse.ArgumentParser]:
    return next(a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction))


def test_readme_names_every_subcommand_and_study_and_no_other():
    commands = _subparsers(build_parser())
    assert re.findall(r"^\d+\. \*\*(\w+)\*\*", README, re.MULTILINE) == list(commands)  # the pipeline stages
    assert set(re.findall(r"spanmine ([a-z]+)", README)) <= set(commands)
    assert set(re.findall(r"analyze ([a-z]+)", README)) == set(_subparsers(commands["analyze"]))

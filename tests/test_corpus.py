import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spanmine import (
    CorruptionConfig,
    DataError,
    Document,
    ThresholdFn,
    build_index,
    dataset_stats,
    evaluate_file,
    gen_corpus,
    keyphrase_set,
    load_corpus,
    load_spans,
    load_stoplist,
    mine_corpus,
    model_input,
    write_corpus,
)
from spanmine.corpus import contains, normalize, text_tokens, tokenize, write_json
from spanmine.demo import _CONTENT, _FILLER, generate_demo_corpus, generate_demo_predictions
from spanmine.porter import stem


class TestNormalize:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("Top 100 Results", "top <digit> results"),
            ("CNN-2019a", "cnn-<digit>a"),
            ("", ""),
            ("007", "<digit>"),
            ("v1.2.3", "v<digit>.<digit>.<digit>"),
        ],
    )
    def test_examples(self, raw, expected):
        assert normalize(raw) == expected

    @given(st.text(max_size=200))
    @settings(max_examples=300)
    def test_idempotent(self, text):
        once = normalize(text)
        assert normalize(once) == once

    @given(st.text(max_size=200))
    def test_no_digits_survive(self, text):
        assert not any(ch.isdigit() and ch.isascii() for ch in normalize(text))


class TestTokenize:
    def test_whitespace_split(self):
        assert tokenize("mixed finite elements .") == ["mixed", "finite", "elements", "."]

    def test_hyphen_and_sentinel_preserved(self):
        assert tokenize("self-stabilizing <digit> clocks") == ["self-stabilizing", "<digit>", "clocks"]

    def test_punctuation_isolated(self):
        assert tokenize("end.start") == ["end", ".", "start"]

    def test_sep_atomic(self):
        assert tokenize("a <sep> b") == ["a", "<sep>", "b"]

    def test_sentinel_adjacent_to_word(self):
        assert tokenize("cnn-<digit>a") == ["cnn", "-", "<digit>", "a"]

    @given(st.text(max_size=200))
    @settings(max_examples=300)
    def test_normalized_tokens_clean(self, text):
        for token in tokenize(normalize(text)):
            assert token == token.lower()
            assert not any(ch.isdigit() and ch.isascii() for ch in token)
            assert not any(ch.isspace() for ch in token)


class TestModelInput:
    def test_under_limit(self):
        doc = Document("a1", "a b", "c")
        out = model_input(doc, 512)
        assert out.tokens == ("a", "b", "<sep>", "c")
        assert out.title_len == 2

    def test_truncation_boundary(self):
        doc = Document("a1", "a b", "c")
        assert model_input(doc, 3).tokens == ("a", "b", "<sep>")

    def test_empty_title(self):
        out = model_input(Document("a1", "", "x"))
        assert out.tokens == ("<sep>", "x")
        assert out.title_len == 0

    @given(st.text(max_size=80), st.text(max_size=200), st.integers(min_value=1, max_value=64))
    @settings(max_examples=200)
    def test_never_exceeds_limit(self, title, body, max_tokens):
        doc = Document("x", title, body or "fallback")
        out = model_input(doc, max_tokens)
        assert len(out.tokens) <= max_tokens
        assert out.title_len <= len(out.tokens)


def _oracle(text):
    """The tokenizer's rule definitions applied to the whole text at once."""
    return tokenize(normalize(text))


# Letters, digits and word joiners; sentinel fragments; whitespace that
# str.split() and the regex's \s must agree on; letters whose case mapping
# changes length or is not a letter's; a combining mark; CJK.
_FRAGMENTS = [
    *"aZq09_-.", "<digit>", "<sep>", "<", ">", "dig", "it", "sep", "12", "x-1",
    "\t", "\n", "\x0b", "\x1c", "\x85", "\xa0", " ", "\u2009", "\u2028", "\u3000",
    "\u00b2", "\u00df", "\u0130", "\u03a3", "\u0301", "\u4e2d\u6587",
]
_mixed_text = st.lists(st.sampled_from(_FRAGMENTS), max_size=40).map("".join)


class TestChunkedTokenizer:
    """``text_tokens`` tokenizes one whitespace chunk at a time; the rules say what it must return."""

    @given(_mixed_text, _mixed_text, st.lists(_mixed_text, max_size=4))
    @settings(max_examples=500)
    @example("Top 100 Results", "cnn-2019a v1.2.3 <sep>", ["self-stabilizing clocks", "  "])
    def test_matches_whole_text_rules(self, title, body, phrases):
        assert text_tokens(title) == _oracle(title)
        out = model_input(Document("x", title, body), None)
        assert out.tokens == (*_oracle(title), "<sep>", *_oracle(body))
        assert out.title_len == len(_oracle(title))
        expected = tuple(tuple(_oracle(p)) for p in phrases if _oracle(p))
        assert tuple(p.tokens for p in keyphrase_set(phrases)) == expected

    def test_every_bmp_code_point(self):
        for cp in range(0x10000):
            for text in (chr(cp), f"a{chr(cp)}b"):
                assert text_tokens(text) == _oracle(text), f"U+{cp:04X} in {text!r}"


class TestLoadCorpus:
    def _write(self, tmp_path, lines):
        path = tmp_path / "corpus.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    def test_direct_field_mapping(self, tmp_path):
        path = self._write(tmp_path, ['{"id":"a1","title":"T","abstract":"B"}'])
        docs = list(load_corpus(path))
        assert docs == [Document("a1", "T", "B", None)]

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("", encoding="utf-8")
        assert list(load_corpus(path)) == []

    def test_duplicate_id(self, tmp_path):
        path = self._write(
            tmp_path,
            ['{"id":"a1","title":"T","abstract":"B"}', '{"id":"a1","title":"U","abstract":"C"}'],
        )
        with pytest.raises(DataError, match=r"corpus\.jsonl: line 2: duplicate document id 'a1'"):
            list(load_corpus(path))

    def test_malformed_line_carries_number(self, tmp_path):
        path = self._write(tmp_path, ['{"id":"a1","title":"T","abstract":"B"}', "{broken"])
        with pytest.raises(DataError, match=r"corpus\.jsonl: line 2: malformed JSON"):
            list(load_corpus(path))

    @pytest.mark.parametrize(
        "line, message",
        [
            ("[1, 2]", "line is not a JSON object"),
            ('{"id":"a2","title":"T","abstract":"B","keywords":3}', "keyphrase field must be a list or string"),
            ('{"id":"a2","title":["a","b"],"abstract":"B"}', "field 'title' must be a string or null, got list"),
            ('{"id":"a2","title":"T","abstract":0}', "field 'abstract' must be a string or null, got int"),
            ('{"id":"a2","title":true,"abstract":"B"}', "field 'title' must be a string or null, got bool"),
            (
                '{"id":"a2","title":"T","abstract":"B","keywords":[null,"graph pruning",{"x":1}]}',
                "field 'keywords' must list only strings, got NoneType",
            ),
            (
                '{"id":"a2","title":"T","abstract":"B","keywords":["p",{"x":1}]}',
                "field 'keywords' must list only strings, got dict",
            ),
            ('{"id":5,"title":"T","abstract":"B"}', "field 'id' must be a string, got int"),
            ('{"id":["a2"],"title":"T","abstract":"B"}', "field 'id' must be a string, got list"),
        ],
        ids=[
            "non-object-line",
            "keyphrases-not-list-or-string",
            "title-list",
            "body-zero",
            "title-boolean",
            "keyphrase-null",
            "keyphrase-object",
            "id-int",
            "id-list",
        ],
    )
    def test_bad_record_names_file_and_line(self, tmp_path, line, message):
        path = self._write(tmp_path, ['{"id":"a1","title":"T","abstract":"B"}', line])
        with pytest.raises(DataError, match=rf"corpus\.jsonl: line 2: {message}"):
            list(load_corpus(path))

    def test_null_title_or_body_loads_as_empty(self, tmp_path):
        path = self._write(
            tmp_path, ['{"id":"a1","title":null,"abstract":"B"}', '{"id":"a2","title":"T","abstract":null}']
        )
        issues = []
        docs = list(load_corpus(path, on_issue=lambda n, m: issues.append((n, m))))
        assert docs == [Document("a1", "", "B", None), Document("a2", "T", "", None)]
        assert issues == []

    def test_missing_fields_reported_not_dropped_silently(self, tmp_path):
        path = self._write(tmp_path, ['{"id":"a1","title":"only title"}', '{"title":"no id","abstract":"b"}'])
        issues = []
        docs = list(load_corpus(path, on_issue=lambda n, m: issues.append((n, m))))
        assert [d.id for d in docs] == ["a1"]
        assert docs[0].body == ""
        assert len(issues) == 2  # missing abstract on line 1, missing id on line 2

    def test_missing_null_or_empty_id_is_skipped_with_a_warning(self, tmp_path):
        path = self._write(
            tmp_path,
            [
                '{"title":"T","abstract":"B"}',
                '{"id":null,"title":"T","abstract":"B"}',
                '{"id":"","title":"T","abstract":"B"}',
                '{"id":"a4","title":"T","abstract":"B"}',
            ],
        )
        issues = []
        docs = list(load_corpus(path, on_issue=lambda n, m: issues.append((n, m))))
        assert [d.id for d in docs] == ["a4"]
        assert issues == [(n, "missing or empty 'id' field; record skipped") for n in (1, 2, 3)]

    def test_keywords_as_string_or_list(self, tmp_path):
        path = self._write(
            tmp_path,
            [
                '{"id":"a1","title":"T","abstract":"B","keywords":"x;y z"}',
                '{"id":"a2","title":"T","abstract":"B","keywords":["p","q"]}',
            ],
        )
        docs = list(load_corpus(path))
        assert docs[0].keyphrases == ("x", "y z")
        assert docs[1].keyphrases == ("p", "q")

    def test_schema_remap(self, tmp_path):
        path = self._write(tmp_path, ['{"docno":"a1","headline":"T","text":"B"}'])
        docs = list(load_corpus(path, {"id": "docno", "title": "headline", "body": "text"}))
        assert docs[0] == Document("a1", "T", "B", None)

    def test_round_trip(self, tmp_path):
        docs = [
            Document("a1", "Title One", "Body 1", ("k1", "k2 k3")),
            Document("a2", "", "only body", None),
            Document("a3", "unicode Ω", "naïve text", ("Ω phrase",)),
        ]
        path = tmp_path / "out.jsonl"
        write_corpus(docs, path)
        assert list(load_corpus(path)) == docs


class TestDatasetStats:
    def test_small_example(self):
        doc = Document("d", "", "a b", ("a", "zz"))
        stats = dataset_stats([doc])
        assert stats.num_docs == 1
        assert stats.avg_kp_per_doc == 2
        assert stats.pct_absent_kp == 50.0

    def test_unlabeled_rejected(self):
        with pytest.raises(DataError, match="document 'u' is unlabeled"):
            dataset_stats([Document("d", "t", "b", ()), Document("u", "t", "b", None)])

    def test_zero_keyphrases_are_labeled(self):
        stats = dataset_stats([Document("d", "t", "b", ()), Document("e", "", "a b", ("a",))])
        assert (stats.num_docs, stats.avg_kp_per_doc, stats.pct_absent_kp) == (2, 0.5, 0.0)

    def test_empty_corpus_rejected(self):
        with pytest.raises(DataError, match="^corpus contains no documents$"):
            dataset_stats([])

    def test_stemmed_presence_counts(self):
        # "networks" in text makes gold "network" present via stemming.
        doc = Document("d", "", "deep networks work", ("network", "missing phrase"))
        stats = dataset_stats([doc])
        assert stats.pct_absent_kp == 50.0

    def test_avg_lengths(self):
        doc = Document("d", "t", "b", ("one", "two words", "three word phrase"))
        stats = dataset_stats([doc])
        assert stats.avg_kp_len == pytest.approx(2.0)


def naive_contains(hay, needle):
    """Reference: compare the needle with the slice at every position."""
    n = len(needle)
    return n > 0 and any(hay[i : i + n] == needle for i in range(len(hay) - n + 1))


# A three-token alphabet makes repeated first tokens and near misses common.
_TOKENS = st.lists(st.sampled_from(["a", "b", "c"]), max_size=12).map(tuple)


class TestContains:
    @given(hay=_TOKENS, needle=_TOKENS)
    @example(hay=(), needle=())
    @example(hay=("a",), needle=())
    @example(hay=("a", "b"), needle=("a", "b", "c"))
    @example(hay=("a", "a", "a", "b"), needle=("a", "a", "b"))
    @example(hay=("a", "b", "a", "c"), needle=("a", "c"))
    @example(hay=("b", "c", "a"), needle=("a",))
    @settings(max_examples=400, deadline=None)
    def test_matches_naive_scan(self, hay, needle):
        assert contains(hay, needle) == naive_contains(hay, needle)

    @given(prefix=_TOKENS, needle=_TOKENS.filter(bool))
    @settings(max_examples=200, deadline=None)
    def test_match_at_last_position(self, prefix, needle):
        assert contains(prefix + needle, needle)

    @given(hay=_TOKENS, needle=_TOKENS)
    @settings(max_examples=200, deadline=None)
    def test_needle_longer_than_hay_never_matches(self, hay, needle):
        assert not contains(hay, hay + needle + ("a",))

    def test_empty_needle_never_matches(self):
        assert not contains((), ())
        assert not contains(("a",), ())


def _write_with_bad_byte(path, good_lines, bad_line: bytes):
    path.write_bytes("".join(line + "\n" for line in good_lines).encode("utf-8") + bad_line + b"\n")
    return path


_GOOD_RECORD = '{"id": "a", "title": "t", "abstract": "b", "keywords": ["k"]}'


class TestBadUtf8:
    """Every text loader turns undecodable bytes into DataError naming the line."""

    @pytest.mark.parametrize(
        "name, good, bad, load",
        [
            ("corpus.jsonl", [_GOOD_RECORD], b'{"id": "b", "title": "caf\xe9", "abstract": "x"}',
             lambda p: list(load_corpus(p))),
            ("spans.jsonl", ['{"id": "a", "spans": []}'], b'{"id": "b", "spans": [{"text": "\xe9", "rank": 0}]}',
             load_spans),
            ("stop.txt", ["the"], b"caf\xe9", load_stoplist),
            ("preds.txt", ["k"], b"k ; caf\xe9",
             lambda p: evaluate_file(p, [Document("a", "t", "b", ("k",)), Document("b", "t", "b", ("k",))])),
        ],
        ids=["corpus", "spans", "stoplist", "predictions"],
    )
    def test_loader_names_file_and_line(self, tmp_path, name, good, bad, load):
        path = _write_with_bad_byte(tmp_path / name, good, bad)
        with pytest.raises(DataError, match=rf"{name.replace('.', '[.]')}: line 2: invalid UTF-8 \(byte 0xE9\)"):
            load(path)

    def test_line_number_exact_past_first_read_chunk(self, tmp_path):
        good = [_GOOD_RECORD.replace('"a"', f'"d{i}"', 1) for i in range(3000)]
        path = _write_with_bad_byte(tmp_path / "corpus.jsonl", good, b'{"id": "x", "title": "\xff"}')
        with pytest.raises(DataError, match=r"line 3001: invalid UTF-8 \(byte 0xFF\)"):
            list(load_corpus(path))

    def test_truncated_sequence_at_end_of_file(self, tmp_path):
        path = tmp_path / "stop.txt"
        path.write_bytes(b"the\ncaf\xc3")
        with pytest.raises(DataError, match=r"line 2: invalid UTF-8 \(byte 0xC3\)"):
            load_stoplist(path)

    def test_escaped_surrogate_in_json_is_not_bad_utf8(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"id": "a", "title": "x\\ud83d\\ude00", "abstract": "b"}\n', encoding="utf-8")
        assert [d.title for d in load_corpus(path)] == ["x\U0001f600"]  # an escaped pair is one character
        path.write_text('{"id": "a", "title": "x\\udce9", "abstract": "b"}\n', encoding="utf-8")
        with pytest.raises(DataError, match=r"corpus\.jsonl: line 1: field 'title' holds a lone surrogate \(U\+DCE9\)"):
            list(load_corpus(path))


def test_demo_vocabulary_is_stem_disjoint():
    """No two words of the demo's content and filler pools share a stem, so a planted absent phrase stays absent."""
    by_stem: dict[str, set[str]] = {}
    for word in _CONTENT + _FILLER:
        by_stem.setdefault(stem(word), set()).add(word)
    assert sorted(sorted(words) for words in by_stem.values() if len(words) > 1) == []


class TestByteOrderMark:
    """A leading UTF-8 byte-order mark is not part of any input file's first line."""

    BOM = "\ufeff"

    def test_predictions_give_the_same_report_bytes(self, tmp_path):
        docs = generate_demo_corpus()
        text = "\n".join(generate_demo_predictions(docs)) + "\n"
        (tmp_path / "plain.txt").write_text(text, encoding="utf-8")
        (tmp_path / "bom.txt").write_text(self.BOM + text, encoding="utf-8")
        evaluate_file(tmp_path / "plain.txt", docs, report_path=tmp_path / "plain.json")
        evaluate_file(tmp_path / "bom.txt", docs, report_path=tmp_path / "bom.json")
        assert (tmp_path / "bom.json").read_bytes() == (tmp_path / "plain.json").read_bytes()

    def test_stoplist(self, tmp_path):
        path = tmp_path / "stop.txt"
        path.write_text(self.BOM + "the\n", encoding="utf-8")
        assert load_stoplist(path) == {"the"}

    def test_corpus(self, tmp_path):
        docs = [Document("a1", "Title", "body text", ("k1",)), Document("a2", "T", "B", None)]
        write_corpus(docs, tmp_path / "corpus.jsonl")
        bom = tmp_path / "bom.jsonl"
        bom.write_text(self.BOM + (tmp_path / "corpus.jsonl").read_text(encoding="utf-8"), encoding="utf-8")
        assert list(load_corpus(bom)) == docs

    def test_spans(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        path.write_text(self.BOM + '{"id": "a", "spans": [{"text": "graph", "rank": 0}]}\n', encoding="utf-8")
        assert list(load_spans(path)) == ["a"]


def test_stoplist_warns_once_about_entries_that_never_match_a_token(tmp_path, caplog):
    path = tmp_path / "stop.txt"
    path.write_text("the\nCOVID-19  # a comment\ne.g.\nstate-of-the-art\n3d\ndon't\n", encoding="utf-8")
    assert load_stoplist(path) == {"the", "covid-19", "e.g.", "state-of-the-art", "3d", "don't"}
    warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
    assert warnings == [
        f"{path}: 4 of the stop list's entries can never match a token; the first, on line 2, tokenizes as 'covid - <digit>'"
    ]


def _writers():
    """Each artifact writer as ``write(out_path, input_dir)``, on inputs that take it more than one write."""
    docs = [model_input(Document(id=f"w{i}", title="graph cut", body=f"cut {i} graph")) for i in range(3)]
    gold = [Document(id=d.doc_id, title="graph cut", body="cut graph", keyphrases=("graph",)) for d in docs]

    def eval_report(out, inputs):
        preds = inputs / "preds.txt"
        preds.write_text("graph\ncut\ngraph;cut\n", encoding="utf-8")
        evaluate_file(preds, gold, report_path=out)

    return {
        "mine_corpus": lambda out, _: mine_corpus(docs, build_index(docs), out, ThresholdFn({1: 9, 2: 9, 3: 9})),
        "gen_corpus": lambda out, _: gen_corpus(docs, None, CorruptionConfig("ti"), out),
        "evaluate_file": eval_report,
        "write_json": lambda out, _: write_json({"docs": [1, 2, 3]}, out, "a record"),
        "write_corpus": lambda out, _: write_corpus(gold, out),
    }


class TestWholeFiles:
    """Every artifact is written beside its path and moved onto it; the index is tested in test_bm25."""

    @pytest.mark.parametrize("writer", list(_writers()))
    def test_failed_write_leaves_the_previous_file(self, tmp_path, full_disk, writer):
        out = tmp_path / "out" / "artifact"
        out.parent.mkdir()
        out.write_bytes(b"the previous run's file\n")
        full_disk()
        with pytest.raises(OSError, match="No space left") as failure:
            _writers()[writer](out, tmp_path)
        assert str(failure.value) == f"[Errno 28] No space left on device: {str(out)!r}"  # the output, not its temp file
        assert out.read_bytes() == b"the previous run's file\n"
        assert [p.name for p in out.parent.iterdir()] == ["artifact"]

    def test_a_symlinked_output_becomes_a_regular_file(self, tmp_path):
        target, link = tmp_path / "target.jsonl", tmp_path / "link.jsonl"
        target.write_text("kept\n", encoding="utf-8")
        link.symlink_to(target)
        write_corpus([Document(id="a", title="t", body="b")], link)
        assert not link.is_symlink() and list(load_corpus(link)) == [Document(id="a", title="t", body="b")]
        assert target.read_text(encoding="utf-8") == "kept\n"

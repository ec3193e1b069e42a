from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spanmine import stem_phrase
from spanmine.evaluation import StemMemo
from spanmine.porter import stem

SAMPLE = Path(__file__).parent / "data" / "porter_sample.tsv"


def load_sample():
    pairs = []
    for line in SAMPLE.read_text(encoding="utf-8").splitlines():
        word, expected = line.split("\t")
        pairs.append((word, expected))
    return pairs


class TestAgainstFrozenVocabulary:
    def test_sample_size(self):
        assert len(load_sample()) == 1000

    def test_full_agreement(self):
        mismatches = [(w, stem(w), e) for w, e in load_sample() if stem(w) != e]
        assert mismatches == []


class TestSpotBehavior:
    @pytest.mark.parametrize(
        "word,expected",
        [
            ("networks", "network"),
            ("relational", "relat"),
            ("caches", "cach"),
            ("ponies", "poni"),
            ("caresses", "caress"),
            ("agreed", "agre"),
            ("controll", "control"),
            ("electricity", "electr"),
            ("sky", "sky"),
            ("as", "as"),
        ],
    )
    def test_words(self, word, expected):
        assert stem(word) == expected

    def test_sentinels_unchanged(self):
        assert stem("<digit>") == "<digit>"
        assert stem("<sep>") == "<sep>"
        assert stem("self-stabilizing") == "self-stabilizing"

    def test_stem_phrase(self):
        assert stem_phrase(["relational", "caches"]) == ("relat", "cach")
        assert stem_phrase(["<digit>"]) == ("<digit>",)


_WORDS = st.text(alphabet="abcdefghijklmnopqrstuvwxyzEIS-éΩ0", min_size=0, max_size=14)
_TOKENS = st.lists(
    st.one_of(
        _WORDS,
        st.sampled_from(["<digit>", "<sep>", "self-stabilizing", "naïve", "networks", "relational", ".", "-"]),
    ),
    max_size=30,
)


class TestStemMemo:
    @given(phrases=st.lists(_TOKENS, max_size=5))
    @settings(max_examples=300, deadline=None)
    def test_same_stems_as_uncached(self, phrases):
        stems = StemMemo()
        for phrase in phrases:
            assert stems.phrase(phrase) == stem_phrase(phrase)
        assert set(stems) == {token for phrase in phrases for token in phrase}

    def test_lookup_fills_once(self):
        stems = StemMemo()
        assert stems["caches"] == "cach"
        assert stems.phrase(["caches", "<digit>", "caches"]) == ("cach", "<digit>", "cach")
        assert stems == {"caches": "cach", "<digit>": "<digit>"}

from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spanmine.evaluation import StemMemo
from spanmine.porter import _STEP2_BY_LAST, _STEP3_BY_LAST, _STEP4_BY_LAST, stem
from tests.conftest import ORACLE_STEP2, ORACLE_STEP3, ORACLE_STEP4, oracle_stem

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
        assert StemMemo().phrase(["relational", "caches"]) == ("relat", "cach")
        assert StemMemo().phrase(["<digit>"]) == ("<digit>",)


# Words that reach every rule: a root of letters and clusters rich in
# vowels, "y" in both roles, doubled consonants (kept and undoubled), the cvc
# endings' w/x and uppercase letters, then any suffix the steps test for,
# then an inflection.
_ROOTS = st.lists(
    st.sampled_from(list("aeiouybcdlmnrstvwxzLSYE") + ["ay", "by", "yy", "ll", "ss", "zz", "tt", "st", "tr"]),
    max_size=5,
).map("".join)
# Every suffix a step tests for, the stem endings step 1b's fix-up reads, and
# doubled letters.
_ENDINGS = (
    [""]
    + [suffix for suffix, _ in ORACLE_STEP2 + ORACLE_STEP3]
    + list(ORACLE_STEP4)
    + ["sion", "tion", "at", "bl", "iz", "ll", "ss", "zz", "tt", "ee"]
)
_INFLECTIONS = st.sampled_from(["", "s", "es", "sses", "ies", "ed", "eed", "ing", "y", "e", "ly", "ING"])
_STEMMABLE = st.builds(lambda *parts: "".join(parts), _ROOTS, st.sampled_from(_ENDINGS), _INFLECTIONS)
_PASS_THROUGH = st.builds(
    lambda left, mark, right: left + mark + right,
    _STEMMABLE,
    st.sampled_from(["-", "é", "ï", "Ω", "0", "<", "'"]),
    _STEMMABLE,
)


class TestAgainstOracle:
    @given(words=st.lists(st.one_of(_STEMMABLE, _PASS_THROUGH), min_size=1, max_size=20))
    @settings(max_examples=300, deadline=None)
    def test_same_stems_as_oracle(self, words):
        assert [stem(w) for w in words] == [oracle_stem(w) for w in words]

    def test_every_short_word(self):
        alphabet = "aeiouybclstwz"
        words = ["".join(letters) for n in range(5) for letters in product(alphabet, repeat=n)]
        assert len(words) == 30941
        assert [w for w in words if stem(w) != oracle_stem(w)] == []

    def test_every_rule_after_short_roots(self):
        """Each ending the steps test for, after roots of measure 0 to 2 and before each inflection."""
        roots = ["".join(letters) for n in range(5) for letters in product("ab", repeat=n)]
        words = [r + e + i for r in roots for e in _ENDINGS for i in ("", "s", "ed", "ing", "y", "e")]
        assert [w for w in words if stem(w) != oracle_stem(w)] == []

    @pytest.mark.parametrize(
        "rules,buckets",
        [
            (ORACLE_STEP2, _STEP2_BY_LAST),
            (ORACLE_STEP3, _STEP3_BY_LAST),
            (tuple((suffix, "") for suffix in ORACLE_STEP4), _STEP4_BY_LAST),
        ],
    )
    def test_dispatch_keeps_each_suffix_once_in_table_order(self, rules, buckets):
        suffixes = [suffix for suffix, _ in rules]
        for letter, (bucket_suffixes, bucket_rules) in buckets.items():
            assert bucket_suffixes == tuple(suffix for suffix, _, _ in bucket_rules)
            assert list(bucket_suffixes) == [s for s in suffixes if s.endswith(letter)]
        placed = [suffix for bucket_suffixes, _ in buckets.values() for suffix in bucket_suffixes]
        assert sorted(placed) == sorted(suffixes)
        assert len(set(suffixes)) == len(suffixes)
        placed_rules = {suffix: replacement for _, bucket in buckets.values() for suffix, replacement, _ in bucket}
        assert placed_rules == dict(rules)


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
            assert stems.phrase(phrase) == tuple(map(stem, phrase))
        assert set(stems) == {token for phrase in phrases for token in phrase}

    def test_lookup_fills_once(self):
        stems = StemMemo()
        assert stems["caches"] == "cach"
        assert stems.phrase(["caches", "<digit>", "caches"]) == ("cach", "<digit>", "cach")
        assert stems == {"caches": "cach", "<digit>": "<digit>"}

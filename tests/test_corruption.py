import hashlib
import itertools
import json
import math
import random
from collections.abc import Iterator

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spanmine import (
    CorruptionConfig,
    DataError,
    SalientSpan,
    TokenizedDoc,
    apply_delete,
    apply_mask,
    build_index,
    build_ssp_target,
    gen_corpus,
    load_index,
    load_spans,
    mine_corpus,
    model_input,
    plan_corruption,
    save_index,
)
from spanmine.corruption import OBJECTIVES, SPAN_OBJECTIVES, _poisson, _ti_plan, locate_occurrences
from spanmine.demo import DEMO_SEED, generate_demo_corpus
from spanmine.miner import DEFAULT_THRESHOLDS, MAX_NGRAM
from tests.conftest import corrupt_one, oracle_locate_occurrences, oracle_ssp_target


def doc_of(tokens, doc_id="d", title_len=0):
    return TokenizedDoc(doc_id=doc_id, tokens=tuple(tokens), title_len=title_len)


def spans_of(*token_lists, ranks=None):
    ranks = ranks or range(len(token_lists))
    return [SalientSpan(tokens=tuple(t.split()), rank=r) for t, r in zip(token_lists, ranks)]


def cfg_for(objective="ssr-m", **kw):
    return CorruptionConfig(objective=objective, **kw)


class TestPlanCorruption:
    def test_certain_span_corruption(self):
        doc = doc_of(["the", "event", "trigger", "words", "end", "event", "trigger", "words"])
        spans = spans_of("event trigger words")
        plan = plan_corruption(doc, spans, cfg_for(k_s=1.0, k_o=0.0))
        assert plan == ((1, 4), (5, 8))

    def test_identity_when_probabilities_zero(self):
        doc = doc_of(["a", "b", "c"])
        plan = plan_corruption(doc, spans_of("b"), cfg_for(k_s=0.0, k_o=0.0))
        assert plan == ()
        source, target = corrupt_one(doc, spans_of("b"), cfg_for("ssr-m", k_s=0.0, k_o=0.0))
        assert source == doc.tokens == target

    def test_other_words_certain(self):
        doc = doc_of(["a", "b", "c", "d"])
        plan = plan_corruption(doc, spans_of("b c"), cfg_for(k_s=0.0, k_o=1.0))
        assert plan == ((0, 1), (3, 4))

    def test_longest_span_claims_first(self):
        doc = doc_of(["a", "b", "c"])
        spans = spans_of("a b c", "b c", ranks=[5, 1])
        assert locate_occurrences(doc.tokens, spans) == [(0, 3)]

    def test_equal_length_lower_rank_claims_first(self):
        assert locate_occurrences(("a", "b", "c"), spans_of("a b", "b c", ranks=[1, 0])) == [(1, 3)]

    def test_self_overlapping_span_claims_left_to_right(self):
        assert locate_occurrences(("a",) * 5, spans_of("a a")) == [(0, 2), (2, 4)]

    def test_empty_span_matches_nothing(self):
        spans = [SalientSpan(tokens=(), rank=0), *spans_of("b", ranks=[1])]
        assert locate_occurrences(("a", "b"), spans) == [(1, 2)]

    def test_no_overlapping_marks(self):
        rng = random.Random(1)
        for trial in range(30):
            tokens = [rng.choice("abcde") for _ in range(30)]
            doc = doc_of(tokens, doc_id=f"t{trial}")
            spans = spans_of("a b", "b", "c d e", ranks=[0, 1, 2])
            plan = plan_corruption(doc, spans, cfg_for(k_s=0.7, k_o=0.4, seed=trial))
            prev_end = 0
            for start, end in plan:
                assert start >= prev_end
                prev_end = end

    def test_reproducible_regardless_of_processing_order(self):
        doc = doc_of(["a", "b", "c", "d", "e"], doc_id="stable")
        spans = spans_of("b c")
        cfg = cfg_for(k_s=0.5, k_o=0.5, seed=99)
        assert plan_corruption(doc, spans, cfg) == plan_corruption(doc, spans, cfg)

    def test_different_docs_draw_independently(self):
        spans = spans_of("a")
        cfg = cfg_for(k_s=0.5, k_o=0.5, seed=0)
        plans = {
            doc_id: plan_corruption(doc_of(["a", "b"] * 10, doc_id=doc_id), spans, cfg)
            for doc_id in ("x", "y", "z")
        }
        assert len(set(plans.values())) > 1


class TestApplyMaskDelete:
    def test_mask_single_interval(self):
        assert apply_mask(["a", "b", "c", "d"], [(1, 3)]) == ["a", "<mask>", "d"]

    def test_two_single_token_masks(self):
        assert apply_mask(["a", "b", "c"], [(0, 1), (2, 3)]) == ["<mask>", "b", "<mask>"]

    def test_adjacent_intervals_keep_own_masks(self):
        assert apply_mask(["a", "b", "c"], [(0, 1), (1, 2)]) == ["<mask>", "<mask>", "c"]

    def test_zero_length_interval_inserts(self):
        assert apply_mask(["a", "b"], [(1, 1)]) == ["a", "<mask>", "b"]
        assert apply_mask(["a", "b"], [(0, 1), (2, 2)]) == ["<mask>", "b", "<mask>"]  # at len(tokens) too, as ti places them

    def test_delete(self):
        assert apply_delete(["a", "b", "c", "d"], [(1, 3)]) == ["a", "d"]

    def test_delete_empty_plan_identity(self):
        assert apply_delete(["a", "b"], []) == ["a", "b"]

    def test_delete_full_coverage(self):
        assert apply_delete(["a", "b"], [(0, 2)]) == []

    @pytest.mark.parametrize("apply", [apply_mask, apply_delete])
    @pytest.mark.parametrize(
        "plan",
        [[(0, 2), (1, 3)], [(2, 1)], [(-1, 0)], [(-1, 1)], [(5, 5)], [(2, 4)]],
        ids=["overlap", "reversed", "before-start", "across-start", "past-end", "across-end"],
    )
    def test_interval_outside_the_rule_rejected(self, apply, plan):
        # every interval must satisfy prev_end <= start <= end <= len(tokens)
        with pytest.raises(ValueError):
            apply(("a", "b", "c"), plan)

    @given(
        st.lists(st.sampled_from("abcdef"), min_size=1, max_size=40),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=200)
    def test_mask_count_and_lossless_delete(self, tokens, seed):
        doc = doc_of(tokens, doc_id=f"h{seed}")
        spans = spans_of("a b", "c", ranks=[0, 1])
        plan = plan_corruption(doc, spans, cfg_for(k_s=0.6, k_o=0.3, seed=seed))
        masked = apply_mask(tokens, plan)
        assert masked.count("<mask>") == len(plan)
        kept = apply_delete(tokens, plan)
        removed = [t for start, end in plan for t in tokens[start:end]]
        # Delete output interleaved with the deleted intervals reconstructs
        # the original: same multiset and same relative orders.
        assert sorted(kept + removed) == sorted(tokens)
        assert _is_subsequence(kept, tokens)

    @given(
        st.lists(st.sampled_from("abcdef"), min_size=1, max_size=40),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=100)
    def test_unmarked_tokens_keep_relative_order(self, tokens, seed):
        doc = doc_of(tokens, doc_id=f"o{seed}")
        plan = plan_corruption(doc, spans_of("a b c"), cfg_for(k_s=0.5, k_o=0.5, seed=seed))
        unmarked = apply_delete(tokens, plan)
        masked = apply_mask(tokens, plan)
        assert [t for t in masked if t != "<mask>"] == unmarked


def _is_subsequence(sub, seq):
    it = iter(seq)
    return all(any(x == y for y in it) for x in sub)


class TestSspTarget:
    def test_substring_pruning_and_rank_order(self):
        spans = spans_of("event trigger words", "trigger words", "text", ranks=[2, 5, 9])
        assert build_ssp_target(spans) == ["event", "trigger", "words", ";", "text"]

    def test_single_span_no_separator(self):
        assert build_ssp_target(spans_of("alpha beta")) == ["alpha", "beta"]

    def test_duplicate_dropped(self):
        spans = spans_of("a b", "a b", ranks=[3, 3])
        assert build_ssp_target(spans) == ["a", "b"]

    def test_empty_raises_skip(self):
        assert build_ssp_target([]) == []
        assert build_ssp_target([SalientSpan((), 0)]) == []  # an empty span predicts nothing

    def test_empty_span_is_dropped(self):
        assert build_ssp_target([SalientSpan((), 0), SalientSpan(("a",), 1)]) == ["a"]

    def test_rank_orders_output(self):
        spans = spans_of("late", "early", ranks=[7, 1])
        assert build_ssp_target(spans) == ["early", ";", "late"]

    def test_no_target_span_inside_another(self):
        rng = random.Random(4)
        vocab = "abcdefg"
        for _ in range(50):
            spans = [
                SalientSpan(
                    tokens=tuple(rng.choice(vocab) for _ in range(rng.randint(1, 3))),
                    rank=rng.randint(0, 9),
                )
                for _ in range(rng.randint(1, 8))
            ]
            out = build_ssp_target(spans)
            pieces = " ".join(out).split(" ; ")
            piece_tokens = [tuple(p.split()) for p in pieces]
            for a in piece_tokens:
                for b in piece_tokens:
                    if len(a) < len(b):
                        n = len(a)
                        assert not any(b[i : i + n] == a for i in range(len(b) - n + 1))


class TestBuildExample:
    def test_ssp_d_deletes_spans_keeps_rest(self):
        tokens = ("identify", "event", "trigger", "words", "in", "biomedical", "text")
        doc = doc_of(tokens, doc_id="bio")
        spans = spans_of("event trigger words", "text", ranks=[0, 3])
        # Force both spans corrupted, nothing else.
        source, target = corrupt_one(doc, spans, cfg_for("ssp-d", k_s=1.0, k_o=0.0))
        assert source == ("identify", "in", "biomedical")
        assert "biomedical" in source
        assert target[:3] == ("event", "trigger", "words")

    def test_ssr_target_is_original(self):
        doc = doc_of(["x", "y", "z"], doc_id="r")
        source, target = corrupt_one(doc, spans_of("y"), cfg_for("ssr-d", k_s=1.0, k_o=0.0))
        assert target == doc.tokens
        assert source == ("x", "z")

    def test_ssr_m_masks(self):
        doc = doc_of(["x", "y", "z"], doc_id="m")
        source, _ = corrupt_one(doc, spans_of("y"), cfg_for("ssr-m", k_s=1.0, k_o=0.0))
        assert source == ("x", "<mask>", "z")

    def test_tg(self):
        doc = doc_of(["t1", "t2", "<sep>", "b1"], doc_id="t", title_len=2)
        source, target = corrupt_one(doc, None, cfg_for("tg"))
        assert source == ("b1",)
        assert target == ("t1", "t2")

    def test_tg_empty_title_skips(self):
        doc = doc_of(["<sep>", "b1"], doc_id="t0", title_len=0)
        assert corrupt_one(doc, None, cfg_for("tg")) == "empty title"

    def test_tg_empty_body_skips(self):
        doc = doc_of(["t1", "<sep>"], doc_id="t1", title_len=1)
        assert corrupt_one(doc, None, cfg_for("tg")) == "empty body"

    def test_ti_masks_and_preserves_target(self):
        tokens = tuple(f"w{i}" for i in range(120))
        doc = doc_of(tokens, doc_id="ti")
        source, target = corrupt_one(doc, None, cfg_for("ti", seed=5))
        assert target == tokens
        n_masks = source.count("<mask>")
        assert n_masks >= 1
        masked_originals = len(tokens) - (len(source) - n_masks)
        assert masked_originals >= round(0.3 * len(tokens)) - 3  # last span may overshoot

    def test_ti_poisson_lengths(self):
        rng = random.Random(0)
        draws = [_poisson(rng, 3.0) for _ in range(20000)]
        assert sum(draws) / len(draws) == pytest.approx(3.0, abs=0.05)
        var = sum((d - 3.0) ** 2 for d in draws) / len(draws)
        assert var == pytest.approx(3.0, abs=0.15)

    def test_ssp_without_spans_skips(self):
        doc = doc_of(["a"], doc_id="s")
        assert corrupt_one(doc, [], cfg_for("ssp-m")) == "no salient spans to predict"
        assert corrupt_one(doc, [SalientSpan((), 0)], cfg_for("ssp-d")) == "no salient spans to predict"

    def test_full_coverage_delete_warns_but_emits(self, caplog):
        doc = doc_of(["a", "b"], doc_id="w")
        with caplog.at_level("WARNING", logger="spanmine.corruption"):
            source, _ = corrupt_one(doc, spans_of("a b"), cfg_for("ssr-d", k_s=1.0, k_o=1.0))
        assert source == ()
        assert any("deleted every token" in r.message for r in caplog.records)


class TestGenCorpus:
    def _docs(self, n=30, seed=0):
        rng = random.Random(seed)
        docs, spans = [], {}
        for i in range(n):
            tokens = [rng.choice("abcdefgh") for _ in range(rng.randint(8, 20))]
            doc_id = f"g{i}"
            docs.append(doc_of(tokens, doc_id=doc_id))
            spans[doc_id] = spans_of("a b", "c", ranks=[0, 1])
        return docs, spans

    def test_same_seed_byte_identical(self, tmp_path):
        docs, spans = self._docs()
        cfg = cfg_for("ssr-m", seed=42)
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        gen_corpus(docs, spans, cfg, a)
        gen_corpus(docs, spans, cfg, b)
        assert a.read_bytes() == b.read_bytes()

    def test_parallel_equals_serial(self, tmp_path):
        docs, spans = self._docs(n=40, seed=3)
        cfg = cfg_for("ssp-d", seed=7)
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        gen_corpus(docs, spans, cfg, a, workers=1)
        gen_corpus(docs, spans, cfg, b, workers=3)
        assert a.read_bytes() == b.read_bytes()

    def test_missing_span_entry_is_hard_error(self, tmp_path):
        docs, spans = self._docs(n=3)
        del spans["g1"]
        with pytest.raises(DataError, match="g1"):
            gen_corpus(docs, spans, cfg_for("ssr-d"), tmp_path / "x.jsonl")

    def test_missing_span_entry_in_a_worker_block_is_hard_error(self, tmp_path):
        docs, spans = self._docs(n=10)
        del spans["g9"]  # the last document falls in the forked worker's block
        with pytest.raises(DataError, match="g9"):
            gen_corpus(docs, spans, cfg_for("ssp-m"), tmp_path / "x.jsonl", workers=2)

    def test_record_schema(self, tmp_path):
        docs, spans = self._docs(n=2)
        out = tmp_path / "out.jsonl"
        gen_corpus(docs, spans, cfg_for("ssr-m", seed=1), out)
        record = json.loads(out.read_text().splitlines()[0])
        assert set(record) == {"id", "source", "target"}
        assert record["target"] == " ".join(docs[0].tokens)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("objective", OBJECTIVES)
    def test_each_line_is_what_json_dumps_writes(self, tmp_path, objective, workers):
        docs = [
            doc_of(['say"hi', "back\\slash", "<sep>", "café", "東京", "line\u2028sep"], doc_id='q"1\\', title_len=2),
            doc_of(["東京", "<sep>", "ctl\x01x", 'say"hi', "plain"], doc_id="é\u2028東\x00", title_len=1),
            doc_of(["plain", "<sep>", "back\\slash", "café", "東京"], doc_id="p", title_len=1),
        ]
        spans = [SalientSpan(("東京",), 0), SalientSpan(('say"hi',), 1), SalientSpan(("line\u2028sep",), 2)]
        spans_by_id = {doc.doc_id: spans for doc in docs} if objective in SPAN_OBJECTIVES else None
        cfg = cfg_for(objective, k_s=0.5, k_o=0.3, seed=4)
        out = tmp_path / "pairs.jsonl"
        assert gen_corpus(docs, spans_by_id, cfg, out, workers=workers).examples_written == 3
        expected = []
        for doc in docs:
            if objective == "tg":
                source, target = doc.tokens[doc.title_len + 1 :], doc.tokens[: doc.title_len]
            else:
                plan = _ti_plan(doc, cfg) if objective == "ti" else plan_corruption(doc, spans, cfg)
                source = (apply_mask if objective in ("ssr-m", "ssp-m", "ti") else apply_delete)(doc.tokens, plan)
                target = build_ssp_target(spans) if objective.startswith("ssp") else doc.tokens
            expected.append({"id": doc.doc_id, "source": " ".join(source), "target": " ".join(target)})
        lines = out.read_bytes().decode("utf-8").split("\n")  # not splitlines(): ids and tokens hold U+2028
        assert lines == [json.dumps(record, ensure_ascii=False) for record in expected] + [""]

    def test_skips_counted(self, tmp_path):
        docs = [doc_of(["t", "<sep>"], doc_id="only-title", title_len=1),
                doc_of(["t", "<sep>", "b"], doc_id="ok", title_len=1)]
        out = tmp_path / "tg.jsonl"
        summary = gen_corpus(docs, None, cfg_for("tg"), out)
        assert summary.examples_written == 1
        assert summary.docs_skipped == {"empty body": 1}

    def test_expected_corruption_fraction(self, tmp_path):
        # Expected fraction = k_s * coverage + k_o * (1 - coverage); the
        # empirical estimate over many tokens must sit within 3 sigma.
        rng = random.Random(9)
        docs, spans = [], {}
        for i in range(400):
            doc_id = f"e{i}"
            tokens = []
            for _ in range(rng.randint(20, 40)):
                tokens.extend(["s1", "s2"] if rng.random() < 0.5 else [rng.choice(["o1", "o2", "o3"])])
            docs.append(doc_of(tokens, doc_id=doc_id))
            spans[doc_id] = spans_of("s1 s2")
        cfg = cfg_for("ssr-m", k_s=0.4, k_o=0.2, seed=17)
        summary = gen_corpus(docs, spans, cfg, tmp_path / "out.jsonl")
        covered = 0
        total = 0
        for doc in docs:
            occ = locate_occurrences(doc.tokens, spans[doc.doc_id])
            covered += sum(end - start for start, end in occ)
            total += len(doc.tokens)
        coverage = covered / total
        expected = cfg.k_s * coverage + cfg.k_o * (1 - coverage)
        # Bernoulli mixture variance bound: p(1-p) per token.
        sigma = math.sqrt(expected * (1 - expected) / total)
        assert summary.examples_written == len(docs)  # so the percentage is of every token
        assert abs(summary.corrupted_token_pct - 100.0 * expected) <= 3 * 100.0 * sigma


@st.composite
def doc_and_spans(draw):
    """A small-vocabulary document and spans for it.

    Spans include slices of the document (so occurrences overlap), spans
    absent from it ("z"), spans longer than MAX_NGRAM and repeats; ranks
    are shuffled so that rank order and token order disagree, with ties.
    """
    tokens = draw(st.lists(st.sampled_from("abc"), max_size=40))
    grams = draw(st.lists(st.lists(st.sampled_from("abcz"), min_size=1, max_size=MAX_NGRAM + 2), max_size=4))
    if tokens:
        for start in draw(st.lists(st.integers(0, len(tokens) - 1), max_size=8)):
            grams.append(tokens[start : start + draw(st.integers(1, MAX_NGRAM + 1))])
    if grams:
        grams += draw(st.lists(st.sampled_from(grams), max_size=3))
    ranks = draw(st.permutations(range(len(grams))))
    return tokens, [SalientSpan(tokens=tuple(gram), rank=rank // 2) for gram, rank in zip(grams, ranks)]


class TestAgainstOracles:
    @given(doc_and_spans())
    @example((["a"] * 4, spans_of("a a")))
    @example((["a", "b", "c"], []))
    @example(([], spans_of("a")))
    @example((list("abcacbab"), spans_of("a c a", "a b c", "a c", "a b", "a c b", ranks=[0, 2, 0, 1, 3])))  # one first token
    @example((list("abab"), spans_of("a b", "b", "a b", ranks=[3, 0, 1])))  # the same tokens at two ranks
    @example((list("ababa"), (span for span in spans_of("b a", "a", "a", "b", ranks=[1, 2, 0, 0]))))  # a generator
    @example((["a", "b"], [SalientSpan((), 0), *spans_of("b", ranks=[1])]))  # an empty span matches nothing
    @example((list("abab"), [*spans_of("a b", ranks=[2]), SalientSpan((), 0), *spans_of("b", "a", ranks=[1, 3])]))
    @example((list("aab"), [SalientSpan((), 0), SalientSpan((), 1), *spans_of("a a", "a b", ranks=[1, 0])]))
    @settings(max_examples=300)
    def test_locate_occurrences_matches_window_scan(self, case):
        tokens, spans = case
        spans, copy = itertools.tee(spans) if isinstance(spans, Iterator) else (spans, spans)  # read once each
        assert locate_occurrences(tokens, spans) == oracle_locate_occurrences(tokens, copy)

    @given(doc_and_spans())
    @example(([], []))
    @example(([], spans_of("a a", "a", "a a a", "a a", ranks=[3, 0, 5, 1])))
    @example(([], [SalientSpan((), 0), *spans_of("a b", "a", ranks=[2, 1])]))  # an empty span predicts nothing
    @example(([], [SalientSpan((), 0)]))
    @settings(max_examples=300)
    def test_ssp_target_matches_pairwise_pruning(self, case):
        _, spans = case
        assert build_ssp_target(spans) == oracle_ssp_target(spans)


@pytest.fixture(scope="module")
def demo_corruption(tmp_path_factory):
    """The 200-document demo corpus, tokenized, with spans mined against a reloaded index."""
    tmp = tmp_path_factory.mktemp("demo")
    docs = [model_input(doc) for doc in generate_demo_corpus()]
    save_index(build_index(docs), tmp / "index.spmi")
    index = load_index(tmp / "index.spmi")
    mine_corpus(docs, index, tmp / "spans.jsonl", thresholds=DEFAULT_THRESHOLDS.scaled_to(len(docs)))
    return docs, load_spans(tmp / "spans.jsonl")


# sha256 of each objective's output for the demo corpus at the demo seed.
# Pins the corruption output bytes.
CORRUPTION_DIGESTS = {
    "ssr-m": "7201f2fe81cab1937f88840b6fb0ad5686d9777c73615c91a91a4c500106b409",
    "ssr-d": "b524726ef51f70c9cc07d41b67920ca2054deff7d6eff157402b46c052b40568",
    "ssp-m": "5867d50b02b0a9f629071ccaf171a77ee2f47130a14e722ea2464fc90a2b0f1a",
    "ssp-d": "c622ad60cc9482c49d736576d2c6af623dfd86cdc58861254634ee1368487ecc",
    "ti": "c95e508162b268b7255feb8295e6628c0e2cee330953acb8b38d61afb6cab330",
    "tg": "d91c588b91cf86d550f4ac645bd529d9407147e24545e5332e8605c3213b2a98",
}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("objective", OBJECTIVES)
def test_demo_corruption_golden_digest(demo_corruption, tmp_path, objective, workers):
    docs, spans = demo_corruption
    out = tmp_path / "out.jsonl"
    cfg = CorruptionConfig(objective=objective, seed=DEMO_SEED)
    gen_corpus(docs, spans if objective in SPAN_OBJECTIVES else None, cfg, out, workers=workers)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == CORRUPTION_DIGESTS[objective]

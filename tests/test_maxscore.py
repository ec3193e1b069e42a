"""Each MaxScore branch of the mining kernel ranks as BM25Index.rank does.

Every case is a hand-built corpus whose first two documents are the same
source, so one source and several sources share the index and the floor.
"z" is indexed filler that no query holds. The case's query is the source's
whole eligible text; its essential terms are checked against the documented
rule, so each corpus provably reaches the branch it names.
"""

import json

import pytest

from spanmine import DataError, ThresholdFn, TokenizedDoc, build_index, mine_corpus
from spanmine.miner import candidates
from tests.conftest import as_tokenized

STOP = frozenset({"z"})
FILLER = ["z"] * 3


def _corpus(source, *others):
    return [source, list(source), *others]


# case id -> (corpus, the query positions that stay essential)
CASES = {
    "1-none": (_corpus(["a", "z"], ["a", "z", "z"], FILLER), ()),
    "1-one": (_corpus(["a", "z", "z"], ["a", "a", "z"], FILLER), (0,)),
    "2-none": (_corpus(["a", "b"], ["a", "z", "z"], ["b", "z", "z"]), ()),
    "2-one-at-0": (_corpus(["a", "b", "z"], ["a", "a", "z"], ["b", "z", "z", "z"], ["b", "z", "z", "z"]), (0,)),
    "2-one-at-1": (_corpus(["a", "b", "z"], ["b", "b", "z"], ["a", "z", "z", "z"], ["a", "z", "z", "z"]), (1,)),
    # max_a == max_b: tied dfs, so either tied term ranks alike; test_miner pins which one stays essential
    "2-one-at-1-tied": (_corpus(["a", "b", "z"], ["a", "a", "z"], ["b", "b", "z"]), (1,)),
    "2-two": (_corpus(["a", "b", *["z"] * 30], ["a", "a"], ["b", "b"], FILLER), (0, 1)),
    "3-none": (_corpus(["a", "b", "c"], ["a", "z", "z"], ["b", "z", "z"], ["c", "z", "z"]), ()),
    "3-one-at-0": (_corpus(["a", "b", "c", "z"], ["a", "a", "z"], ["b", "c", "z", "z"], ["b", "c", "z", "z"]), (0,)),
    "3-one-at-1": (_corpus(["a", "b", "c", "z"], ["b", "b", "z"], ["a", "c", "z", "z"], ["a", "c", "z", "z"]), (1,)),
    "3-one-at-2": (_corpus(["a", "b", "c", "z"], ["c", "c", "z"], ["a", "b", "z", "z"], ["a", "b", "z", "z"]), (2,)),
    "3-one-at-1-tied": (_corpus(["a", "b", "c", "z"], ["a", "a", "z"], ["b", "b", "z"], ["c", "z", "z", "z"]), (1,)),
    "3-one-at-2-tied": (_corpus(["a", "b", "c", "z"], ["b", "b", "z"], ["c", "c", "z"], ["a", "z", "z", "z"]), (2,)),
    "3-two": (_corpus(["a", "b", "c", *["z"] * 30], ["b", "b"], ["c", "c"], FILLER), (1, 2)),
    "3-three": (_corpus(["a", "b", "c", *["z"] * 60], ["a"], ["b"], ["c"], *[["z"]] * 6), (0, 1, 2)),
}


def _essential(index, query, floor):
    """Query positions left essential: terms turn non-essential in ascending order of their
    largest weight, ties by position, while those weights, summed in query order, stay <= floor."""
    maxes = [index.term_weights(term).max_weight for term in query]
    non_essential = []
    for i in sorted(range(len(query)), key=lambda i: (maxes[i], i)):
        total = 0.0
        for j in sorted([*non_essential, i]):
            total += maxes[j]
        if total > floor:
            break
        non_essential.append(i)
    return tuple(i for i in range(len(query)) if i not in non_essential)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("n_sources", [1, 2], ids=["one-source", "two-sources"])
@pytest.mark.parametrize("case", CASES)
def test_each_branch_ranks_as_bm25_rank(tmp_path, case, n_sources, workers):
    corpus, essential = CASES[case]
    docs = as_tokenized(corpus)
    index = build_index(docs)
    sources = docs[:n_sources]
    query = tuple(t for t in corpus[0] if t not in STOP)
    assert _essential(index, query, index.scores(query)[0]) == essential
    n = len(docs)
    thresholds = ThresholdFn({1: n, 2: n, 3: n})  # every candidate is kept with its rank
    out = tmp_path / "spans.jsonl"
    summary = mine_corpus(sources, index, out, thresholds, STOP, workers=workers)
    records = [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()]
    for doc, record in zip(sources, records, strict=True):
        ranks = {tuple(span["text"].split()): span["rank"] for span in record["spans"]}
        assert ranks == {c.tokens: index.rank(c.tokens, index.slot_of(doc.doc_id)) for c in candidates(doc, STOP)}
        assert query in ranks
    # Every query scores exactly the documents of its essential terms.
    queries = {c.tokens for doc in sources for c in candidates(doc, STOP)}
    scored = 0
    for q in queries:
        terms = [q[i] for i in _essential(index, q, index.scores(q)[0])]
        scored += len({ref for term in terms for ref in index.postings[term].refs})
    assert (summary.distinct_queries, summary.docs_scored) == (len(queries), scored)


@pytest.mark.parametrize("workers", [1, 2])
def test_a_document_with_no_tokens_is_named(tmp_path, workers):
    docs = [TokenizedDoc("full", ("alpha", "beta"), 1), TokenizedDoc("empty", (), 0)]
    index = build_index(docs)
    out = tmp_path / "spans.jsonl"
    with pytest.raises(DataError, match="^document 'empty' has no tokens$"):
        mine_corpus(docs, index, out, workers=workers)
    assert not out.exists()

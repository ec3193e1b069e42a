"""Seeded KP20k-like corpus and predictions generator.

Stands in for real scientific abstracts until a KP20k-scale corpus is
available. The properties the toolkit's cost depends on are modelled:

- a ~40k-word vocabulary with Zipf frequencies (s = 1.07), so posting lists
  range from near-N head terms to a long df=1 tail;
- pseudo-word stems with regular inflections, so several surface forms share
  one Porter stem, as in real text;
- ~40% stop-word tokens plus digits and punctuation;
- 120-260-token abstracts with a few planted topic phrases;
- five keyphrases per document, ~40-46% of them absent from the text.

The toolkit sees only the JSONL corpus and the predictions file written here;
nothing is imported from it, so a change to the toolkit cannot change the
inputs. The same seed gives the same bytes.

Usage: python3 bench/zipfgen.py --seed 1 --docs 400 --corpus c.jsonl --preds p.txt
"""

from __future__ import annotations

import argparse
import itertools
import json
import random
from pathlib import Path

ZIPF_S = 1.07
VOCAB_SIZE = 40_000
# Share of filler draws; punctuation and planted phrases dilute it to ~40%
# of all tokens.
STOP_SHARE = 0.50
DIGIT_SHARE = 0.02
ABSENT_SHARE = 0.43
KEYPHRASES_PER_DOC = 5
ABSTRACT_TOKENS = (120, 260)

# Function words, most frequent first; all are in the toolkit's default
# stoplist, so they are never mined.
STOPWORDS = """
the of and a in to is for we that on with by this are as an be from which our
can it these at or has have been its their such not was between both each than
other more most into only over through under very while also all any some then
""".split()
_STOPSET = frozenset(STOPWORDS)

_ONSETS = "b c d f g k l m n p r s t v z br cr dr gr pl pr st tr sp sk".split()
_NUCLEI = "a e i o u ai ea io ou".split()
_CODAS = ["", "", "", "n", "r", "l", "m", "s", "x", "nd", "rt", "st"]
# Suffixes that Porter stemming folds back onto the stem (plus a few that it
# keeps), so surface forms outnumber stems as in real text.
_SUFFIXES = ["", "s", "ing", "ed", "ation", "ations", "al", "ity", "ness", "er", "ive", "ly"]
_KEYPHRASE_LENGTHS = ((1, 2, 3, 4), (22, 50, 22, 6))


def _vocabulary(rng: random.Random) -> list[str]:
    """VOCAB_SIZE distinct lowercase pseudo-words in random Zipf-rank order."""
    stems: list[str] = []
    seen: set[str] = set()
    while len(stems) * 3.3 < VOCAB_SIZE:
        stem = "".join(
            rng.choice(_ONSETS) + rng.choice(_NUCLEI) + rng.choice(_CODAS)
            for _ in range(rng.choice((1, 2, 2, 3)))
        )
        if stem not in seen:
            seen.add(stem)
            stems.append(stem)
    words: list[str] = []
    taken = set(STOPWORDS)
    for stem in stems:
        for suffix in rng.sample(_SUFFIXES, rng.randint(2, 5)):
            word = stem + suffix
            if word not in taken:
                taken.add(word)
                words.append(word)
    rng.shuffle(words)
    return words[:VOCAB_SIZE]


def _zipf_cum_weights(n: int) -> list[float]:
    return list(itertools.accumulate(1.0 / rank**ZIPF_S for rank in range(1, n + 1)))


class _Sampler:
    def __init__(self, rng: random.Random):
        self.rng = rng
        self.words = _vocabulary(rng)
        self.cum = _zipf_cum_weights(len(self.words))
        self.stop_cum = _zipf_cum_weights(len(STOPWORDS))

    def content(self, k: int) -> list[str]:
        return self.rng.choices(self.words, cum_weights=self.cum, k=k)

    def mid_tail(self) -> str:
        """A topical word: rare enough to be salient, common enough to recur."""
        return self.words[int(200 * (len(self.words) / 200) ** self.rng.random()) - 1]

    def filler(self) -> str:
        rng = self.rng
        roll = rng.random()
        if roll < STOP_SHARE:
            return rng.choices(STOPWORDS, cum_weights=self.stop_cum)[0]
        if roll < STOP_SHARE + DIGIT_SHARE:
            return rng.choice((str(rng.randint(2, 99)), str(rng.randint(1990, 2020)), f"{rng.randint(0, 9)}.{rng.randint(1, 99)}"))
        return self.content(1)[0]

    def phrase(self, length: int) -> list[str]:
        return [self.mid_tail() for _ in range(length)]


def _render(tokens: list[str]) -> str:
    text = " ".join(tokens)
    for mark in (" ,", " .", " )", " ;", " :"):
        text = text.replace(mark, mark[1:])
    return text.replace("( ", "(")


def _sentence(s: _Sampler, planted: list[list[str]], length: int) -> list[str]:
    rng = s.rng
    tokens = [s.filler() for _ in range(length)]
    for phrase in planted:
        at = rng.randint(0, len(tokens))
        tokens[at:at] = phrase
    for _ in range(length // 12):
        tokens.insert(rng.randint(1, len(tokens)), ",")
    if rng.random() < 0.15:
        at = rng.randint(1, len(tokens) - 1)
        tokens[at:at] = ["(", *s.content(rng.randint(1, 2)), ")"]
    if rng.random() < 0.1:
        at = rng.randrange(len(tokens))
        if tokens[at].isalpha() and at + 1 < len(tokens) and tokens[at + 1].isalpha():
            tokens[at : at + 2] = [f"{tokens[at]}-{tokens[at + 1]}"]
    return tokens + ["."]


def _document(s: _Sampler, doc_id: str) -> tuple[dict, list[list[str]], list[list[str]], set[str]]:
    rng = s.rng
    lengths, weights = _KEYPHRASE_LENGTHS
    n_absent = sum(rng.random() < ABSENT_SHARE for _ in range(KEYPHRASES_PER_DOC))
    present = [s.phrase(rng.choices(lengths, weights)[0]) for _ in range(KEYPHRASES_PER_DOC - n_absent)]
    topics = present + [s.phrase(rng.randint(1, 2)) for _ in range(rng.randint(1, 3))]

    title = [s.filler() for _ in range(rng.randint(3, 8))]
    at = rng.randint(0, len(title))
    title[at:at] = topics[0]
    body: list[str] = []
    target = rng.randint(*ABSTRACT_TOKENS)
    while len(body) < target:
        planted = [rng.choice(topics) for _ in range(rng.choice((0, 1, 1, 2)))]
        body += _sentence(s, planted, rng.randint(10, 26))
    del body[target - 1 :]
    body.append(".")
    for phrase in present:  # every present keyphrase occurs at least once
        if not _occurs(phrase, title + body):
            at = rng.randint(0, len(body) - 1)
            body[at:at] = phrase

    words = set(title) | set(body)
    absent: list[list[str]] = []
    while len(absent) < n_absent:
        phrase = s.phrase(rng.choices(lengths, weights)[0])
        if not words.intersection(phrase):
            absent.append(phrase)
    keyphrases = present + absent
    rng.shuffle(keyphrases)
    record = {
        "id": doc_id,
        "title": _render(title),
        "abstract": _render(body),
        "keywords": [" ".join(p) for p in keyphrases],
    }
    return record, present, absent, words


def _occurs(phrase: list[str], tokens: list[str]) -> bool:
    n = len(phrase)
    return any(tokens[i : i + n] == phrase for i in range(len(tokens) - n + 1))


def _prediction(s: _Sampler, present, absent, words: set[str]) -> str:
    """A plausible model output: some gold, inflected variants, distractors."""
    rng = s.rng
    picks = [p for p in present if rng.random() < 0.6] + [p for p in absent if rng.random() < 0.25]
    content = sorted(w for w in words if w not in _STOPSET and w.isalpha())
    for _ in range(rng.randint(2, 6)):
        if content and rng.random() < 0.6:
            picks.append(rng.sample(content, min(len(content), rng.randint(1, 2))))
        else:
            picks.append(s.phrase(rng.randint(1, 3)))
    rng.shuffle(picks)
    if picks and rng.random() < 0.2:
        picks.append(picks[0])
    out = [" ".join(p) for p in picks]
    if out and rng.random() < 0.3:
        out[0] += "s"
    return " ; ".join(out)


def generate(seed: int, n_docs: int, corpus_path, preds_path) -> None:
    """Write ``n_docs`` labeled JSONL records and one prediction line each.

    The vocabulary is the same for every seed, like a language; the seed
    picks the documents.
    """
    s = _Sampler(random.Random("zipfgen:vocabulary"))
    s.rng = random.Random(f"zipfgen:{seed}")
    with open(corpus_path, "w", encoding="utf-8") as corpus, open(preds_path, "w", encoding="utf-8") as preds:
        for i in range(n_docs):
            record, present, absent, words = _document(s, f"zipf-{seed}-{i:06d}")
            corpus.write(json.dumps(record, ensure_ascii=False) + "\n")
            preds.write(_prediction(s, present, absent, words) + "\n")


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--docs", type=int, required=True)
    parser.add_argument("--corpus", type=Path, required=True)
    parser.add_argument("--preds", type=Path, required=True)
    args = parser.parse_args(argv)
    generate(args.seed, args.docs, args.corpus, args.preds)


if __name__ == "__main__":
    main()

"""Bundled English stop word list (classic ~170-entry function-word set).

Includes bare contraction fragments ("don", "t", "ve") because the shared
tokenizer isolates apostrophes. Override with --stoplist FILE (one word
per line, '#' comments allowed).
"""

import logging

from .corpus import read_lines, text_tokens

logger = logging.getLogger(__name__)

DEFAULT_STOPWORDS = frozenset("""
a about above after again against ain all also am an and any are aren as at
be because been before being below between both but by can cannot could
couldn d did didn do does doesn doing don down during each few for from
further had hadn has hasn have haven having he her here hers herself him
himself his how i if in into is isn it its itself just ll m ma may me might
mightn more most must mustn my myself needn no nor not now o of off on once
only or other our ours ourselves out over own re s same shall shan she should
shouldn so some such t than that the their theirs them themselves then there
these they this those through to too under until up ve very was wasn we were
weren what when where which while who whom why will with won would wouldn y
you your yours yourself yourselves
""".split())


def load_stoplist(path) -> frozenset[str]:
    """Read a custom stop word list: one word per line, '#' starts a comment.

    Every entry loads, but the miner compares single tokens, so an entry
    the tokenizer splits or rewrites (``COVID-19``, ``e.g.``, ``don't``)
    stops nothing; one warning per file counts those and shows the first.
    """
    words = set()
    unmatchable = []  # (line number, tokens) of each entry that does not tokenize as itself
    for line_no, line in read_lines(path):
        word = line.split("#", 1)[0].strip().lower()
        if word:
            words.add(word)
            tokens = text_tokens(word)
            if tokens != [word]:
                unmatchable.append((line_no, " ".join(tokens)))
    if unmatchable:
        logger.warning(
            "%s: %d of the stop list's entries can never match a token; the first, on line %d, tokenizes as %r",
            path, len(unmatchable), *unmatchable[0],
        )
    return frozenset(words)

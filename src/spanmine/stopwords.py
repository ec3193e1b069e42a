"""Bundled English stop word list (classic ~170-entry function-word set).

Includes bare contraction fragments ("don", "t", "ve") because the shared
tokenizer isolates apostrophes. Override with --stoplist FILE (one word
per line, '#' comments allowed).
"""

from .corpus import read_lines

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
    """Read a custom stop word list: one word per line, '#' starts a comment."""
    words = set()
    for _, line in read_lines(path):
        word = line.split("#", 1)[0].strip().lower()
        if word:
            words.add(word)
    return frozenset(words)

"""Porter suffix-stripping stemmer.

Implements the classic 1980 algorithm in its canonical form, i.e. with the
three widely adopted adjustments every reference implementation carries:
step 2 rewrites "bli" -> "ble" (instead of "abli" -> "able"), step 2 gains
the "logi" -> "log" rule, and words of length <= 2 are left alone. This is
the variant the published test vocabulary was generated with.

Each word is read once into its consonant/vowel form, a string of "c" and
"v" as long as the word: one ``str.translate``, plus a short pass over the
letters only when the word holds a "y" (a consonant first or after a vowel,
a vowel after a consonant). A letter's class depends only on the letters
before it, so the form of a stem is the form's prefix of the same length:
the measure m of a stem is ``form[:len(stem)].count("vc")``, and *v*, *d
and *o read off the form as well. The form is sliced with the word when a
suffix is cut, and extended by the replacement's own form when letters are
appended (replacements hold no "y"). Steps 2, 3 and 4 look up only the
rules whose suffix ends in the word's last letter, as Porter's reference C
code switches on a letter; within that bucket the first matching suffix in
table order decides.

Tokens containing anything other than ASCII letters (sentinels such as
"<digit>", hyphenated forms, stray punctuation) are returned unchanged.
"""

from __future__ import annotations

from string import ascii_lowercase

# Every lowercase letter but "y" maps to its fixed class; "y" stays "y"
# until _form resolves it from the letter before.
_CV = str.maketrans({ch: "v" if ch in "aeiou" else "c" for ch in ascii_lowercase if ch != "y"})


def _form(w: str) -> str:
    """The consonant/vowel form of a lowercase ASCII word."""
    form = w.translate(_CV)
    if "y" in form:
        chars = list(form)
        for i, ch in enumerate(chars):
            if ch == "y":
                chars[i] = "v" if i and chars[i - 1] == "c" else "c"
        form = "".join(chars)
    return form


def _ends_cvc(w: str, form: str) -> bool:
    """True when the word ends consonant-vowel-consonant, last not w/x/y."""
    return form[-3:] == "cvc" and w[-1] not in "wxy"


# (suffix, replacement) pairs; within each step, the first matching suffix
# decides, and the rewrite fires only when the remaining stem's measure
# clears the step's bar. Longer suffixes precede the suffixes they contain.
_STEP2 = (
    ("ational", "ate"), ("tional", "tion"),
    ("enci", "ence"), ("anci", "ance"),
    ("izer", "ize"),
    ("bli", "ble"), ("alli", "al"), ("entli", "ent"), ("eli", "e"), ("ousli", "ous"),
    ("ization", "ize"), ("ation", "ate"), ("ator", "ate"),
    ("alism", "al"), ("iveness", "ive"), ("fulness", "ful"), ("ousness", "ous"),
    ("aliti", "al"), ("iviti", "ive"), ("biliti", "ble"),
    ("logi", "log"),
)

_STEP3 = (
    ("icate", "ic"), ("ative", ""), ("alize", "al"),
    ("iciti", "ic"), ("ical", "ic"), ("ful", ""), ("ness", ""),
)

_STEP4 = (
    "al", "ance", "ence", "er", "ic", "able", "ible",
    "ant", "ement", "ment", "ent", "ion", "ou",
    "ism", "ate", "iti", "ous", "ive", "ize",
)


def _by_last_letter(rules) -> dict[str, tuple[tuple[str, ...], tuple[tuple[str, str, str], ...]]]:
    """Last letter -> (its suffixes, its (suffix, replacement, replacement form) rules), in table order."""
    buckets: dict[str, list[tuple[str, str, str]]] = {}
    for suffix, replacement in rules:
        buckets.setdefault(suffix[-1], []).append((suffix, replacement, replacement.translate(_CV)))
    return {letter: (tuple(rule[0] for rule in bucket), tuple(bucket)) for letter, bucket in buckets.items()}


_NO_RULES: tuple[tuple[str, ...], tuple[tuple[str, str, str], ...]] = ((), ())
_STEP2_BY_LAST = _by_last_letter(_STEP2)
_STEP3_BY_LAST = _by_last_letter(_STEP3)
_STEP4_BY_LAST = _by_last_letter((suffix, "") for suffix in _STEP4)


def _rewrite(w: str, form: str, buckets, bar: int) -> tuple[str, str]:
    """Apply the first rule whose suffix ends ``w`` if its stem's measure exceeds ``bar``.

    A stem left by "ion" must end in "s" or "t", or the rule does not match.
    """
    suffixes, rules = buckets.get(w[-1], _NO_RULES)
    if not w.endswith(suffixes):
        return w, form
    for suffix, replacement, replacement_form in rules:
        if w.endswith(suffix):
            n = len(w) - len(suffix)
            if suffix == "ion" and w[n - 1 : n] not in ("s", "t"):
                continue
            if form[:n].count("vc") > bar:
                return w[:n] + replacement, form[:n] + replacement_form
            break
    return w, form


def _step1b_fixup(w: str, form: str) -> tuple[str, str]:
    if w.endswith(("at", "bl", "iz")):
        return w + "e", form + "v"
    if len(w) > 1 and w[-1] == w[-2] and form[-1] == "c" and w[-1] not in "lsz":
        return w[:-1], form[:-1]
    if _ends_cvc(w, form) and form.count("vc") == 1:
        return w + "e", form + "v"
    return w, form


def stem(token: str) -> str:
    """Stem one lowercase token; non-alphabetic tokens pass through."""
    if len(token) <= 2 or not token.isascii() or not token.isalpha():
        return token
    w = token.lower()
    form = _form(w)
    # Step 1a: "sses" -> "ss" and "ies" -> "i" both drop two letters.
    if w[-1] == "s":
        if w.endswith(("sses", "ies")):
            w, form = w[:-2], form[:-2]
        elif w[-2] != "s":
            w, form = w[:-1], form[:-1]
    # Step 1b.
    if w[-1] == "d":
        if w.endswith("eed"):
            if form[:-3].count("vc"):
                w, form = w[:-1], form[:-1]
        elif w.endswith("ed") and "v" in form[:-2]:
            w, form = _step1b_fixup(w[:-2], form[:-2])
    elif w.endswith("ing") and "v" in form[:-3]:
        w, form = _step1b_fixup(w[:-3], form[:-3])
    # Step 1c.
    if w[-1] == "y" and "v" in form[:-1]:
        w, form = w[:-1] + "i", form[:-1] + "v"
    w, form = _rewrite(w, form, _STEP2_BY_LAST, 0)
    w, form = _rewrite(w, form, _STEP3_BY_LAST, 0)
    w, form = _rewrite(w, form, _STEP4_BY_LAST, 1)
    # Step 5: the final "e" adds no VC, so the word's measure is its stem's.
    if w[-1] == "e":
        m = form.count("vc")
        if m > 1 or (m == 1 and not _ends_cvc(w[:-1], form[:-1])):
            w, form = w[:-1], form[:-1]
    if w.endswith("ll") and form.count("vc") > 1:
        w = w[:-1]
    return w

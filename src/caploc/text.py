r"""Deterministic, offset-preserving tokenization and sentence segmentation.

Tokens are word-level: input is split on Unicode whitespace, then leading and
trailing punctuation characters (Unicode categories P*) are detached as
separate single-character tokens. Internal punctuation (hyphens, apostrophes,
version dots) stays attached. Gold annotations are stored as indices into this
token sequence, so any rule change here must bump TOKENIZER_VERSION.

Offsets are code-point offsets into the source str, the one offset unit:
token i's text is source[starts[i]:ends[i]].

The rule is one compiled pattern: a token is either a core that starts and
ends with a character that is neither whitespace nor punctuation, or a single
punctuation character. With C that core class, the pattern is
(\S(?<=C)\S*(?<=C)|\S): one non-space character that C accepts, then the
longest run of non-space characters that still ends on one C accepts, else
one non-space character, which is then punctuation. It has no optional
group: the form [C](?:\S*[C])? compiles, as re.DEBUG shows, to sre's general
REPEAT ... MAX_UNTIL loop around a REPEAT_ONE, run once per word, where this
one is a REPEAT_ONE and two one-character ASSERTs, backtracking only over a
word's trailing punctuation; the shared leading \S also lets the search skip
whitespace on its prefix check. Splitting text on that pattern with a
capturing group (_split) gives its tokens and the gaps between them,
alternating, so running sums of the part lengths are the token offsets. re
has no category classes, so the pattern names ASCII punctuation only; when
text holds other punctuation, the split runs on a probe of the same length
in which each such character is swapped for an ASCII one. count_tokens()
only counts the parts; tokenize() keeps the token parts and their offsets.

The sentence boundary rule is one function, ends_sentence(), which reads
only the columns: a terminator at the end of a whitespace chunk is ASCII
punctuation, so it is a token of its own, and the first character after the
whitespace is the next token's first. Scoring asks it only about the tokens
just before a scored token (metrics.sentence_metrics); no scoring path calls
split_sentences(), which applies it to every token.

A TokenizedCaption stores its tokens as three equal-length columns (texts,
starts, ends), taken straight from the split with no object per token: a
long caption has hundreds of tokens, and the readers only slice texts and
bisect the offsets. Its tokens property builds the row view, one Token
NamedTuple per token, on first use, for callers outside the package; no
module of the package reads it.
"""

from __future__ import annotations

import functools
import re
import unicodedata
from dataclasses import dataclass
from itertools import accumulate, repeat
from typing import NamedTuple

TOKENIZER_VERSION = "dvb-tok/1"

# the ASCII characters in a P* category; every other punctuation character
# of a text is swapped for _PROBE_PUNCT before the split
_ASCII_PUNCT = "".join(
    c for c in map(chr, range(128)) if unicodedata.category(c).startswith("P")
)
_ASCII_SET = frozenset(map(chr, range(128)))
_PROBE_PUNCT = "!"
_P = re.escape(_ASCII_PUNCT)
# re's \s and str.split() both split on exactly the str.isspace() characters
_CORE = rf"[^\s{_P}]"
_TOKEN_RE = re.compile(rf"(\S(?<={_CORE})\S*(?<={_CORE})|\S)")
_TERMINATORS = frozenset(".!?")


class Token(NamedTuple):
    """One token and its code-point range [char_start, char_end) in the
    source; its index is its position in TokenizedCaption.tokens."""

    text: str
    char_start: int
    char_end: int


@dataclass(frozen=True)
class TokenizedCaption:
    """A caption's tokens as columns: token i is texts[i], the code points
    [starts[i], ends[i]) of source. Tokens are disjoint and in order, so
    both offset columns strictly increase and bisect directly."""

    source: str
    texts: tuple[str, ...]
    starts: tuple[int, ...]
    ends: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.texts)

    @functools.cached_property
    def tokens(self) -> tuple[Token, ...]:
        """The same tokens as one Token per row, built on first access."""
        # tuple.__new__ builds a Token without NamedTuple's Python-level __new__
        rows = zip(self.texts, self.starts, self.ends)
        return tuple(map(tuple.__new__, repeat(Token), rows))


def _split(text: str) -> tuple[str, list[str]]:
    """(probe, parts): the probe cut into [gap, token, gap, ..., token, gap].

    The probe is text itself unless text holds non-ASCII punctuation, which
    the probe swaps for _PROBE_PUNCT. Either way the parts have text's
    lengths, and the gaps, being whitespace, are text's own.
    """
    probe = text
    if not text.isascii():
        for c in set(text) - _ASCII_SET:
            if unicodedata.category(c).startswith("P"):
                probe = probe.replace(c, _PROBE_PUNCT)
    return probe, _TOKEN_RE.split(probe)


def count_tokens(text: str) -> int:
    """len(tokenize(text)), without building the tokens."""
    return len(_split(text)[1]) // 2


def tokenize(text: str) -> TokenizedCaption:
    """Split text into word-level tokens with exact code-point offsets.

    Deterministic: whitespace split, then leading/trailing punctuation
    characters become their own tokens. Concatenating token texts with the
    original inter-token whitespace reconstructs the source exactly.
    """
    probe, parts = _split(text)
    offsets = tuple(accumulate(map(len, parts)))
    starts, ends = offsets[:-1:2], offsets[1::2]
    if probe is text:
        texts = tuple(parts[1::2])
    else:
        texts = tuple(map(text.__getitem__, map(slice, starts, ends)))
    return TokenizedCaption(text, texts, starts, ends)


def ends_sentence(tc: TokenizedCaption, i: int) -> bool:
    """Whether a sentence boundary follows token i: texts[i] is '.', '!' or
    '?' and either i is the last token or token i + 1 starts after a gap
    with a character that isupper(). The one boundary rule."""
    texts = tc.texts
    if texts[i] not in _TERMINATORS:
        return False
    return i + 1 == len(texts) or (tc.starts[i + 1] > tc.ends[i] and texts[i + 1][0].isupper())


def split_sentences(tc: TokenizedCaption) -> tuple[int, ...]:
    """Segment a tokenized caption into sentences, returned as the end token
    index of each, in order: with those ends e, sentence i is the tokens
    [e[i - 1], e[i]), the first starts at 0 and the last ends at len(tc).

    A boundary follows each token ends_sentence() accepts. Trailing material
    without a terminator forms a final sentence.
    """
    n = len(tc)
    cuts = [i + 1 for i in range(n) if ends_sentence(tc, i)]
    if n and (not cuts or cuts[-1] < n):
        cuts.append(n)
    return tuple(cuts)

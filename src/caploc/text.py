"""Deterministic, offset-preserving tokenization and sentence segmentation.

Tokens are word-level: input is split on Unicode whitespace, then leading and
trailing punctuation characters (Unicode categories P*) are detached as
separate single-character tokens. Internal punctuation (hyphens, apostrophes,
version dots) stays attached. Gold annotations are stored as indices into this
token sequence, so any rule change here must bump TOKENIZER_VERSION.

count_tokens() and tokenize() share one span rule, _char_spans. count_tokens()
only counts the spans, for callers such as validation that need the length
alone; tokenize() builds a Token for each. Token is a NamedTuple: a long
caption has hundreds of tokens, and tuples are much cheaper to build than
frozen dataclass instances.
"""

from __future__ import annotations

import unicodedata
from dataclasses import dataclass, field
from typing import NamedTuple

TOKENIZER_VERSION = "dvb-tok/1"

_TERMINATORS = (".", "!", "?")


def _is_punct(ch: str) -> bool:
    return unicodedata.category(ch).startswith("P")


def _utf8_len(ch: str) -> int:
    cp = ord(ch)
    if cp < 0x80:
        return 1
    if cp < 0x800:
        return 2
    if cp < 0x10000:
        return 3
    return 4


class Token(NamedTuple):
    """One token with byte offsets into the UTF-8 encoding of the source.

    char_start/char_end are the corresponding code-point offsets, kept so the
    source string can be sliced without re-encoding.
    """

    text: str
    byte_start: int
    byte_end: int
    index: int
    char_start: int
    char_end: int


@dataclass(frozen=True)
class TokenizedCaption:
    source: str
    tokens: tuple[Token, ...]

    def __len__(self) -> int:
        return len(self.tokens)

    def texts(self) -> tuple[str, ...]:
        return tuple(t.text for t in self.tokens)


@dataclass(frozen=True)
class Sentence:
    """A sentence as byte range plus the contiguous token index range it owns."""

    byte_start: int
    byte_end: int
    token_start: int
    token_end: int

    @property
    def token_indices(self) -> range:
        return range(self.token_start, self.token_end)


@dataclass(frozen=True)
class SentenceIndex:
    sentences: tuple[Sentence, ...] = field(default_factory=tuple)

    def __len__(self) -> int:
        return len(self.sentences)


def _char_spans(text: str) -> list[tuple[int, int]]:
    """Code-point [start, end) of every token of text, in order."""
    spans: list[tuple[int, int]] = []
    append = spans.append
    find = text.find
    end = 0
    # str.split() splits on exactly the str.isspace() characters; only
    # whitespace lies between the previous chunk and this one, so find()
    # from the previous end lands on this chunk's own position
    for chunk in text.split():
        start = find(chunk, end)
        end = start + len(chunk)
        # no isalnum() character is punctuation, so a chunk with alphanumeric
        # ends has nothing to detach and needs no unicodedata lookup
        if chunk[0].isalnum() and chunk[-1].isalnum():
            append((start, end))
            continue
        i, j = 0, len(chunk)
        while i < j and _is_punct(chunk[i]):
            append((start + i, start + i + 1))
            i += 1
        k = j
        while k > i and _is_punct(chunk[k - 1]):
            k -= 1
        if k > i:
            append((start + i, start + k))
        for t in range(start + k, end):
            append((t, t + 1))
    return spans


def count_tokens(text: str) -> int:
    """len(tokenize(text)), without building the tokens."""
    return len(_char_spans(text))


def tokenize(text: str) -> TokenizedCaption:
    """Split text into word-level tokens with exact byte offsets.

    Deterministic: whitespace split, then leading/trailing punctuation
    characters become their own tokens. Concatenating token texts with the
    original inter-token bytes reconstructs the source exactly.
    """
    spans = _char_spans(text)
    new = tuple.__new__  # builds a Token without NamedTuple's Python-level __new__
    if text.isascii():
        tokens = tuple(
            [new(Token, (text[cs:ce], cs, ce, idx, cs, ce)) for idx, (cs, ce) in enumerate(spans)]
        )
    else:
        byte_at = [0] * (len(text) + 1)
        acc = 0
        for pos, ch in enumerate(text):
            acc += _utf8_len(ch)
            byte_at[pos + 1] = acc
        tokens = tuple(
            [
                new(Token, (text[cs:ce], byte_at[cs], byte_at[ce], idx, cs, ce))
                for idx, (cs, ce) in enumerate(spans)
            ]
        )
    return TokenizedCaption(source=text, tokens=tokens)


def _is_boundary_after(src: str, pos: int) -> bool:
    """Whether a terminator that ends at code point pos ends a sentence."""
    n = len(src)
    saw_space = False
    while pos < n and src[pos].isspace():
        saw_space = True
        pos += 1
    if pos >= n:
        return True
    return saw_space and src[pos].isupper()


def split_sentences(tc: TokenizedCaption) -> SentenceIndex:
    """Segment a tokenized caption into sentences.

    A boundary falls after a token ending with '.', '!' or '?' when the
    source continues with whitespace and an uppercase letter, or ends there.
    Trailing material without a terminator forms a final sentence.
    """
    if not tc.tokens:
        return SentenceIndex()
    sentences: list[Sentence] = []
    start = 0
    src = tc.source
    for i, tok in enumerate(tc.tokens):
        if tok.text.endswith(_TERMINATORS) and _is_boundary_after(src, tok.char_end):
            sentences.append(
                Sentence(
                    byte_start=tc.tokens[start].byte_start,
                    byte_end=tok.byte_end,
                    token_start=start,
                    token_end=i + 1,
                )
            )
            start = i + 1
    if start < len(tc.tokens):
        sentences.append(
            Sentence(
                byte_start=tc.tokens[start].byte_start,
                byte_end=tc.tokens[-1].byte_end,
                token_start=start,
                token_end=len(tc.tokens),
            )
        )
    return SentenceIndex(tuple(sentences))

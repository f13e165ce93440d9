"""Differential tests of the tokenizer and the tag aligner against the
straightforward implementations they replaced, kept here as oracles.

The oracles are the reference semantics: any speed-up of tokenize,
marked_token_indices or align_to_reference must agree with them on every
token field and every Prediction.
"""

from __future__ import annotations

import re
import sys
import unicodedata
from dataclasses import dataclass

from hypothesis import given, settings, strategies as st

from caploc.diffannot import KEEP, diff_tokens
from caploc.tagproto import (
    CLOSE_TAG,
    OPEN_TAG,
    Prediction,
    align_to_reference,
    marked_token_indices,
    parse_tags,
)
from caploc.text import TokenizedCaption, count_tokens, tokenize

# ---------------------------------------------------------------- oracles

_CHUNK_RE = re.compile(r"\S+")


def _oracle_is_punct(ch: str) -> bool:
    return unicodedata.category(ch).startswith("P")


def _oracle_utf8_len(ch: str) -> int:
    cp = ord(ch)
    if cp < 0x80:
        return 1
    if cp < 0x800:
        return 2
    if cp < 0x10000:
        return 3
    return 4


@dataclass(frozen=True)
class OracleToken:
    text: str
    byte_start: int
    byte_end: int
    index: int
    char_start: int
    char_end: int


def oracle_tokenize(text: str) -> TokenizedCaption:
    spans: list[tuple[int, int]] = []
    for m in _CHUNK_RE.finditer(text):
        start = m.start()
        chunk = m.group()
        i, j = 0, len(chunk)
        while i < j and _oracle_is_punct(chunk[i]):
            spans.append((start + i, start + i + 1))
            i += 1
        k = j
        while k > i and _oracle_is_punct(chunk[k - 1]):
            k -= 1
        if k > i:
            spans.append((start + i, start + k))
        for t in range(k, j):
            spans.append((start + t, start + t + 1))

    if text.isascii():
        tokens = tuple(
            OracleToken(text[cs:ce], cs, ce, idx, cs, ce)
            for idx, (cs, ce) in enumerate(spans)
        )
    else:
        byte_at = [0] * (len(text) + 1)
        acc = 0
        for pos, ch in enumerate(text):
            acc += _oracle_utf8_len(ch)
            byte_at[pos + 1] = acc
        tokens = tuple(
            OracleToken(text[cs:ce], byte_at[cs], byte_at[ce], idx, cs, ce)
            for idx, (cs, ce) in enumerate(spans)
        )
    return TokenizedCaption(source=text, tokens=tokens)


def oracle_marked_token_indices(tc, ranges) -> set[int]:
    marked: set[int] = set()
    for tok in tc.tokens:
        for r_start, r_end in ranges:
            if tok.byte_start < r_end and r_start < tok.byte_end:
                marked.add(tok.index)
                break
    return marked


def oracle_align_to_reference(stripped, marked_ranges, ref) -> Prediction:
    ranges = tuple(marked_ranges)
    out_tc = oracle_tokenize(stripped)
    if out_tc.texts() == ref.texts():
        return Prediction(
            indices=frozenset(oracle_marked_token_indices(out_tc, ranges)),
            faithful=True,
            alignment_coverage=1.0,
        )
    marked_out = oracle_marked_token_indices(out_tc, ranges)
    script = diff_tokens(out_tc, ref)
    indices: set[int] = set()
    aligned = 0
    for op in script.ops:
        if op.kind != KEEP:
            continue
        aligned += op.g_end - op.g_start
        for offset in range(op.g_end - op.g_start):
            if op.g_start + offset in marked_out:
                indices.add(op.c_start + offset)
    if len(out_tc) > 0:
        coverage = aligned / len(out_tc)
    else:
        coverage = 1.0 if len(ref) == 0 else 0.0
    return Prediction(indices=frozenset(indices), faithful=False, alignment_coverage=coverage)


# ---------------------------------------------------------------- inputs

# ASCII and Unicode punctuation (P*), symbols (S*, must stay attached),
# multibyte letters, digits and marks, and ASCII and Unicode whitespace
PUNCT = list(".,;:!?\"'()-_") + ["«", "»", "—", "。", "！", "？", "、"]
SYMBOLS = ["$", "+", "=", "<", ">", "^", "€", "©", "°"]
LETTERS = list("abcXYZ") + ["é", "ß", "ж", "Ω", "漢", "字", "𝔸", "ǅ"]
DIGITS = list("0129") + ["٣", "１", "²", "½", "Ⅻ"]
MARKS = ["\u0301", "\u200d"]  # combining acute accent, zero-width joiner
SPACES = [" ", "\u3000", "\u00a0", "\u2009", "\t", "\n"]

chars = st.sampled_from(PUNCT + SYMBOLS + LETTERS + DIGITS + MARKS + SPACES)
texts = st.text(chars, max_size=60)
# longer words and spaces, closer to real captions
words = st.text(st.sampled_from(LETTERS + DIGITS + PUNCT + SYMBOLS), min_size=1, max_size=8)
captions = st.lists(
    st.tuples(words, st.sampled_from(SPACES)), max_size=25
).map(lambda parts: "".join(w + s for w, s in parts))
any_caption = st.one_of(texts, captions)


def token_fields(tc) -> list[tuple]:
    return [
        (t.text, t.byte_start, t.byte_end, t.index, t.char_start, t.char_end)
        for t in tc.tokens
    ]


@st.composite
def tagged(draw, text_strategy=any_caption):
    """(caption, raw output): the caption with tags inserted at arbitrary
    code-point positions, so regions may start or end inside a token."""
    caption = draw(text_strategy)
    cuts = sorted(draw(st.lists(st.integers(0, len(caption)), max_size=6)))
    out, pos = [], 0
    for n, cut in enumerate(cuts):
        out.append(caption[pos:cut])
        out.append(OPEN_TAG if n % 2 == 0 else CLOSE_TAG)
        pos = cut
    out.append(caption[pos:])
    return caption, "".join(out)


def byte_ranges(limit: int):
    """Unsorted, overlapping, zero-width and out-of-bounds byte ranges."""
    bound = st.integers(-2, limit + 2)
    return st.lists(st.tuples(bound, bound), max_size=6).map(tuple)


# ---------------------------------------------------------------- tests


@settings(max_examples=300, deadline=None)
@given(any_caption)
def test_tokenize_matches_oracle(text):
    got, want = tokenize(text), oracle_tokenize(text)
    assert got.source == want.source
    assert token_fields(got) == token_fields(want)
    assert count_tokens(text) == len(want)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_marked_token_indices_matches_oracle(data):
    text = data.draw(any_caption)
    ranges = data.draw(byte_ranges(len(text.encode("utf-8"))))
    assert marked_token_indices(tokenize(text), ranges) == oracle_marked_token_indices(
        oracle_tokenize(text), ranges
    )


@settings(max_examples=200, deadline=None)
@given(tagged())
def test_align_matches_oracle_on_tagged_echo(case):
    caption, raw = case
    parsed = parse_tags(raw)
    assert parsed.stripped == caption
    got = align_to_reference(parsed.stripped, parsed.marked_ranges, tokenize(caption))
    want = oracle_align_to_reference(
        parsed.stripped, parsed.marked_ranges, oracle_tokenize(caption)
    )
    assert got == want


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_align_matches_oracle_on_raw_ranges(data):
    """Ranges straight from the strategy, not from parse_tags, on the
    byte-identical, whitespace-changed and edited paths."""
    caption = data.draw(any_caption)
    output = data.draw(
        st.one_of(
            st.just(caption),
            st.just(" ".join(caption.split())),
            st.just(caption + " more"),
            st.just(caption[: len(caption) // 2]),
            any_caption,
        )
    )
    ranges = data.draw(byte_ranges(len(output.encode("utf-8"))))
    got = align_to_reference(output, ranges, tokenize(caption))
    want = oracle_align_to_reference(output, ranges, oracle_tokenize(caption))
    assert got == want


@settings(max_examples=150, deadline=None)
@given(tagged(captions), st.sampled_from(["drop", "insert", "spaces"]))
def test_align_matches_oracle_on_edited_output(case, edit):
    caption, raw = case
    if edit == "drop":
        raw = raw.replace(" ", "", 1)
    elif edit == "insert":
        raw = "new " + raw
    else:
        raw = raw.replace(" ", "  ")
    parsed = parse_tags(raw)
    got = align_to_reference(parsed.stripped, parsed.marked_ranges, tokenize(caption))
    want = oracle_align_to_reference(
        parsed.stripped, parsed.marked_ranges, oracle_tokenize(caption)
    )
    assert got == want


def test_token_repr_and_fields_unchanged():
    tok = tokenize("a").tokens[0]
    assert tok._fields == ("text", "byte_start", "byte_end", "index", "char_start", "char_end")
    assert repr(tok) == repr(oracle_tokenize("a").tokens[0]).replace("OracleToken", "Token")


def test_no_alphanumeric_code_point_is_punctuation():
    """tokenize skips the category lookup for chunks with alphanumeric ends;
    that is exact only while no isalnum() character is in a P* category."""
    offenders = [
        hex(cp)
        for cp in range(sys.maxunicode + 1)
        if chr(cp).isalnum() and unicodedata.category(chr(cp)).startswith("P")
    ]
    assert offenders == []


def test_str_split_whitespace_is_regex_whitespace():
    """tokenize finds chunks with str.split(); the oracle with the regex \\S+.
    They agree only while both split on the same code points."""
    space = re.compile(r"\s")
    offenders = [
        hex(cp)
        for cp in range(sys.maxunicode + 1)
        if (space.fullmatch(chr(cp)) is not None) != (len(f"a{chr(cp)}b".split()) == 2)
    ]
    assert offenders == []

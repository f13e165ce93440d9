"""Inline tag protocol for marking hallucinated spans in caption text.

Spans are wrapped in the literal tags <HALLUCINATION> and </HALLUCINATION>,
matched exactly and case-sensitively. Parsing works on the str, and its
marked ranges are code-point ranges into the tag-stripped text, the unit of
TokenizedCaption.starts/ends. It never fails: malformed tagging is repaired
deterministically and recorded as a status instead.
"""

from __future__ import annotations

import re
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate

from .corpus import CLOSE_TAG, OPEN_TAG, HallucinationSpan
from .diffannot import diff_tokens
from .text import TokenizedCaption, tokenize

# neither tag can overlap an occurrence of itself or of the other, so a
# left-to-right split finds every occurrence of each
_TAG_RE = re.compile(f"({re.escape(OPEN_TAG)}|{re.escape(CLOSE_TAG)})")


@dataclass(frozen=True)
class ParsedOutput:
    """Tag-stripped text, the code-point ranges of it that were inside
    tags, and the parse status: "ok", "malformed_tags" or "empty"."""

    stripped: str
    marked_ranges: tuple[tuple[int, int], ...]
    status: str


@dataclass(frozen=True)
class Prediction:
    """Predicted hallucinated token indices against a reference caption."""

    indices: frozenset[int]
    faithful: bool
    alignment_coverage: float


def serialize_tags(c: TokenizedCaption, spans: list[HallucinationSpan]) -> str:
    """Wrap each span's tokens in tags, leaving all other text untouched."""
    n = len(c)
    prev_end = 0
    for i, span in enumerate(spans):
        if not (0 <= span.start < span.end <= n):
            raise ValueError(f"serialize_tags: span {i} [{span.start}, {span.end}) invalid for {n} tokens")
        if span.start < prev_end:
            raise ValueError(f"serialize_tags: span {i} overlaps or is out of order")
        prev_end = span.end
    out: list[str] = []
    pos = 0
    for span in spans:
        open_at = c.starts[span.start]
        close_at = c.ends[span.end - 1]
        out.append(c.source[pos:open_at])
        out.append(OPEN_TAG)
        out.append(c.source[open_at:close_at])
        out.append(CLOSE_TAG)
        pos = close_at
    out.append(c.source[pos:])
    return "".join(out)


def parse_tags(text: str) -> ParsedOutput:
    """Strip tags, returning the plain text and the code-point ranges that
    were inside them.

    Repair rules for malformed tagging, applied deterministically: an open tag
    with no close extends to the end of the text; a close tag with no open is
    dropped; a nested open is dropped while the outer region stays open. Any
    repair sets status to malformed_tags. Zero-width regions are discarded.
    """
    # even parts are text, odd parts are tags
    parts = _TAG_RE.split(text)
    texts = parts[::2]
    stripped = "".join(texts)
    ranges: list[tuple[int, int]] = []
    malformed = False
    depth = 0
    region_start = 0
    # at: the offset in stripped where the tag stood
    for at, tag in zip(accumulate(map(len, texts)), parts[1::2]):
        if tag == OPEN_TAG:
            if depth == 0:
                region_start = at
            else:
                malformed = True
            depth += 1
        else:
            if depth == 0:
                malformed = True
            else:
                depth -= 1
                if depth == 0 and at > region_start:
                    ranges.append((region_start, at))
    if depth > 0:
        malformed = True
        if len(stripped) > region_start:
            ranges.append((region_start, len(stripped)))

    if malformed:
        status = "malformed_tags"
    elif not stripped.strip():
        status = "empty"
    else:
        status = "ok"
    return ParsedOutput(stripped=stripped, marked_ranges=tuple(ranges), status=status)


def marked_token_indices(
    tc: TokenizedCaption, ranges: tuple[tuple[int, int], ...]
) -> set[int]:
    """Indices of the tokens of tc that overlap any code-point range
    [r_start, r_end).

    A token partially covered by a range counts as marked. Tokens are sorted
    and disjoint, so the tokens overlapping one range are those ending after
    r_start and starting before r_end: a contiguous run found by bisection.
    Ranges may be unsorted, overlapping or empty.
    """
    starts, ends = tc.starts, tc.ends
    marked: set[int] = set()
    for r_start, r_end in ranges:
        marked.update(range(bisect_right(ends, r_start), bisect_left(starts, r_end)))
    return marked


def align_to_reference(
    stripped: str,
    marked_ranges: tuple[tuple[int, int], ...] | list[tuple[int, int]],
    ref: TokenizedCaption,
) -> Prediction:
    """Map marked code-point ranges of stripped onto reference token indices.

    An output identical to the reference source maps onto
    ref's own tokens without being tokenized again. Any other output is
    tokenized and aligned to the reference by the same diff engine used for
    gold annotation; marks on tokens the alignment cannot place are
    dropped. The output is faithful when the alignment keeps every token on
    both sides (its token sequence equals the reference's). Coverage is the
    fraction of output tokens the alignment placed; an empty output against
    a non-empty reference counts as zero coverage.
    """
    ranges = tuple(marked_ranges)
    if stripped == ref.source:
        return Prediction(
            indices=frozenset(marked_token_indices(ref, ranges)),
            faithful=True,
            alignment_coverage=1.0,
        )
    out_tc = tokenize(stripped)
    marked_out = marked_token_indices(out_tc, ranges)
    kept = diff_tokens(out_tc, ref).kept
    if len(out_tc) > 0:
        coverage = len(kept) / len(out_tc)
    else:
        coverage = 1.0 if len(ref) == 0 else 0.0
    return Prediction(
        indices=frozenset(kept[g] for g in marked_out if g in kept),
        faithful=len(kept) == len(out_tc) == len(ref),
        alignment_coverage=coverage,
    )

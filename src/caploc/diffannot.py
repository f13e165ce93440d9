"""Gold-span derivation: diff a generated caption against its corrected form.

The diff is a minimal edit script under an LCS objective on token texts.
Every generated-side token that a corrector replaced or deleted is marked
hallucinated; runs of marked tokens merge into spans. Pure insertions (words
the corrector added with no counterpart) anchor to the preceding token so the
mark stays token-indexable.

The diff is exact. It keeps the common prefix, and two bit-parallel passes
(Hyyro 2004) over the rest give the LCS length of every prefix and suffix
of either side, the values Hirschberg's (1975) divide and conquer splits
on. From them it finds the forced keeps, token pairs that every LCS
alignment keeps, and splits there. Each segment between forced keeps is
diffed on its own by a dynamic program filled only on the diagonals an
optimal alignment can reach (Myers 1986). Local edits in a long caption
leave short segments, so such a diff costs about 2m big-int steps and
O(m + n) Python steps. An output with little in common with its reference
has no forced keeps; with D the number of tokens not kept on either side,
it costs about O(m + n + (m+n)*D) instead of O(m*n).
"""

from __future__ import annotations

import re
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import accumulate

from .corpus import Dimension, HallucinationSpan
from .text import TokenizedCaption

KEEP = "keep"
REPLACE = "replace"
DELETE = "delete"
INSERT = "insert"


@dataclass(frozen=True)
class EditOp:
    """One edit over token ranges of g (generated) and c (corrected).

    keep/replace carry both ranges; delete has an empty c-range at the current
    c position; insert has an empty g-range at the g position the new tokens
    land in front of.
    """

    kind: str
    g_start: int
    g_end: int
    c_start: int
    c_end: int


@dataclass(frozen=True)
class EditScript:
    ops: tuple[EditOp, ...]
    g_len: int
    c_len: int

    def kept(self) -> dict[int, int]:
        """g index -> c index of every token a KEEP op aligns, in g order:
        the one map from output to reference tokens. Both sides strictly
        increase, and its size is the LCS length."""
        out: dict[int, int] = {}
        for op in self.ops:
            if op.kind == KEEP:
                out.update(zip(range(op.g_start, op.g_end), range(op.c_start, op.c_end)))
        return out


def runs(indices: set[int]) -> list[tuple[int, int]]:
    """The maximal runs [a, b) of consecutive integers in indices, in order."""
    out: list[tuple[int, int]] = []
    for i in sorted(indices):
        if out and i == out[-1][1]:
            out[-1] = (out[-1][0], i + 1)
        else:
            out.append((i, i + 1))
    return out


_NEG = -(1 << 60)
_RUNS = re.compile("k+|[gc]+")  # a run of keeps, or one gap block


def _prefix_lcs(a: Sequence[str], b: Sequence[str]) -> tuple[list[int], list[int]]:
    """[LCS(a[:i], b) for i in 0..len(a)] and [LCS(a, b[:j]) for j in 0..len(b)].

    Bit-parallel row recurrence (Allison & Dix 1986; Hyyro 2004): bit j of
    v is set while b[j] is not yet matched, and each a token advances the
    whole row in a few big-int operations. After a[:i] the zero bits of v
    count LCS(a[:i], b); after all of a, the zero bits below bit j count
    LCS(a, b[:j]).
    """
    masks: dict[str, int] = {}
    for j, text in enumerate(b):
        masks[text] = masks.get(text, 0) | (1 << j)
    n = len(b)
    full = (1 << n) - 1
    v = full
    rows = [0]
    for text in a:
        mask = masks.get(text)
        if mask:
            u = v & mask
            v = ((v + u) | (v - u)) & full
        rows.append(n - v.bit_count())
    # the matched (zero) bits of v as a 0/1 string, bit 0 first
    matched = bin((full ^ v) | (1 << n))[:2:-1]
    return rows, [0, *accumulate(map(int, matched))]


def _lcs_profiles(
    a: Sequence[str], b: Sequence[str]
) -> tuple[list[int], list[int], list[int], list[int]]:
    """LCS(a[:i], b), LCS(a[i:], b), LCS(a, b[:j]) and LCS(a, b[j:]) for
    every i and j, from one forward and one reversed bit-parallel pass."""
    rows, cols = _prefix_lcs(a, b)
    rev_rows, rev_cols = _prefix_lcs(a[::-1], b[::-1])
    return rows, rev_rows[::-1], cols, rev_cols[::-1]


def _forced(before: list[int], after: list[int], total: int) -> dict[int, int]:
    """k -> x for each token x that every LCS alignment keeps as its keep
    number k (from 0), given the LCS lengths before and after each cut.

    An LCS alignment keeps `total` tokens: at most before[x] of them ahead
    of cut x and at most after[x] behind it. So where before[x] + after[x]
    == total (the cut is pinned) it keeps exactly before[x] ahead. Two
    pinned cuts one token apart whose counts differ by one force that token.
    """
    pinned = [x + y == total for x, y in zip(before, after)]
    return {
        k: x
        for x, (k, k_next, pin, pin_next) in enumerate(
            zip(before, before[1:], pinned, pinned[1:])
        )
        if pin and pin_next and k != k_next
    }


def _band_steps(gt: Sequence[str], ct: Sequence[str], kept: int) -> str:
    """The steps ("k" keep, "g" consume g, "c" consume c) of the optimal
    alignment of gt and ct under diff_tokens' objective and tie-break,
    starting after a keep, given their LCS length.

    Every optimal alignment keeps `kept` tokens, so it takes m-kept g-steps
    and n-kept c-steps and stays on the diagonals i-j in [-(n-kept),
    m-kept]; only that band is filled. Banded values never exceed the true
    ones and equal them on every optimal path, so the traceback takes the
    same steps as over the full table.
    """
    m, n = len(gt), len(ct)
    w = m + n + 2  # one kept token outweighs any possible block count
    lo, hi = m - kept, n - kept  # the band is -hi <= i - j <= lo
    rct = ct[::-1]

    # value = w * kept - blocks over the suffix (i:, j:), maximized.
    # vk: previous op was a keep (or the start), so a gap move opens a block;
    # vg: already inside a gap, so a gap move continues it for free.
    # Row i holds the band's cells from j = top[i] - 1 down to max(0, i - lo)
    # at indices 1, 2, ..., between two _NEG pads, so cell (i, j) sits at
    # index top[i] - j and a cell outside the band reads a pad. Clipping
    # rows at j = n keeps them within the full table when one side is long.
    top = [min(n, i + hi) + 1 for i in range(m + 2)]
    vk: list[list[int]] = [[]] * (m + 1)
    vg: list[list[int]] = [[]] * (m + 1)
    # row m: the rest of c in one gap, from j = n down to j = kept
    row_k = [_NEG, 0] + [-1] * (n - kept) + [_NEG]
    row_g = [_NEG] + [0] * (n - kept + 1) + [_NEG]
    vk[m], vg[m] = row_k, row_g
    for i in range(m - 1, -1, -1):
        below_k, below_g = row_k, row_g
        t, low = top[i], max(0, i - lo)
        row_k, row_g = [_NEG] * (t - low + 2), [_NEG] * (t - low + 2)
        # left carries vg of the cell just filled, (i, j+1)
        first, left = 1, _NEG
        if t > n:  # cell (i, n): the rest of g in one gap
            row_k[1], row_g[1] = -1, 0
            first, left = 2, 0
        d = top[i + 1] - t - 1  # (i+1, j+1) sits at index x + d of row i+1
        gi = gt[i]
        for x, cj in enumerate(rct[n - 1 - t + first : n - low], first):
            y = x + d
            keep_val = w + below_k[y] if gi == cj else _NEG
            gap_below = below_g[y + 1]
            gap_best = gap_below if gap_below >= left else left
            left = keep_val if keep_val >= gap_best else gap_best
            row_g[x] = left
            gap_open = gap_best - 1
            row_k[x] = keep_val if keep_val >= gap_open else gap_open
        vk[i], vg[i] = row_k, row_g

    steps: list[str] = []
    i = j = 0
    entered = True
    while i < m or j < n:
        x, y = top[i] - j, top[i + 1] - j
        cur = vk[i][x] if entered else vg[i][x]
        if i < m and j < n and gt[i] == ct[j] and cur == w + vk[i + 1][y - 1]:
            steps.append("k")
            i += 1
            j += 1
            entered = True
            continue
        open_cost = 1 if entered else 0
        if i < m and cur == vg[i + 1][y] - open_cost:
            steps.append("g")
            i += 1
        else:
            steps.append("c")
            j += 1
        entered = False
    return "".join(steps)


def diff_tokens(g: TokenizedCaption, c: TokenizedCaption) -> EditScript:
    """Minimal token-level edit script turning g into c.

    Primary objective: a maximum number of kept tokens (an LCS alignment).
    Among maximum alignments the one with the fewest gap blocks (maximal runs
    of non-keep edits) wins; an alignment that grabs the wrong partner among
    repeated words needs an extra block, so this keeps aligned runs contiguous
    and avoids insert ops that would mark an innocent neighboring token.
    Remaining ties resolve by a fixed forward preference (keep, then consume
    g, then consume c), making the output deterministic.

    The common prefix is kept outright: a keep is always optimal there and
    preferred first, and every value is a suffix value, so the rest diffs
    alone. (A common suffix cannot be trimmed that way: the forward
    tie-break reads the suffix.) Two bit-parallel passes over the rest give
    the LCS length of every prefix and suffix of either side (the values
    Hirschberg's divide and conquer splits on), and from them the forced
    keeps: token pairs that every LCS alignment keeps. Block counts add up
    across a keep, and every optimal path runs through a forced keep, so
    the traceback's first-equal choices on each side of one depend only on
    that side: the segments between forced keeps are diffed on their own
    by the banded dynamic program (_band_steps) and joined with keeps.

    Cost: 2m big-int steps on n-bit integers and O(m + n) Python steps for
    the profiles, plus about (a+b)*d band cells for each segment of a and
    b tokens with d of them not kept. Local edits in a long caption leave
    small segments; an output that shares little with its reference has no
    forced keeps and fills one band of about (m+n)*D cells, with D the
    tokens not kept on either side.
    """
    p = 0
    for gp, cp in zip(g.texts, c.texts):
        if gp != cp:
            break
        p += 1
    gt, ct = g.texts[p:], c.texts[p:]
    m, n = len(gt), len(ct)
    rows_before, rows_after, cols_before, cols_after = _lcs_profiles(gt, ct)
    g_forced = _forced(rows_before, rows_after, rows_before[m])
    c_forced = _forced(cols_before, cols_after, rows_before[m])

    # forced keeps as (g, c) pairs, in order; (m, n) closes the last segment
    pairs = [(i, c_forced[k]) for k, i in g_forced.items() if k in c_forced]
    parts: list[str] = []
    done = 0  # g tokens covered by the parts so far
    for (i0, j0), (i, j) in zip([(-1, -1), *pairs], [*pairs, (m, n)]):
        i0, j0 = i0 + 1, j0 + 1
        if i > i0 or j > j0:
            parts.append("k" * (i0 - done))  # the forced keeps since the last segment
            parts.append(_band_steps(gt[i0:i], ct[j0:j], rows_before[i] - rows_before[i0]))
            done = i
    parts.append("k" * (m - done))

    # the rest starts with a gap, so the prefix is one KEEP op of its own
    ops: list[EditOp] = [EditOp(KEEP, 0, p, 0, p)] if p else []
    i = j = p
    for run in _RUNS.findall("".join(parts)):
        if run[0] == "k":
            ops.append(EditOp(KEEP, i, i + len(run), j, j + len(run)))
            i, j = i + len(run), j + len(run)
            continue
        dg = run.count("g")
        dc = len(run) - dg
        if dg and dc:
            ops.append(EditOp(REPLACE, i, i + dg, j, j + dc))
        elif dg:
            ops.append(EditOp(DELETE, i, i + dg, j, j))
        else:
            ops.append(EditOp(INSERT, i, i, j, j + dc))
        i, j = i + dg, j + dc
    return EditScript(ops=tuple(ops), g_len=p + m, c_len=p + n)


def extract_gold_spans(script: EditScript) -> list[HallucinationSpan]:
    """Mark hallucinated g tokens from an edit script and merge into spans.

    Replace and delete ranges are marked directly. An insert marks the g token
    just before the insertion point, or token 0 for an insertion at the start;
    with an empty g there is nothing to mark. Dimension defaults to `other`
    until a labeling pass assigns real categories.
    """
    marked: set[int] = set()
    for op in script.ops:
        if op.kind in (REPLACE, DELETE):
            marked.update(range(op.g_start, op.g_end))
        elif op.kind == INSERT and script.g_len > 0:
            marked.add(op.g_start - 1 if op.g_start > 0 else 0)
    return [HallucinationSpan(a, b, Dimension.OTHER.value) for a, b in runs(marked)]


def label_spans(
    spans: list[HallucinationSpan], labels: list[Dimension | str]
) -> list[HallucinationSpan]:
    """Pair each span with its category, preserving order."""
    if len(spans) != len(labels):
        raise ValueError(
            f"label_spans: {len(spans)} spans but {len(labels)} labels"
        )
    return [
        HallucinationSpan(s.start, s.end, str(Dimension(label).value))
        for s, label in zip(spans, labels)
    ]

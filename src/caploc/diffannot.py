"""Gold-span derivation: diff a generated caption against its corrected form.

The diff is a minimal edit script under an LCS objective on token texts. Its
one result is the keep chain: each kept g (generated) token's c (corrected)
index, in g order. The blocks between consecutive keeps are its gaps, each
one replace (tokens on both sides), delete (g tokens only) or insert (c
tokens only). Every g token in a replace or delete gap is marked
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

from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from itertools import accumulate, chain

from .corpus import Dimension, HallucinationSpan
from .text import TokenizedCaption


@dataclass(frozen=True)
class EditScript:
    """The keep chain of a diff of g against c.

    kept maps each kept g index to its c index, in g order: the one map
    from output to reference tokens. Both sides strictly increase, and its
    size is the LCS length.
    """

    kept: dict[int, int]
    g_len: int
    c_len: int

    def gaps(self) -> Iterator[tuple[int, int, int, int]]:
        """(g_start, g_end, c_start, c_end) of each maximal block between
        two keeps, in order, with (-1, -1) and (g_len, c_len) as the ends.
        No gap is empty on both sides, and g_start == g_end is an insert in
        front of g token g_start."""
        i0 = j0 = -1
        for i, j in chain(self.kept.items(), ((self.g_len, self.c_len),)):
            if i > i0 + 1 or j > j0 + 1:
                yield i0 + 1, i, j0 + 1, j
            i0, j0 = i, j


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


def _band_keeps(gt: Sequence[str], ct: Sequence[str], kept: int) -> list[tuple[int, int]]:
    """The kept (i, j) pairs, in order, of the optimal alignment of gt and
    ct under diff_tokens' objective and tie-break, starting after a keep,
    given their LCS length.

    Every optimal alignment keeps `kept` tokens, so it takes m-kept g-steps
    and n-kept c-steps and stays on the diagonals i-j in [-(n-kept),
    m-kept]; only that band is filled. Banded values never exceed the true
    ones and equal them on every optimal path, so the traceback takes the
    same steps as over the full table. It stops at the last keep.
    """
    if not kept:
        return []
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

    keeps: list[tuple[int, int]] = []
    i = j = 0
    entered = True
    while len(keeps) < kept:  # so a keep lies ahead, and i < m and j < n
        x, y = top[i] - j, top[i + 1] - j
        cur = vk[i][x] if entered else vg[i][x]
        if gt[i] == ct[j] and cur == w + vk[i + 1][y - 1]:
            keeps.append((i, j))
            i += 1
            j += 1
            entered = True
            continue
        if cur == vg[i + 1][y] - (1 if entered else 0):
            i += 1
        else:
            j += 1
        entered = False
    return keeps


def diff_tokens(g: TokenizedCaption, c: TokenizedCaption) -> EditScript:
    """Minimal token-level edit script turning g into c, as its keep chain:
    kept maps each kept g index to its c index, and the gaps between keeps
    are the replace, delete and insert blocks.

    Primary objective: a maximum number of kept tokens (an LCS alignment).
    Among maximum alignments the one with the fewest gap blocks (maximal runs
    of non-keep edits) wins; an alignment that grabs the wrong partner among
    repeated words needs an extra block, so this keeps aligned runs contiguous
    and avoids insert gaps that would mark an innocent neighboring token.
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
    by the banded dynamic program (_band_keeps) and joined with keeps.

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

    # the prefix, then each segment's keeps and the forced keep that closes
    # it, in g order; (m, n) closes the last segment and is no keep
    kept = dict(zip(range(p), range(p)))
    pairs = [(i, c_forced[k]) for k, i in g_forced.items() if k in c_forced]
    for (i0, j0), (i, j) in zip([(-1, -1), *pairs], [*pairs, (m, n)]):
        i0, j0 = i0 + 1, j0 + 1
        if i > i0 or j > j0:
            segment = _band_keeps(gt[i0:i], ct[j0:j], rows_before[i] - rows_before[i0])
            kept.update((p + i0 + a, p + j0 + b) for a, b in segment)
        kept[p + i] = p + j
    del kept[p + m]
    return EditScript(kept=kept, g_len=p + m, c_len=p + n)


def extract_gold_spans(script: EditScript) -> list[HallucinationSpan]:
    """Mark hallucinated g tokens from an edit script and merge into spans.

    The g tokens of a gap (a replace or delete) are marked directly. A gap
    with no g tokens is an insert: it marks the g token just before the
    insertion point, or token 0 for an insertion at the start; with an empty
    g there is nothing to mark. Dimension defaults to `other` until a
    labeling pass assigns real categories.
    """
    marked: set[int] = set()
    for g_start, g_end, _, _ in script.gaps():
        if g_start < g_end:
            marked.update(range(g_start, g_end))
        elif script.g_len > 0:
            marked.add(max(g_start - 1, 0))
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

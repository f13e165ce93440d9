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
(Hyyro 2004) over the rest, one forward and one reversed, record where the
LCS of either side's prefixes and suffixes steps up, the values
Hirschberg's (1975) divide and conquer splits on. From them it finds the
forced keeps, token pairs that every LCS alignment keeps, and splits there.
Each run of other keeps is diffed on its own by a dynamic program filled
only on the diagonals an optimal alignment can reach (Myers 1986). The
reference's bit masks are built once and reused, and the reversed pass
starts after the common suffix. Local edits in a long caption leave short
runs, so diffing a reply against its clean caption costs about 2m big-int
steps and O(m + n) Python steps. An output with little in common with its
reference has no forced keeps; with D the number of tokens not kept on
either side, it costs about O(m + n + (m+n)*D) instead of O(m*n).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, compress, count
from operator import ne, or_

from .corpus import DIMENSION_VALUES, OTHER, HallucinationSpan
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


def runs(indices: Iterable[int]) -> list[tuple[int, int]]:
    """The maximal runs [a, b) of consecutive integers in indices, in order."""
    out: list[tuple[int, int]] = []
    for i in sorted(indices):
        if out and i == out[-1][1]:
            out[-1] = (out[-1][0], i + 1)
        else:
            out.append((i, i + 1))
    return out


_NEG = -(1 << 60)


@lru_cache(maxsize=4)
def _masks(texts: tuple[str, ...]) -> tuple[dict[str, int], dict[str, int]]:
    """The forward and reversed bit masks of a reference: bit j of the
    forward mask of a word is set where texts[j] is that word, and bit j of
    its reversed mask where texts[-1 - j] is. Built once per reference, so
    the injector's replies to one clean caption share them; every caller
    gets the same two dicts and only reads them."""
    last = len(texts) - 1
    fwd: dict[str, int] = {}
    rev: dict[str, int] = {}
    for j, text in enumerate(texts):
        fwd[text] = fwd.get(text, 0) | (1 << j)
        rev[text] = rev.get(text, 0) | (1 << (last - j))
    return fwd, rev


def _keep_steps(
    tokens: Iterable[tuple[int, str]], masks: dict[str, int], v: int, full: int
) -> tuple[list[int], int]:
    """The indices of the a tokens at which LCS(a[:i], b) steps up, and the
    final row, given (index, token) pairs of a in order and the masks of b.

    Bit-parallel row recurrence (Allison & Dix 1986; Hyyro 2004): bit j of
    v is set while b[j] is not yet matched, and each a token advances the
    whole row in a few big-int operations. full holds the bits of the b
    tokens the row spans, one run of them; v never holds a bit outside it,
    so the masks' other bits take no part. v starts at full, less the bits
    of b tokens already matched. LCS(a[:i], b), the zero bits of v within
    full, steps up exactly when v + u carries out of full's top bit. After
    all of a, those zero bits are where LCS(a, b[:j]) steps up.
    """
    steps: list[int] = []
    for i, text in tokens:
        mask = masks.get(text)
        if mask:
            u = v & mask
            w = v + u
            if w > full:
                steps.append(i)
            v = (w | (v - u)) & full
    return steps, v


_BIT = bytes.maketrans(b"01", b"\x00\x01")


def _set_bits(bits: str, start: int) -> list[int]:
    """start + t for each "1" at position t of a string of 0s and 1s."""
    return list(compress(count(start), bits.encode().translate(_BIT)))


def _band_keeps(gt: Sequence[str], ct: Sequence[str], kept: int) -> list[tuple[int, int]]:
    """The kept (i, j) pairs, in order, of the optimal alignment of gt and
    ct under diff_tokens' objective and tie-break, starting after a keep,
    given their LCS length.

    Every optimal alignment keeps `kept` tokens, so it takes m-kept g-steps
    and n-kept c-steps and stays on the diagonals i-j in [-(n-kept),
    m-kept]; only that band is filled. Banded values never exceed the true
    ones and equal them on every optimal path, so the traceback takes the
    same steps as over the full table. It stops at the last keep.

    Most runs are a replaced word or two between equal tokens, and need no
    table. After a keep, a common prefix of p tokens is kept outright, as
    in diff_tokens. If the last kept - p tokens of both sides agree, they
    are the other keeps: one gap block before them is the only alignment
    of the rest with that many keeps and a single block, and none has no
    block.
    """
    m, n = len(gt), len(ct)
    p = next(compress(count(), map(ne, gt, ct)), min(m, n))
    rest = kept - p
    if gt[m - rest :] == ct[n - rest :]:
        return [*zip(range(p), range(p)), *zip(range(m - rest, m), range(n - rest, n))]
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
    tie-break reads the suffix.) A forward bit-parallel pass over the rest
    gives the earliest g and c index of each keep number k (where LCS of
    the prefixes steps up to k + 1), and a reversed pass the latest (where
    LCS of the suffixes does). The reversed pass starts after the common
    suffix, whose row it knows: after s equal tokens the LCS has stepped up
    at each, and just the first s c tokens of the reversed rest are
    matched. Every LCS alignment makes its
    keep k between the earliest and the latest index on each side, so a
    keep whose two indices agree on both sides is forced: every LCS
    alignment keeps that pair. Block counts add up across a keep, and every
    optimal path runs through a forced keep, so the traceback's first-equal
    choices on each side of one depend only on that side: each run of keeps
    that are not forced is diffed on its own between its forced neighbours
    by the banded dynamic program (_band_keeps).

    c is the reference that many outputs are diffed against, such as the
    clean caption of every injector reply. Its bit masks are built once per
    token texts and kept in a small bounded memo (_masks).

    Cost, with m and n the token counts of g and c, p the common prefix
    and s the common suffix of the rest: one big-int step on (n - p)-bit
    integers for each of the m - p g tokens after the prefix and each of
    the m - p - s before the suffix; a few C-level scans of both sides; and
    O(m + n) Python steps for the keeps. Each run of keeps that are not
    forced adds about (a+b)*d band cells for a and b tokens with d of them
    not kept, or none when it is one replaced block between equal tokens.
    Local edits in a long caption leave small runs; an output that shares
    little with its reference has no forced keeps and fills one band of
    about (m+n)*D cells, with D the tokens not kept on either side. A memo
    miss adds O(n) big-int steps to build the masks.
    """
    gt, ct = g.texts, c.texts
    m, n = len(gt), len(ct)
    # the common prefix, then the common suffix of the rest, each ending at
    # the first unequal pair found by a C-level scan
    p = next(compress(count(), map(ne, gt, ct)), min(m, n))
    s = next(compress(count(), map(ne, reversed(gt[p:]), reversed(ct[p:]))), min(m, n) - p)
    fwd, rev = _masks(ct)
    width = n - p
    full, top = (1 << width) - 1, (2 << width) - 1

    # the forward row spans bits [p, n) of c's masks, the reversed row bits
    # [0, n - p) of its reversed masks, with the suffix's s bits matched
    early_g, v = _keep_steps(enumerate(gt[p:], p), fwd, full << p, full << p)
    early_c = _set_bits(bin(top ^ (v >> p))[:2:-1], p)
    late, v = _keep_steps(
        zip(range(m - 1 - s, p - 1, -1), reversed(gt[p : m - s])),
        rev,
        full ^ ((1 << s) - 1),
        full,
    )
    late_g = late[::-1] + list(range(m - s, m))
    late_c = _set_bits(bin(top ^ v)[3:], p)

    # keep k's pair; a run [a, b) of keeps that are not forced is replaced
    # by its band's keeps between forced keeps a - 1 and b
    gk, ck = early_g, early_c
    if early_g != late_g or early_c != late_c:
        unequal = map(or_, map(ne, early_g, late_g), map(ne, early_c, late_c))
        total = len(gk)
        for a, b in runs(compress(count(), unequal)):
            i0, j0 = (gk[a - 1] + 1, ck[a - 1] + 1) if a else (p, p)
            i1, j1 = (gk[b], ck[b]) if b < total else (m, n)
            segment = _band_keeps(gt[i0:i1], ct[j0:j1], b - a)
            gk[a:b] = [i0 + i for i, _ in segment]
            ck[a:b] = [j0 + j for _, j in segment]
    kept = dict(zip(chain(range(p), gk), chain(range(p), ck)))
    return EditScript(kept=kept, g_len=m, c_len=n)


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
    return [HallucinationSpan(a, b, OTHER) for a, b in runs(marked)]


def label_spans(spans: list[HallucinationSpan], labels: list[str]) -> list[HallucinationSpan]:
    """Pair each span with its category, preserving order; a label that is
    no dimension raises ValueError naming it."""
    if len(spans) != len(labels):
        raise ValueError(
            f"label_spans: {len(spans)} spans but {len(labels)} labels"
        )
    for label in labels:
        if label not in DIMENSION_VALUES:
            raise ValueError(
                f"label_spans: unknown label {label!r}; expected one of {list(DIMENSION_VALUES)}"
            )
    return [HallucinationSpan(s.start, s.end, label) for s, label in zip(spans, labels)]

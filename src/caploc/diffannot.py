"""Gold-span derivation: diff a generated caption against its corrected form.

The diff is a minimal edit script under an LCS objective on token texts.
Every generated-side token that a corrector replaced or deleted is marked
hallucinated; runs of marked tokens merge into spans. Pure insertions (words
the corrector added with no counterpart) anchor to the preceding token so the
mark stays token-indexable.

The diff is exact and banded: it keeps the common prefix, computes the LCS
length of the rest with a bit-parallel recurrence (Hyyro 2004), and fills
the dynamic program only on the diagonals an optimal alignment can reach
(Myers 1986). With D the number of tokens not kept on either side, a diff of
m and n tokens costs about O(m + n + (m+n)*D) instead of O(m*n).
"""

from __future__ import annotations

from dataclasses import dataclass

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


_NEG = -(1 << 60)


def _lcs_length(a: list[str], b: list[str]) -> int:
    """Length of a longest common subsequence of a and b.

    Bit-parallel row recurrence (Allison & Dix 1986; Hyyro 2004): bit j of
    v is set while b[j] is not yet matched, and each a token advances the
    whole row in a few big-int operations, so the cost is O(len(a)) steps
    on len(b)-bit integers.
    """
    masks: dict[str, int] = {}
    for j, text in enumerate(b):
        masks[text] = masks.get(text, 0) | (1 << j)
    full = (1 << len(b)) - 1
    v = full
    for text in a:
        mask = masks.get(text)
        if mask:
            u = v & mask
            v = ((v + u) | (v - u)) & full
    return len(b) - v.bit_count()


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
    tie-break reads the suffix.) Every optimal alignment of the rest keeps
    its LCS length L, so it takes m-L g-steps and n-L c-steps and stays on
    the diagonals i-j in [-(n-L), m-L]; only that band is filled. Banded
    values never exceed the true ones and equal them on every optimal path,
    so the traceback takes the same steps as over the full table. With D
    tokens not kept on either side, the band holds about (m+n)*D cells, so
    the cost is about O(m + n + (m+n)*D) Python steps, plus the LCS
    length's m big-int steps on n-bit integers.
    """
    gt = [t.text for t in g.tokens]
    ct = [t.text for t in c.tokens]
    w = len(gt) + len(ct) + 2  # one kept token outweighs any possible block count
    p = 0
    for gp, cp in zip(gt, ct):
        if gp != cp:
            break
        p += 1
    del gt[:p], ct[:p]
    m, n = len(gt), len(ct)
    kept = _lcs_length(gt, ct)
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

    # the rest starts with a gap, so the prefix is one KEEP op of its own
    ops: list[EditOp] = [EditOp(KEEP, 0, p, 0, p)] if p else []
    i = j = p
    pos = 0
    while pos < len(steps):
        if steps[pos] == "k":
            ki, kj = i, j
            while pos < len(steps) and steps[pos] == "k":
                i += 1
                j += 1
                pos += 1
            ops.append(EditOp(KEEP, ki, i, kj, j))
        else:
            bi, bj = i, j
            while pos < len(steps) and steps[pos] != "k":
                if steps[pos] == "g":
                    i += 1
                else:
                    j += 1
                pos += 1
            if bi < i and bj < j:
                ops.append(EditOp(REPLACE, bi, i, bj, j))
            elif bi < i:
                ops.append(EditOp(DELETE, bi, i, j, j))
            else:
                ops.append(EditOp(INSERT, i, i, bj, j))
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
    spans: list[HallucinationSpan] = []
    start = prev = None
    for idx in sorted(marked):
        if start is None:
            start = prev = idx
        elif idx == prev + 1:
            prev = idx
        else:
            spans.append(HallucinationSpan(start, prev + 1, Dimension.OTHER.value))
            start = prev = idx
    if start is not None:
        spans.append(HallucinationSpan(start, prev + 1, Dimension.OTHER.value))
    return spans


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

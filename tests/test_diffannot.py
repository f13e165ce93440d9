import random
import tracemalloc
from functools import lru_cache

import pytest

from caploc import diffannot
from caploc.diffannot import (
    DELETE,
    INSERT,
    KEEP,
    REPLACE,
    EditOp,
    EditScript,
    diff_tokens,
    extract_gold_spans,
    label_spans,
)
from caploc.corpus import HallucinationSpan
from caploc.text import tokenize


def script_for(g, c):
    return diff_tokens(tokenize(g), tokenize(c))


def op_tuples(script):
    return [(o.kind, o.g_start, o.g_end, o.c_start, o.c_end) for o in script.ops]


def lcs_len(a, b):
    # reference implementation, top-down, independent of the module under test
    @lru_cache(maxsize=None)
    def rec(i, j):
        if i == len(a) or j == len(b):
            return 0
        if a[i] == b[j]:
            return 1 + rec(i + 1, j + 1)
        return max(rec(i + 1, j), rec(i, j + 1))

    return rec(0, 0)


def apply_script(script, gt, ct):
    out = []
    for op in script.ops:
        if op.kind == KEEP:
            out.extend(gt[op.g_start : op.g_end])
        elif op.kind in (REPLACE, INSERT):
            out.extend(ct[op.c_start : op.c_end])
    return out


def check_wellformed(script, gt, ct):
    gi = ci = 0
    for op in script.ops:
        assert op.g_start == gi and op.c_start == ci
        assert op.g_end >= op.g_start and op.c_end >= op.c_start
        if op.kind == KEEP:
            assert op.g_end > op.g_start
            assert gt[op.g_start : op.g_end] == ct[op.c_start : op.c_end]
        elif op.kind == REPLACE:
            assert op.g_end > op.g_start and op.c_end > op.c_start
        elif op.kind == DELETE:
            assert op.g_end > op.g_start and op.c_end == op.c_start
        elif op.kind == INSERT:
            assert op.g_end == op.g_start and op.c_end > op.c_start
        else:
            raise AssertionError(op.kind)
        gi, ci = op.g_end, op.c_end
    assert gi == script.g_len == len(gt)
    assert ci == script.c_len == len(ct)


def test_single_substitution():
    s = script_for("a red car", "a blue car")
    assert op_tuples(s) == [
        (KEEP, 0, 1, 0, 1),
        (REPLACE, 1, 2, 1, 2),
        (KEEP, 2, 3, 2, 3),
    ]


def test_identity_single_keep():
    s = script_for("same exact words", "same exact words")
    assert op_tuples(s) == [(KEEP, 0, 3, 0, 3)]


def test_one_to_two_replace():
    s = script_for("three birds fly", "two small birds fly")
    assert op_tuples(s) == [(REPLACE, 0, 1, 0, 2), (KEEP, 1, 3, 2, 4)]


def test_empty_sides():
    assert op_tuples(script_for("", "")) == []
    assert op_tuples(script_for("a b", "")) == [(DELETE, 0, 2, 0, 0)]
    assert op_tuples(script_for("", "a b")) == [(INSERT, 0, 0, 0, 2)]


def test_extract_replace():
    s = EditScript(
        ops=(
            EditOp(KEEP, 0, 1, 0, 1),
            EditOp(REPLACE, 1, 2, 1, 2),
            EditOp(KEEP, 2, 3, 2, 3),
        ),
        g_len=3,
        c_len=3,
    )
    assert extract_gold_spans(s) == [HallucinationSpan(1, 2, "other")]


def test_extract_identity_empty():
    s = script_for("nothing changed here", "nothing changed here")
    assert extract_gold_spans(s) == []


def test_extract_delete_range():
    s = EditScript(
        ops=(EditOp(KEEP, 0, 4, 0, 4), EditOp(DELETE, 4, 6, 4, 4)),
        g_len=6,
        c_len=4,
    )
    assert extract_gold_spans(s) == [HallucinationSpan(4, 6, "other")]


def test_extract_insert_anchors_to_preceding():
    s = script_for("a car parked", "a red car parked")
    assert extract_gold_spans(s) == [HallucinationSpan(0, 1, "other")]


def test_extract_insert_at_start_marks_token_zero():
    s = script_for("car parked here", "the car parked here")
    assert extract_gold_spans(s) == [HallucinationSpan(0, 1, "other")]


def test_extract_insert_into_empty_g():
    assert extract_gold_spans(script_for("", "some words")) == []


def test_extract_merges_adjacent():
    s = script_for("a big red car", "a small blue car")
    assert extract_gold_spans(s) == [HallucinationSpan(1, 3, "other")]


def test_repeated_words_no_spurious_insert():
    # with a repeated word the off-diagonal alignment would leave a trailing
    # insert and mark the untouched final token; the walk must avoid it
    s = script_for("F G a", "x a a")
    assert extract_gold_spans(s) == [HallucinationSpan(0, 2, "other")]


def test_label_spans():
    spans = [HallucinationSpan(1, 2, "other"), HallucinationSpan(5, 7, "other")]
    out = label_spans(spans, ["ocr", "spatial"])
    assert [s.dimension for s in out] == ["ocr", "spatial"]
    assert [(s.start, s.end) for s in out] == [(1, 2), (5, 7)]


def test_label_spans_empty():
    assert label_spans([], []) == []


def test_label_spans_length_mismatch():
    with pytest.raises(ValueError):
        label_spans([HallucinationSpan(0, 1)], [])


def test_label_spans_unknown_dimension():
    with pytest.raises(ValueError):
        label_spans([HallucinationSpan(0, 1)], ["colour"])


VOCAB = ["a", "the", "red", "blue", "car", "bird", "on", "left", "two", "sign"]


def test_minimality_and_coverage_property():
    rng = random.Random(21)
    for _ in range(400):
        gt = [rng.choice(VOCAB) for _ in range(rng.randrange(0, 9))]
        ct = [rng.choice(VOCAB) for _ in range(rng.randrange(0, 9))]
        s = script_for(" ".join(gt), " ".join(ct))
        check_wellformed(s, gt, ct)
        assert apply_script(s, gt, ct) == ct
        kept = sum(o.g_end - o.g_start for o in s.ops if o.kind == KEEP)
        assert kept == lcs_len(tuple(gt), tuple(ct))


def test_recovery_property():
    # substituting k tokens with vocabulary-foreign ones is recovered exactly
    rng = random.Random(22)
    for _ in range(400):
        n = rng.randrange(3, 30)
        clean = [rng.choice(VOCAB) for _ in range(n)]
        k = rng.randrange(1, min(6, n + 1))
        positions = sorted(rng.sample(range(n), k))
        corrupted = list(clean)
        for p in positions:
            corrupted[p] = f"zzq{p}"
        s = script_for(" ".join(corrupted), " ".join(clean))
        marked = set()
        for span in extract_gold_spans(s):
            marked.update(range(span.start, span.end))
        assert marked == set(positions)


def test_determinism():
    a = script_for("one two three two one", "two one three one")
    b = script_for("one two three two one", "two one three one")
    assert a == b


def test_long_caption_diff_fills_only_a_band():
    """One dropped word in a 1000-token caption: the banded diff stays far
    under the ~48 MB that two full (m+1) x (n+1) tables take, so a fallback
    to the full table fails here. This bounds work, not wall time."""
    rng = random.Random(23)
    words = [rng.choice(VOCAB) + str(rng.randrange(20)) for _ in range(1000)]
    g = tokenize(" ".join(words))
    c = tokenize(" ".join(words[:500] + words[501:]))
    tracemalloc.start()
    try:
        script = diff_tokens(g, c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5_000_000
    p = next(i for i, (a, b) in enumerate(zip(g.texts, c.texts)) if a != b)
    assert p >= 500
    assert op_tuples(script) == [
        (KEEP, 0, p, 0, p),
        (DELETE, p, p + 1, p, p),
        (KEEP, p + 1, 1000, p, 999),
    ]
    assert (script.g_len, script.c_len) == (1000, 999)


def test_scattered_edits_band_only_their_segments(monkeypatch):
    """Five one-word substitutions in a 1000-token caption: every other
    token is a keep that all optimal alignments make, so the band DP runs
    only on the short segments between such keeps. A diff that banded the
    whole rest would fill about 10000 cells here."""
    rng = random.Random(24)
    # 500 distinct words, most of them repeated somewhere in the caption
    words = [rng.choice(VOCAB) + str(rng.randrange(50)) for _ in range(1000)]
    positions = sorted(rng.sample(range(1000), 5))
    edited = list(words)
    for p in positions:
        edited[p] = f"zzq{p}"
    cells = []
    band_steps = diffannot._band_steps

    def recording(gt, ct, kept):
        cells.append((len(gt) + 1) * (len(ct) + 1))
        return band_steps(gt, ct, kept)

    monkeypatch.setattr(diffannot, "_band_steps", recording)
    script = script_for(" ".join(edited), " ".join(words))
    assert 1 <= len(cells) <= 5
    assert sum(cells) < 200
    expected, pos = [], 0
    for p in positions:
        expected += [(KEEP, pos, p, pos, p), (REPLACE, p, p + 1, p, p + 1)]
        pos = p + 1
    expected.append((KEEP, pos, 1000, pos, 1000))
    assert op_tuples(script) == [op for op in expected if op[1] < op[2]]

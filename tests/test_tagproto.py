import random

import pytest

from caploc.corpus import HallucinationSpan
from caploc.tagproto import (
    CLOSE_TAG,
    OPEN_TAG,
    align_to_reference,
    parse_tags,
    serialize_tags,
)
from caploc.text import tokenize


def test_tag_literals():
    assert OPEN_TAG == "<HALLUCINATION>"
    assert CLOSE_TAG == "</HALLUCINATION>"


def test_serialize_single_span():
    tagged = serialize_tags(tokenize("a red car"), [HallucinationSpan(1, 2)])
    assert tagged == "a <HALLUCINATION>red</HALLUCINATION> car"


def test_serialize_empty_spans():
    tagged = serialize_tags(tokenize("a red car"), [])
    assert tagged == "a red car"


def test_serialize_span_at_start():
    tagged = serialize_tags(tokenize("two red cars"), [HallucinationSpan(0, 2)])
    assert tagged == "<HALLUCINATION>two red</HALLUCINATION> cars"


def test_serialize_preserves_interior_whitespace():
    tagged = serialize_tags(tokenize("a  red\tcar"), [HallucinationSpan(1, 3)])
    assert tagged == "a  <HALLUCINATION>red\tcar</HALLUCINATION>"


def test_serialize_rejects_bad_span():
    with pytest.raises(ValueError):
        serialize_tags(tokenize("a red car"), [HallucinationSpan(2, 9)])
    with pytest.raises(ValueError):
        serialize_tags(
            tokenize("a red car"), [HallucinationSpan(0, 2), HallucinationSpan(1, 3)]
        )


def test_parse_simple():
    parsed = parse_tags("a <HALLUCINATION>red</HALLUCINATION> car")
    assert parsed.stripped == "a red car"
    assert parsed.marked_ranges == ((2, 5),)
    assert parsed.status == "ok"


def test_parse_no_tags():
    parsed = parse_tags("a red car")
    assert parsed.stripped == "a red car"
    assert parsed.marked_ranges == ()
    assert parsed.status == "ok"


def test_parse_unclosed_open_extends_to_end():
    parsed = parse_tags("a <HALLUCINATION>red car")
    assert parsed.stripped == "a red car"
    assert parsed.marked_ranges == ((2, 9),)
    assert parsed.status == "malformed_tags"


def test_parse_stray_close_dropped():
    parsed = parse_tags("a red</HALLUCINATION> car")
    assert parsed.stripped == "a red car"
    assert parsed.marked_ranges == ()
    assert parsed.status == "malformed_tags"


def test_parse_nested_open():
    parsed = parse_tags(
        "a <HALLUCINATION>red <HALLUCINATION>car</HALLUCINATION></HALLUCINATION>!"
    )
    assert parsed.stripped == "a red car!"
    assert parsed.status == "malformed_tags"
    # outer region stays open until its close
    assert parsed.marked_ranges == ((2, 9),)


def test_parse_zero_width_region_dropped():
    parsed = parse_tags("a <HALLUCINATION></HALLUCINATION>red car")
    assert parsed.marked_ranges == ()
    assert parsed.status == "ok"


def test_parse_empty_output():
    assert parse_tags("").status == "empty"
    assert parse_tags("   ").status == "empty"


def test_parse_multibyte_offsets():
    raw = "café <HALLUCINATION>à côté</HALLUCINATION> ok"
    parsed = parse_tags(raw)
    assert parsed.stripped == "café à côté ok"
    start, end = parsed.marked_ranges[0]
    assert parsed.stripped[start:end] == "à côté"


def test_align_faithful():
    ref = tokenize("a red car")
    pred = align_to_reference("a red car", [(2, 5)], ref)
    assert pred.faithful
    assert pred.alignment_coverage == 1.0
    assert pred.indices == {1}


def test_align_partial_token_counts_whole():
    ref = tokenize("a red car")
    # range covers only "re"
    pred = align_to_reference("a red car", [(2, 4)], ref)
    assert pred.indices == {1}


def test_align_case_change_is_unfaithful():
    ref = tokenize("a red car")
    pred = align_to_reference("a Red car", [(2, 5)], ref)
    assert not pred.faithful


def test_align_whitespace_change_still_faithful():
    ref = tokenize("a red car")
    pred = align_to_reference("a  red  car", [(3, 6)], ref)
    assert pred.faithful
    assert pred.indices == {1}


def test_align_dropped_word_fallback():
    ref = tokenize("a small red car")
    # output omitted "small"; marked "red"
    pred = align_to_reference("a red car", [(2, 5)], ref)
    assert not pred.faithful
    assert pred.indices == {2}
    assert pred.alignment_coverage == 1.0


def test_align_unalignable_mark_dropped():
    ref = tokenize("a red car")
    pred = align_to_reference("a zebra car", [(2, 7)], ref)
    assert not pred.faithful
    assert pred.indices == frozenset()
    assert pred.alignment_coverage < 1.0


def test_align_empty_output():
    ref = tokenize("a red car")
    pred = align_to_reference("", (), ref)
    assert not pred.faithful
    assert pred.indices == frozenset()
    assert pred.alignment_coverage == 0.0


def test_align_indices_within_reference():
    ref = tokenize("a red car")
    pred = align_to_reference("a red car plus extra trailing words", [(19, 34)], ref)
    assert all(0 <= i < 3 for i in pred.indices)


WORDS = ["a", "the", "red", "blue", "car", "bird", "tiny", "café", "two", "sign"]


def _random_case(rng):
    n = rng.randrange(1, 25)
    caption = " ".join(rng.choice(WORDS) for _ in range(n))
    tc = tokenize(caption)
    spans = []
    pos = 0
    while pos < len(tc):
        if rng.random() < 0.25:
            end = min(len(tc), pos + rng.randrange(1, 4))
            spans.append(HallucinationSpan(pos, end))
            pos = end + 1
        else:
            pos += 1
    return tc, spans


def test_roundtrip_property():
    rng = random.Random(31)
    for _ in range(400):
        tc, spans = _random_case(rng)
        tagged = serialize_tags(tc, spans)
        parsed = parse_tags(tagged)
        assert parsed.status in ("ok", "empty")
        assert parsed.stripped == tc.source
        pred = align_to_reference(parsed.stripped, parsed.marked_ranges, tc)
        assert pred.faithful
        expected = set()
        for s in spans:
            expected.update(range(s.start, s.end))
        assert pred.indices == expected


def test_alignment_monotonicity_property():
    rng = random.Random(32)
    for _ in range(200):
        tc, spans = _random_case(rng)
        words = tc.source.split()
        # corrupt the echo: drop or duplicate a couple of words
        for _ in range(rng.randrange(1, 3)):
            if len(words) > 1 and rng.random() < 0.5:
                words.pop(rng.randrange(len(words)))
            else:
                k = rng.randrange(len(words))
                words.insert(k, words[k])
        stripped = " ".join(words)
        pred = align_to_reference(stripped, (), tc)
        assert pred.indices == frozenset()
        assert 0.0 <= pred.alignment_coverage <= 1.0

import random

from caploc.tagproto import align_to_reference
from caploc.text import (
    TOKENIZER_VERSION,
    split_sentences,
    tokenize,
)


def texts(s):
    return [t.text for t in tokenize(s).tokens]


def test_version_string():
    assert TOKENIZER_VERSION == "dvb-tok/1"


def test_basic_sentence():
    assert texts("A red car.") == ["A", "red", "car", "."]


def test_empty():
    tc = tokenize("")
    assert len(tc) == 0
    assert split_sentences(tc) == ()


def test_internal_punctuation_attached():
    assert texts("state-of-the-art") == ["state-of-the-art"]
    assert texts("it's") == ["it's"]
    assert texts("v2.0") == ["v2.0"]


def test_leading_trailing_punct_detached():
    assert texts('"quoted"') == ['"', "quoted", '"']
    assert texts("(see fig. 2).") == ["(", "see", "fig", ".", "2", ")", "."]
    assert texts("wait...") == ["wait", ".", ".", "."]


def test_all_punct_chunk():
    assert texts("--") == ["-", "-"]
    assert texts("...") == [".", ".", "."]


def test_char_offsets_ascii():
    tc = tokenize("a bc  d")
    offs = [(t.char_start, t.char_end) for t in tc.tokens]
    assert offs == [(0, 1), (2, 4), (6, 7)]


def test_char_offsets_multibyte():
    src = "café à côté."
    tc = tokenize(src)
    for tok in tc.tokens:
        assert src[tok.char_start : tok.char_end] == tok.text
    assert [(t.char_start, t.char_end) for t in tc.tokens] == [(0, 4), (5, 6), (7, 11), (11, 12)]


def test_token_order_and_nonoverlap():
    tc = tokenize("one two, three!")
    prev = 0
    for tok in tc.tokens:
        assert tok.char_start >= prev
        assert tok.char_start < tok.char_end
        prev = tok.char_end


def _random_text(rng):
    pieces = []
    words = ["cat", "Dog", "v1.2", "it's", "red-ish", "café", "12", "A"]
    punct = ["", ".", ",", "!", "?", '"', "(", ")", "..."]
    for _ in range(rng.randrange(0, 12)):
        pieces.append(rng.choice(punct) + rng.choice(words) + rng.choice(punct))
    sep = rng.choice([" ", "  ", "\t", "\n ", " "])
    return sep.join(pieces)


def test_reconstruction_property():
    rng = random.Random(11)
    for _ in range(300):
        src = _random_text(rng)
        tc = tokenize(src)
        pos = 0
        rebuilt = ""
        for tok in tc.tokens:
            rebuilt += src[pos : tok.char_start]
            assert src[tok.char_start : tok.char_end] == tok.text
            rebuilt += src[tok.char_start : tok.char_end]
            pos = tok.char_end
        rebuilt += src[pos:]
        assert rebuilt == src


def test_idempotence_property():
    rng = random.Random(12)
    for _ in range(300):
        src = _random_text(rng)
        first = [t.text for t in tokenize(src).tokens]
        second = [t.text for t in tokenize(" ".join(first)).tokens]
        assert first == second


def test_sentence_two_simple():
    si = split_sentences(tokenize("It rains. She left."))
    assert len(si) == 2


def test_sentence_no_terminator():
    si = split_sentences(tokenize("a caption with no end"))
    assert len(si) == 1


def test_sentence_internal_dot_not_boundary():
    si = split_sentences(tokenize("v2.0 works. Yes."))
    assert len(si) == 2


def test_sentence_lowercase_continuation():
    # terminator followed by lowercase does not split
    si = split_sentences(tokenize("approx. two birds sit. One flies."))
    assert len(si) == 2


def test_sentence_exclamation_question():
    si = split_sentences(tokenize("Stop! Really? Yes."))
    assert len(si) == 3


def test_sentence_partition_property():
    rng = random.Random(13)
    for _ in range(300):
        src = _random_text(rng)
        tc = tokenize(src)
        ends = split_sentences(tc)
        covered = []
        for start, end in zip((0, *ends), ends):
            assert start < end
            covered.extend(range(start, end))
        assert covered == list(range(len(tc)))


def faithfulness(output, reference):
    p = align_to_reference(output, (), tokenize(reference))
    return p.faithful, p.alignment_coverage


def test_equal_sequence_whitespace_insensitive():
    assert faithfulness("a  red car", "a red car") == (True, 1.0)


def test_equal_sequence_case_sensitive():
    assert faithfulness("a Red car", "a red car") == (False, 2 / 3)


def test_equal_sequence_identity():
    assert faithfulness("same text.", "same text.") == (True, 1.0)

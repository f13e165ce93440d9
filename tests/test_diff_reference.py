"""diff_tokens against one reference and many near-copies of it, the shape
of the injector's replies to a clean caption: every keep chain equals the
plain-table oracle's, and reusing the reference's memoized bit masks gives
the same result as a fresh diff."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from caploc.diffannot import _masks, diff_tokens
from caploc.text import tokenize
from test_oracle import oracle_diff_tokens, oracle_keep_chain

VOCABS = [["a", "b"], ["a", "b", "c"], ["the", "red", "car", "on", "left"]]


@st.composite
def injector_pairs(draw) -> tuple[list[str], list[str]]:
    """(reply, reference) word lists: a reference of up to 60 words over a
    small alphabet, and a copy with 0-4 replace, insert and delete edits at
    the first or last token, near the start (leaving a long common suffix)
    or anywhere. Inserted and replacing words may be new to the reference."""
    vocab = draw(st.sampled_from(VOCABS))
    ref = draw(st.lists(st.sampled_from(vocab), max_size=60))
    reply = list(ref)
    word = st.sampled_from([*vocab, "zz"])
    for _ in range(draw(st.integers(0, 4))):
        edit = draw(st.sampled_from(["replace", "insert", "delete"]))
        size = len(reply) + (edit == "insert")
        if not size:
            continue
        where = draw(st.sampled_from(["first", "last", "head", "any"]))
        at = {
            "first": 0,
            "last": size - 1,
            "head": draw(st.integers(0, min(4, size - 1))),
            "any": draw(st.integers(0, size - 1)),
        }[where]
        if edit == "insert":
            reply.insert(at, draw(word))
        elif edit == "delete":
            del reply[at]
        else:
            reply[at] = draw(word)
    return reply, ref


def chain_of(script):
    return list(script.kept.items()), list(script.gaps()), script.g_len, script.c_len


def oracle_chain(g, c):
    want = oracle_diff_tokens(g, c)
    return (*oracle_keep_chain(want), want.g_len, want.c_len)


@settings(max_examples=1000, deadline=None)
@given(injector_pairs())
def test_injector_shaped_pairs_match_oracle(pair):
    g, c = (tokenize(" ".join(words)) for words in pair)
    assert chain_of(diff_tokens(g, c)) == oracle_chain(g, c)


@settings(max_examples=200, deadline=None)
@given(st.lists(injector_pairs(), min_size=1, max_size=4), st.data())
def test_replies_in_a_row_equal_fresh_diffs(pairs, data):
    """Several replies diffed in a row against one reference reuse its
    masks, and another reference in between does not disturb them: each
    result equals a diff with an empty memo and the oracle's."""
    ref = pairs[0][1]
    replies = [reply for reply, _ in pairs]
    other = tokenize(" ".join(data.draw(st.sampled_from(pairs))[0]))
    c = tokenize(" ".join(ref))
    _masks.cache_clear()
    in_a_row = []
    for reply in replies:
        g = tokenize(" ".join(reply))
        in_a_row.append(chain_of(diff_tokens(g, c)))
        diff_tokens(c, other)
    # a re-tokenized reference has equal texts, so it shares the masks
    assert chain_of(diff_tokens(tokenize(" ".join(replies[0])), tokenize(" ".join(ref)))) == (
        in_a_row[0]
    )
    assert _masks.cache_info().hits >= len(replies)
    for reply, got in zip(replies, in_a_row):
        g = tokenize(" ".join(reply))
        _masks.cache_clear()
        assert got == chain_of(diff_tokens(g, c)) == oracle_chain(g, c)


def test_mask_memo_is_bounded():
    _masks.cache_clear()
    for k in range(100):
        diff_tokens(tokenize("a b"), tokenize(f"a b w{k}"))
    info = _masks.cache_info()
    assert info.maxsize is not None and info.currsize <= info.maxsize <= 64

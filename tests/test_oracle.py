"""Differential tests of the tokenizer, the sentence splitter, the sentence
labels, the token diff, the tag parser, the tag aligner, the injector's
reply handling and the adversarial loop against the straightforward
implementations they replaced, kept here as oracles.

The oracles are the reference semantics: any speed-up or simplification of
tokenize, split_sentences, sentence_metrics, diff_tokens, parse_tags,
marked_token_indices, align_to_reference, inject_round or run_adversarial
must agree with them on every token field, every sentence, every sentence
score, every keep chain, every parse, every Prediction, and every injection
state and error.
"""

from __future__ import annotations

import logging
import re
import sys
import unicodedata
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace as dc_replace

from hypothesis import example, given, settings, strategies as st

from caploc.corpus import DIMENSION_VALUES, BenchmarkSample, Dimension, HallucinationSpan
from caploc.diffannot import _lcs_profiles, diff_tokens
from caploc.inject import (
    InjectedSpan,
    InjectionConfig,
    InjectionError,
    InjectionOutcome,
    InjectionState,
    _injector_prompt,
    _split_labels,
    detect_round,
    filter_detected,
    inject_round,
    run_adversarial,
)
from caploc.metrics import SentenceScore, TokenCounts, sentence_metrics
from caploc.modelgate import ModelGate, ModelRequest, Purpose, ScriptedBackend, ScriptRule
from caploc.tagproto import (
    CLOSE_TAG,
    OPEN_TAG,
    ParseStatus,
    Prediction,
    align_to_reference,
    marked_token_indices,
    parse_tags,
)
from caploc.text import (
    Sentence,
    SentenceIndex,
    Token,
    TokenizedCaption,
    count_tokens,
    split_sentences,
    tokenize,
)

logger = logging.getLogger(__name__)

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


def oracle_byte_offsets(text: str) -> list[int]:
    """The UTF-8 byte offset of every code-point offset of text."""
    byte_at = [0] * (len(text) + 1)
    acc = 0
    for pos, ch in enumerate(text):
        acc += _oracle_utf8_len(ch)
        byte_at[pos + 1] = acc
    return byte_at


@dataclass(frozen=True)
class OracleToken:
    text: str
    char_start: int
    char_end: int


@dataclass(frozen=True)
class OracleCaption:
    """The oracle's own tokenized caption: one OracleToken per token."""

    source: str
    tokens: tuple[OracleToken, ...]

    def __len__(self) -> int:
        return len(self.tokens)


def oracle_tokenize(text: str) -> OracleCaption:
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
    tokens = tuple(OracleToken(text[cs:ce], cs, ce) for cs, ce in spans)
    return OracleCaption(source=text, tokens=tokens)


def oracle_byte_parse_tags(raw: str) -> tuple[str, tuple[tuple[int, int], ...], ParseStatus]:
    """parse_tags in UTF-8 byte space: (stripped, byte ranges into the
    encoded stripped text, status). raw must hold no lone surrogate."""
    open_tag, close_tag = OPEN_TAG.encode(), CLOSE_TAG.encode()
    data = raw.encode("utf-8")
    events: list[tuple[int, bytes]] = []
    for tag in (open_tag, close_tag):
        start = 0
        while True:
            pos = data.find(tag, start)
            if pos < 0:
                break
            events.append((pos, tag))
            start = pos + len(tag)
    events.sort()

    out = bytearray()
    ranges: list[tuple[int, int]] = []
    malformed = False
    depth = 0
    region_start = 0
    pos = 0
    for at, tag in events:
        out.extend(data[pos:at])
        pos = at + len(tag)
        if tag == open_tag:
            if depth == 0:
                region_start = len(out)
            else:
                malformed = True
            depth += 1
        else:
            if depth == 0:
                malformed = True
            else:
                depth -= 1
                if depth == 0 and len(out) > region_start:
                    ranges.append((region_start, len(out)))
    out.extend(data[pos:])
    if depth > 0:
        malformed = True
        if len(out) > region_start:
            ranges.append((region_start, len(out)))

    stripped = out.decode("utf-8")
    if malformed:
        status = ParseStatus.MALFORMED_TAGS
    elif not stripped.strip():
        status = ParseStatus.EMPTY
    else:
        status = ParseStatus.OK
    return stripped, tuple(ranges), status


def oracle_byte_marked_token_indices(text: str, byte_ranges) -> set[int]:
    """marked_token_indices over the UTF-8 byte offsets of text's tokens."""
    byte_at = oracle_byte_offsets(text)
    tokens = oracle_tokenize(text).tokens
    ends = [byte_at[t.char_end] for t in tokens]
    starts = [byte_at[t.char_start] for t in tokens]
    marked: set[int] = set()
    for r_start, r_end in byte_ranges:
        marked.update(range(bisect_right(ends, r_start), bisect_left(starts, r_end)))
    return marked


KEEP, REPLACE, DELETE, INSERT = "keep", "replace", "delete", "insert"


@dataclass(frozen=True)
class OracleOp:
    """One edit over token ranges of g and c: keep and replace carry both
    ranges, delete an empty c range, insert an empty g range."""

    kind: str
    g_start: int
    g_end: int
    c_start: int
    c_end: int


@dataclass(frozen=True)
class OracleScript:
    ops: tuple[OracleOp, ...]
    g_len: int
    c_len: int


def oracle_diff_tokens(g: TokenizedCaption, c: TokenizedCaption) -> OracleScript:
    """The same objective and tie-break as diff_tokens, over two full
    (m+1) x (n+1) tables, as an op list."""
    gt = [t.text for t in g.tokens]
    ct = [t.text for t in c.tokens]
    m, n = len(gt), len(ct)
    w = m + n + 2
    neg = -(1 << 60)

    vk = [[0] * (n + 1) for _ in range(m + 1)]
    vg = [[0] * (n + 1) for _ in range(m + 1)]
    for j in range(n - 1, -1, -1):
        vk[m][j] = -1
    for i in range(m - 1, -1, -1):
        vk[i][n] = -1
        row_k, row_g = vk[i], vg[i]
        below_k, below_g = vk[i + 1], vg[i + 1]
        gi = gt[i]
        for j in range(n - 1, -1, -1):
            keep_val = w + below_k[j + 1] if gi == ct[j] else neg
            a, b = below_g[j], row_g[j + 1]
            gap_best = a if a >= b else b
            row_g[j] = keep_val if keep_val >= gap_best else gap_best
            gap_open = gap_best - 1
            row_k[j] = keep_val if keep_val >= gap_open else gap_open

    steps: list[str] = []
    i = j = 0
    entered = True
    while i < m or j < n:
        cur = vk[i][j] if entered else vg[i][j]
        if i < m and j < n and gt[i] == ct[j] and cur == w + vk[i + 1][j + 1]:
            steps.append("k")
            i += 1
            j += 1
            entered = True
            continue
        open_cost = 1 if entered else 0
        if i < m and cur == vg[i + 1][j] - open_cost:
            steps.append("g")
            i += 1
        else:
            steps.append("c")
            j += 1
        entered = False

    ops: list[OracleOp] = []
    i = j = 0
    pos = 0
    while pos < len(steps):
        if steps[pos] == "k":
            ki, kj = i, j
            while pos < len(steps) and steps[pos] == "k":
                i += 1
                j += 1
                pos += 1
            ops.append(OracleOp(KEEP, ki, i, kj, j))
        else:
            bi, bj = i, j
            while pos < len(steps) and steps[pos] != "k":
                if steps[pos] == "g":
                    i += 1
                else:
                    j += 1
                pos += 1
            if bi < i and bj < j:
                ops.append(OracleOp(REPLACE, bi, i, bj, j))
            elif bi < i:
                ops.append(OracleOp(DELETE, bi, i, j, j))
            else:
                ops.append(OracleOp(INSERT, i, i, bj, j))
    return OracleScript(ops=tuple(ops), g_len=m, c_len=n)


def oracle_keep_chain(script: OracleScript) -> tuple[list[tuple[int, int]], list[tuple]]:
    """The (g, c) pairs of the keep ops, in order, and the ranges of the
    other ops, in order."""
    kept: list[tuple[int, int]] = []
    gaps: list[tuple] = []
    for op in script.ops:
        if op.kind == KEEP:
            kept += zip(range(op.g_start, op.g_end), range(op.c_start, op.c_end))
        else:
            gaps.append((op.g_start, op.g_end, op.c_start, op.c_end))
    return kept, gaps


def oracle_lcs_profiles(a: list[str], b: list[str]) -> tuple[list[int], ...]:
    """LCS(a[:i], b), LCS(a[i:], b), LCS(a, b[:j]) and LCS(a, b[j:]) for
    every i and j, read off a plain prefix table and a plain suffix table."""
    m, n = len(a), len(b)
    pre = [[0] * (n + 1) for _ in range(m + 1)]  # LCS(a[:i], b[:j])
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            if a[i - 1] == b[j - 1]:
                pre[i][j] = pre[i - 1][j - 1] + 1
            else:
                pre[i][j] = max(pre[i - 1][j], pre[i][j - 1])
    suf = [[0] * (n + 1) for _ in range(m + 1)]  # LCS(a[i:], b[j:])
    for i in range(m - 1, -1, -1):
        for j in range(n - 1, -1, -1):
            if a[i] == b[j]:
                suf[i][j] = suf[i + 1][j + 1] + 1
            else:
                suf[i][j] = max(suf[i + 1][j], suf[i][j + 1])
    return (
        [pre[i][n] for i in range(m + 1)],
        [suf[i][0] for i in range(m + 1)],
        [pre[m][j] for j in range(n + 1)],
        [suf[0][j] for j in range(n + 1)],
    )


def oracle_marked_token_indices(tc, ranges) -> set[int]:
    marked: set[int] = set()
    for index, tok in enumerate(tc.tokens):
        for r_start, r_end in ranges:
            if tok.char_start < r_end and r_start < tok.char_end:
                marked.add(index)
                break
    return marked


def oracle_align_to_reference(stripped, marked_ranges, ref) -> Prediction:
    ranges = tuple(marked_ranges)
    out_tc = oracle_tokenize(stripped)
    if [t.text for t in out_tc.tokens] == [t.text for t in ref.tokens]:
        return Prediction(
            indices=frozenset(oracle_marked_token_indices(out_tc, ranges)),
            faithful=True,
            alignment_coverage=1.0,
        )
    marked_out = oracle_marked_token_indices(out_tc, ranges)
    script = oracle_diff_tokens(out_tc, ref)
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


def _oracle_is_boundary_after(tc: TokenizedCaption, token_index: int) -> bool:
    tok = tc.tokens[token_index]
    if not tok.text.endswith((".", "!", "?")):
        return False
    pos = tok.char_end
    src = tc.source
    n = len(src)
    saw_space = False
    while pos < n and src[pos].isspace():
        saw_space = True
        pos += 1
    if pos >= n:
        return True
    return saw_space and src[pos].isupper()


def oracle_split_sentences(tc: TokenizedCaption) -> SentenceIndex:
    if not tc.tokens:
        return SentenceIndex()
    sentences: list[Sentence] = []
    start = 0
    for i in range(len(tc.tokens)):
        if _oracle_is_boundary_after(tc, i):
            sentences.append(Sentence(token_start=start, token_end=i + 1))
            start = i + 1
    if start < len(tc.tokens):
        sentences.append(Sentence(token_start=start, token_end=len(tc.tokens)))
    return SentenceIndex(tuple(sentences))


def oracle_sentence_metrics(
    gold: set[int], pred: set[int], sentences: SentenceIndex
) -> SentenceScore:
    """Sentence labels from one token set per sentence."""
    n = sentences.sentences[-1].token_end if len(sentences) else 0
    bad = [i for i in gold | pred if not 0 <= i < n]
    if bad:
        raise ValueError(
            f"sentence_metrics: indices {sorted(bad)} not covered by the sentence index"
        )
    gold_labels = []
    pred_labels = []
    for s in sentences.sentences:
        idx = set(s.token_indices)
        gold_labels.append(bool(idx & gold))
        pred_labels.append(bool(idx & pred))
    tp = sum(1 for g, p in zip(gold_labels, pred_labels) if g and p)
    counts = TokenCounts(tp, sum(pred_labels), sum(gold_labels))
    return SentenceScore(
        prf=counts.prf(),
        counts=counts,
        gold_labels=tuple(gold_labels),
        pred_labels=tuple(pred_labels),
    )


def oracle_parse_injector_response(
    response: str, clean: TokenizedCaption, cfg: InjectionConfig, strict: bool
) -> tuple[list[InjectedSpan], list[str]]:
    tagged_part, labels = _split_labels(response)
    parsed = parse_tags(tagged_part)
    out_tc = tokenize(parsed.stripped)
    marked = marked_token_indices(out_tc, parsed.marked_ranges)
    script = oracle_diff_tokens(out_tc, clean)

    problems: list[str] = []
    op_at: list = [None] * len(out_tc)
    insert_positions: set[int] = set()
    for op in script.ops:
        for g in range(op.g_start, op.g_end):
            op_at[g] = op
        if op.kind == INSERT:
            insert_positions.add(op.g_start)
            problems.append(
                f"clean tokens [{op.c_start}, {op.c_end}) missing from the output"
            )
        elif op.kind in (REPLACE, DELETE):
            untagged = [g for g in range(op.g_start, op.g_end) if g not in marked]
            if untagged:
                problems.append(f"untagged output tokens {untagged} differ from the clean caption")

    if strict and problems:
        return [], problems

    runs: list[tuple[int, int]] = []
    for idx in sorted(marked):
        if runs and idx == runs[-1][1]:
            runs[-1] = (runs[-1][0], idx + 1)
        else:
            runs.append((idx, idx + 1))

    def c_position(g: int, end_side: bool) -> int:
        op = op_at[g]
        if op.kind == KEEP:
            return op.c_start + (g - op.g_start) + (1 if end_side else 0)
        return op.c_end if end_side else op.c_start

    spans: list[InjectedSpan] = []
    for a, b in runs:
        ops_in_run = {id(op_at[g]): op_at[g] for g in range(a, b)}.values()
        if all(op.kind == KEEP for op in ops_in_run):
            logger.info("dropping tagged span [%d, %d): text is unchanged", a, b)
            continue
        partial = any(
            op.kind != KEEP
            and any(g not in marked for g in range(op.g_start, op.g_end))
            for op in ops_in_run
        )
        boundary_insert = a in insert_positions or b in insert_positions
        neighbors_kept = (a == 0 or op_at[a - 1].kind == KEEP) and (
            b == len(out_tc) or op_at[b].kind == KEEP
        )
        if partial or boundary_insert or not neighbors_kept:
            problems.append(f"span [{a}, {b}) does not align to the clean caption")
            continue
        if any(OPEN_TAG in t.text or CLOSE_TAG in t.text for t in out_tc.tokens[a:b]):
            problems.append(f"span [{a}, {b}) holds a tag literal")
            continue
        spans.append(
            InjectedSpan(
                clean_start=c_position(a, end_side=False),
                clean_end=c_position(b - 1, end_side=True),
                replacement=tuple(t.text for t in out_tc.tokens[a:b]),
            )
        )

    if len(spans) > cfg.max_spans:
        logger.warning(
            "injector produced %d spans; keeping the first %d", len(spans), cfg.max_spans
        )
        spans = spans[: cfg.max_spans]

    labeled: list[InjectedSpan] = []
    for i, s in enumerate(spans):
        label = labels[i] if i < len(labels) else Dimension.OTHER.value
        if label not in DIMENSION_VALUES:
            logger.warning("unknown span label %r, using %r", label, Dimension.OTHER.value)
            label = Dimension.OTHER.value
        labeled.append(dc_replace(s, dimension=label))
    return labeled, problems


def oracle_inject_round(
    clean_or_state: str | TokenizedCaption | InjectionState,
    cfg: InjectionConfig,
    gate: ModelGate,
    image=None,
) -> InjectionState:
    if isinstance(clean_or_state, InjectionState):
        state = clean_or_state
    else:
        tc = clean_or_state if isinstance(clean_or_state, TokenizedCaption) else tokenize(clean_or_state)
        if not tc.tokens:
            raise InjectionError("inject_round: empty caption")
        state = InjectionState(clean=tc)

    prompt = _injector_prompt(state, cfg)
    request = ModelRequest(
        model=cfg.injector_model,
        system="",
        user=prompt,
        purpose=Purpose.INJECT.value,
        image=image if cfg.include_image else None,
    )
    response = gate.complete(request)
    state.audit.append(
        {"phase": "inject", "round": state.round, "prompt": prompt, "response": response.text}
    )
    spans, problems = oracle_parse_injector_response(response.text, state.clean, cfg, strict=True)
    if problems:
        retry_prompt = (
            prompt + "\n\nREMINDER: copy the caption exactly, word for word, outside the tags."
        )
        retry_request = dc_replace(request, user=retry_prompt)
        retry_response = gate.complete(retry_request)
        state.audit.append(
            {
                "phase": "inject_retry",
                "round": state.round,
                "prompt": retry_prompt,
                "response": retry_response.text,
            }
        )
        spans, problems = oracle_parse_injector_response(
            retry_response.text, state.clean, cfg, strict=True
        )
        if problems:
            spans, problems = oracle_parse_injector_response(
                retry_response.text, state.clean, cfg, strict=False
            )
            had_marks = bool(parse_tags(_split_labels(retry_response.text)[0]).marked_ranges)
            if not spans and had_marks:
                raise InjectionError(
                    "injector produced no usable tagged spans after retry: "
                    + "; ".join(problems)
                )
    state.spans = sorted(spans, key=lambda s: (s.clean_start, s.clean_end))
    return state


def oracle_run_adversarial(
    clean: BenchmarkSample, cfg: InjectionConfig, gate: ModelGate
) -> InjectionOutcome:
    """The adversarial loop with a separate branch for rounds that have no
    spans to detect."""
    state = oracle_inject_round(clean.caption, cfg, gate)
    for _ in range(1, cfg.rounds + 1):
        if state.round > 0 and state.reverted_last_round > 0:
            state = oracle_inject_round(state, cfg, gate)
        if state.spans:
            detected = detect_round(state, cfg, gate)
            state = filter_detected(state, detected, cfg)
        else:
            state.reverted_last_round = 0
            state.round += 1
    gold = [
        HallucinationSpan(a, b, s.dimension)
        for (a, b), s in zip(state.span_layout(), state.spans)
    ]
    sample = BenchmarkSample(
        id=clean.id,
        image=clean.image,
        domain=clean.domain,
        caption=state.current_text(),
        gold_spans=gold,
        variant="synthetic",
        clean_caption=state.clean.source,
    )
    return InjectionOutcome(sample=sample, state=state, no_survivors=not gold)


# ---------------------------------------------------------------- inputs

# ASCII and Unicode punctuation (P*), symbols (S*, must stay attached),
# multibyte letters, digits and marks, and ASCII and Unicode whitespace
PUNCT = list(".,;:!?\"'()-_") + ["«", "»", "—", "。", "！", "？", "、"]
SYMBOLS = ["$", "+", "=", "<", ">", "^", "€", "©", "°"]
LETTERS = list("abcXYZ") + ["é", "ß", "ж", "Ω", "漢", "字", "𝔸", "ǅ"]
DIGITS = list("0129") + ["٣", "１", "²", "½", "Ⅻ"]
MARKS = ["\u0301", "\u200d"]  # combining acute accent, zero-width joiner
SPACES = [" ", "\u3000", "\u00a0", "\u2009", "\t", "\n", "\x1c", "\x85", "\u2028"]
SURROGATES = ["\ud800"]  # a lone surrogate, as a JSON escape can produce
CHARS = PUNCT + SYMBOLS + LETTERS + DIGITS + MARKS + SPACES
chars = st.sampled_from(CHARS)
texts = st.text(chars, max_size=60)
# longer words and spaces, closer to real captions
words = st.text(st.sampled_from(LETTERS + DIGITS + PUNCT + SYMBOLS), min_size=1, max_size=8)
captions = st.lists(
    st.tuples(words, st.sampled_from(SPACES)), max_size=25
).map(lambda parts: "".join(w + s for w, s in parts))
any_caption = st.one_of(texts, captions)
# inputs that also hold lone surrogates; only the byte-space tag oracle,
# which encodes to UTF-8, needs any_caption's surrogate-free ones
token_texts = st.one_of(st.text(st.sampled_from(CHARS + SURROGATES), max_size=60), captions)


def token_fields(tc) -> list[tuple]:
    return [(t.text, t.char_start, t.char_end) for t in tc.tokens]


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


# whole tags and pieces of them, which may join into a tag with their
# neighbours
TAG_FRAGMENTS = [OPEN_TAG, CLOSE_TAG, "<HALLUCINATION", "</HALLU", "CINATION>", "<", "/", ">"]
TAG_RE = re.compile(f"{re.escape(OPEN_TAG)}|{re.escape(CLOSE_TAG)}")


@st.composite
def tag_soup(draw, text_strategy=any_caption):
    """(caption, raw output): the caption with tag fragments inserted at
    arbitrary code-point positions, so tags may be nested, stray or split."""
    caption = draw(text_strategy)
    inserts = draw(
        st.lists(st.tuples(st.integers(0, len(caption)), st.sampled_from(TAG_FRAGMENTS)), max_size=8)
    )
    out, pos = [], 0
    for cut, fragment in sorted(inserts):
        out.append(caption[pos:cut])
        out.append(fragment)
        pos = cut
    out.append(caption[pos:])
    return caption, "".join(out)


def edit_output(raw: str, edit: str) -> str:
    """raw with one of the edits a model makes to a caption it echoes."""
    if edit == "drop":
        return raw.replace(" ", "", 1)
    if edit == "insert":
        return "new " + raw
    if edit == "spaces":
        return raw.replace(" ", "  ")
    return raw


# sentence material: terminators alone and attached, uppercase and lowercase
# starts (ASCII and not), and Unicode whitespace, so boundaries are dense
SENTENCE_WORDS = ["a", "b.", "C", "Éa", "ж", "Ж.", "x!", "Y?", ".", "?!", "3.5", "»", "a.)"]
sentence_texts = st.lists(
    st.tuples(st.sampled_from(SENTENCE_WORDS), st.sampled_from(SPACES + ["", ""])), max_size=20
).map(lambda parts: "".join(w + s for w, s in parts))

# injector replies: a small vocabulary makes the diff's ties and the
# reply's edits collide often
INJECT_VOCAB = ["a", "red", "car", "gate", "."]
REPLY_EDITS = ["keep"] * 6 + [
    "tag", "tag_swap", "tag_insert", "swap", "drop", "insert", "stray_open", "stray_close",
    "tag_space", "tag_literal",
]


@st.composite
def injector_replies(draw, clean_words: list[str]) -> str:
    """A reply to the injector prompt: the clean words with tagged and
    untagged edits, stray tags and an optional label line."""
    words = st.sampled_from(INJECT_VOCAB)
    out: list[str] = []
    for word in clean_words + [None]:
        edit = draw(st.sampled_from(REPLY_EDITS))
        if edit == "tag" and word is not None:
            out.append(f"{OPEN_TAG}{word}{CLOSE_TAG}")
        elif edit == "tag_swap" and word is not None:
            out.append(f"{OPEN_TAG}{draw(words)}{CLOSE_TAG}")
        elif edit == "tag_insert":
            out.append(f"{OPEN_TAG}{draw(words)} {draw(words)}{CLOSE_TAG}")
        elif edit in ("swap", "insert"):
            out.append(draw(words))
        elif edit == "stray_open":
            out.append(OPEN_TAG)
        elif edit == "stray_close":
            out.append(CLOSE_TAG)
        elif edit == "tag_space":
            out.append(f"{OPEN_TAG} {CLOSE_TAG}")
        elif edit == "tag_literal" and word is not None:
            # fragments that join into a tag literal inside the tagged text
            out.append(f"{OPEN_TAG}<HALLU{OPEN_TAG}CINATION>{draw(words)}{CLOSE_TAG}{CLOSE_TAG}")
        if word is not None and edit not in ("tag", "tag_swap", "swap", "drop", "tag_literal"):
            out.append(word)
    reply = " ".join(out)
    labels = draw(st.lists(st.sampled_from(["color", "number", "vibes", "OTHER", ""]), max_size=4))
    if draw(st.booleans()):
        reply += "\nLABELS: " + ", ".join(labels)
        if draw(st.booleans()):
            reply += "\ntrailing note"
    return reply


@st.composite
def planted_replies(draw, clean_words: list[str]) -> str:
    """A faithful reply: the clean words with one to two of them swapped,
    tagged, for words no clean caption holds."""
    out = list(clean_words)
    for i in draw(st.sets(st.integers(0, len(out) - 1), min_size=1, max_size=2)):
        out[i] = f"{OPEN_TAG}{draw(st.sampled_from(['blue', 'green']))}{CLOSE_TAG}"
    return " ".join(out)


# detector replies: nothing, phrases captions may hold, a word no caption
# holds, and None for a quote of the whole caption shown, which reverts
# every span
DETECT_REPLIES = [
    "No issues found.", '"red" - odd', '"a"\n"blue" -', '"zebra" - odd', None, None
]


def detector(replies: list):
    """A detect responder that answers with the given replies in turn."""

    def respond(req: ModelRequest) -> str:
        reply = replies.pop(0)
        if reply is None:
            reply = '"' + req.user.split("Caption:\n", 1)[1].strip() + '" - all wrong'
        return reply

    return respond


# diff material: two- and three-word vocabularies make repeated words, ties
# between alignments and paths along the band's edge diagonals common; long
# edited copies over twenty words leave forced keeps, so the diff splits
DIFF_VOCABS = [["a", "b"], ["a", "b", "c"], [f"w{i}" for i in range(20)]]


@st.composite
def diff_pairs(draw) -> tuple[list[str], list[str]]:
    """(g, c) word lists: a random pair of up to 14 words, or c a copy of a
    g of up to 40 words with up to four drop, insert and replace edits;
    either one may come first."""
    word = st.sampled_from(draw(st.sampled_from(DIFF_VOCABS)))
    if draw(st.booleans()):
        g = draw(st.lists(word, max_size=14))
        c = draw(st.lists(word, max_size=14))
    else:
        g = draw(st.lists(word, max_size=40))
        c = list(g)
        for _ in range(draw(st.integers(0, 4))):
            edit = draw(st.sampled_from(["drop", "insert", "replace"]))
            if edit == "insert":
                c.insert(draw(st.integers(0, len(c))), draw(word))
            elif c:
                at = draw(st.integers(0, len(c) - 1))
                if edit == "drop":
                    del c[at]
                else:
                    c[at] = draw(word)
    return (c, g) if draw(st.booleans()) else (g, c)


def char_ranges(limit: int):
    """Unsorted, overlapping, zero-width and out-of-bounds code-point ranges."""
    bound = st.integers(-2, limit + 2)
    return st.lists(st.tuples(bound, bound), max_size=6).map(tuple)


# ---------------------------------------------------------------- tests


@settings(max_examples=300, deadline=None)
@given(token_texts)
def test_tokenize_matches_oracle(text):
    got, want = tokenize(text), oracle_tokenize(text)
    assert got.source == want.source
    assert list(zip(got.texts, got.starts, got.ends)) == token_fields(want)
    assert token_fields(got) == token_fields(want)
    assert len(got.texts) == len(got.starts) == len(got.ends) == len(got) == len(want)
    assert count_tokens(text) == len(want)


@settings(max_examples=200, deadline=None)
@given(token_texts)
def test_tokens_view_is_the_columns_as_rows(text):
    tc = tokenize(text)
    assert tc.tokens == tuple(Token(*row) for row in zip(tc.texts, tc.starts, tc.ends))
    assert all(type(t) is Token for t in tc.tokens)
    assert tc.tokens is tc.tokens  # built once


@settings(max_examples=300, deadline=None)
@given(token_texts)
def test_chunk_count_bounds_token_count(text):
    """validate_sample's premise: every whitespace chunk holds a token."""
    assert len(text.split()) <= count_tokens(text)


@settings(max_examples=1000, deadline=None)
@given(diff_pairs())
def test_diff_tokens_matches_oracle(pair):
    g, c = (tokenize(" ".join(words)) for words in pair)
    script = diff_tokens(g, c)
    want = oracle_diff_tokens(g, c)
    assert (list(script.kept.items()), list(script.gaps())) == oracle_keep_chain(want)
    assert (script.g_len, script.c_len) == (want.g_len, want.c_len)
    assert len(script.kept) == oracle_lcs_profiles(*pair)[0][-1]


@settings(max_examples=1000, deadline=None)
@given(diff_pairs())
def test_keep_chain_and_gaps_partition_both_sides(pair):
    """The kept indices and the gap ranges cover each side once, in order;
    no gap is empty on both sides, and two gaps never touch."""
    g, c = pair
    script = diff_tokens(*(tokenize(" ".join(words)) for words in pair))
    assert (script.g_len, script.c_len) == (len(g), len(c))
    gaps = list(script.gaps())
    for side, length in ((0, len(g)), (1, len(c))):
        keys = [item[side] for item in script.kept.items()]
        assert all(a < b for a, b in zip(keys, keys[1:]))
        covered = sorted(keys + [x for gap in gaps for x in range(gap[2 * side], gap[2 * side + 1])])
        assert covered == list(range(length))
    assert all(g[i] == c[j] for i, j in script.kept.items())
    assert all(g0 < g1 or c0 < c1 for g0, g1, c0, c1 in gaps)
    assert all(h0 > g1 and d0 > c1 for (_, g1, _, c1), (h0, _, d0, _) in zip(gaps, gaps[1:]))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_lcs_length_matches_plain_dp(data):
    # up to 70 tokens, so the bit rows cross machine-word and int-digit edges
    word = st.sampled_from(data.draw(st.sampled_from(DIFF_VOCABS)))
    a = data.draw(st.lists(word, max_size=70))
    b = data.draw(st.lists(word, max_size=70))
    assert _lcs_profiles(a, b) == oracle_lcs_profiles(a, b)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_marked_token_indices_matches_oracle(data):
    text = data.draw(token_texts)
    ranges = data.draw(char_ranges(len(text)))
    assert marked_token_indices(tokenize(text), ranges) == oracle_marked_token_indices(
        oracle_tokenize(text), ranges
    )


@settings(max_examples=300, deadline=None)
@given(st.one_of(tagged(), tag_soup()), st.sampled_from(["keep", "drop", "insert", "spaces"]))
def test_parse_tags_matches_byte_oracle(case, edit):
    """parse_tags on the str against the byte-space parser it replaced: the
    same text, status and ranges, and the same tokens marked."""
    raw = edit_output(case[1], edit)
    parsed = parse_tags(raw)
    stripped, byte_ranges, status = oracle_byte_parse_tags(raw)
    assert parsed.stripped == stripped
    assert parsed.status == status
    byte_at = oracle_byte_offsets(stripped)
    assert tuple((byte_at[a], byte_at[b]) for a, b in parsed.marked_ranges) == byte_ranges
    got = marked_token_indices(tokenize(stripped), parsed.marked_ranges)
    assert got == oracle_byte_marked_token_indices(stripped, byte_ranges)


@settings(max_examples=300, deadline=None)
@given(st.one_of(tag_soup(token_texts), tagged(token_texts)))
def test_parse_tags_never_raises(case):
    """Any str parses, lone surrogates included: the tags are removed and
    the ranges are sorted, disjoint, non-empty and inside the text."""
    raw = case[1]
    parsed = parse_tags(raw)
    assert parsed.stripped == TAG_RE.sub("", raw)
    prev = 0
    for start, end in parsed.marked_ranges:
        assert prev <= start < end <= len(parsed.stripped)
        prev = end


@settings(max_examples=200, deadline=None)
@given(tagged(token_texts))
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
    caption = data.draw(token_texts)
    output = data.draw(
        st.one_of(
            st.just(caption),
            st.just(" ".join(caption.split())),
            st.just(caption + " more"),
            st.just(caption[: len(caption) // 2]),
            token_texts,
        )
    )
    ranges = data.draw(char_ranges(len(output)))
    got = align_to_reference(output, ranges, tokenize(caption))
    want = oracle_align_to_reference(output, ranges, oracle_tokenize(caption))
    assert got == want


# twice the examples of a captions-only draw, so as many captions as before
@settings(max_examples=300, deadline=None)
@given(tagged(token_texts), st.sampled_from(["drop", "insert", "spaces"]))
def test_align_matches_oracle_on_edited_output(case, edit):
    caption, raw = case
    parsed = parse_tags(edit_output(raw, edit))
    got = align_to_reference(parsed.stripped, parsed.marked_ranges, tokenize(caption))
    want = oracle_align_to_reference(
        parsed.stripped, parsed.marked_ranges, oracle_tokenize(caption)
    )
    assert got == want


@settings(max_examples=300, deadline=None)
@given(st.one_of(sentence_texts, token_texts))
def test_split_sentences_matches_oracle(text):
    tc = tokenize(text)
    assert split_sentences(tc) == oracle_split_sentences(tc)


@st.composite
def sentence_cases(draw) -> tuple[str, set[int], set[int]]:
    """(caption, gold, pred): index sets that mostly fall inside the
    caption's tokens and sometimes one past either end."""
    text = draw(st.one_of(sentence_texts, token_texts))
    index = st.integers(-1, count_tokens(text))
    return text, draw(st.sets(index, max_size=6)), draw(st.sets(index, max_size=6))


def sentence_outcome(score, case):
    """The SentenceScore of a case, or the message of its ValueError."""
    text, gold, pred = case
    try:
        return score(gold, pred, split_sentences(tokenize(text)))
    except ValueError as exc:
        return str(exc)


@settings(max_examples=500, deadline=None)
@given(sentence_cases())
@example(("", set(), set()))
@example(("", {0}, set()))
@example(("A b. C d.", {1}, {6}))
@example(("A b. C d.", {2, 3}, {1, 4}))
@example(("A b. C d.", {2}, {-1, 6}))
def test_sentence_metrics_matches_oracle(case):
    """Labels, counts and P/R/F1 agree, and so does the error for an index
    outside the caption, on an empty caption too."""
    assert sentence_outcome(sentence_metrics, case) == sentence_outcome(
        oracle_sentence_metrics, case
    )


def run_injection(inject, start, cfg, replies):
    """(spans, audit, error message) of one inject call on a scripted gate
    that answers the first prompt and the retry with the given replies."""
    gate = ModelGate(ScriptedBackend([ScriptRule(purpose="inject", responses=list(replies))]))
    if isinstance(start, InjectionState):  # inject_round mutates a state it is given
        start = InjectionState(clean=start.clean, round=start.round, feedback=list(start.feedback))
    try:
        state = inject(start, cfg, gate)
    except InjectionError as exc:
        return None, None, str(exc)
    return state.spans, state.audit, None


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_inject_round_matches_oracle(data):
    clean_words = data.draw(st.lists(st.sampled_from(INJECT_VOCAB), min_size=1, max_size=8))
    caption = " ".join(clean_words)
    replies = [data.draw(injector_replies(clean_words)), data.draw(injector_replies(clean_words))]
    cfg = InjectionConfig(max_spans=data.draw(st.integers(1, 3)), include_image=False)
    start = caption
    if data.draw(st.booleans()):
        start = InjectionState(
            clean=tokenize(caption), round=1, feedback=['Round 1: the phrase "x" was caught.']
        )
    got = run_injection(inject_round, start, cfg, replies)
    want = run_injection(oracle_inject_round, start, cfg, replies)
    assert got == want


def run_loop(run, clean, cfg, inject_replies, detect_replies):
    """Everything one adversarial run leaves behind, or its error message,
    on a scripted gate with the given injector and detector replies."""
    gate = ModelGate(
        ScriptedBackend(
            [
                ScriptRule(purpose="inject", responses=list(inject_replies)),
                ScriptRule(purpose="detect", responder=detector(list(detect_replies))),
            ]
        )
    )
    try:
        outcome = run(clean, cfg, gate)
    except InjectionError as exc:
        return str(exc)
    state = outcome.state
    return (
        outcome.sample.to_dict(),
        state.audit,
        state.round,
        state.reverted_last_round,
        state.feedback,
        outcome.no_survivors,
    )


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_run_adversarial_matches_oracle(data):
    clean_words = data.draw(st.lists(st.sampled_from(INJECT_VOCAB), min_size=1, max_size=8))
    k = data.draw(st.integers(0, 3))
    caption = " ".join(clean_words)
    # at most one injection per round plus the first, each with a retry
    inject_replies = [
        data.draw(
            st.one_of(st.just(caption), planted_replies(clean_words), injector_replies(clean_words))
        )
        for _ in range(2 * (k + 1))
    ]
    detect_replies = data.draw(st.lists(st.sampled_from(DETECT_REPLIES), min_size=k, max_size=k))
    cfg = InjectionConfig(rounds=k, max_spans=data.draw(st.integers(1, 3)), include_image=False)
    clean = BenchmarkSample(id="s", image="", domain="nature", caption=caption, gold_spans=[])
    got = run_loop(run_adversarial, clean, cfg, inject_replies, detect_replies)
    want = run_loop(oracle_run_adversarial, clean, cfg, inject_replies, detect_replies)
    assert got == want


def test_token_repr_and_fields_unchanged():
    tok = tokenize("a").tokens[0]
    assert tok._fields == ("text", "char_start", "char_end")
    assert repr(tok) == repr(oracle_tokenize("a").tokens[0]).replace("OracleToken", "Token")


def test_ascii_punctuation_of_the_token_pattern_is_category_p():
    """The token pattern names ASCII punctuation itself and swaps every other
    punctuation character for an ASCII one; the ASCII characters it splits
    off a word must be exactly the P* ones."""
    detached = {chr(cp) for cp in range(128) if len(tokenize(f"x{chr(cp)}")) == 2}
    assert detached == {
        chr(cp) for cp in range(128) if unicodedata.category(chr(cp)).startswith("P")
    }


def test_str_split_whitespace_is_regex_whitespace():
    """tokenize and split_sentences find whitespace with the regex \\s; the
    oracles and validation's chunk count with str.isspace() and str.split().
    They agree only while both split on the same code points."""
    space = re.compile(r"\s")
    offenders = [
        hex(cp)
        for cp in range(sys.maxunicode + 1)
        if (space.fullmatch(chr(cp)) is not None) != (len(f"a{chr(cp)}b".split()) == 2)
    ]
    assert offenders == []

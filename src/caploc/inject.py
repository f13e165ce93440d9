"""Adversarial hallucination injection: an injector model plants errors in a
clean caption, a text-only detector tries to spot them from the caption
alone, detected spans revert to the clean text, and feedback drives further
rounds. What survives becomes synthetic gold annotation.

Injected spans are anchored to clean-caption token ranges and carry their
replacement tokens. The working caption is always re-derived from the clean
caption plus surviving spans, so untagged regions are token-identical to the
clean caption by construction, and reverting a span is simply dropping it.

A reply is the caption with its edits tagged. The keep chain of its diff
against the clean caption takes each kept reply token to its clean token, and
the two ends to each other. A maximal tagged run whose tokens are all kept is
unchanged and dropped. Any other run becomes the clean tokens between its two
neighbours if both are kept, no clean token is missing at either edge and no
token holds a tag literal, and is reported otherwise, as are untagged edits and
missing clean tokens. A reply with a problem is retried once with a reminder;
the retry's aligned spans are kept, and the round fails only if the retry
tagged text and none of it aligned.
"""

from __future__ import annotations

import functools
import logging
import re
from dataclasses import dataclass, field, replace as dc_replace
from pathlib import Path

from .corpus import CLOSE_TAG, DIMENSION_VALUES, OPEN_TAG, BenchmarkSample, Dimension
from .corpus import HallucinationSpan
from .diffannot import diff_tokens, runs
from .modelgate import ImageAttachment, ModelGate, ModelRequest, Purpose
from .tagproto import marked_token_indices, parse_tags
from .text import TokenizedCaption, tokenize

logger = logging.getLogger(__name__)

PROMPT_VERSION = "v1"
_ASSET_DIR = Path(__file__).parent / "assets"

_LABELS_PREFIX = "LABELS:"
# a phrase in straight or typographic double quotes
_QUOTED_RE = re.compile(r'"([^"\n]+)"|“([^”\n]+)”')
_RETRY_REMINDER = "\n\nREMINDER: copy the caption exactly, word for word, outside the tags."


class InjectionError(RuntimeError):
    pass


@functools.cache
def load_template(name: str) -> str:
    """The prompt template `name`, read from the package assets once per
    process."""
    path = _ASSET_DIR / f"{name}_{PROMPT_VERSION}.txt"
    return path.read_text(encoding="utf-8")


_PLACEHOLDER_RE = re.compile(r"\{(\w+)\}")


def fill_template(template: str, **values: str) -> str:
    """Substitute each {key} of the given keys in one pass over the
    template, so braces in a substituted value (a caption may hold
    "{feedback}") reach the prompt as they are; other braces stay."""
    return _PLACEHOLDER_RE.sub(lambda m: values.get(m.group(1), m.group(0)), template)


@dataclass(frozen=True)
class InjectionConfig:
    rounds: int = 2
    dimensions: tuple[str, ...] = DIMENSION_VALUES
    max_spans: int = 3
    strategy: str = "structured"
    overlap: int = 1
    injector_model: str = "injector"
    detector_model: str = "detector"
    include_image: bool = True

    def __post_init__(self) -> None:
        if self.rounds < 0:
            raise ValueError(f"InjectionConfig: rounds must be >= 0, got {self.rounds}")
        if self.max_spans < 1:
            raise ValueError("InjectionConfig: max_spans must be >= 1")
        if self.strategy not in ("naive", "structured"):
            raise ValueError(f"InjectionConfig: unknown strategy {self.strategy!r}")
        if self.overlap < 1:
            raise ValueError("InjectionConfig: overlap must be >= 1")
        bad = [d for d in self.dimensions if d not in DIMENSION_VALUES]
        if bad:
            raise ValueError(f"InjectionConfig: unknown dimensions {bad}")


@dataclass(frozen=True)
class InjectedSpan:
    """One planted error, anchored to the clean caption.

    clean_start == clean_end encodes pure added content in front of that
    clean token position; replacement always holds at least one token.
    """

    clean_start: int
    clean_end: int
    replacement: tuple[str, ...]
    dimension: str = Dimension.OTHER.value

    @property
    def identity(self) -> tuple:
        return (self.clean_start, self.clean_end, self.replacement)


@dataclass(frozen=True)
class DetectedSpan:
    start: int
    end: int
    phrase: str
    rationale: str


@dataclass
class InjectionState:
    clean: TokenizedCaption
    round: int = 0
    spans: list[InjectedSpan] = field(default_factory=list)
    feedback: list[str] = field(default_factory=list)
    reverted_last_round: int = 0
    audit: list[dict] = field(default_factory=list)

    def span_layout(self) -> list[tuple[int, int]]:
        """Token ranges of the spans in current-caption coordinates."""
        layout = []
        offset = 0
        for s in self.spans:
            start = s.clean_start + offset
            layout.append((start, start + len(s.replacement)))
            offset += len(s.replacement) - (s.clean_end - s.clean_start)
        return layout

    def current_text(self) -> str:
        return _render(self.clean, self.spans)

    def current_token_texts(self) -> list[str]:
        """Token texts of current_text(), spliced from the clean tokens and
        the replacements. _render sets every replacement off with whitespace,
        so tokenizing current_text() gives the same texts."""
        clean = self.clean.texts
        out: list[str] = []
        pos = 0
        for s in self.spans:
            out += clean[pos : s.clean_start]
            out += s.replacement
            pos = s.clean_end
        out += clean[pos:]
        return out


def _render(clean: TokenizedCaption, spans: list[InjectedSpan]) -> str:
    src = clean.source
    parts: list[str] = []
    last = ""

    def emit(text: str) -> None:
        nonlocal last
        if text:
            parts.append(text)
            last = text[-1]

    pos = 0
    for s in spans:
        if s.clean_start < s.clean_end:
            a = clean.starts[s.clean_start]
            b = clean.ends[s.clean_end - 1]
        elif s.clean_start < len(clean):
            a = b = clean.starts[s.clean_start]
        else:
            a = b = len(src)
        emit(src[pos:a])
        # keep replacement tokens separated from any adjacent text
        if last and not last.isspace():
            emit(" ")
        emit(" ".join(s.replacement))
        if b < len(src) and not src[b].isspace():
            emit(" ")
        pos = b
    emit(src[pos:])
    return "".join(parts)


def _split_labels(response: str) -> tuple[str, list[str]]:
    lines = response.split("\n")
    for i in range(len(lines) - 1, -1, -1):
        stripped = lines[i].strip()
        if stripped.startswith(_LABELS_PREFIX):
            labels = [
                x.strip().lower()
                for x in stripped[len(_LABELS_PREFIX):].split(",")
                if x.strip()
            ]
            trailing = [x for x in lines[i + 1 :] if x.strip()]
            if trailing:
                logger.warning("ignoring %d lines after the label line", len(trailing))
            return "\n".join(lines[:i]).rstrip("\n"), labels
    return response, []


def _parse_injector_response(
    response: str, clean: TokenizedCaption, cfg: InjectionConfig
) -> tuple[list[InjectedSpan], list[str], bool]:
    """The clean-anchored spans of a tagged injector reply (see the module
    docstring), the problems found, and whether the reply tagged anything.
    A reply with no problems is a faithful one."""
    tagged_part, labels = _split_labels(response)
    parsed = parse_tags(tagged_part)
    out_tc = tokenize(parsed.stripped)
    marked = marked_token_indices(out_tc, parsed.marked_ranges)
    script = diff_tokens(out_tc, clean)

    problems: list[str] = []
    inserts: set[int] = set()  # g positions an insert gap sits in front of
    for g_start, g_end, c_start, c_end in script.gaps():
        if g_start == g_end:
            inserts.add(g_start)
            problems.append(f"clean tokens [{c_start}, {c_end}) missing from the output")
        else:
            untagged = [g for g in range(g_start, g_end) if g not in marked]
            if untagged:
                problems.append(f"untagged output tokens {untagged} differ from the clean caption")

    # a copy of the script's map, with the two ends aligned too
    kept = {-1: -1, **script.kept, len(out_tc): len(clean)}
    spans: list[InjectedSpan] = []
    for a, b in runs(marked):
        if all(g in kept for g in range(a, b)):
            logger.info("dropping tagged span [%d, %d): text is unchanged", a, b)
            continue
        if a - 1 not in kept or b not in kept or a in inserts or b in inserts:
            problems.append(f"span [{a}, {b}) does not align to the clean caption")
            continue
        replacement = out_tc.texts[a:b]
        if any(OPEN_TAG in t or CLOSE_TAG in t for t in replacement):
            problems.append(f"span [{a}, {b}) holds a tag literal")
            continue
        spans.append(
            InjectedSpan(
                clean_start=kept[a - 1] + 1,
                clean_end=kept[b],
                replacement=replacement,
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
    return labeled, problems, bool(parsed.marked_ranges)


def _injector_prompt(state: InjectionState, cfg: InjectionConfig) -> str:
    template = load_template(f"inject_{cfg.strategy}")
    feedback = "\n".join(state.feedback) if state.feedback else "None."
    return fill_template(
        template,
        caption=state.clean.source,
        dimensions=", ".join(cfg.dimensions),
        feedback=feedback,
    )


def inject_round(
    clean_or_state: str | InjectionState,
    cfg: InjectionConfig,
    gate: ModelGate,
    image: ImageAttachment | None = None,
) -> InjectionState:
    """Ask the injector for a tagged caption and fold the result into state.

    The injector always sees the clean caption plus accumulated feedback and
    answers with a complete tagged caption, which replaces the span set. An
    unfaithful answer (edits outside the tags) is retried once with a
    reminder, then salvaged span by span.
    """
    if isinstance(clean_or_state, InjectionState):
        state = clean_or_state
    else:
        tc = tokenize(clean_or_state)
        if not tc.texts:
            raise InjectionError("inject_round: empty caption")
        state = InjectionState(clean=tc)

    prompt = _injector_prompt(state, cfg)
    attempts = (("inject", prompt), ("inject_retry", prompt + _RETRY_REMINDER))
    for phase, user in attempts:
        response = gate.complete(
            ModelRequest(
                model=cfg.injector_model,
                system="",
                user=user,
                purpose=Purpose.INJECT.value,
                image=image if cfg.include_image else None,
            )
        )
        state.audit.append(
            {"phase": phase, "round": state.round, "prompt": user, "response": response.text}
        )
        spans, problems, tagged = _parse_injector_response(response.text, state.clean, cfg)
        if not problems:
            break
    if problems and tagged and not spans:
        raise InjectionError(
            "injector produced no usable tagged spans after retry: " + "; ".join(problems)
        )
    state.spans = sorted(spans, key=lambda s: (s.clean_start, s.clean_end))
    return state


def detect_round(
    state: InjectionState, cfg: InjectionConfig, gate: ModelGate
) -> list[DetectedSpan]:
    """Show the detector the plain current caption (no image, no tags) and
    ground its quoted phrases as token ranges, one at every occurrence."""
    if not state.spans:
        raise ValueError("detect_round: no injected spans to detect")
    prompt = fill_template(load_template("detect"), caption=state.current_text())
    request = ModelRequest(
        model=cfg.detector_model,
        system="",
        user=prompt,
        purpose=Purpose.DETECT.value,
    )
    response = gate.complete(request)
    state.audit.append(
        {"phase": "detect", "round": state.round, "prompt": prompt, "response": response.text}
    )

    detected: list[DetectedSpan] = []
    dropped: list[str] = []
    token_texts = state.current_token_texts()
    for line in response.text.split("\n"):
        for match in _QUOTED_RE.finditer(line):
            phrase = match[1] or match[2]
            needle = list(tokenize(phrase).texts)
            if not needle:
                continue
            positions = _find_subsequence(token_texts, needle)
            if not positions:
                dropped.append(phrase)
                logger.info("detector phrase %r not found in caption, dropped", phrase)
                continue
            rationale = (line[: match.start()] + line[match.end() :]).strip(" -:–")
            detected += [
                DetectedSpan(start=pos, end=pos + len(needle), phrase=phrase, rationale=rationale)
                for pos in positions
            ]
    if dropped:
        state.audit.append({"phase": "detect_dropped", "round": state.round, "phrases": dropped})
    elif not detected and response.text.strip() != "No issues found.":
        logger.info("detector reply quotes no phrase: %r", response.text)
        state.audit.append({"phase": "detect_unparsed", "round": state.round})
    state.audit.append(
        {
            "phase": "detect_grounded",
            "round": state.round,
            "spans": [(d.start, d.end, d.phrase) for d in detected],
        }
    )
    return detected


def _find_subsequence(haystack: list[str], needle: list[str]) -> list[int]:
    """Every start position of needle in haystack, overlapping ones too."""
    n, first = len(needle), needle[0]
    return [
        i
        for i, text in enumerate(haystack[: len(haystack) - n + 1])
        if text == first and haystack[i : i + n] == needle
    ]


def filter_detected(
    state: InjectionState, detected: list[DetectedSpan], cfg: InjectionConfig
) -> InjectionState:
    """Revert every injected span that shares at least cfg.overlap tokens with
    a detected span, record feedback about what was caught and why, and end
    the round. With nothing detected (or no spans) it only ends the round."""
    layout = state.span_layout()
    survivors: list[InjectedSpan] = []
    for (a, b), span in zip(layout, state.spans):
        tokens = set(range(a, b))
        hit = None
        for d in detected:
            if len(tokens & set(range(d.start, d.end))) >= cfg.overlap:
                hit = d
                break
        if hit is None:
            survivors.append(span)
        else:
            state.feedback.append(
                f'Round {state.round + 1}: the phrase "{" ".join(span.replacement)}" '
                f"({span.dimension}) was caught. Reason given: {hit.rationale or hit.phrase}"
            )
    state.reverted_last_round = len(state.spans) - len(survivors)
    state.spans = survivors
    state.round += 1
    return state


@dataclass
class InjectionOutcome:
    sample: BenchmarkSample
    state: InjectionState
    no_survivors: bool


def run_adversarial(
    clean: BenchmarkSample,
    cfg: InjectionConfig,
    gate: ModelGate,
    image: ImageAttachment | None = None,
) -> InjectionOutcome:
    """Full loop: initial injection, then rounds of detect + filter with
    feedback-driven re-injection. rounds=0 means inject once and keep all.

    Zero survivors is not an error: the sample comes back with empty gold
    spans, flagged, usable as a clean negative control.
    """
    state = inject_round(clean.caption, cfg, gate, image)
    for _ in range(cfg.rounds):
        if state.reverted_last_round > 0:
            state = inject_round(state, cfg, gate, image)
        detected = detect_round(state, cfg, gate) if state.spans else []
        state = filter_detected(state, detected, cfg)

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

"""Adversarial hallucination injection: an injector model plants errors in a
clean caption, a text-only detector tries to spot them from the caption
alone, detected spans revert to the clean text, and feedback drives further
rounds. What survives becomes synthetic gold annotation.

Injected spans are anchored to clean-caption token ranges and carry their
replacement tokens. The working caption is always re-derived from the clean
caption plus surviving spans, so untagged regions are token-identical to the
clean caption by construction, and reverting a span is simply dropping it.

A reply is the caption with its edits tagged. Its diff against the clean
caption gives the spans, by the rule that makes real gold from a caption and
its correction (diffannot.extract_gold_spans): each gap, a block between two
kept tokens, whose reply tokens are all tagged becomes one span over the
gap's clean tokens, labelled by the position of the tagged run that holds it.
A tagged word the diff keeps is unchanged and never gold. A gap with an
untagged reply token, one with a tag literal, and clean tokens missing from
the reply are problems. A reply with a problem is retried once with a
reminder; the retry's spans are kept, and the round fails only if the retry
tagged text and gave no span. max_spans counts tagged runs: the spans of the
first max_spans runs that give one are kept.
"""

from __future__ import annotations

import functools
import logging
import re
from dataclasses import dataclass, field, replace as dc_replace
from pathlib import Path

from .corpus import CLOSE_TAG, DIMENSION_VALUES, OPEN_TAG, OTHER, BenchmarkSample
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
    dimension: str = OTHER


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
    """The clean-anchored spans of a tagged injector reply, one per gap of
    its diff against the clean caption (see the module docstring), the
    problems found, and whether the reply tagged anything. A reply with no
    problems is a faithful one."""
    tagged_part, labels = _split_labels(response)
    parsed = parse_tags(tagged_part)
    out = tokenize(parsed.stripped)
    marked = marked_token_indices(out, parsed.marked_ranges)
    run_of = {g: i for i, (a, b) in enumerate(runs(marked)) for g in range(a, b)}

    problems: list[str] = []
    found: list[tuple[int, InjectedSpan]] = []  # (index of its tagged run, span)
    for g_start, g_end, c_start, c_end in diff_tokens(out, clean).gaps():
        replacement = out.texts[g_start:g_end]
        untagged = [g for g in range(g_start, g_end) if g not in marked]
        if not replacement:
            problems.append(f"clean tokens [{c_start}, {c_end}) missing from the output")
        elif untagged:
            named = ", ".join(f"[{a}, {b})" for a, b in runs(untagged))
            problems.append(f"untagged output tokens {named} differ from the clean caption")
        elif any(OPEN_TAG in t or CLOSE_TAG in t for t in replacement):
            problems.append(f"span [{g_start}, {g_end}) holds a tag literal")
        else:
            run = run_of[g_start]
            label = labels[run] if run < len(labels) else OTHER
            if label not in DIMENSION_VALUES:
                logger.warning("unknown span label %r, using %r", label, OTHER)
                label = OTHER
            found.append((run, InjectedSpan(c_start, c_end, replacement, label)))

    changed = sorted({run for run, _ in found})
    if len(changed) > cfg.max_spans:
        logger.warning(
            "injector changed %d tagged runs; keeping the first %d", len(changed), cfg.max_spans
        )
        found = [(run, span) for run, span in found if run <= changed[cfg.max_spans - 1]]
    return [span for _, span in found], problems, bool(parsed.marked_ranges)


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
    state: InjectionState,
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
    prompt = _injector_prompt(state, cfg)
    attempts = (("inject", prompt), ("inject_retry", prompt + _RETRY_REMINDER))
    for phase, user in attempts:
        response = gate.complete(
            ModelRequest(
                model=cfg.injector_model,
                user=user,
                purpose=Purpose.INJECT.value,
                image=image,
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
    state.spans = spans
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


def filter_detected(state: InjectionState, detected: list[DetectedSpan]) -> InjectionState:
    """Revert every injected span that shares a token with a detected span,
    record feedback about what was caught and why, and end the round. With
    nothing detected (or no spans) it only ends the round."""
    layout = state.span_layout()
    survivors: list[InjectedSpan] = []
    for (a, b), span in zip(layout, state.spans):
        # both ranges are non-empty, so they share a token iff they cross
        hit = next((d for d in detected if a < d.end and d.start < b), None)
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
    clean: BenchmarkSample
    state: InjectionState
    spans_after: list[list[InjectedSpan]]  # after the injection, then after each round
    sample: BenchmarkSample = field(init=False)  # the final round's

    def __post_init__(self) -> None:
        self.sample = self.sample_after(len(self.spans_after) - 1)

    def sample_after(self, r: int) -> BenchmarkSample:
        """The sample after round r, as a run with rounds=r makes it."""
        at = InjectionState(self.state.clean, spans=self.spans_after[r])
        gold = [HallucinationSpan(*ab, s.dimension) for ab, s in zip(at.span_layout(), at.spans)]
        return dc_replace(
            self.clean,
            caption=at.current_text(),
            gold_spans=gold,
            variant="synthetic",
            clean_caption=at.clean.source,
        )


def run_adversarial(
    clean: BenchmarkSample,
    cfg: InjectionConfig,
    gate: ModelGate,
    image: ImageAttachment | None = None,
) -> InjectionOutcome:
    """Full loop: initial injection, then rounds of detect + filter with
    feedback-driven re-injection. rounds=0 means inject once and keep all.

    Zero survivors is not an error: the sample comes back with empty gold
    spans, usable as a clean negative control. A caption with no token
    raises InjectionError. image is attached to injector requests as given.
    """
    tc = tokenize(clean.caption)
    if not tc.texts:
        raise InjectionError("run_adversarial: empty caption")
    state = inject_round(InjectionState(clean=tc), cfg, gate, image)
    spans_after = [state.spans]
    for _ in range(cfg.rounds):
        if state.reverted_last_round > 0:
            state = inject_round(state, cfg, gate, image)
        detected = detect_round(state, cfg, gate) if state.spans else []
        state = filter_detected(state, detected)
        spans_after.append(state.spans)
    return InjectionOutcome(clean, state, spans_after)

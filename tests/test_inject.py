"""Adversarial injection loop tests, all on scripted backends."""

from __future__ import annotations

import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from caploc.corpus import BenchmarkSample, HallucinationSpan, validate_sample
from caploc.inject import (
    _QUOTED_RE,
    DetectedSpan,
    InjectedSpan,
    InjectionConfig,
    InjectionError,
    InjectionState,
    detect_round,
    fill_template,
    filter_detected,
    inject_round,
    load_template,
    run_adversarial,
)
from caploc.modelgate import ModelGate, ScriptedBackend, ScriptRule
from caploc.tagproto import marked_token_indices, parse_tags, serialize_tags
from caploc.text import tokenize


def make_gate(rules):
    backend = ScriptedBackend(rules)
    return ModelGate(backend), backend


def inject_rule(*responses):
    return ScriptRule(purpose="inject", responses=list(responses))


CFG = InjectionConfig(rounds=2, include_image=False)


def tagged_caption(state):
    """The current caption with each surviving span tagged."""
    spans = [
        HallucinationSpan(a, b, s.dimension) for (a, b), s in zip(state.span_layout(), state.spans)
    ]
    return serialize_tags(tokenize(state.current_text()), spans)

TAG = "<HALLUCINATION>"
END = "</HALLUCINATION>"


class TestTemplates:
    def test_assets_load(self):
        for name in ("inject_structured", "inject_naive", "detect", "evaluate"):
            text = load_template(name)
            assert "{caption}" in text

    def test_fill_template_leaves_unknown_braces(self):
        out = fill_template("x {caption} {weird}", caption="a {b} c")
        assert out == "x a {b} c {weird}"

    def test_placeholders_in_a_caption_reach_the_prompt_verbatim(self):
        caption = "A sign reads {feedback} and {dimensions} on the wall."
        gate, backend = make_gate([inject_rule(caption)])
        state = InjectionState(clean=tokenize(caption), feedback=["Round 1: caught X"])
        inject_round(state, CFG, gate)
        (request,) = backend.requests
        assert caption in request.user
        assert "Round 1: caught X" in request.user


class TestConfig:
    def test_defaults_valid(self):
        InjectionConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rounds": -1},
            {"max_spans": 0},
            {"strategy": "chaotic"},
            {"overlap": 0},
            {"dimensions": ("color", "vibes")},
        ],
    )
    def test_bad_config_rejected(self, kwargs):
        with pytest.raises(ValueError):
            InjectionConfig(**kwargs)


class TestInjectRound:
    def test_substitution(self):
        gate, _ = make_gate([inject_rule(f"a {TAG}blue{END} car.\nLABELS: color")])
        state = inject_round("a red car.", CFG, gate)
        assert state.spans == [
            InjectedSpan(clean_start=1, clean_end=2, replacement=("blue",), dimension="color")
        ]
        assert state.current_text() == "a blue car."
        assert TAG + "blue" + END in tagged_caption(state).raw

    def test_echo_yields_no_spans(self):
        gate, _ = make_gate([inject_rule("a red car.")])
        state = inject_round("a red car.", CFG, gate)
        assert state.spans == []
        assert state.current_text() == "a red car."

    def test_addition_becomes_zero_width_anchor(self):
        gate, _ = make_gate(
            [inject_rule(f"a red car{TAG} with flames{END}.\nLABELS: scene")]
        )
        state = inject_round("a red car.", CFG, gate)
        assert state.spans == [
            InjectedSpan(clean_start=3, clean_end=3, replacement=("with", "flames"), dimension="scene")
        ]
        assert list(tokenize(state.current_text()).texts) == [
            "a", "red", "car", "with", "flames", "."
        ]

    def test_unfaithful_then_retry_succeeds(self):
        gate, backend = make_gate(
            [
                inject_rule(
                    "Sure! Here is the caption: a blue car.",
                    f"a {TAG}blue{END} car.\nLABELS: color",
                )
            ]
        )
        state = inject_round("a red car.", CFG, gate)
        assert [s.replacement for s in state.spans] == [("blue",)]
        assert len(backend.requests) == 2
        assert "REMINDER" in backend.requests[1].user
        phases = [entry["phase"] for entry in state.audit]
        assert phases == ["inject", "inject_retry"]

    def test_fallback_salvages_clean_spans(self):
        # after retry one edit stays untagged; the tagged one still lands
        bad = f"a {TAG}blue{END} car drives fast.\nLABELS: color"
        gate, _ = make_gate([inject_rule(bad, bad)])
        state = inject_round("a red car goes fast.", CFG, gate)
        assert state.spans == [
            InjectedSpan(clean_start=1, clean_end=2, replacement=("blue",), dimension="color")
        ]
        assert state.current_text() == "a blue car goes fast."

    def test_garbage_with_tags_raises(self):
        bad = f"totally different {TAG}junk{END} text here now"
        gate, _ = make_gate([inject_rule(bad, bad)])
        with pytest.raises(InjectionError):
            inject_round("a red car.", CFG, gate)

    def test_nested_tags_repaired(self):
        gate, _ = make_gate(
            [inject_rule(f"a {TAG}big {TAG}blue{END}{END} car.\nLABELS: color")]
        )
        state = inject_round("a red car.", CFG, gate)
        assert state.spans == [
            InjectedSpan(clean_start=1, clean_end=2, replacement=("big", "blue"), dimension="color")
        ]

    def test_missing_labels_pad_with_other(self):
        gate, _ = make_gate(
            [inject_rule(f"a {TAG}blue{END} car near {TAG}two{END} gates.\nLABELS: color")]
        )
        state = inject_round("a red car near the gates.", CFG, gate)
        assert [s.dimension for s in state.spans] == ["color", "other"]

    def test_unknown_label_becomes_other(self):
        gate, _ = make_gate([inject_rule(f"a {TAG}blue{END} car.\nLABELS: sparkle")])
        state = inject_round("a red car.", CFG, gate)
        assert state.spans[0].dimension == "other"

    def test_max_spans_truncates(self):
        cfg = InjectionConfig(max_spans=1, include_image=False)
        gate, _ = make_gate(
            [inject_rule(f"a {TAG}blue{END} car near {TAG}two{END} gates.\nLABELS: color, number")]
        )
        state = inject_round("a red car near the gates.", cfg, gate)
        assert len(state.spans) == 1
        assert state.spans[0].replacement == ("blue",)

    def test_empty_caption_raises(self):
        gate, _ = make_gate([inject_rule("x")])
        with pytest.raises(InjectionError):
            inject_round("   ", CFG, gate)

    @pytest.mark.parametrize(
        "reply",
        [f"p {TAG}r X{END} s.", f"p {TAG}X q{END} s."],
        ids=["clean_token_missing_at_left_edge", "clean_token_missing_at_right_edge"],
    )
    def test_run_next_to_a_missing_clean_token_does_not_align(self, reply):
        # the run's neighbours are kept, but a clean token is missing right
        # at its edge: the run is reported, not stretched over the gap
        gate, _ = make_gate([inject_rule(reply, reply)])
        with pytest.raises(InjectionError, match=r"span \[1, 3\) does not align"):
            inject_round("p q r s.", CFG, gate)


class TestDetectRound:
    def make_state(self):
        state = InjectionState(clean=tokenize("a red car near the gate."))
        state.spans = [InjectedSpan(1, 2, ("blue",), "color")]
        return state

    def test_quoted_phrase_grounded(self):
        state = self.make_state()
        gate, _ = make_gate(
            [ScriptRule(purpose="detect", responses=['"blue" - unlikely color here'])]
        )
        detected = detect_round(state, CFG, gate)
        assert detected == [
            DetectedSpan(start=1, end=2, phrase="blue", rationale="unlikely color here")
        ]
        assert state.audit[-1] == {
            "phase": "detect_grounded", "round": 0, "spans": [(1, 2, "blue")]
        }

    def test_no_issues_line_detects_nothing(self):
        for reply in ("No issues found.", "  No issues found.\n"):
            state = self.make_state()
            gate, _ = make_gate([ScriptRule(purpose="detect", responses=[reply])])
            assert detect_round(state, CFG, gate) == []
            assert [e["phase"] for e in state.audit] == ["detect", "detect_grounded"]

    @pytest.mark.parametrize("reply", ["The caption looks fine.", 'blue - odd', '" " - odd', ""])
    def test_reply_quoting_no_phrase_is_audited(self, reply):
        state = self.make_state()
        gate, _ = make_gate([ScriptRule(purpose="detect", responses=[reply])])
        assert detect_round(state, CFG, gate) == []
        assert state.audit[1:] == [
            {"phase": "detect_unparsed", "round": 0},
            {"phase": "detect_grounded", "round": 0, "spans": []},
        ]

    def test_phrase_grounded_at_every_occurrence(self):
        state = InjectionState(clean=tokenize("a red car near the red gate."))
        state.spans = [InjectedSpan(2, 3, ("bus",), "object")]
        gate, _ = make_gate([ScriptRule(purpose="detect", responses=['"red" - odd'])])
        detected = detect_round(state, CFG, gate)
        assert [(d.start, d.end, d.rationale) for d in detected] == [(1, 2, "odd"), (5, 6, "odd")]
        assert state.audit[-1]["spans"] == [(1, 2, "red"), (5, 6, "red")]

    def test_unlocatable_phrase_dropped(self):
        state = self.make_state()
        gate, _ = make_gate(
            [ScriptRule(purpose="detect", responses=['"purple" - not plausible'])]
        )
        assert detect_round(state, CFG, gate) == []
        assert state.audit[-2:] == [
            {"phase": "detect_dropped", "round": 0, "phrases": ["purple"]},
            {"phase": "detect_grounded", "round": 0, "spans": []},
        ]

    def test_multi_token_phrase(self):
        state = self.make_state()
        gate, _ = make_gate(
            [ScriptRule(purpose="detect", responses=['"blue car" : odd pairing'])]
        )
        detected = detect_round(state, CFG, gate)
        assert (detected[0].start, detected[0].end) == (1, 3)

    def test_without_spans_raises(self):
        state = InjectionState(clean=tokenize("a red car."))
        gate, _ = make_gate([ScriptRule(purpose="detect", responses=["x"])])
        with pytest.raises(ValueError):
            detect_round(state, CFG, gate)

    def test_detector_gets_plain_caption_without_image(self):
        state = self.make_state()
        gate, backend = make_gate(
            [ScriptRule(purpose="detect", responses=["No issues found."])]
        )
        detect_round(state, CFG, gate)
        req = backend.requests[0]
        assert req.image is None
        assert TAG not in req.user
        assert "a blue car near the gate." in req.user


class TestFilterDetected:
    def make_state(self):
        state = InjectionState(clean=tokenize("a red car near the gate."))
        state.spans = [
            InjectedSpan(1, 2, ("blue",), "color"),
            InjectedSpan(4, 5, ("that",), "spatial"),
        ]
        return state

    def test_overlap_reverts_only_hit_span(self):
        state = self.make_state()
        detected = [DetectedSpan(4, 5, "that", "looks wrong")]
        filter_detected(state, detected, CFG)
        assert state.spans == [InjectedSpan(1, 2, ("blue",), "color")]
        assert state.reverted_last_round == 1
        assert state.round == 1
        assert state.feedback == [
            'Round 1: the phrase "that" (spatial) was caught. Reason given: looks wrong'
        ]

    def test_wide_detection_reverts_both(self):
        state = self.make_state()
        detected = [DetectedSpan(0, 6, "a blue car near that gate", "rewrite")]
        filter_detected(state, detected, CFG)
        assert state.spans == []
        assert state.reverted_last_round == 2

    def test_nothing_detected_keeps_all(self):
        state = self.make_state()
        before = list(state.spans)
        filter_detected(state, [], CFG)
        assert state.spans == before
        assert state.reverted_last_round == 0
        assert state.feedback == []

    def test_overlap_threshold(self):
        cfg = InjectionConfig(overlap=2, include_image=False)
        state = InjectionState(clean=tokenize("a red car near the gate."))
        state.spans = [InjectedSpan(1, 3, ("big", "blue"), "color")]
        # one shared token is below the threshold of two
        filter_detected(state, [DetectedSpan(2, 4, "blue car", "")], cfg)
        assert len(state.spans) == 1
        state2 = InjectionState(clean=tokenize("a red car near the gate."))
        state2.spans = [InjectedSpan(1, 3, ("big", "blue"), "color")]
        filter_detected(state2, [DetectedSpan(1, 3, "big blue", "")], cfg)
        assert state2.spans == []


def adversarial_rules():
    first = (
        f"a {TAG}blue{END} car parked near the {TAG}open{END} gate.\n"
        "LABELS: color, scene"
    )
    second = f"a red car parked near the {TAG}open{END} gate.\nLABELS: scene"

    def detect(req):
        if "blue" in req.user:
            return '"blue" - unlikely color for this car'
        return "No issues found."

    return [
        inject_rule(first, second),
        ScriptRule(purpose="detect", responder=detect),
    ]


def clean_sample():
    return BenchmarkSample(
        id="s1",
        image="img/s1.png",
        domain="nature",
        caption="a red car parked near the gate.",
        gold_spans=[],
    )


class TestRunAdversarial:
    def test_k0_keeps_everything(self):
        cfg = InjectionConfig(rounds=0, include_image=False)
        gate, backend = make_gate(adversarial_rules())
        outcome = run_adversarial(clean_sample(), cfg, gate)
        sample = outcome.sample
        assert sample.variant == "synthetic"
        assert sample.clean_caption == "a red car parked near the gate."
        assert sample.caption == "a blue car parked near the open gate."
        assert sample.gold_spans == [
            HallucinationSpan(1, 2, "color"),
            HallucinationSpan(6, 7, "scene"),
        ]
        assert [r.purpose for r in backend.requests] == ["inject"]

    def test_k1_drops_caught_span(self):
        cfg = InjectionConfig(rounds=1, include_image=False)
        gate, backend = make_gate(adversarial_rules())
        outcome = run_adversarial(clean_sample(), cfg, gate)
        sample = outcome.sample
        assert sample.caption == "a red car parked near the open gate."
        assert sample.gold_spans == [HallucinationSpan(6, 7, "scene")]
        assert [r.purpose for r in backend.requests] == ["inject", "detect"]
        assert not outcome.no_survivors

    def test_k2_reinjects_with_feedback_then_fixed_point(self):
        cfg = InjectionConfig(rounds=2, include_image=False)
        gate, backend = make_gate(adversarial_rules())
        outcome = run_adversarial(clean_sample(), cfg, gate)
        sample = outcome.sample
        assert sample.caption == "a red car parked near the open gate."
        assert sample.gold_spans == [HallucinationSpan(6, 7, "scene")]
        assert [r.purpose for r in backend.requests] == [
            "inject",
            "detect",
            "inject",
            "detect",
        ]
        assert "was caught" in backend.requests[2].user
        assert outcome.state.round == 2

    def test_no_reinject_when_nothing_reverted(self):
        cfg = InjectionConfig(rounds=2, include_image=False)
        first = f"a {TAG}blue{END} car parked near the gate.\nLABELS: color"
        gate, backend = make_gate(
            [
                inject_rule(first),
                ScriptRule(purpose="detect", responses=["No issues found."] * 2),
            ]
        )
        outcome = run_adversarial(clean_sample(), cfg, gate)
        assert [r.purpose for r in backend.requests] == ["inject", "detect", "detect"]
        assert outcome.sample.gold_spans == [HallucinationSpan(1, 2, "color")]

    def test_tokenize_calls(self, monkeypatch):
        """One tokenize for the clean caption, one per injector reply and one
        per quoted detector phrase: the working caption is spliced, not
        tokenized again."""
        calls = []

        def counting(text):
            calls.append(text)
            return tokenize(text)

        for name, module in list(sys.modules.items()):
            if name.startswith("caploc.") and getattr(module, "tokenize", None) is tokenize:
                monkeypatch.setattr(module, "tokenize", counting)
        unfaithful = f"a {TAG}blue{END} truck parked near the gate.\nLABELS: color"
        first = f"a {TAG}blue{END} car parked near the {TAG}open{END} gate.\nLABELS: color, scene"
        second = f"a red car parked near the {TAG}open{END} gate.\nLABELS: scene"
        detect = ['"blue" - odd\n"zebra" - not there', "No issues found."]
        cfg = InjectionConfig(rounds=2, include_image=False)
        gate, _ = make_gate(
            [inject_rule(unfaithful, first, second), ScriptRule(purpose="detect", responses=detect)]
        )
        outcome = run_adversarial(clean_sample(), cfg, gate)
        audit = outcome.state.audit
        replies = [e for e in audit if e["phase"] in ("inject", "inject_retry")]
        phrases = [
            m for e in audit if e["phase"] == "detect" for m in _QUOTED_RE.finditer(e["response"])
        ]
        assert (len(replies), len(phrases)) == (3, 2)
        assert len(calls) == 1 + len(replies) + len(phrases)
        assert outcome.sample.gold_spans == [HallucinationSpan(6, 7, "scene")]

    def test_typographic_quotes_ground_the_phrase(self):
        """A detector that quotes with “…” catches the span like one that uses
        straight quotes."""
        cfg = InjectionConfig(rounds=1, include_image=False)
        first = f"a {TAG}green{END} car parked near the gate.\nLABELS: color"
        detect = ["“green” - unlikely color for this car"]
        gate, _ = make_gate(
            [inject_rule(first), ScriptRule(purpose="detect", responses=detect)]
        )
        outcome = run_adversarial(clean_sample(), cfg, gate)
        assert outcome.sample.caption == "a red car parked near the gate."
        assert outcome.no_survivors
        phases = [e["phase"] for e in outcome.state.audit]
        assert "detect_dropped" not in phases
        assert outcome.state.audit[-1] == {
            "phase": "detect_grounded", "round": 0, "spans": [(1, 2, "green")]
        }

    def test_repeated_phrase_is_caught_where_it_was_planted(self):
        """The detector quotes a word the clean caption also holds earlier:
        the planted occurrence is grounded too, and its span reverts."""
        cfg = InjectionConfig(rounds=1, include_image=False)
        clean = BenchmarkSample(
            id="s2", image="", domain="nature",
            caption="A red car stands beside a blue car.", gold_spans=[],
        )
        first = f"A red car stands beside a {TAG}red{END} car.\nLABELS: color"
        gate, _ = make_gate(
            [inject_rule(first), ScriptRule(purpose="detect", responses=['"red" - odd'])]
        )
        outcome = run_adversarial(clean, cfg, gate)
        assert outcome.sample.caption == "A red car stands beside a blue car."
        assert outcome.no_survivors
        assert outcome.state.audit[-1]["spans"] == [(1, 2, "red"), (6, 7, "red")]

    def test_tag_literal_in_a_replacement_never_reaches_the_caption(self):
        """Tag fragments that join into a tag literal around the tagged
        text: the span is a problem, retried once, and never returned."""
        cfg = InjectionConfig(rounds=0, include_image=False)
        reply = f"a {TAG}<HALLU{TAG}CINATION>blue{END}{END} car parked near the gate."
        gate, backend = make_gate([inject_rule(reply, reply)])
        try:
            outcome = run_adversarial(clean_sample(), cfg, gate)
        except InjectionError as exc:
            assert "holds a tag literal" in str(exc)
        else:
            assert validate_sample(outcome.sample).ok
        assert len(backend.requests) == 2  # the reply and its one retry

    def test_all_caught_yields_clean_negative(self):
        cfg = InjectionConfig(rounds=1, include_image=False)
        first = f"a {TAG}blue{END} car parked near the gate.\nLABELS: color"
        gate, _ = make_gate(
            [
                inject_rule(first, first),
                ScriptRule(
                    purpose="detect", responder=lambda req: '"blue" - wrong color'
                ),
            ]
        )
        outcome = run_adversarial(clean_sample(), cfg, gate)
        assert outcome.no_survivors
        assert outcome.sample.gold_spans == []
        assert outcome.sample.caption == "a red car parked near the gate."

    def test_survivor_phrases_not_flagged_by_same_detector(self):
        # closure: re-running the phrase detector on the final caption finds nothing
        cfg = InjectionConfig(rounds=2, include_image=False)
        gate, _ = make_gate(adversarial_rules())
        outcome = run_adversarial(clean_sample(), cfg, gate)
        assert "blue" not in outcome.sample.caption


# splice material: ASCII and Unicode punctuation (P*), symbols (S*), letters,
# digits and ASCII and Unicode whitespace
SPLICE_CHARS = list(".,;:!?\"'()-") + [
    "«", "»", "—", "。", "、", "$", "+", "€", "°", "©",
    "a", "b", "é", "ж", "漢", "1", "½", " ", " ", "\u3000", "\u00a0", "\t", "\n",
]
splice_texts = st.text(st.sampled_from(SPLICE_CHARS), max_size=40)
replacements = splice_texts.map(lambda t: tokenize(t).texts).filter(bool)


@st.composite
def splice_states(draw):
    """A clean caption with sorted spans: replaced ranges of one to three
    tokens and zero-width insertions, adjacent ones included; each
    replacement is the tokens of some random text."""
    state = InjectionState(clean=tokenize(draw(splice_texts)))
    total = len(state.clean.tokens)
    pos, inserted = 0, False
    while True:
        # a skip at the end of the caption ends the walk
        move = draw(st.sampled_from(["skip", "skip", "replace", "insert"]))
        if move == "insert" and not inserted:
            state.spans.append(InjectedSpan(pos, pos, draw(replacements)))
            inserted = True
        elif move == "replace" and pos < total:
            end = draw(st.integers(pos + 1, min(total, pos + 3)))
            state.spans.append(InjectedSpan(pos, end, draw(replacements)))
            pos, inserted = end, False
        elif pos < total:
            pos, inserted = pos + 1, False
        else:
            break
    return state


class TestRenderLayoutProperties:
    VOCAB = [
        "river", "stone", "bright", "cloud", "meadow", "fence", "tower",
        "green", "small", "round", "path", "light",
    ]

    def random_state(self, rng):
        n = rng.randint(3, 12)
        words = [rng.choice(self.VOCAB) for _ in range(n)]
        clean = tokenize(" ".join(words) + ".")
        total = len(clean.tokens)
        spans = []
        pos = 0
        while pos < total:
            if rng.random() < 0.3:
                zero_width = rng.random() < 0.3
                end = pos if zero_width else min(total, pos + rng.randint(1, 2))
                repl = tuple(rng.choice(self.VOCAB) for _ in range(rng.randint(1, 3)))
                spans.append(InjectedSpan(pos, end, repl, "other"))
                pos = end + 1
            else:
                pos += 1
        state = InjectionState(clean=clean)
        state.spans = spans
        return state

    def expected_texts(self, state):
        clean = list(state.clean.texts)
        out = []
        pos = 0
        for s in state.spans:
            out.extend(clean[pos : s.clean_start])
            out.extend(s.replacement)
            pos = s.clean_end
        out.extend(clean[pos:])
        return out

    @settings(max_examples=500, deadline=None)
    @given(splice_states())
    def test_render_matches_token_splice(self, state):
        texts = list(tokenize(state.current_text()).texts)
        assert texts == self.expected_texts(state)
        assert state.current_token_texts() == texts

    def test_layout_ranges_hold_replacements(self):
        rng = random.Random(913)
        for _ in range(300):
            state = self.random_state(rng)
            texts = tokenize(state.current_text()).texts
            for (a, b), span in zip(state.span_layout(), state.spans):
                assert tuple(texts[a:b]) == span.replacement

    def test_tagged_caption_round_trip(self):
        rng = random.Random(5550)
        for _ in range(200):
            state = self.random_state(rng)
            if not state.spans:
                continue
            tagged = tagged_caption(state)
            parsed = parse_tags(tagged.raw)
            current = tokenize(state.current_text())
            assert parsed.stripped == current.source
            marked = marked_token_indices(current, parsed.marked_ranges)
            expected = set()
            for a, b in state.span_layout():
                expected.update(range(a, b))
            assert marked == expected

"""Seeded inputs for the benchmark workloads, and the results each input was
built to produce.

This module is stdlib-only and does not import caploc: it carries its own
small tokenizer and sentence rule for the ASCII captions it writes, so the
checks in workloads.py compare the program against a second implementation
rather than against itself. The same seed always gives the same inputs.

Captions are made of sentences of nine distinct lowercase words plus a
period (ten tokens), with the first word capitalized. Tags, edits and
injected words only ever touch word tokens, never a period, and injected or
reworded words come from vocabularies disjoint from the caption vocabulary,
so every expected count below follows from the construction alone.
"""

from __future__ import annotations

import json
import random
import re
from pathlib import Path

OPEN_TAG = "<HALLUCINATION>"
CLOSE_TAG = "</HALLUCINATION>"

# ASCII characters whose Unicode category is punctuation (P*); symbols such
# as "+" or "$" stay attached to words, as in caploc's tokenizer.
_PUNCT = set("!\"#%&'()*,-./:;?@[\\]_{}")
_TERMINATORS = (".", "!", "?")

DIMENSIONS = (
    "number", "color", "category", "shape", "material",
    "spatial", "ocr", "scene", "camera", "other",
)
DOMAINS = ("gui", "nature", "chart", "movie", "poster")

VOCAB = (
    "amber", "anchor", "arch", "banner", "basin", "beacon", "bench", "birch",
    "bridge", "cable", "canopy", "canvas", "cedar", "chimney", "cliff",
    "cobble", "column", "copper", "crate", "dune", "easel", "ember", "fence",
    "ferry", "fountain", "gable", "glacier", "granite", "harbor", "hedge",
    "heron", "island", "ivory", "jetty", "kettle", "ladder", "lantern",
    "ledge", "linen", "maple", "marble", "meadow", "mirror", "mosaic",
    "orchard", "paddle", "pebble", "pillar", "quarry", "railing", "ribbon",
    "saddle", "scarf", "shutter", "silver", "spire", "stable", "terrace",
    "timber", "tunnel", "velvet", "walnut", "willow", "window",
)
# words an injector plants, never in VOCAB; the scripted detector reports
# phrases that start with a FAKE_CAUGHT word and misses the others
FAKE_CAUGHT = (
    "azure", "bronze", "crimson", "dozen", "eleven", "flamingo", "gazebo",
    "hexagon", "indigo", "jaguar", "kayak", "lilac", "magenta", "neon",
)
FAKE_HIDDEN = (
    "octagon", "pagoda", "quartz", "robot", "saffron", "tiger", "umbrella",
    "violet", "walrus", "yacht", "zebra", "zeppelin", "cobalt", "dragon",
    "emerald", "falcon", "giraffe", "helmet", "igloo", "jester",
)
# words that replace a caption word outside any tag
REWORD_VOCAB = ("glimmer", "hollow", "murmur", "nimbus", "plume", "quiver", "rustle", "thistle")

SCORE_LENGTHS = (250, 500, 1000)
SCORE_EDITS = ("drop", "reword", "truncate")
INJECT_TOKENS = 250

_ROUND_LINE = re.compile(r"^Round \d+: the phrase", re.M)


def tokens_of(text: str) -> list[tuple[str, int, int]]:
    """(text, char_start, char_end) per token: whitespace split, then leading
    and trailing punctuation characters split off one by one."""
    out = []
    for m in re.finditer(r"\S+", text):
        chunk, base = m.group(), m.start()
        i, j = 0, len(chunk)
        while i < j and chunk[i] in _PUNCT:
            out.append((chunk[i], base + i, base + i + 1))
            i += 1
        k = j
        while k > i and chunk[k - 1] in _PUNCT:
            k -= 1
        if k > i:
            out.append((chunk[i:k], base + i, base + k))
        out.extend((chunk[t], base + t, base + t + 1) for t in range(k, j))
    return out


def sentence_ranges(text: str, toks: list[tuple[str, int, int]]) -> list[tuple[int, int]]:
    """Token ranges of sentences: a boundary follows a token ending in . ! or ?
    when the text ends there or continues with whitespace and a capital."""
    ranges, start = [], 0
    for i, (tok, _, end) in enumerate(toks):
        if not tok.endswith(_TERMINATORS):
            continue
        rest = text[end:]
        stripped = rest.lstrip()
        if not stripped or (len(stripped) < len(rest) and stripped[0].isupper()):
            ranges.append((start, i + 1))
            start = i + 1
    if start < len(toks):
        ranges.append((start, len(toks)))
    return ranges


def tag_text(text: str, toks: list[tuple[str, int, int]], marked: set[int]) -> str:
    """Wrap each maximal run of marked tokens in hallucination tags."""
    parts, pos = [], 0
    for i in sorted(marked):
        if i - 1 not in marked:
            parts += [text[pos:toks[i][1]], OPEN_TAG]
            pos = toks[i][1]
        if i + 1 not in marked:
            parts += [text[pos:toks[i][2]], CLOSE_TAG]
            pos = toks[i][2]
    parts.append(text[pos:])
    return "".join(parts)


def render(tokens: list[str], marked: set[int] = frozenset()) -> str:
    """Join word tokens with spaces, attach each period to the word before
    it, and wrap runs of marked positions in tags."""
    parts = []
    for i, tok in enumerate(tokens):
        if i and tok != ".":
            parts.append(" ")
        if i in marked and i - 1 not in marked:
            parts.append(OPEN_TAG)
        parts.append(tok)
        if i in marked and i + 1 not in marked:
            parts.append(CLOSE_TAG)
    return "".join(parts)


def caption_tokens(rng: random.Random, n_tokens: int) -> list[str]:
    """Sentences of nine distinct vocabulary words and a period."""
    toks: list[str] = []
    for _ in range(n_tokens // 10):
        words = rng.sample(VOCAB, 9)
        words[0] = words[0].capitalize()
        toks += words + ["."]
    return toks


def expected_row(
    sample: dict,
    pred: set[int],
    n_tokens: int,
    sentences: list[tuple[int, int]],
    faithful: bool = True,
    coverage: float = 1.0,
) -> dict:
    """The per-sample report row that gold spans, predicted tokens and the
    sentence layout determine."""
    gold: set[int] = set()
    dims: dict[str, list[int]] = {}
    for span in sample["gold_spans"]:
        toks = set(range(span["start"], span["end"]))
        gold |= toks
        hit_total = dims.setdefault(span["dimension"], [0, 0])
        hit_total[0] += len(toks & pred)
        hit_total[1] += len(toks)
    assert all(0 <= i < n_tokens for i in gold | pred)
    gold_s = [bool(gold & set(range(a, b))) for a, b in sentences]
    pred_s = [bool(pred & set(range(a, b))) for a, b in sentences]
    return {
        "id": sample["id"],
        "domain": sample["domain"],
        "token": {"intersection": len(gold & pred), "predicted": len(pred), "gold": len(gold)},
        "sentence": {
            "intersection": sum(g and p for g, p in zip(gold_s, pred_s)),
            "predicted": sum(pred_s),
            "gold": sum(gold_s),
        },
        "dimensions": {d: {"hit": h, "total": t} for d, (h, t) in sorted(dims.items())},
        "faithful": faithful,
        "alignment_coverage": coverage,
        "parse_status": "ok",
    }


def write_jsonl(path: str | Path, records: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for record in records:
            f.write(json.dumps(record, ensure_ascii=False) + "\n")


def _sample(sample_id: str, domain: str, caption: str, spans: list[dict]) -> dict:
    return {
        "id": sample_id,
        "image": "",
        "domain": domain,
        "caption": caption,
        "gold_spans": spans,
        "variant": "real",
        "clean_caption": None,
    }


def score_inputs(seed: int, n: int, unfaithful: bool) -> tuple[list[dict], dict[str, str], dict[str, dict]]:
    """Samples, model outputs by id and expected report rows by id.

    Lengths cycle through 250, 500 and 1000 tokens. Unfaithful outputs cycle
    through a dropped word, a reworded word and a truncated tail; no gold or
    predicted span sits in or next to the edited sentences, so the diff
    aligns every marked token back to its own position.
    """
    rng = random.Random(f"perfbench:score:{seed}")
    samples, outputs, rows = [], {}, {}
    for i in range(n):
        length = SCORE_LENGTHS[i % len(SCORE_LENGTHS)]
        n_sent = length // 10
        toks = caption_tokens(rng, length)
        edit = SCORE_EDITS[(i // len(SCORE_LENGTHS)) % len(SCORE_EDITS)] if unfaithful else None
        if edit == "truncate":
            keep = n_sent - max(1, n_sent // 10)
            blocked = set(range(keep - 1, n_sent))
        elif edit is not None:
            edited = rng.randrange(1, n_sent - 1)
            blocked = {edited - 1, edited, edited + 1}
        else:
            blocked = set()
        free = [s for s in range(n_sent) if s not in blocked]

        spans, pred = [], set()
        for s in sorted(rng.sample(free, rng.randint(0, 4))):
            width = rng.randint(1, 3)
            start = 10 * s + rng.randint(0, 9 - width)
            spans.append({"start": start, "end": start + width, "dimension": rng.choice(DIMENSIONS)})
            roll = rng.random()
            if roll < 0.6:
                pred.update(range(start, start + width))
            elif roll < 0.8:
                pred.add(start)
        for s in rng.sample(free, rng.randint(0, 2)):
            pred.add(10 * s + rng.randint(0, 8))

        sample = _sample(f"s{i:05d}", DOMAINS[i % len(DOMAINS)], render(toks), spans)
        out_toks, out_marked, coverage = list(toks), set(pred), 1.0
        if edit == "drop":
            at = 10 * edited + rng.randint(1, 7)
            del out_toks[at]
            out_marked = {j if j < at else j - 1 for j in pred}
        elif edit == "reword":
            out_toks[10 * edited + rng.randint(1, 7)] = rng.choice(REWORD_VOCAB)
            coverage = (len(out_toks) - 1) / len(out_toks)
        elif edit == "truncate":
            out_toks = out_toks[: 10 * keep]
        samples.append(sample)
        outputs[sample["id"]] = render(out_toks, out_marked)
        rows[sample["id"]] = expected_row(
            sample, pred, length, [(10 * s, 10 * s + 10) for s in range(n_sent)],
            faithful=edit is None, coverage=coverage,
        )
    return samples, outputs, rows


def caption_after_label(user: str) -> str:
    """The caption a prompt template placed after its final 'Caption:' line."""
    return user.rsplit("Caption:\n", 1)[1].split("\n\nREMINDER:", 1)[0].rstrip("\n")


class EvalScript:
    """A model under test for the fixture: for each distinct caption it tags a
    seeded share of the gold tokens of the first sample with that caption,
    plus an occasional false positive."""

    def __init__(self, seed: int, samples: list[dict]):
        self.outputs: dict[str, str] = {}
        self.rows: dict[str, dict] = {}
        pred_of: dict[str, set[int]] = {}
        for sample in samples:
            caption = sample["caption"]
            toks = tokens_of(caption)
            if caption not in pred_of:
                rng = random.Random(f"perfbench:evaluate:{seed}:{caption}")
                pred: set[int] = set()
                for span in sample["gold_spans"]:
                    if rng.random() < 0.75:
                        pred.update(range(span["start"], span["end"]))
                if rng.random() < 0.3:
                    pred.add(rng.randrange(len(toks)))
                pred_of[caption] = pred
                self.outputs[caption] = tag_text(caption, toks, pred)
            self.rows[sample["id"]] = expected_row(
                sample, pred_of[caption], len(toks), sentence_ranges(caption, toks)
            )


class InjectScript:
    """A scripted injector and detector for 250-token clean captions, and the
    dataset and backend call count they lead run_adversarial to.

    Every pass gets the same kinds of work in fixed shares, so its cost
    barely depends on the seed, which picks the words, positions and labels,
    and which sample plays which of the ROLES:

    - sample i, in role r, gets 1 + (r + feedback lines) % 3 planted word
      spans per injection, each in its own sentence and with a label;
    - "bad" samples answer every first attempt with an extra reworded word
      outside the tags, which forces a retry; "bad retry" samples answer the
      retry that way too, which forces span-by-span salvage;
    - in "catch" samples the first injection's first span starts with a word
      from FAKE_CAUGHT, the only words the detector reports, so round 1
      reverts it and round 2 injects again.

    Each run_adversarial diffs the injector's answer once per attempt, so
    the roles cost 1, 2, 3, 4 or 6 diffs. Their shares put the median and
    the 90th percentile of per-sample time inside one role each, not on a
    boundary between two, for any seed: 45% of samples cost 1 diff, 35%
    cost 2, 5% cost 3, 10% cost 4 and 5% cost 6.

    The shares are an assumption made for steady metrics, not a measured
    injector or detector mix: no retry or detection rates are known.
    """

    # (bad, bad retry, catch) for role r % 20: 30% bad, 10% bad retry, 40% catch
    ROLES = (
        [(True, True, True)]
        + [(True, False, True)] * 2
        + [(True, True, False)]
        + [(True, False, False)] * 2
        + [(False, False, True)] * 5
        + [(False, False, False)] * 9
    )

    def __init__(self, seed: int, n: int):
        if n % len(self.ROLES):
            raise ValueError(f"sample count {n} is not a multiple of {len(self.ROLES)}")
        self.seed = seed
        rng = random.Random(f"perfbench:inject:{seed}")
        self.clean: list[dict] = []
        self.tokens: list[list[str]] = []
        for i in range(n):
            toks = caption_tokens(rng, INJECT_TOKENS)
            self.tokens.append(toks)
            self.clean.append(_sample(f"c{i:04d}", DOMAINS[i % len(DOMAINS)], render(toks), []))
        self.index = {s["caption"]: i for i, s in enumerate(self.clean)}
        if len(self.index) != n:
            raise ValueError("generated clean captions are not distinct")
        self.role = list(range(n))
        rng.shuffle(self.role)
        self._fake = set(FAKE_CAUGHT + FAKE_HIDDEN)

    def plan(self, idx: int, feedback: int) -> dict:
        rng = random.Random(f"perfbench:inject:{self.seed}:{idx}:{feedback}")
        n_sent = INJECT_TOKENS // 10
        role = self.role[idx]
        bad, bad_retry, catch = self.ROLES[role % len(self.ROLES)]
        span_sents = sorted(rng.sample(range(n_sent), 1 + (role + feedback) % 3))
        widths = [rng.randint(1, 2) for _ in span_sents]
        # distinct words across spans, so each planted phrase is found only once
        words = iter(rng.sample(FAKE_HIDDEN, sum(widths)))
        spans = []
        for j, (s, width) in enumerate(zip(span_sents, widths)):
            start = 10 * s + rng.randint(1, 8 - width)
            replacement = [next(words) for _ in range(width)]
            if j == 0 and feedback == 0 and catch:
                replacement[0] = rng.choice(FAKE_CAUGHT)
            spans.append((start, width, tuple(replacement), rng.choice(DIMENSIONS)))
        near = {t for s in span_sents for t in (s - 1, s, s + 1)}
        stray = 10 * rng.choice([s for s in range(n_sent) if s not in near]) + 4
        return {"spans": spans, "stray": stray, "bad_first": bad, "bad_retry": bad_retry}

    def _answer(self, idx: int, plan: dict, stray: bool) -> str:
        toks = list(self.tokens[idx])
        marked = set()
        for start, width, words, _ in plan["spans"]:
            toks[start : start + width] = words
            marked.update(range(start, start + width))
        if stray:
            toks[plan["stray"]] = REWORD_VOCAB[plan["stray"] % len(REWORD_VOCAB)]
        labels = ", ".join(dim for _, _, _, dim in plan["spans"])
        return render(toks, marked) + "\nLABELS: " + labels

    def inject_reply(self, user: str) -> str:
        idx = self.index[caption_after_label(user)]
        plan = self.plan(idx, len(_ROUND_LINE.findall(user)))
        retry = "\n\nREMINDER:" in user
        return self._answer(idx, plan, plan["bad_retry"] if retry else plan["bad_first"])

    @staticmethod
    def caught(phrase: str) -> bool:
        return phrase.split(" ", 1)[0] in FAKE_CAUGHT

    def detect_reply(self, user: str) -> str:
        runs: list[list[str]] = []
        prev_fake = False
        for tok, _, _ in tokens_of(caption_after_label(user)):
            fake = tok in self._fake
            if fake and prev_fake:
                runs[-1].append(tok)
            elif fake:
                runs.append([tok])
            prev_fake = fake
        lines = [f'"{p}" - implausible detail' for p in map(" ".join, runs) if self.caught(p)]
        return "\n".join(lines) if lines else "No issues found."

    def expected(self, idx: int, rounds: int = 2) -> tuple[dict, int]:
        """The synthetic sample run_adversarial returns for clean caption idx
        with K=rounds, and the number of backend calls it makes through a
        cache that starts cold."""
        feedback = 0
        plan = self.plan(idx, feedback)
        spans = plan["spans"]
        calls = 1 + plan["bad_first"]
        reverted = 0
        detected_captions = set()  # a repeated detect prompt is a cache hit
        for r in range(rounds):
            if r > 0 and reverted:
                plan = self.plan(idx, feedback)
                spans = plan["spans"]
                calls += 1 + plan["bad_first"]
            calls += tuple(spans) not in detected_captions
            detected_captions.add(tuple(spans))
            caught = [s for s in spans if self.caught(" ".join(s[2]))]
            spans = [s for s in spans if s not in caught]
            reverted = len(caught)
            feedback += reverted
        toks = list(self.tokens[idx])
        for start, width, words, _ in spans:
            toks[start : start + width] = words
        clean = self.clean[idx]
        sample = {
            **clean,
            "caption": render(toks),
            "gold_spans": [
                {"start": start, "end": start + width, "dimension": dim}
                for start, width, _, dim in spans
            ],
            "variant": "synthetic",
            "clean_caption": clean["caption"],
        }
        return sample, calls

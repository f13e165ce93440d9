"""Deterministic benchmark-shaped fixture: five domains, 200 samples each,
with per-domain hallucination rates fixed by construction. Pseudo-captions
only; the point is exercising the pipeline at realistic shape, not realism.
"""

from __future__ import annotations

import random

from .corpus import BenchmarkSample, HallucinationSpan
from .text import count_tokens

SAMPLES_PER_DOMAIN = 200

HALLU_RATES = {
    "gui": 0.68,
    "nature": 0.26,
    "chart": 0.41,
    "movie": 0.88,
    "poster": 0.90,
}

_VOCAB = {
    "gui": [
        "toolbar", "button", "sidebar", "window", "menu", "icon", "label",
        "panel", "dialog", "tab", "cursor", "checkbox", "dropdown", "header",
    ],
    "nature": [
        "river", "meadow", "pine", "cliff", "heron", "moss", "trail",
        "boulder", "fog", "shore", "thicket", "ridge", "fern", "creek",
    ],
    "chart": [
        "axis", "series", "legend", "bars", "trend", "quarter", "revenue",
        "baseline", "gridline", "peak", "segment", "percent", "curve", "label",
    ],
    "movie": [
        "actor", "camera", "hallway", "close-up", "crowd", "villain", "car",
        "rooftop", "shadow", "dialogue", "chase", "skyline", "uniform", "rain",
    ],
    "poster": [
        "title", "tagline", "logo", "banner", "date", "venue", "headline",
        "serif", "backdrop", "portrait", "gradient", "emblem", "credits", "frame",
    ],
}

_ADJECTIVES = [
    "small", "wide", "bright", "dark", "upper", "lower", "round", "narrow",
    "distant", "central", "faded", "sharp",
]

_VERBS = ["shows", "holds", "covers", "faces", "frames", "borders", "overlaps"]

_DIMENSIONS = {
    "gui": ["ocr", "color", "category", "number", "spatial"],
    "nature": ["category", "color", "number", "scene", "material"],
    "chart": ["number", "ocr", "category", "color"],
    "movie": ["scene", "camera", "category", "spatial"],
    "poster": ["ocr", "color", "number", "scene"],
}


def _sentence(rng: random.Random, words: list[str]) -> str:
    parts = [
        "the",
        rng.choice(_ADJECTIVES),
        rng.choice(words),
        rng.choice(_VERBS),
        "the",
        rng.choice(_ADJECTIVES),
        rng.choice(words),
    ]
    if rng.random() < 0.5:
        parts += ["near", "the", rng.choice(words)]
    return " ".join(parts) + "."


def _caption(rng: random.Random, domain: str) -> str:
    return " ".join(_sentence(rng, _VOCAB[domain]) for _ in range(rng.randint(2, 4)))


def _spans(rng: random.Random, domain: str, n_tokens: int) -> list[HallucinationSpan]:
    count = rng.randint(1, 3)
    taken: set[int] = set()
    spans = []
    for _ in range(count * 4):
        if len(spans) == count:
            break
        width = rng.randint(1, 2)
        start = rng.randrange(0, n_tokens - width + 1)
        covered = set(range(start, start + width))
        if covered & taken:
            continue
        taken |= covered
        spans.append(
            HallucinationSpan(start, start + width, rng.choice(_DIMENSIONS[domain]))
        )
    return sorted(spans, key=lambda s: s.start)


def build_fixture(seed: int = 20240918) -> list[BenchmarkSample]:
    """200 samples per domain; the first rate*200 of each carry gold spans,
    so every domain's hallucination rate matches its table value exactly."""
    samples = []
    for domain in sorted(HALLU_RATES):
        # string seeds hash stably across processes, unlike tuples of str
        rng = random.Random(f"{seed}:{domain}")
        with_hallu = round(HALLU_RATES[domain] * SAMPLES_PER_DOMAIN)
        for i in range(SAMPLES_PER_DOMAIN):
            caption = _caption(rng, domain)
            n_tokens = count_tokens(caption)
            gold = _spans(rng, domain, n_tokens) if i < with_hallu else []
            samples.append(
                BenchmarkSample(
                    id=f"{domain}-{i:03d}",
                    image=f"images/{domain}/{i:03d}.png",
                    domain=domain,
                    caption=caption,
                    gold_spans=gold,
                )
            )
    return samples

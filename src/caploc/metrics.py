"""Scoring mathematics: token and sentence precision/recall/F1, per-dimension
recall, micro/macro corpus aggregation, and Spearman rank correlation.

Empty-set conventions apply everywhere the same way: agreeing on "nothing
hallucinated" scores 1, predicting nothing against a non-empty gold (or the
reverse) scores 0, and F1 is 0 whenever P+R is 0.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass, field

from .corpus import HallucinationSpan


@dataclass(frozen=True)
class PRF:
    p: float
    r: float
    f1: float

    def to_dict(self) -> dict:
        return {"p": self.p, "r": self.r, "f1": self.f1}


def _check_counts(name: str, *counts: object) -> None:
    """Raise ValueError unless every count is an int of 0 or more (no bool)."""
    for count in counts:
        if type(count) is not int:
            raise ValueError(f"{name}: count {count!r} is not an integer")
        if count < 0:
            raise ValueError(f"{name}: negative count")


@dataclass(frozen=True)
class TokenCounts:
    """Raw numerators and denominators behind a P/R pair."""

    intersection: int
    predicted: int
    gold: int

    def __post_init__(self) -> None:
        _check_counts("TokenCounts", self.intersection, self.predicted, self.gold)
        if self.intersection > min(self.predicted, self.gold):
            raise ValueError("TokenCounts: intersection exceeds a side")

    def __add__(self, other: TokenCounts) -> TokenCounts:
        return TokenCounts(
            self.intersection + other.intersection,
            self.predicted + other.predicted,
            self.gold + other.gold,
        )

    def to_dict(self) -> dict:
        return {"intersection": self.intersection, "predicted": self.predicted, "gold": self.gold}

    def prf(self) -> PRF:
        if self.predicted == 0 and self.gold == 0:
            return PRF(1.0, 1.0, 1.0)
        p = self.intersection / self.predicted if self.predicted else 0.0
        r = self.intersection / self.gold if self.gold else 0.0
        f1 = 2 * p * r / (p + r) if p + r > 0 else 0.0
        return PRF(p, r, f1)


def token_counts(gold: set[int], pred: set[int]) -> TokenCounts:
    return TokenCounts(len(gold & pred), len(pred), len(gold))


def sentence_metrics(gold: set[int], pred: set[int], ends: Sequence[int]) -> TokenCounts:
    """Sentence-level counts: a sentence counts as hallucinated when it
    contains at least one hallucinated token.

    ends are the sentences' end token indices, as split_sentences returns
    them: the sentences tile the token range [0, n) in order, so token i
    belongs to the first sentence ending after it, found by bisection.
    """
    n = ends[-1] if ends else 0
    bad = [i for i in gold | pred if not 0 <= i < n]
    if bad:
        raise ValueError(
            f"sentence_metrics: indices {sorted(bad)} not covered by the sentence index"
        )
    gold_hit = {bisect_right(ends, i) for i in gold}
    pred_hit = {bisect_right(ends, i) for i in pred}
    return TokenCounts(len(gold_hit & pred_hit), len(pred_hit), len(gold_hit))


@dataclass(frozen=True)
class RecallCounts:
    hit: int
    total: int

    def __post_init__(self) -> None:
        _check_counts("RecallCounts", self.hit, self.total)
        if self.hit > self.total:
            raise ValueError("RecallCounts: hit exceeds total")

    def __add__(self, other: RecallCounts) -> RecallCounts:
        return RecallCounts(self.hit + other.hit, self.total + other.total)

    def to_dict(self) -> dict:
        return {"hit": self.hit, "total": self.total}


def dimension_counts(
    gold_spans: list[HallucinationSpan], pred: set[int]
) -> dict[str, RecallCounts]:
    """Per-dimension hit/total token counts; only dimensions with gold tokens
    appear."""
    out: dict[str, RecallCounts] = {}
    for span in gold_spans:
        tokens = set(range(span.start, span.end))
        prev = out.get(span.dimension, RecallCounts(0, 0))
        out[span.dimension] = prev + RecallCounts(len(tokens & pred), len(tokens))
    return out


@dataclass(frozen=True)
class SampleScore:
    """Everything scoring needs to remember about one sample."""

    sample_id: str
    domain: str
    token: TokenCounts
    sentence: TokenCounts
    dimensions: dict[str, RecallCounts]
    faithful: bool


@dataclass
class ScoreCard:
    """Corpus-level scores. Micro values (counts summed before dividing) are
    the headline; macro (mean of per-sample metrics) is secondary."""

    token: PRF
    sentence: PRF
    dimension_recall: dict[str, float]
    faithfulness_violation_rate: float
    sample_count: int
    macro_token: PRF
    macro_sentence: PRF
    per_domain: dict[str, ScoreCard] = field(default_factory=dict)

    def to_dict(self) -> dict:
        d = {
            "token": self.token.to_dict(),
            "sentence": self.sentence.to_dict(),
            "dimension_recall": dict(sorted(self.dimension_recall.items())),
            "faithfulness_violation_rate": self.faithfulness_violation_rate,
            "sample_count": self.sample_count,
            "macro": {
                "token": self.macro_token.to_dict(),
                "sentence": self.macro_sentence.to_dict(),
            },
        }
        if self.per_domain:
            d["domains"] = {k: v.to_dict() for k, v in sorted(self.per_domain.items())}
        return d


def _mean_prf(values: list[PRF]) -> PRF:
    n = len(values)
    return PRF(
        sum(v.p for v in values) / n,
        sum(v.r for v in values) / n,
        sum(v.f1 for v in values) / n,
    )


def _aggregate_flat(scores: list[SampleScore]) -> ScoreCard:
    token_total = TokenCounts(0, 0, 0)
    sentence_total = TokenCounts(0, 0, 0)
    dims: dict[str, RecallCounts] = {}
    for s in scores:
        token_total = token_total + s.token
        sentence_total = sentence_total + s.sentence
        for dim, rc in s.dimensions.items():
            dims[dim] = dims.get(dim, RecallCounts(0, 0)) + rc
    violations = sum(1 for s in scores if not s.faithful)
    return ScoreCard(
        token=token_total.prf(),
        sentence=sentence_total.prf(),
        dimension_recall={d: rc.hit / rc.total for d, rc in dims.items() if rc.total},
        faithfulness_violation_rate=violations / len(scores),
        sample_count=len(scores),
        macro_token=_mean_prf([s.token.prf() for s in scores]),
        macro_sentence=_mean_prf([s.sentence.prf() for s in scores]),
    )


def aggregate(scores: list[SampleScore]) -> ScoreCard:
    """Micro-aggregate sample scores, with per-domain sub-cards."""
    if not scores:
        raise ValueError("aggregate: no samples")
    card = _aggregate_flat(scores)
    by_domain: dict[str, list[SampleScore]] = {}
    for s in scores:
        by_domain.setdefault(s.domain, []).append(s)
    card.per_domain = {d: _aggregate_flat(group) for d, group in sorted(by_domain.items())}
    return card


def _average_ranks(values: list[float]) -> list[float]:
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        avg = (i + j) / 2 + 1  # ranks are 1-based
        for k in range(i, j + 1):
            ranks[order[k]] = avg
        i = j + 1
    return ranks


def spearman(a: list[float], b: list[float]) -> float | None:
    """Rank correlation with average ranks for ties (Pearson on ranks).

    Returns None when either vector is constant, where the coefficient is
    undefined.
    """
    if len(a) != len(b):
        raise ValueError(f"spearman: length mismatch {len(a)} vs {len(b)}")
    if len(a) < 2:
        raise ValueError("spearman: need at least 2 points")
    ra = _average_ranks(list(a))
    rb = _average_ranks(list(b))
    n = len(ra)
    ma = sum(ra) / n
    mb = sum(rb) / n
    cov = sum((x - ma) * (y - mb) for x, y in zip(ra, rb))
    va = sum((x - ma) ** 2 for x in ra)
    vb = sum((y - mb) ** 2 for y in rb)
    if va == 0 or vb == 0:
        return None
    return cov / math.sqrt(va * vb)

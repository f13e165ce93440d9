"""Scoring mathematics: token and sentence precision/recall/F1, per-dimension
recall, micro/macro corpus aggregation, and Spearman rank correlation.

Empty-set conventions apply everywhere the same way: agreeing on "nothing
hallucinated" scores 1, predicting nothing against a non-empty gold (or the
reverse) scores 0, and F1 is 0 whenever P+R is 0.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

from .corpus import HallucinationSpan
from .text import TokenizedCaption, ends_sentence


@dataclass(frozen=True)
class PRF:
    p: float
    r: float
    f1: float

    def to_dict(self) -> dict:
        return {"p": self.p, "r": self.r, "f1": self.f1}


def _prf(intersection: int, predicted: int, gold: int) -> tuple[float, float, float]:
    """(p, r, f1) of intersection, predicted and gold counts, by the empty-set
    conventions."""
    if predicted == 0 and gold == 0:
        return 1.0, 1.0, 1.0
    p = intersection / predicted if predicted else 0.0
    r = intersection / gold if gold else 0.0
    return p, r, 2 * p * r / (p + r) if p + r > 0 else 0.0


def token_counts(gold: set[int], pred: set[int]) -> dict[str, int]:
    """A report row's token counts: the sizes of gold & pred, pred and gold."""
    return {"intersection": len(gold & pred), "predicted": len(pred), "gold": len(gold)}


def sentence_metrics(gold: set[int], pred: set[int], tc: TokenizedCaption) -> dict[str, int]:
    """Sentence-level counts of caption tc, in token_counts' form: a sentence
    counts as hallucinated when it contains at least one hallucinated token.

    Each gold or predicted token is labelled by its sentence's first token,
    found by scanning back to the nearest boundary (text.ends_sentence), in
    index order: a scan stops at the index labelled before it and takes that
    index's label when it meets no boundary on the way. So the scans read
    each token at most once, and most tokens of a long caption not at all.
    """
    n = len(tc)
    scored = sorted(gold | pred)
    bad = [i for i in scored if not 0 <= i < n]
    if bad:
        raise ValueError(f"sentence_metrics: indices {bad} not covered by the sentence index")
    first: dict[int, int] = {}
    start = prev = 0
    for i in scored:
        for j in range(i - 1, prev - 1, -1):
            if ends_sentence(tc, j):
                start = j + 1
                break
        first[i] = start
        prev = i
    gold_hit = {first[i] for i in gold}
    pred_hit = {first[i] for i in pred}
    return {"intersection": len(gold_hit & pred_hit), "predicted": len(pred_hit), "gold": len(gold_hit)}


def dimension_counts(
    gold_spans: list[HallucinationSpan], pred: set[int]
) -> dict[str, dict[str, int]]:
    """Per-dimension {"hit", "total"} token counts in dimension order; only
    dimensions with gold tokens appear."""
    sums: dict[str, list[int]] = {}
    for span in gold_spans:
        tokens = range(span.start, span.end)
        hit_total = sums.setdefault(span.dimension, [0, 0])
        hit_total[0] += len(pred.intersection(tokens))
        hit_total[1] += len(tokens)
    return {d: {"hit": hit, "total": total} for d, (hit, total) in sorted(sums.items())}


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


def _mean_prf(prfs: Sequence[tuple[float, float, float]]) -> PRF:
    """The mean of per-row (p, r, f1), each summed in row order."""
    return PRF(*(sum(column) / len(prfs) for column in zip(*prfs)))


def _card(rows: list[tuple]) -> ScoreCard:
    """The card of the per-row terms aggregate files under it."""
    ti, tp, tg, si, sp, sg, unfaithful, token_prfs, sentence_prfs, dims = zip(*rows)
    dim_sums: dict[str, list[int]] = {}
    for row_dims in dims:
        for dim, hit, total in row_dims:
            hit_total = dim_sums.setdefault(dim, [0, 0])
            hit_total[0] += hit
            hit_total[1] += total
    return ScoreCard(
        token=PRF(*_prf(sum(ti), sum(tp), sum(tg))),
        sentence=PRF(*_prf(sum(si), sum(sp), sum(sg))),
        dimension_recall={d: hit / total for d, (hit, total) in dim_sums.items() if total},
        faithfulness_violation_rate=sum(unfaithful) / len(rows),
        sample_count=len(rows),
        macro_token=_mean_prf(token_prfs),
        macro_sentence=_mean_prf(sentence_prfs),
    )


_SIDES = ("intersection", "predicted", "gold")
_RECALL = ("hit", "total")


def _counts(name: str, counts: object, keys: tuple[str, ...]) -> list[int]:
    """The counts of row field `name` in keys order. Raise ValueError naming
    the field unless it holds exactly those keys, each an int of 0 or more
    (no bool), and the first (intersection or hit) exceeds none of the rest."""
    if type(counts) is not dict or counts.keys() != set(keys):
        raise ValueError(f"{name}: not an object of exactly {', '.join(keys)}")
    values = [counts[key] for key in keys]
    for count in values:
        if type(count) is not int:
            raise ValueError(f"{name}: count {count!r} is not an integer")
        if count < 0:
            raise ValueError(f"{name}: negative count")
    if values[0] > min(values[1:]):
        raise ValueError(f"{name}: {keys[0]} exceeds {' or '.join(keys[1:])}")
    return values


def aggregate(rows: list[dict]) -> ScoreCard:
    """The card of report rows as evalrun.score_sample writes them, with
    per-domain sub-cards: the one way a card is made, live or read back.

    One pass checks each row by _counts, for a string id and domain and a
    bool faithful, raising ValueError naming the row, and files its counts
    and its token and sentence PRFs under the overall card and its domain's.
    Each card sums its counts into its PRFs and averages the per-row PRFs in
    row order. A missing key raises KeyError, a row of the wrong shape
    TypeError or AttributeError, and no rows ValueError."""
    everything: list[tuple] = []
    by_domain: dict[str, list[tuple]] = {}
    for i, row in enumerate(rows):
        try:
            ti, tp, tg = _counts("token", row["token"], _SIDES)
            si, sp, sg = _counts("sentence", row["sentence"], _SIDES)
            dims = [
                (dim, *_counts(f"dimensions/{dim}", counts, _RECALL))
                for dim, counts in row["dimensions"].items()
            ]
            domain, faithful = row["domain"], row["faithful"]
            if not (isinstance(row["id"], str) and isinstance(domain, str)):
                raise ValueError("id or domain is not a string")
            if type(faithful) is not bool:
                raise ValueError(f"faithful is {faithful!r}, not a boolean")
        except ValueError as exc:
            raise ValueError(f"sample row {i}: {exc}") from None
        terms = (ti, tp, tg, si, sp, sg, not faithful, _prf(ti, tp, tg), _prf(si, sp, sg), dims)
        everything.append(terms)
        by_domain.setdefault(domain, []).append(terms)
    if not everything:
        raise ValueError("aggregate: no samples")
    card = _card(everything)
    card.per_domain = {d: _card(group) for d, group in sorted(by_domain.items())}
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

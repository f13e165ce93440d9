"""Test-side scoring views that the scoring pipeline itself never builds,
and reports built from given counts."""

from __future__ import annotations

from caploc.evalrun import EvalReport
from caploc.metrics import PRF, _prf, aggregate, token_counts


def prf(counts: dict) -> PRF:
    """The P/R/F1 of a report row's {"intersection", "predicted", "gold"}
    counts."""
    return PRF(*_prf(**counts))


def token_metrics(gold: set[int], pred: set[int], n: int | None = None) -> PRF:
    """Precision, recall and F1 over hallucinated token index sets, with
    every index checked against [0, n) when n is given."""
    if n is not None:
        bad = [i for i in gold | pred if not 0 <= i < n]
        if bad:
            raise ValueError(f"token_metrics: indices {sorted(bad)} outside [0, {n})")
    return prf(token_counts(gold, pred))


def sentence_labels(indices: set[int], ends: tuple[int, ...]) -> tuple[bool, ...]:
    """Whether each sentence, given by the end indices split_sentences
    returns, holds one of the token indices, in order."""
    return tuple(
        any(start <= i < end for i in indices) for start, end in zip((0, *ends), ends)
    )


def report_dict(model: str, intersection: int, predicted: int, gold: int) -> dict:
    """The report.json of one scored sample whose token and sentence counts
    are the given ones, as EvalReport.to_dict writes it."""
    counts = {"intersection": intersection, "predicted": predicted, "gold": gold}
    row = {
        "id": "s",
        "domain": "nature",
        "token": counts,
        "sentence": dict(counts),
        "dimensions": {},
        "faithful": True,
        "alignment_coverage": 1.0,
        "parse_status": "ok",
    }
    return EvalReport(
        model=model,
        dataset_sha256="0" * 64,
        coverage=1.0,
        card=aggregate([row]),
        samples=[row],
        skipped=[],
        tool_versions={},
        generated_at="",
    ).to_dict()

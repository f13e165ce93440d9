import math
import random

import pytest

from caploc.corpus import HallucinationSpan
from caploc.metrics import (
    PRF,
    _prf,
    aggregate,
    dimension_counts,
    sentence_metrics,
    spearman,
    token_counts,
)
from caploc.text import split_sentences, tokenize
from metric_helpers import prf as counts_prf, sentence_labels, token_metrics


def test_token_counts_invariants():
    """aggregate refuses token counts no scoring writes."""
    with pytest.raises(ValueError, match="intersection exceeds predicted or gold"):
        aggregate([make_row("a", "gui", (3, 2, 5))])
    with pytest.raises(ValueError, match="negative count"):
        aggregate([make_row("a", "gui", (-1, 2, 5))])


def test_token_half_overlap():
    prf = token_metrics({2, 3}, {3, 4})
    assert (prf.p, prf.r, prf.f1) == (0.5, 0.5, 0.5)


def test_token_exact_match():
    prf = token_metrics({1, 5, 9}, {1, 5, 9})
    assert (prf.p, prf.r, prf.f1) == (1.0, 1.0, 1.0)


def test_token_empty_pred():
    prf = token_metrics({1}, set())
    assert (prf.p, prf.r, prf.f1) == (0.0, 0.0, 0.0)


def test_token_empty_gold():
    prf = token_metrics(set(), {1})
    assert (prf.p, prf.r, prf.f1) == (0.0, 0.0, 0.0)


def test_token_both_empty():
    prf = token_metrics(set(), set())
    assert (prf.p, prf.r, prf.f1) == (1.0, 1.0, 1.0)


def test_token_range_check():
    with pytest.raises(ValueError):
        token_metrics({5}, set(), n=3)


def brute_prf(gold, pred):
    inter = len([i for i in pred if i in gold])
    if not pred and not gold:
        return (1.0, 1.0, 1.0)
    p = inter / len(pred) if pred else 0.0
    r = inter / len(gold) if gold else 0.0
    f1 = 2 * p * r / (p + r) if p + r > 0 else 0.0
    return (p, r, f1)


def test_token_oracle_property():
    rng = random.Random(41)
    for _ in range(1000):
        n = rng.randrange(0, 21)
        gold = {i for i in range(n) if rng.random() < 0.3}
        pred = {i for i in range(n) if rng.random() < 0.3}
        prf = token_metrics(gold, pred, n=n)
        assert (prf.p, prf.r, prf.f1) == brute_prf(gold, pred)


TWO_SENT_TC = tokenize("The car is red. A bird flies.")
TWO_SENT = split_sentences(TWO_SENT_TC)
# sentence 0 = tokens 0..4, sentence 1 = tokens 5..9


def test_sentence_disjoint_hits():
    counts = sentence_metrics({1}, {6}, TWO_SENT_TC)
    prf = counts_prf(counts)
    assert (prf.p, prf.r, prf.f1) == (0.0, 0.0, 0.0)
    assert counts == {"intersection": 0, "predicted": 1, "gold": 1}
    assert sentence_labels({1}, TWO_SENT) == (True, False)
    assert sentence_labels({6}, TWO_SENT) == (False, True)


def test_sentence_equal_sets():
    prf = counts_prf(sentence_metrics({1, 6}, {1, 6}, TWO_SENT_TC))
    assert (prf.p, prf.r, prf.f1) == (1.0, 1.0, 1.0)


def test_sentence_overprediction():
    prf = counts_prf(sentence_metrics({1}, {1, 6}, TWO_SENT_TC))
    assert prf.p == 0.5
    assert prf.r == 1.0
    assert abs(prf.f1 - 2 / 3) < 1e-12


def test_sentence_any_token_marks_sentence():
    prf = counts_prf(sentence_metrics({0}, {4}, TWO_SENT_TC))
    # different tokens, same sentence
    assert prf.p == 1.0 and prf.r == 1.0


def test_sentence_out_of_range():
    with pytest.raises(ValueError):
        sentence_metrics({99}, set(), TWO_SENT_TC)


def test_sentence_token_consistency_property():
    rng = random.Random(42)
    for _ in range(200):
        n_sent = rng.randrange(1, 6)
        text = " ".join("Word here now." for _ in range(n_sent))
        tc = tokenize(text)
        ends = split_sentences(tc)
        n = ends[-1]
        gold = {i for i in range(n) if rng.random() < 0.2}
        counts = sentence_metrics(gold, gold, tc)
        labels = sentence_labels(gold, ends)
        for start, end, label in zip((0, *ends), ends, labels):
            assert label == bool(set(range(start, end)) & gold)
        hit = sum(labels)
        assert counts == {"intersection": hit, "predicted": hit, "gold": hit}
        prf = counts_prf(counts)
        assert (prf.p, prf.r, prf.f1) == (1.0, 1.0, 1.0)


def test_dimension_full_recall():
    spans = [HallucinationSpan(1, 2, "color")]
    assert dimension_counts(spans, {1}) == {"color": {"hit": 1, "total": 1}}


def test_dimension_partial():
    spans = [HallucinationSpan(1, 3, "color")]
    assert dimension_counts(spans, {1}) == {"color": {"hit": 1, "total": 2}}


def test_dimension_empty():
    assert dimension_counts([], {1, 2}) == {}


def test_dimension_no_support_absent():
    spans = [HallucinationSpan(1, 2, "color")]
    counts = dimension_counts(spans, set())
    assert counts == {"color": {"hit": 0, "total": 1}}
    assert "number" not in counts


def test_dimension_decomposition_property():
    rng = random.Random(43)
    dims = ["number", "color", "ocr", "spatial"]
    for _ in range(200):
        spans = []
        pos = 0
        for _ in range(rng.randrange(0, 5)):
            start = pos + rng.randrange(0, 3)
            end = start + rng.randrange(1, 4)
            spans.append(HallucinationSpan(start, end, rng.choice(dims)))
            pos = end
        gold = set()
        for s in spans:
            gold.update(range(s.start, s.end))
        counts = dimension_counts(spans, set())
        assert sum(rc["total"] for rc in counts.values()) == len(gold)


def make_row(sid, domain, tok, faithful=True, dims=None):
    """A report row, as score_sample writes it, with the given token counts."""
    intersection, predicted, gold = tok
    return {
        "id": sid,
        "domain": domain,
        "token": {"intersection": intersection, "predicted": predicted, "gold": gold},
        "sentence": {"intersection": 0, "predicted": 0, "gold": 0},
        "dimensions": dims or {},
        "faithful": faithful,
        "alignment_coverage": 1.0,
        "parse_status": "ok",
    }


def test_aggregate_micro():
    card = aggregate([make_row("a", "gui", (1, 2, 2)), make_row("b", "gui", (1, 2, 2))])
    assert card.token.p == 0.5
    assert card.sample_count == 2


def test_aggregate_single_identity():
    card = aggregate([make_row("a", "gui", (2, 3, 4))])
    single = PRF(*_prf(2, 3, 4))
    assert card.token == single
    assert card.macro_token == single


def test_aggregate_all_empty_convention():
    card = aggregate([make_row("a", "gui", (0, 0, 0)), make_row("b", "chart", (0, 0, 0))])
    assert (card.token.p, card.token.r, card.token.f1) == (1.0, 1.0, 1.0)


def test_aggregate_domains_and_dims():
    card = aggregate(
        [
            make_row("a", "gui", (1, 1, 2), dims={"color": {"hit": 1, "total": 2}}),
            make_row("b", "chart", (0, 1, 1), faithful=False,
                     dims={"color": {"hit": 0, "total": 2}, "ocr": {"hit": 1, "total": 1}}),
        ]
    )
    assert set(card.per_domain) == {"gui", "chart"}
    assert card.per_domain["gui"].token.p == 1.0
    assert card.dimension_recall == {"color": 0.25, "ocr": 1.0}
    assert card.faithfulness_violation_rate == 0.5


def test_aggregate_micro_vs_macro_differ():
    card = aggregate([make_row("a", "gui", (1, 1, 1)), make_row("b", "gui", (1, 3, 3))])
    assert card.token.p == 0.5
    assert card.macro_token.p == (1.0 + 1 / 3) / 2


def test_aggregate_empty_error():
    with pytest.raises(ValueError):
        aggregate([])


def test_aggregate_order_invariant():
    rows = [make_row(f"s{i}", d, (i % 2, i % 3 + 1, 2)) for i, d in
            enumerate(["gui", "chart", "gui", "movie"])]
    a = aggregate(rows)
    b = aggregate(list(reversed(rows)))
    assert a.token == b.token and a.per_domain.keys() == b.per_domain.keys()


def test_scorecard_to_dict():
    card = aggregate([make_row("a", "gui", (1, 2, 2))])
    d = card.to_dict()
    assert d["token"]["p"] == 0.5
    assert "domains" in d and "gui" in d["domains"]
    assert "macro" in d


def test_spearman_identity():
    assert spearman([1, 2, 3], [10, 20, 30]) == 1.0


def test_spearman_reversed():
    assert spearman([1, 2, 3], [5, 4, 3]) == -1.0


def test_spearman_known_value():
    assert spearman([1, 2, 3, 4], [1, 3, 2, 4]) == 0.8


def test_spearman_constant_none():
    assert spearman([1, 1, 1], [1, 2, 3]) is None


def test_spearman_errors():
    with pytest.raises(ValueError):
        spearman([1, 2], [1, 2, 3])
    with pytest.raises(ValueError):
        spearman([1], [2])


def brute_spearman(a, b):
    # independent implementation: explicit average ranks, explicit Pearson
    def ranks(v):
        out = []
        for x in v:
            less = sum(1 for y in v if y < x)
            equal = sum(1 for y in v if y == x)
            out.append(less + (equal + 1) / 2)
        return out

    ra, rb = ranks(a), ranks(b)
    n = len(a)
    ma, mb = sum(ra) / n, sum(rb) / n
    num = sum((x - ma) * (y - mb) for x, y in zip(ra, rb))
    da = math.sqrt(sum((x - ma) ** 2 for x in ra))
    db = math.sqrt(sum((y - mb) ** 2 for y in rb))
    if da == 0 or db == 0:
        return None
    return num / (da * db)


def test_spearman_oracle_property():
    rng = random.Random(44)
    for _ in range(300):
        n = rng.randrange(2, 30)
        a = [rng.choice([rng.random(), round(rng.random(), 1)]) for _ in range(n)]
        b = [rng.choice([rng.random(), round(rng.random(), 1)]) for _ in range(n)]
        expected = brute_spearman(a, b)
        got = spearman(a, b)
        if expected is None:
            assert got is None
        else:
            assert got is not None
            assert abs(got - expected) < 1e-12

from __future__ import annotations

from caploc.corpus import validate_sample
from caploc.fixtures import HALLU_RATES, SAMPLES_PER_DOMAIN, build_fixture


def test_fixture_is_deterministic():
    assert build_fixture() == build_fixture()
    assert build_fixture(seed=1) != build_fixture(seed=2)


def test_fixture_samples_are_valid():
    samples = build_fixture()
    assert len(samples) == len(HALLU_RATES) * SAMPLES_PER_DOMAIN
    assert len({s.id for s in samples}) == len(samples)
    for s in samples:
        assert validate_sample(s) == [], s.id


def test_hallucinated_prefix_counts():
    samples = build_fixture()
    for domain, rate in HALLU_RATES.items():
        rows = [s for s in samples if s.domain == domain]
        with_spans = sum(1 for s in rows if s.gold_spans)
        assert with_spans == round(rate * SAMPLES_PER_DOMAIN)

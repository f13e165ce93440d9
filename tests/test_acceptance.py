"""Acceptance criteria, one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they print.
Every tolerance is pinned here; nothing is loosened to force a pass.
"""

from __future__ import annotations

import functools
import json
import random
import re
import time
from dataclasses import replace as dc_replace

import pytest

from caploc.corpus import BenchmarkSample, HallucinationSpan, save_dataset
from caploc.diffannot import diff_tokens, extract_gold_spans
from caploc.evalrun import (
    EvalConfig,
    emit_report,
    evaluate_dataset,
    score_outputs,
    score_transcripts,
    sweep_rounds,
)
from caploc.fixtures import HALLU_RATES, SAMPLES_PER_DOMAIN, build_fixture
from caploc.inject import (
    InjectionConfig,
    InjectionState,
    detect_round,
    filter_detected,
    inject_round,
    run_adversarial,
)
from caploc.metrics import sentence_metrics, spearman
from caploc.modelgate import ModelGate, ResponseCache, ScriptRule, ScriptedBackend
from caploc.tagproto import align_to_reference, parse_tags, serialize_tags
from caploc.text import split_sentences, tokenize
from metric_helpers import sentence_labels, token_metrics

TAG = "<HALLUCINATION>"
END = "</HALLUCINATION>"


def criterion(num: int, name: str):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[FAIL] criterion {num:02d}: {name}")
                raise
            print(f"[PASS] criterion {num:02d}: {name}")

        return wrapper

    return decorate


def _prompt_caption(user: str) -> str:
    return user.rsplit("Caption:\n", 1)[1].rstrip("\n")


@criterion(1, "token metrics match a brute-force oracle on 1000 cases in under 1 s")
def test_criterion_01():
    rng = random.Random(101)
    cases = []
    for _ in range(1000):
        n = rng.randint(0, 20)
        gold = {i for i in range(n) if rng.random() < 0.4}
        pred = {i for i in range(n) if rng.random() < 0.4}
        cases.append((n, gold, pred))

    def brute(gold, pred):
        inter = len(gold & pred)
        if not gold and not pred:
            return (1.0, 1.0, 1.0)
        p = inter / len(pred) if pred else 0.0
        r = inter / len(gold) if gold else 0.0
        f1 = 2 * p * r / (p + r) if p + r > 0 else 0.0
        return (p, r, f1)

    start = time.perf_counter()
    for n, gold, pred in cases:
        got = token_metrics(gold, pred, n)
        assert (got.p, got.r, got.f1) == brute(gold, pred), (n, gold, pred)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.3f}s"


@criterion(2, "sentence labels equal the one-bad-token rule on 500 random captions")
def test_criterion_02():
    rng = random.Random(202)
    vocab = ["gull", "pier", "slate", "rope", "tide", "mast", "wharf", "crate"]
    for _ in range(500):
        sentences = []
        for _ in range(rng.randint(1, 5)):
            words = [rng.choice(vocab) for _ in range(rng.randint(3, 8))]
            words[0] = words[0].capitalize()
            sentences.append(" ".join(words) + rng.choice(".!?"))
        caption = " ".join(sentences)
        tc = tokenize(caption)
        ends = split_sentences(tc)
        n = len(tc.tokens)
        gold = {i for i in range(n) if rng.random() < 0.25}
        pred = {i for i in range(n) if rng.random() < 0.25}
        counts = sentence_metrics(gold, pred, tc)
        got = sentence_labels(gold, ends), sentence_labels(pred, ends)
        want_g, want_p = (
            [any(i in hit for i in range(start, end)) for start, end in zip((0, *ends), ends)]
            for hit in (gold, pred)
        )
        assert got == (tuple(want_g), tuple(want_p)), caption
        both = sum(g and p for g, p in zip(want_g, want_p))
        want = {"intersection": both, "predicted": sum(want_p), "gold": sum(want_g)}
        assert counts == want, caption


@criterion(3, "diff annotation recovers 100% of substitution corruptions on 500 captions")
def test_criterion_03():
    rng = random.Random(303)
    vocab = ["alder", "brook", "cairn", "drift", "ember", "frost", "glade", "heath"]
    for trial in range(500):
        n_words = rng.randint(5, 40)
        clean_tokens = [rng.choice(vocab) for _ in range(n_words)] + ["."]
        k = rng.randint(1, 5)
        positions = sorted(rng.sample(range(len(clean_tokens)), k))
        corrupted = list(clean_tokens)
        for j, pos in enumerate(positions):
            corrupted[pos] = f"zzq{j}"
        g = tokenize(" ".join(corrupted))
        c = tokenize(" ".join(clean_tokens))
        spans = extract_gold_spans(diff_tokens(g, c))
        marked = sorted(i for s in spans for i in range(s.start, s.end))
        assert marked == positions, (trial, clean_tokens, positions, spans)


@criterion(4, "serialize/parse/align round-trips 500 random span sets untouched")
def test_criterion_04():
    rng = random.Random(404)
    vocab = ["ivory", "jetty", "knoll", "ledge", "marsh", "notch", "osier", "plume"]
    for trial in range(500):
        words = [rng.choice(vocab) for _ in range(rng.randint(4, 30))]
        caption = " ".join(words) + "."
        tc = tokenize(caption)
        n = len(tc.tokens)
        spans = []
        pos = 0
        while pos < n:
            if rng.random() < 0.3:
                end = min(n, pos + rng.randint(1, 3))
                spans.append(HallucinationSpan(pos, end, "other"))
                pos = end + 1
            else:
                pos += 1
        tagged = serialize_tags(tc, spans)
        parsed = parse_tags(tagged)
        pred = align_to_reference(parsed.stripped, parsed.marked_ranges, tc)
        want = {i for s in spans for i in range(s.start, s.end)}
        assert pred.faithful, trial
        assert set(pred.indices) == want, (trial, caption, spans)


def _closure_suite():
    rng = random.Random(505)
    vocab = ["harbor", "lantern", "willow", "market", "stable", "orchard", "bridge"]
    suite = []
    for i in range(50):
        words = [f"entry{i:02d}"] + [rng.choice(vocab) for _ in range(6)]
        caption = " ".join(words) + "."
        mode = i % 3  # 0: zibber only, 1: glorp only, 2: both
        plants = []
        if mode in (1, 2):
            plants.append((1, "glorp", "color"))
        if mode in (0, 2):
            plants.append((4, "zibber", "number"))
        suite.append(
            {
                "caption": caption,
                "texts": list(tokenize(caption).texts),
                "plants": plants,
                "mode": mode,
                "k": (i % 3) + 1,
            }
        )
    return suite


def _closure_gate(suite):
    def injector(req):
        entry = next(e for e in suite if e["caption"] in req.user)
        caught = "was caught" in req.user
        out = list(entry["texts"])
        labels = []
        for pos, word, label in entry["plants"]:
            if caught and word == "glorp":
                continue  # feedback said this one was detected
            out[pos] = f"{TAG}{word}{END}"
            labels.append(label)
        response = " ".join(out)
        if labels:
            response += "\nLABELS: " + ", ".join(labels)
        return response

    def detector(req):
        caption = _prompt_caption(req.user)
        if "glorp" in caption:
            return '"glorp" - not a real word'
        return "No issues found."

    backend = ScriptedBackend(
        [
            ScriptRule(purpose="inject", responder=injector),
            ScriptRule(purpose="detect", responder=detector),
        ]
    )
    return ModelGate(backend), detector


@criterion(5, "adversarial loop reaches detector closure with monotone survivors (50 captions)")
def test_criterion_05():
    suite = _closure_suite()
    gate, detector = _closure_gate(suite)

    class FakeReq:
        def __init__(self, caption):
            self.user = f"Caption:\n{caption}"

    for entry in suite:
        cfg = InjectionConfig(rounds=entry["k"], include_image=False)
        sample = BenchmarkSample(
            id="x", image="", domain="nature", caption=entry["caption"], gold_spans=[]
        )
        outcome = run_adversarial(sample, cfg, gate)
        final = outcome.sample.caption
        # closure: the same detector finds nothing left to flag
        assert detector(FakeReq(final)) == "No issues found.", entry
        if entry["mode"] == 1:
            assert outcome.sample.gold_spans == []
        else:
            assert outcome.sample.gold_spans == [HallucinationSpan(4, 5, "number")], entry
        assert "glorp" not in final

    # survivor monotonicity, observed step by step through the public API
    for entry in suite:
        if entry["mode"] != 2:
            continue
        cfg = InjectionConfig(rounds=2, include_image=False)
        state = inject_round(InjectionState(clean=tokenize(entry["caption"])), cfg, gate)
        for _ in range(1, cfg.rounds + 1):
            if state.round > 0 and state.reverted_last_round > 0:
                state = inject_round(state, cfg, gate)
            if not state.spans:
                state.round += 1
                continue
            before = set(state.spans)
            detected = detect_round(state, cfg, gate)
            filter_detected(state, detected)
            after = set(state.spans)
            assert after <= before, entry


def _sweep_fixture(tmp_path):
    rng = random.Random(606)
    vocab = ["quarry", "ridge", "saddle", "timber", "upland", "vale"]
    clean = []
    for i in range(8):
        words = [f"cap{i:02d}"] + [rng.choice(vocab) for _ in range(6)]
        clean.append(
            BenchmarkSample(
                id=f"c{i:02d}",
                image="",
                domain="nature",
                caption=" ".join(words) + ".",
                gold_spans=[],
            )
        )
    path = tmp_path / "clean.jsonl"
    save_dataset(clean, path)

    def injector(req):
        entry = next(s for s in clean if s.caption in req.user)
        out = list(tokenize(entry.caption).texts)
        out[1] = f"{TAG}glorp{END}"
        out[4] = f"{TAG}zibber{END}"
        return " ".join(out) + "\nLABELS: color, number"

    def locator(req):
        caption = _prompt_caption(req.user)
        out = [
            f"{TAG}{t}{END}" if t in ("glorp", "zibber") else t
            for t in tokenize(caption).texts
        ]
        return " ".join(out)

    def make_gate():
        return ModelGate(
            ScriptedBackend(
                [
                    ScriptRule(purpose="inject", responder=injector),
                    ScriptRule(purpose="detect", responder=lambda req: "No issues found."),
                    ScriptRule(purpose="evaluate", responder=locator),
                ]
            )
        )

    return path, make_gate


@criterion(6, "K=0 sweep equals a direct evaluation of the unfiltered injection set")
def test_criterion_06(tmp_path):
    clean_path, make_gate = _sweep_fixture(tmp_path)
    inj_cfg = InjectionConfig(rounds=0, include_image=False)
    eval_cfg = EvalConfig(dataset=clean_path, model="locator", out_dir=tmp_path / "sweep")
    rows = sweep_rounds(clean_path, [0], ["locator"], inj_cfg, eval_cfg, make_gate())
    assert len(rows) == 1

    from caploc.corpus import load_dataset

    synthetic = load_dataset(tmp_path / "sweep" / "sweep_k0.jsonl")
    # no filtering at K=0: every sample keeps both injected spans
    assert all(len(s.gold_spans) == 2 for s in synthetic)

    direct_cfg = EvalConfig(
        dataset=tmp_path / "sweep" / "sweep_k0.jsonl",
        model="locator",
        out_dir=tmp_path / "direct",
    )
    direct = evaluate_dataset(direct_cfg, make_gate())
    assert (rows[0].p, rows[0].r, rows[0].f1) == (
        direct.card.token.p,
        direct.card.token.r,
        direct.card.token.f1,
    )
    assert rows[0].f1 == 1.0


@criterion(7, "rank correlation matches a brute-force oracle within 1e-12, fixed cases exact")
def test_criterion_07():
    def brute_ranks(v):
        return [
            1 + sum(1 for x in v if x < y) + (sum(1 for x in v if x == y) - 1) / 2
            for y in v
        ]

    def brute(a, b):
        ra, rb = brute_ranks(a), brute_ranks(b)
        ma, mb = sum(ra) / len(ra), sum(rb) / len(rb)
        va = sum((x - ma) ** 2 for x in ra)
        vb = sum((x - mb) ** 2 for x in rb)
        if va == 0 or vb == 0:
            return None
        cov = sum((x - ma) * (y - mb) for x, y in zip(ra, rb))
        return cov / (va * vb) ** 0.5

    rng = random.Random(707)
    for trial in range(200):
        n = rng.randint(2, 30)
        if trial % 2:
            a = [rng.randint(0, 4) for _ in range(n)]  # heavy ties
            b = [rng.randint(0, 4) for _ in range(n)]
        else:
            a = [rng.random() for _ in range(n)]
            b = [rng.random() for _ in range(n)]
        got, want = spearman(a, b), brute(a, b)
        if want is None:
            assert got is None, (trial, a, b)
        else:
            assert got is not None and abs(got - want) <= 1e-12, (trial, a, b)

    assert spearman([3.0, 1.0, 4.0, 1.5, 9.0], [3.0, 1.0, 4.0, 1.5, 9.0]) == 1.0
    assert spearman([3.0, 1.0, 4.0, 1.5, 9.0], [-3.0, -1.0, -4.0, -1.5, -9.0]) == -1.0
    assert spearman([1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 4.0, 3.0]) == 0.8


def _fixture_runs(tmp_path):
    samples = build_fixture()
    dataset = tmp_path / "fixture.jsonl"
    save_dataset(samples, dataset)
    by_caption = {s.caption: s for s in samples}
    assert len(by_caption) == len(samples)

    def tagged(sample, spans):
        return serialize_tags(tokenize(sample.caption), spans)

    gold_raw = {s.caption: tagged(s, s.gold_spans) for s in samples}
    full_raw = {
        s.caption: tagged(s, [HallucinationSpan(0, len(tokenize(s.caption).tokens))])
        for s in samples
    }
    return samples, dataset, by_caption, gold_raw, full_raw


@criterion(8, "mock end-to-end: gold echo F1=1, untagged R=0, all-tagged R=1 with exact P")
def test_criterion_08(tmp_path):
    samples, dataset, by_caption, gold_raw, full_raw = _fixture_runs(tmp_path)

    def run(responder, out_name):
        gate = ModelGate(
            ScriptedBackend([ScriptRule(purpose="evaluate", responder=responder)])
        )
        cfg = EvalConfig(dataset=dataset, model="mock", out_dir=tmp_path / out_name)
        return evaluate_dataset(cfg, gate)

    gold_report = run(lambda req: gold_raw[_prompt_caption(req.user)], "gold")
    assert gold_report.card.token.f1 == 1.0
    assert gold_report.card.sentence.f1 == 1.0
    assert gold_report.card.faithfulness_violation_rate == 0.0

    plain_report = run(lambda req: _prompt_caption(req.user), "plain")
    assert plain_report.card.token.r == 0.0

    full_report = run(lambda req: full_raw[_prompt_caption(req.user)], "full")
    assert full_report.card.token.r == 1.0
    sum_gold = sum(
        s.end - s.start for sample in samples for s in sample.gold_spans
    )
    sum_tokens = sum(len(tokenize(s.caption).tokens) for s in samples)
    assert full_report.card.token.p == sum_gold / sum_tokens


@criterion(9, "warm-cache evaluations are byte-identical and offline scoring matches")
def test_criterion_09(tmp_path):
    samples = build_fixture()[::20]  # 50 samples across all domains
    dataset = tmp_path / "subset.jsonl"
    save_dataset(samples, dataset)
    gold_raw = {
        s.caption: serialize_tags(tokenize(s.caption), s.gold_spans) for s in samples
    }
    gate = ModelGate(
        ScriptedBackend(
            [ScriptRule(purpose="evaluate", responder=lambda req: gold_raw[_prompt_caption(req.user)])]
        ),
        cache=ResponseCache(tmp_path / "cache"),
    )
    base = EvalConfig(dataset=dataset, model="mock", out_dir=tmp_path / "warmup")
    evaluate_dataset(base, gate)  # populate the cache

    reports = []
    for name in ("run1", "run2"):
        cfg = dc_replace(base, out_dir=tmp_path / name)
        report = evaluate_dataset(cfg, gate)
        emit_report(report, cfg.out_dir)
        reports.append(report)

    def normalized(path):
        raw = path.read_bytes()
        return re.sub(rb'"generated_at": "[^"]*"', b'"generated_at": "X"', raw)

    assert normalized(tmp_path / "run1" / "report.json") == normalized(
        tmp_path / "run2" / "report.json"
    )
    assert (tmp_path / "run1" / "report.txt").read_bytes() == (
        tmp_path / "run2" / "report.txt"
    ).read_bytes()

    offline = score_transcripts(base, tmp_path / "run1" / "transcripts.jsonl")
    live, off = reports[0].to_dict(), offline.to_dict()
    live.pop("generated_at"), off.pop("generated_at")
    assert live == off


@criterion(10, "scoring 1000 cached 250-token samples finishes in under 5 s")
def test_criterion_10(tmp_path):
    vocab = ["delta", "finch", "grove", "inlet", "ketch", "lumen", "motif", "nadir", "oriel"]
    samples = []
    outputs = {}
    rng = random.Random(1010)
    for i in range(1000):
        sentences = []
        for s in range(25):
            words = [vocab[(i + s * 9 + w) % len(vocab)] for w in range(9)]
            words[0] = words[0].capitalize()
            sentences.append(" ".join(words) + ".")
        caption = " ".join(sentences)
        tc = tokenize(caption)
        assert len(tc.tokens) == 250
        starts = sorted(rng.sample(range(0, 248), 3))
        spans = [HallucinationSpan(a, a + 1, "other") for a in starts]
        sample = BenchmarkSample(
            id=f"t{i:04d}", image="", domain="nature", caption=caption, gold_spans=spans
        )
        samples.append(sample)
        outputs[sample.id] = serialize_tags(tc, spans)

    cfg = EvalConfig(dataset="unused", model="mock")
    start = time.perf_counter()
    card, rows, skipped = score_outputs(samples, outputs, cfg)
    elapsed = time.perf_counter() - start
    assert card.token.f1 == 1.0
    assert not skipped
    assert elapsed < 5.0, f"took {elapsed:.3f}s"


@criterion(11, "fixture reports 200 samples per domain with the constructed rates, gui 0.68")
def test_criterion_11():
    from caploc.corpus import dataset_stats

    samples = build_fixture()
    stats = dataset_stats(samples)
    assert set(stats.per_domain) == set(HALLU_RATES)
    for domain, rate in HALLU_RATES.items():
        row = stats.per_domain[domain]
        assert row.samples == SAMPLES_PER_DOMAIN
        assert row.hallu_rate == rate, domain
    assert stats.per_domain["gui"].hallu_rate == 0.68
    assert stats.total.samples == 5 * SAMPLES_PER_DOMAIN

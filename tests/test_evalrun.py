"""Evaluation pipeline tests on scripted backends and tmp datasets."""

from __future__ import annotations

import errno
import json
import logging
import math
import sys
import threading
import time
from collections import Counter
from dataclasses import replace as dc_replace
from types import SimpleNamespace

import pytest
import requests

from caploc import diffannot, text
from caploc.corpus import BenchmarkSample, DatasetError, HallucinationSpan, save_dataset
from caploc.inject import InjectionConfig, InjectionError
from caploc.metrics import aggregate
from caploc.modelgate import (
    BackendError,
    HttpBackend,
    ModelGate,
    ResponseCache,
    RetryableBackendError,
    ScriptedBackend,
    ScriptRule,
)
from caploc.tagproto import serialize_tags
from caploc.evalrun import (
    EvalConfig,
    EvalReport,
    MissingImageError,
    build_prompt,
    build_synthetic,
    correlate_settings,
    emit_report,
    evaluate_dataset,
    read_transcripts,
    render_report_table,
    render_sweep_table,
    run_samples,
    score_sample,
    score_transcripts,
    sweep_rounds,
    write_transcripts,
)
from metric_helpers import report_dict

TAG = "<HALLUCINATION>"
END = "</HALLUCINATION>"


def sample_set():
    return [
        BenchmarkSample(
            id="s1",
            image="img/s1.png",
            domain="nature",
            caption="a red car parked near the gate.",
            gold_spans=[HallucinationSpan(1, 2, "color")],
        ),
        BenchmarkSample(
            id="s2",
            image="img/s2.png",
            domain="gui",
            caption="the button is green.",
            gold_spans=[],
        ),
        BenchmarkSample(
            id="s3",
            image="img/s3.png",
            domain="chart",
            caption="values rose in march.",
            gold_spans=[HallucinationSpan(1, 2, "number")],
        ),
    ]


def write_dataset(tmp_path, samples=None):
    path = tmp_path / "data.jsonl"
    save_dataset(samples if samples is not None else sample_set(), path)
    return path


def eval_responder(req):
    # tag exactly the gold span of s1, echo s2, tag a wrong token of s3
    for caption, reply in [
        ("a red car parked near the gate.", f"a {TAG}red{END} car parked near the gate."),
        ("the button is green.", "the button is green."),
        ("values rose in march.", f"values rose {TAG}in{END} march."),
    ]:
        if caption in req.user:
            return reply
    raise AssertionError(f"unexpected prompt: {req.user!r}")


def make_gate(rules, cache=None):
    backend = ScriptedBackend(rules)
    return ModelGate(backend, cache=cache), backend


class TestBuildPrompt:
    def test_missing_image_optional(self, tmp_path):
        cfg = EvalConfig(dataset="unused", model="m")
        req = build_prompt(sample_set()[0], cfg)
        assert req.image is None
        assert req.purpose == "evaluate"
        assert "a red car parked near the gate." in req.user
        assert TAG in req.user  # instructions name the tag literal

    def test_missing_image_required_raises(self, tmp_path):
        cfg = EvalConfig(dataset="unused", model="m", require_image=True)
        with pytest.raises(MissingImageError):
            build_prompt(sample_set()[0], cfg)

    def test_image_loaded_from_root(self, tmp_path):
        (tmp_path / "img").mkdir()
        (tmp_path / "img" / "s1.png").write_bytes(b"\x89PNG fake")
        cfg = EvalConfig(dataset="unused", model="m", image_root=tmp_path)
        req = build_prompt(sample_set()[0], cfg)
        assert req.image is not None
        assert req.image.media_type == "image/png"
        assert req.image.data == b"\x89PNG fake"

    def test_width_validated(self):
        with pytest.raises(ValueError):
            EvalConfig(dataset="x", model="m", width=0)


class TestEvaluateDataset:
    def run(self, tmp_path, **cfg_kwargs):
        dataset = write_dataset(tmp_path)
        cfg = EvalConfig(
            dataset=dataset, model="locator", out_dir=tmp_path / "out", **cfg_kwargs
        )
        gate, backend = make_gate(
            [ScriptRule(purpose="evaluate", responder=eval_responder)]
        )
        return evaluate_dataset(cfg, gate), backend

    def test_overall_numbers(self, tmp_path):
        report, _ = self.run(tmp_path)
        # micro counts: s1 (1,1,1), s2 (0,0,0), s3 (0,1,1) → P=R=F1=0.5
        assert report.card.token.p == 0.5
        assert report.card.token.r == 0.5
        assert report.card.token.f1 == 0.5
        assert report.card.sentence.p == 1.0
        assert report.card.dimension_recall == {"color": 1.0, "number": 0.0}
        assert report.card.faithfulness_violation_rate == 0.0
        assert report.coverage == 1.0
        assert report.skipped == []
        assert len(report.samples) == 3

    def test_transcripts_written(self, tmp_path):
        report, _ = self.run(tmp_path)
        rows = read_transcripts(tmp_path / "out" / "transcripts.jsonl")
        assert set(rows) == {"s1", "s2", "s3"}
        assert rows["s2"] == "the button is green."

    def test_rows_reaggregate_to_card(self, tmp_path):
        report, _ = self.run(tmp_path)
        rebuilt = EvalReport.from_dict(report.to_dict())
        assert rebuilt.card.to_dict() == report.card.to_dict()
        assert rebuilt.to_dict() == report.to_dict()

    def test_from_dict_rejects_wrong_field_type(self, tmp_path):
        data = self.run(tmp_path)[0].to_dict()
        data["coverage"] = [1.0]
        with pytest.raises(ValueError, match="wrong type"):
            EvalReport.from_dict(data)

    def test_width_does_not_change_result(self, tmp_path):
        transcripts = tmp_path / "out" / "transcripts.jsonl"
        serial, _ = self.run(tmp_path)
        serial_transcripts = transcripts.read_bytes()
        parallel, _ = self.run(tmp_path, width=4)
        a, b = serial.to_dict(), parallel.to_dict()
        a.pop("generated_at"), b.pop("generated_at")
        assert a == b
        assert transcripts.read_bytes() == serial_transcripts

    def test_shared_caption_is_sent_once_without_a_cache(self, tmp_path):
        """Two samples with one caption make one request at any width: the
        second is answered by the gate's in-memory cache or joins the call
        in flight, and the transcripts do not depend on which."""
        twins = [dc_replace(sample_set()[0], id=i) for i in ("a", "b")]
        transcripts = []
        for width in (1, 4):
            dataset = write_dataset(tmp_path, twins)
            out = tmp_path / f"out{width}"
            cfg = EvalConfig(dataset=dataset, model="locator", out_dir=out, width=width)
            gate, backend = make_gate([ScriptRule(purpose="evaluate", responder=eval_responder)])
            report = evaluate_dataset(cfg, gate)
            assert len(backend.requests) == 1
            assert (len(report.samples), report.skipped) == (2, [])
            transcripts.append((out / "transcripts.jsonl").read_bytes())
        assert transcripts[0] == transcripts[1]

    def test_backend_failure_skips_sample(self, tmp_path):
        dataset = write_dataset(tmp_path)
        cfg = EvalConfig(dataset=dataset, model="locator", out_dir=tmp_path / "out")
        # rule only answers the s1 prompt; the others exhaust the script
        gate, _ = make_gate(
            [
                ScriptRule(
                    purpose="evaluate",
                    contains="a red car",
                    responder=eval_responder,
                )
            ]
        )
        report = evaluate_dataset(cfg, gate)
        assert report.skipped == ["s2", "s3"]
        assert report.coverage == pytest.approx(1 / 3)
        assert report.card.sample_count == 1
        assert report.card.token.f1 == 1.0

    def test_no_scorable_samples_raises(self, tmp_path):
        dataset = write_dataset(tmp_path)
        cfg = EvalConfig(dataset=dataset, model="locator", out_dir=tmp_path / "out")
        gate, _ = make_gate([])
        with pytest.raises(ValueError):
            evaluate_dataset(cfg, gate)


class TestScoreSample:
    def test_parse_align_count_one_output(self):
        sample = sample_set()[0]
        row = score_sample(sample, f"a {TAG}red{END} car parked near the gate.", False)
        assert row["id"] == "s1"
        assert row["parse_status"] == "ok"
        assert row["faithful"] is True
        assert row["token"] == {"intersection": 1, "predicted": 1, "gold": 1}
        assert row["dimensions"] == {"color": {"hit": 1, "total": 1}}
        card = aggregate([row])
        assert (card.sample_count, card.faithfulness_violation_rate) == (1, 0.0)
        assert card.token.f1 == 1.0 and card.per_domain["nature"].token.f1 == 1.0


class TestStrictMode:
    def run(self, tmp_path, strict):
        samples = sample_set()[:1]
        dataset = write_dataset(tmp_path, samples)
        transcripts = tmp_path / "t.jsonl"
        # paraphrased output: tags land on "red" but the text is unfaithful
        write_transcripts(
            transcripts, [("s1", f"a huge {TAG}red{END} wagon parked near the gate.")]
        )
        cfg = EvalConfig(
            dataset=dataset, model="m", out_dir=tmp_path / "out", strict=strict
        )
        return score_transcripts(cfg, transcripts)

    def test_lenient_keeps_aligned_marks(self, tmp_path):
        report = self.run(tmp_path, strict=False)
        assert report.card.token.r == 1.0
        assert report.card.faithfulness_violation_rate == 1.0

    def test_strict_voids_unfaithful_output(self, tmp_path):
        report = self.run(tmp_path, strict=True)
        assert report.card.token.r == 0.0
        assert report.card.faithfulness_violation_rate == 1.0


class FakeSession:
    """Stands in for requests.Session: the request for s2 gets `bad` (an
    exception to raise, or a JSON body to return), every other one
    eval_responder's reply."""

    def __init__(self, bad):
        self.bad = bad

    def post(self, url, **kwargs):
        user = kwargs["json"]["messages"][1]["content"][0]["text"]
        if "the button is green." not in user:
            body = {"text": eval_responder(SimpleNamespace(user=user))}
        elif isinstance(self.bad, Exception):
            raise self.bad
        else:
            body = self.bad
        resp = requests.Response()
        resp.status_code = 200
        resp._content = json.dumps(body).encode("utf-8")
        return resp


@pytest.mark.parametrize(
    "bad",
    [requests.exceptions.ChunkedEncodingError("connection broken"), [1, 2], {"text": 5}],
    ids=["chunked_encoding", "array_body", "number_text"],
)
def test_http_failure_skips_only_its_sample(tmp_path, bad):
    dataset = write_dataset(tmp_path)
    cfg = EvalConfig(dataset=dataset, model="locator", out_dir=tmp_path / "out")
    gate = ModelGate(HttpBackend("http://localhost:9", session=FakeSession(bad)))
    report = evaluate_dataset(cfg, gate)
    assert report.skipped == ["s2"]
    assert set(read_transcripts(tmp_path / "out" / "transcripts.jsonl")) == {"s1", "s3"}


class TestTranscripts:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "t.jsonl"
        write_transcripts(path, [("a", "x\ny"), ("b", "")])
        assert read_transcripts(path) == {"a": "x\ny", "b": ""}

    def test_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"id": "a", "output": "x"}\n{"id": "a", "output": "y"}\n')
        with pytest.raises(ValueError, match="duplicate"):
            read_transcripts(path)

    def test_bad_line_named(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"id": "a"}\n')
        with pytest.raises(ValueError, match="t.jsonl:1"):
            read_transcripts(path)

    def test_lone_surrogate_named(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"id": "a", "output": "x"}\n{"id": "b", "output": "a red car\\ud800"}\n')
        with pytest.raises(DatasetError, match=r"t\.jsonl:2: .*output holds a lone surrogate"):
            read_transcripts(path)


def count_calls(monkeypatch, fn) -> Counter:
    """Count calls of fn per binding, over every loaded caploc module."""
    calls: Counter = Counter()
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "caploc" and not mod_name.startswith("caploc."):
            continue
        for attr, value in list(vars(module).items()):
            if value is fn:

                def counted(*args, _key=f"{mod_name}.{attr}", **kwargs):
                    calls[_key] += 1
                    return fn(*args, **kwargs)

                monkeypatch.setattr(module, attr, counted)
    return calls


class TestTokenizeOnce:
    def test_echoed_captions_tokenized_once_each(self, tmp_path, monkeypatch):
        """A tagged echo of the caption is scored with one tokenize call per
        sample, made through caploc.evalrun.tokenize, and no diff."""
        samples = sample_set()
        dataset = write_dataset(tmp_path, samples)
        transcripts = tmp_path / "transcripts.jsonl"
        write_transcripts(
            transcripts,
            [
                (s.id, serialize_tags(text.tokenize(s.caption), s.gold_spans))
                for s in samples
            ],
        )
        cfg = EvalConfig(dataset=dataset, model="echo", out_dir=tmp_path / "out")
        tokenize_calls = count_calls(monkeypatch, text.tokenize)
        diff_calls = count_calls(monkeypatch, diffannot.diff_tokens)
        report = score_transcripts(cfg, transcripts)
        assert report.card.faithfulness_violation_rate == 0.0
        assert report.card.token.f1 == 1.0
        assert sum(tokenize_calls.values()) == len(samples)
        assert tokenize_calls["caploc.evalrun.tokenize"] == len(samples)
        assert sum(diff_calls.values()) == 0


class TestScoreEqualsEvaluate:
    def test_offline_scoring_matches(self, tmp_path):
        dataset = write_dataset(tmp_path)
        cfg = EvalConfig(dataset=dataset, model="locator", out_dir=tmp_path / "out")
        gate, _ = make_gate([ScriptRule(purpose="evaluate", responder=eval_responder)])
        live = evaluate_dataset(cfg, gate).to_dict()
        offline = score_transcripts(cfg, tmp_path / "out" / "transcripts.jsonl").to_dict()
        live.pop("generated_at"), offline.pop("generated_at")
        assert live == offline

    def test_warm_cache_reproduces_report(self, tmp_path):
        dataset = write_dataset(tmp_path)
        cfg = EvalConfig(dataset=dataset, model="locator", out_dir=tmp_path / "out")
        cache = ResponseCache(tmp_path / "cache")
        gate, backend = make_gate(
            [ScriptRule(purpose="evaluate", responder=eval_responder)], cache=cache
        )
        first = evaluate_dataset(cfg, gate).to_dict()
        calls = len(backend.requests)
        second = evaluate_dataset(cfg, gate).to_dict()
        assert len(backend.requests) == calls  # all served from cache
        first.pop("generated_at"), second.pop("generated_at")
        assert first == second


class DroppingBackend:
    """Answers through respond, except that its fail_at-th request raises as
    a dropped connection would; records every request."""

    def __init__(self, respond, fail_at=None):
        self.respond = respond
        self.fail_at = fail_at
        self.requests = []

    def send(self, req):
        self.requests.append(req)
        if len(self.requests) == self.fail_at:
            raise RuntimeError("connection dropped")
        return self.respond(req)


def inject_responder(req):
    # tag one word of each clean caption; the detector finds nothing
    if req.purpose == "detect":
        return "No issues found."
    for caption, reply in [
        ("a red car parked near the gate.", f"a {TAG}blue{END} car parked near the gate."),
        ("the button is green.", f"the button is {TAG}red{END}."),
        ("values rose in march.", f"values {TAG}fell{END} in march."),
    ]:
        if caption in req.user:
            return f"{reply}\nLABELS: color"
    raise AssertionError(f"unexpected prompt: {req.user!r}")


class TestResumeThroughCache:
    """A run that stops at a dropped connection resumes through its response
    cache: the rerun asks the backend only what the first run did not get
    answered and writes what an uninterrupted run writes."""

    def test_evaluate_resumes(self, tmp_path):
        dataset = write_dataset(tmp_path)
        out, whole = tmp_path / "out", tmp_path / "whole"
        cfg = EvalConfig(dataset=dataset, model="locator", out_dir=out)
        cache = ResponseCache(tmp_path / "cache")
        dropped = DroppingBackend(eval_responder, fail_at=3)
        with pytest.raises(RuntimeError):
            evaluate_dataset(cfg, ModelGate(dropped, cache=cache))
        rerun = DroppingBackend(eval_responder)
        emit_report(evaluate_dataset(cfg, ModelGate(rerun, cache=cache)), out)
        assert [r.user for r in rerun.requests] == [dropped.requests[2].user]

        whole_cfg = EvalConfig(dataset=dataset, model="locator", out_dir=whole)
        emit_report(evaluate_dataset(whole_cfg, ModelGate(DroppingBackend(eval_responder))), whole)
        for name in ("transcripts.jsonl", "report.json"):
            assert normalized(out / name) == normalized(whole / name)

    def test_build_synthetic_resumes(self, tmp_path):
        clean = [dc_replace(s, gold_spans=[]) for s in sample_set()]
        cfg = InjectionConfig(rounds=1, include_image=False)
        cache = ResponseCache(tmp_path / "cache")
        dropped = DroppingBackend(inject_responder, fail_at=3)
        with pytest.raises(RuntimeError):
            build_synthetic(clean, cfg, ModelGate(dropped, cache=cache), None)
        rerun = DroppingBackend(inject_responder)
        outcomes, _ = build_synthetic(clean, cfg, ModelGate(rerun, cache=cache), None)
        save_dataset([o.sample for o in outcomes], tmp_path / "resumed.jsonl")

        whole = DroppingBackend(inject_responder)
        outcomes, _ = build_synthetic(clean, cfg, ModelGate(whole), None)
        save_dataset([o.sample for o in outcomes], tmp_path / "whole.jsonl")
        # the first run got its first two requests (s1's inject and detect) answered
        assert rerun.requests == whole.requests[2:]
        assert all(clean[0].caption not in r.user for r in rerun.requests)
        resumed = (tmp_path / "resumed.jsonl").read_bytes()
        assert resumed == (tmp_path / "whole.jsonl").read_bytes()


class FatalBackend:
    """Answers through respond after `delay` seconds, except that its
    fail_at-th request raises `error` at once; records every request."""

    def __init__(self, respond, fail_at, error, delay=0.0):
        self.respond, self.fail_at, self.error, self.delay = respond, fail_at, error, delay
        self.requests = []
        self._lock = threading.Lock()

    def send(self, req):
        with self._lock:
            self.requests.append(req)
            n = len(self.requests)
        if n == self.fail_at:
            raise self.error
        time.sleep(self.delay)
        return self.respond(req)


class RefusingBackend:
    """A backend that is down: every send fails with a transport error."""

    def send(self, req):
        raise RetryableBackendError("transport failure: connection refused")


def many_samples(n=40):
    return [
        BenchmarkSample(
            id=f"m{i}", image="", domain="nature", caption=f"car {i} is red and parked.", gold_spans=[]
        )
        for i in range(n)
    ]


def many_responder(req):
    # the locator echoes the caption; the injector recolours it; the
    # detector finds nothing
    if req.purpose == "detect":
        return "No issues found."
    caption = next(s.caption for s in many_samples() if s.caption in req.user)
    if req.purpose == "evaluate":
        return caption
    return caption.replace("red", f"{TAG}blue{END}") + "\nLABELS: color"


FATAL_ERRORS = [OSError(errno.ENOSPC, "No space left on device"), KeyboardInterrupt()]


class TestRunSamples:
    """run_samples skips a sample whose work fails with a sample error and
    stops the run at any other error: a fatal error on request 3 of 40
    leaves the samples not yet started unrun."""

    def test_sample_errors_skip_only_their_sample(self, caplog):
        def work(sample):
            if sample.id == "s1":
                raise InjectionError("unsalvageable reply")
            if sample.id == "s3":
                raise MissingImageError("img/s3.png")
            return sample.caption.upper()

        with caplog.at_level(logging.WARNING, logger="caploc.evalrun"):
            results = run_samples(sample_set(), work, 4)
        assert [(s.id, r) for s, r in results] == [
            ("s1", None), ("s2", "THE BUTTON IS GREEN."), ("s3", None)
        ]
        assert sorted(r.getMessage() for r in caplog.records) == [
            "sample s1 failed: unsalvageable reply",
            "sample s3 failed: img/s3.png",
        ]

    def test_every_sample_failing_names_the_commonest_type(self):
        """Failures group by exception type, not by message, and the error
        quotes the first failure of the commonest type."""

        def work(sample):
            if sample.id == "s1":
                raise InjectionError("unsalvageable reply")
            raise BackendError(f"connection refused by the host of {sample.id}")

        with pytest.raises(ValueError) as caught:
            run_samples(sample_set(), work, 2)
        assert str(caught.value) == (
            "all 3 samples failed; 2 with BackendError, the first on sample 's2': "
            "connection refused by the host of s2"
        )

    def test_no_samples_raises_before_any_work(self):
        worked = []
        with pytest.raises(ValueError, match="^the dataset holds no samples$"):
            run_samples([], worked.append, 2)
        assert worked == []

    @pytest.mark.parametrize("error", FATAL_ERRORS, ids=["oserror", "keyboard_interrupt"])
    # above width 1, the delay lets the failing worker stop the run while
    # the other workers' requests are still out
    @pytest.mark.parametrize("width, most, delay", [(1, 3, 0.0), (4, 6, 0.02)])
    def test_fatal_error_stops_evaluate(self, tmp_path, error, width, most, delay):
        dataset = write_dataset(tmp_path, many_samples())
        cfg = EvalConfig(dataset=dataset, model="locator", out_dir=tmp_path / "out", width=width)
        backend = FatalBackend(many_responder, fail_at=3, error=error, delay=delay)
        with pytest.raises(type(error)):
            evaluate_dataset(cfg, ModelGate(backend))
        assert 3 <= len(backend.requests) <= most
        assert not (tmp_path / "out" / "transcripts.jsonl").exists()
        assert not (tmp_path / "out").exists()

    def test_fatal_error_leaves_an_out_directory_that_was_there(self, tmp_path):
        """evaluate removes only an output directory it made itself."""
        dataset = write_dataset(tmp_path, many_samples())
        (tmp_path / "out").mkdir()
        cfg = EvalConfig(dataset=dataset, model="locator", out_dir=tmp_path / "out")
        backend = FatalBackend(many_responder, fail_at=3, error=FATAL_ERRORS[0])
        with pytest.raises(OSError):
            evaluate_dataset(cfg, ModelGate(backend))
        assert (tmp_path / "out").is_dir() and not any((tmp_path / "out").iterdir())

    @pytest.mark.parametrize("existing", ["", "a", "a/b"], ids=["none", "a", "a_b"])
    def test_dead_backend_removes_the_parents_evaluate_made(self, tmp_path, existing):
        """A run that raises removes the output directory and each parent it
        made, and keeps the parents that were there."""
        dataset = write_dataset(tmp_path, many_samples(10))
        if existing:
            (tmp_path / existing).mkdir(parents=True)
        before = sorted(tmp_path.rglob("*"))
        cfg = EvalConfig(dataset=dataset, model="locator", out_dir=tmp_path / "a" / "b" / "out")
        with pytest.raises(ValueError, match="in a row failed with a backend error"):
            evaluate_dataset(cfg, ModelGate(RefusingBackend(), sleep=lambda s: None))
        assert sorted(tmp_path.rglob("*")) == before

    def test_removed_cache_directory_stops_evaluate(self, tmp_path):
        """A put into a cache directory removed mid-run raises
        FileNotFoundError, which is fatal: the first failing put stops the
        run before the other requests go out."""
        dataset = write_dataset(tmp_path, many_samples(5))
        cfg = EvalConfig(dataset=dataset, model="locator", out_dir=tmp_path / "out")
        cache = ResponseCache(tmp_path / "cache")
        (tmp_path / "cache").rmdir()
        backend = FatalBackend(many_responder, fail_at=0, error=None)
        with pytest.raises(FileNotFoundError):
            evaluate_dataset(cfg, ModelGate(backend, cache=cache))
        assert len(backend.requests) == 1
        assert not (tmp_path / "out" / "transcripts.jsonl").exists()

    @pytest.mark.parametrize("error", FATAL_ERRORS, ids=["oserror", "keyboard_interrupt"])
    def test_fatal_error_stops_build_synthetic(self, error):
        backend = FatalBackend(many_responder, fail_at=3, error=error)
        cfg = InjectionConfig(rounds=1, include_image=False)
        with pytest.raises(type(error)):
            build_synthetic(many_samples(), cfg, ModelGate(backend), None)
        # m0's inject and detect, then m1's inject
        assert [r.purpose for r in backend.requests] == ["inject", "detect", "inject"]


def normalized(path):
    """A written file's bytes, with a report's generated_at blanked."""
    if path.name != "report.json":
        return path.read_bytes()
    return {**json.loads(path.read_text(encoding="utf-8")), "generated_at": ""}


def edited_row(table: str, count: str, value) -> dict:
    """A report for model "b" whose one row holds value as the given count."""
    report = report_dict("b", 1, 1, 1)
    report["samples"][0][table][count] = value
    return report


class TestCorrelateSettings:
    report = staticmethod(report_dict)

    def test_rank_agreement(self):
        real = [
            self.report("m1", 1, 10, 2),
            self.report("m2", 3, 6, 5),
            self.report("m3", 4, 5, 20),
        ]
        syn = [
            self.report("m3", 7, 9, 30),
            self.report("m1", 1, 8, 2),
            self.report("m2", 4, 8, 6),
        ]
        rho = correlate_settings(real, syn)
        assert rho == {"p": 1.0, "r": 1.0, "f1": 1.0}

    def test_reversed_ranks(self):
        # with r equal across models, f1 follows p
        real = [self.report("a", 1, 10, 2), self.report("b", 9, 10, 18)]
        syn = [self.report("a", 9, 10, 18), self.report("b", 1, 10, 2)]
        rho = correlate_settings(real, syn)
        assert rho == {"p": -1.0, "r": None, "f1": -1.0}  # r is a constant vector

    def test_scores_come_from_the_rows_not_the_overall_block(self):
        # an edited overall block reads as its rows do, as caploc report reads it
        real = [self.report("a", 0, 2, 2), self.report("b", 2, 2, 2)]
        syn = [self.report("a", 0, 2, 2), self.report("b", 1, 2, 2)]
        syn[0]["overall"]["token"] = {"p": 0.9, "r": 0.9, "f1": 0.9}
        rho = correlate_settings(real, syn)
        assert rho == {"p": 1.0, "r": 1.0, "f1": 1.0}

    def test_model_set_mismatch(self):
        with pytest.raises(ValueError, match="model sets differ"):
            correlate_settings(
                [self.report("a", 1, 1, 1), self.report("b", 1, 1, 1)],
                [self.report("a", 1, 1, 1), self.report("c", 1, 1, 1)],
            )

    @pytest.mark.parametrize(
        "bad",
        [
            {"model": "b", "overall": {"token": {"p": 1, "r": 1, "f1": 1}}},
            edited_row("token", "intersection", "1"),
            [1],
            edited_row("token", "predicted", math.nan),
            edited_row("sentence", "gold", -math.inf),
        ],
        ids=["no_rows", "string_score", "not_an_object", "nan_score", "infinite_score"],
    )
    def test_malformed_report_raises_value_error(self, bad):
        with pytest.raises(ValueError, match="synthetic report 2"):
            correlate_settings(
                [self.report("a", 1, 1, 1), self.report("b", 1, 1, 1)],
                [self.report("a", 1, 1, 1), bad],
            )

    def test_duplicate_model_raises_value_error(self):
        with pytest.raises(ValueError, match="real reports 1 and 3 are both for model 'a'"):
            correlate_settings(
                [self.report("a", 1, 1, 1), self.report("b", 0, 0, 0), self.report("a", 0, 1, 0)],
                [self.report("a", 1, 1, 1), self.report("b", 0, 0, 0)],
            )

    def test_too_few_models(self):
        with pytest.raises(ValueError, match="at least 2"):
            correlate_settings([self.report("a", 1, 1, 1)], [self.report("a", 1, 1, 1)])


def sweep_rules():
    def inject(req):
        return f"a {TAG}blue{END} car parked near the gate.\nLABELS: color"

    def locate(req):
        if "a blue car parked near the gate." in req.user:
            return f"a {TAG}blue{END} car parked near the gate."
        raise AssertionError(f"unexpected prompt: {req.user!r}")

    return [
        ScriptRule(purpose="inject", responder=inject),
        ScriptRule(purpose="detect", responses=["No issues found."] * 10),
        ScriptRule(purpose="evaluate", responder=locate),
    ]


class TestSweep:
    def test_sweep_rows_and_direct_equivalence(self, tmp_path):
        clean = [
            BenchmarkSample(
                id="c1",
                image="",
                domain="nature",
                caption="a red car parked near the gate.",
                gold_spans=[],
            )
        ]
        dataset = write_dataset(tmp_path, clean)
        gate, _ = make_gate(sweep_rules())
        inj_cfg = InjectionConfig(rounds=2, include_image=False)
        eval_cfg = EvalConfig(dataset=dataset, model="x", out_dir=tmp_path / "sweep")
        rows = sweep_rounds(dataset, [0, 1], ["locator"], inj_cfg, eval_cfg, gate)
        assert [(r.model, r.rounds) for r in rows] == [("locator", 0), ("locator", 1)]
        assert all(r.p == 1.0 and r.r == 1.0 and r.f1 == 1.0 for r in rows)

        # the K=0 dataset evaluated directly gives the same numbers
        k0 = tmp_path / "sweep" / "sweep_k0.jsonl"
        direct_cfg = EvalConfig(
            dataset=k0, model="locator", out_dir=tmp_path / "direct"
        )
        gate2, _ = make_gate(sweep_rules())
        direct = evaluate_dataset(direct_cfg, gate2)
        assert (direct.card.token.p, direct.card.token.r, direct.card.token.f1) == (
            rows[0].p,
            rows[0].r,
            rows[0].f1,
        )

    def test_sweep_table_renders(self):
        from caploc.evalrun import SweepRow

        text = render_sweep_table(
            [SweepRow("locator", 0, 1.0, 0.5, 2 / 3), SweepRow("locator", 2, 1.0, 1.0, 1.0)]
        )
        assert "K" in text.splitlines()[0]
        assert "locator" in text


class TestEmitReport:
    def make_report(self, tmp_path):
        dataset = write_dataset(tmp_path)
        cfg = EvalConfig(dataset=dataset, model="locator", out_dir=tmp_path / "out")
        gate, _ = make_gate([ScriptRule(purpose="evaluate", responder=eval_responder)])
        return evaluate_dataset(cfg, gate)

    def test_json_and_table_written(self, tmp_path):
        report = self.make_report(tmp_path)
        written = emit_report(report, tmp_path / "out")
        names = {p.name for p in written}
        assert names == {"report.json", "report.txt"}
        data = json.loads((tmp_path / "out" / "report.json").read_text())
        assert data["model"] == "locator"
        assert data["overall"]["token"]["f1"] == 0.5
        assert data["dimensions"] == {"color": 1.0, "number": 0.0}
        assert set(data["domains"]) == {"nature", "gui", "chart"}
        assert len(data["dataset_sha256"]) == 64

    def test_table_has_domain_rows_and_dimensions(self, tmp_path):
        report = self.make_report(tmp_path)
        table = render_report_table(report)
        assert "overall" in table
        assert "nature" in table
        assert "color" in table

    def test_table_footnote_without_dimensions(self, tmp_path):
        samples = [sample_set()[1]]  # gold-free sample only
        dataset = write_dataset(tmp_path, samples)
        cfg = EvalConfig(dataset=dataset, model="m", out_dir=tmp_path / "out")
        gate, _ = make_gate([ScriptRule(purpose="evaluate", responder=eval_responder)])
        table = render_report_table(evaluate_dataset(cfg, gate))
        assert "recall columns omitted" in table

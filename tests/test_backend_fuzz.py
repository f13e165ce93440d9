"""Whole-run fuzz test of the model backend.

evaluate, inject and sweep run through cli.main on a backend whose every
send is drawn by hypothesis: a reply made of tag literals, quotes, label
lines, newlines and non-ASCII text; arbitrary text; the prompt echoed back;
or a backend error, retryable or not. Whatever the backend does, a run exits
0 or 1, and what an exit-0 run writes reads back: a synthetic dataset
through load_dataset, a report through caploc report.
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
import threading
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from caploc import cli
from caploc.cli import main
from caploc.corpus import (
    CLOSE_TAG,
    OPEN_TAG,
    BenchmarkSample,
    HallucinationSpan,
    load_dataset,
    save_dataset,
)
from caploc.modelgate import BackendError, ModelGate, RetryableBackendError

SAMPLES = [
    BenchmarkSample(
        id="a", image="", domain="nature", caption="A red car is parked near the gate.",
        gold_spans=[HallucinationSpan(1, 2, "color")],
    ),
    BenchmarkSample(
        id="b", image="", domain="gui", caption="The button reads “Save”, and 3 tabs are open.",
        gold_spans=[HallucinationSpan(4, 5, "ocr"), HallucinationSpan(8, 9, "number")],
    ),
    BenchmarkSample(id="c", image="", domain="chart", caption="Un café près de la gare.", gold_spans=[]),
]

# what a reply is made of: both tags, quotes, the injector's label line,
# newlines and non-ASCII text, besides caption words
REPLY_PIECES = [
    OPEN_TAG, CLOSE_TAG, '"', "'", "“", "LABELS:", "LABELS: color, number", "\n", " ",
    "A", "red", "car", "gate", ".", ",", "3", "café", "汽车", " ", "🚗", "color",
]

sends = st.one_of(
    st.tuples(st.just("reply"), st.lists(st.sampled_from(REPLY_PIECES), max_size=16).map("".join)),
    st.tuples(st.just("reply"), st.text(max_size=40)),
    st.just(("echo", None)),
    st.tuples(st.just("error"), st.sampled_from([BackendError, RetryableBackendError])),
)


class DrawnBackend:
    """Answers each send with the next drawn action, cycling through them."""

    def __init__(self, actions):
        self.actions = actions
        self.sends = 0
        self._lock = threading.Lock()

    def send(self, req):
        with self._lock:
            kind, value = self.actions[self.sends % len(self.actions)]
            self.sends += 1
        if kind == "echo":
            return req.user
        if kind == "error":
            raise value("drawn backend failure")
        return value


def run(directory: Path, actions, command: str, extra: list[str]) -> int:
    """Exit code of one command over SAMPLES on a DrawnBackend."""
    gate = ModelGate(DrawnBackend(actions), sleep=lambda seconds: None)
    dataset = directory / "data.jsonl"
    save_dataset(SAMPLES, dataset)
    argv = [command, "--dataset", str(dataset), "--script", "unused.json", *extra]
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(io.StringIO()):
        mp.setattr(cli, "_build_gate", lambda eff: gate)
        return main(argv)


def report_reads_back(out: Path, samples: int) -> None:
    """The report of an exit-0 evaluate over `samples` samples holds a row
    per sample not skipped, and caploc report prints the table evaluate
    wrote from it."""
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert len(report["samples"]) == samples - len(report["skipped"])
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        assert main(["report", str(out / "report.json")]) == 0
    assert printed.getvalue() == (out / "report.txt").read_text(encoding="utf-8")


fuzz = settings(
    max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@pytest.mark.parametrize("width", ["1", "2"])
@fuzz
@given(st.lists(sends, min_size=1, max_size=12))
def test_evaluate_on_a_drawn_backend(width, actions):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        code = run(Path(tmp), actions, "evaluate", ["--model", "m", "--width", width, "--out", str(out)])
        assert code in (0, 1)
        if code == 0:
            report_reads_back(out, len(SAMPLES))


@fuzz
@given(st.lists(sends, min_size=1, max_size=12))
def test_inject_on_a_drawn_backend(actions):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "syn.jsonl"
        code = run(Path(tmp), actions, "inject", ["--rounds", "2", "--out", str(out)])
        assert code in (0, 1)
        if code == 0:
            load_dataset(out)


@fuzz
@given(st.lists(sends, min_size=1, max_size=12))
def test_sweep_on_a_drawn_backend(actions):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "sweep"
        code = run(Path(tmp), actions, "sweep", ["--rounds", "0,1", "--models", "m", "--out", str(out)])
        assert code in (0, 1)
        if code == 0:
            for k in (0, 1):
                dataset = load_dataset(out / f"sweep_k{k}.jsonl")
                report_reads_back(out / f"sweep_k{k}_m", len(dataset))

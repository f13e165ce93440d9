"""Span tracing from outside the library, and the per-layer metrics built
from the spans.

The tracer replaces, in every loaded caploc module, each binding of a
chosen public function with a wrapper that records a span, so a call is
seen whichever module looks the name up (``caploc.evalrun.tokenize`` and
``caploc.tagproto.tokenize`` are both ``text.tokenize``). Model-gate calls
go through instances, so the harness's gate, cache and backend objects are
wrapped too. Spans stay in memory until the run ends; uninstall() puts every
original object back.
"""

from __future__ import annotations

import itertools
import json
import statistics
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

# layer module -> traced public functions
LAYER_FUNCTIONS = {
    "text": ("tokenize", "split_sentences"),
    "corpus": ("load_dataset", "save_dataset", "validate_sample"),
    "tagproto": ("parse_tags", "align_to_reference", "marked_token_indices"),
    "diffannot": ("diff_tokens",),
    "metrics": ("token_counts", "sentence_metrics", "dimension_counts", "aggregate"),
    "modelgate": ("cache_key",),
    "inject": ("load_template", "inject_round", "detect_round", "filter_detected", "run_adversarial"),
    "evalrun": (
        "read_transcripts", "write_transcripts", "score_outputs", "build_prompt",
        "emit_report", "evaluate_dataset", "score_transcripts", "render_report_table",
    ),
}


def _tokens(args, result):
    return len(result.tokens)


def _cells(args, result):
    return (len(args[0].tokens) + 1) * (len(args[1].tokens) + 1)


def _alignment(args, result):
    return (result.faithful, result.alignment_coverage)


def _planted(args, result):
    return len(result.spans)


def _outcome(args, result):
    phases = [entry["phase"] for entry in result.state.audit]
    return (len(result.sample.gold_spans), phases.count("inject"), phases.count("inject_retry"))


def _response(args, result):
    return (result.cache_hit, result.attempts)


def _hit(args, result):
    return result is not None


OBSERVERS = {
    "text.tokenize": _tokens,
    "diffannot.diff_tokens": _cells,
    "tagproto.align_to_reference": _alignment,
    "inject.inject_round": _planted,
    "inject.run_adversarial": _outcome,
    "modelgate.complete": _response,
    "modelgate.cache.get": _hit,
}

ERROR = "error"


class Tracer:
    """Records spans (id, name, start, end, parent id, sample id, info).

    The sample id of a span is, when it starts, the id of the last sample
    object, or of the last caption listed in ids_by_text, passed as the first
    argument of a traced call on the same thread since the last new_pass().
    """

    def __init__(self, ids_by_text: dict[str, str] | None = None):
        self.spans: list[tuple] = []
        self.ids_by_text = ids_by_text or {}
        self._ids = itertools.count()
        self._local = threading.local()
        self._restore: list[tuple] = []
        self._wrapped_objects: set[int] = set()
        self._pass = [0]  # bumped by new_pass(); a thread's sample id is per pass

    def wrap(self, fn, name: str):
        spans, ids, local, observe = self.spans, self._ids, self._local, OBSERVERS.get(name)
        ids_by_text, current_pass = self.ids_by_text, self._pass
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            if getattr(local, "pass_no", None) != current_pass[0]:
                local.pass_no, local.sample = current_pass[0], None
            if args:
                first = args[0]
                sample_id = getattr(first, "id", None)
                if isinstance(sample_id, str) and hasattr(first, "caption"):
                    local.sample = sample_id
                elif isinstance(first, str) and first in ids_by_text:
                    local.sample = ids_by_text[first]
            sample = local.sample
            span_id = next(ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end = clock()
                stack.pop()
                spans.append((span_id, name, start, end, parent, sample, {ERROR: type(exc).__name__}))
                raise
            end = clock()
            stack.pop()
            info = observe(args, result) if observe is not None else None
            spans.append((span_id, name, start, end, parent, sample, info))
            return result

        traced.__wrapped__ = fn
        return traced

    def new_pass(self) -> None:
        """Forget the sample each thread last worked for."""
        self._pass[0] += 1

    def install(self) -> None:
        """Wrap every binding of the traced functions in loaded caploc modules."""
        names = {}
        for layer, funcs in LAYER_FUNCTIONS.items():
            module = sys.modules[f"caploc.{layer}"]
            for func in funcs:
                names[id(getattr(module, func))] = (getattr(module, func), f"{layer}.{func}")
        wrappers = {key: self.wrap(fn, name) for key, (fn, name) in names.items()}
        for mod_name, module in sorted(sys.modules.items()):
            if mod_name != "caploc" and not mod_name.startswith("caploc."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and names[id(value)][0] is value:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def _wrap_method(self, obj, attr: str, name: str) -> None:
        if id(obj) in self._wrapped_objects and attr in vars(obj):
            return
        self._restore.append((obj, attr, None))
        setattr(obj, attr, self.wrap(getattr(obj, attr), name))

    def wrap_gate(self, gate) -> None:
        """Wrap a ModelGate's complete and its cache and backend methods."""
        self._wrap_method(gate, "complete", "modelgate.complete")
        self._wrap_method(gate.backend, "send", "modelgate.backend.send")
        if gate.cache is not None:
            self._wrap_method(gate.cache, "get", "modelgate.cache.get")
            self._wrap_method(gate.cache, "put", "modelgate.cache.put")
        for obj in (gate, gate.backend, gate.cache):
            self._wrapped_objects.add(id(obj))

    def uninstall(self) -> None:
        """Put back every wrapped binding, newest first."""
        while self._restore:
            obj, attr, original = self._restore.pop()
            if original is None:
                delattr(obj, attr)  # drops the instance attribute, exposing the method
            else:
                setattr(obj, attr, original)
        self._wrapped_objects.clear()

    def __enter__(self) -> Tracer:
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def write(self, path: str | Path) -> None:
        """One JSON object per span, times in seconds from the first span."""
        if not self.spans:
            Path(path).write_text("", encoding="utf-8")
            return
        t0 = min(s[2] for s in self.spans)
        with open(path, "w", encoding="utf-8") as f:
            for span_id, name, start, end, parent, sample, info in sorted(self.spans):
                f.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "name": name,
                            "start": round(start - t0, 9),
                            "end": round(end - t0, 9),
                            "parent": parent,
                            "sample": sample,
                            "info": info,
                        }
                    )
                    + "\n"
                )


def self_times(spans: list[tuple]) -> dict[int, float]:
    """Span id -> duration minus the durations of its direct children.

    Children of one span run on the span's own thread, one after another and
    inside it, so their durations sum to the time they cover.
    """
    own = {s[0]: s[3] - s[2] for s in spans}
    for span_id, _, start, end, parent, _, _ in spans:
        if parent is not None and parent in own:
            own[parent] -= end - start
    return own


def quantile(values: list[float], q: int) -> float:
    """q-th percentile (inclusive method); 0 for no values."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(spans: list[tuple], samples: int, overhead_fraction: float) -> dict[str, float]:
    """Per-layer metrics over the spans of `samples` traced samples.

    Times and counts are per sample; fractions and per-call figures are over
    the calls that happened, and 0 where the layer did not run.
    """
    own = self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    wall: dict[str, float] = defaultdict(float)
    self_s: dict[str, float] = defaultdict(float)
    infos: dict[str, list] = defaultdict(list)
    durations: dict[str, list[float]] = defaultdict(list)
    for span_id, name, start, end, _, _, info in spans:
        calls[name] += 1
        wall[name] += end - start
        self_s[name] += own[span_id]
        durations[name].append(end - start)
        if info is not None:
            infos[name].append(info)

    def per(x: float) -> float:
        return x / samples

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    ok = lambda name: [i for i in infos[name] if not (isinstance(i, dict) and ERROR in i)]  # noqa: E731
    alignments = ok("tagproto.align_to_reference")
    responses = ok("modelgate.complete")
    outcomes = ok("inject.run_adversarial")
    gets = ok("modelgate.cache.get")
    hits = sum(1 for hit in gets if hit)
    served_from_cache = sum(1 for cache_hit, _ in responses if cache_hit)
    diff_ms = [d * 1000 for d in durations["diffannot.diff_tokens"]]
    scoring = ("metrics.token_counts", "metrics.sentence_metrics", "metrics.dimension_counts")
    return {
        "text.tokenize.calls_per_sample": per(calls["text.tokenize"]),
        "text.tokenize.self_s": per(self_s["text.tokenize"]),
        "text.tokenize.ns_per_token": ratio(self_s["text.tokenize"] * 1e9, sum(ok("text.tokenize"))),
        "text.split_sentences.self_s": per(self_s["text.split_sentences"]),
        "corpus.load_dataset.s": per(wall["corpus.load_dataset"]),
        "corpus.validate_sample.self_s": per(self_s["corpus.validate_sample"]),
        "corpus.save_dataset.s": per(wall["corpus.save_dataset"]),
        "tagproto.parse_tags.self_s": per(self_s["tagproto.parse_tags"]),
        "tagproto.align_to_reference.self_s": per(self_s["tagproto.align_to_reference"]),
        "tagproto.marked_token_indices.self_s": per(self_s["tagproto.marked_token_indices"]),
        "tagproto.align_to_reference.faithful_fraction": ratio(
            sum(1 for faithful, _ in alignments if faithful), len(alignments)
        ),
        "tagproto.align_to_reference.mean_coverage": ratio(
            sum(coverage for _, coverage in alignments), len(alignments)
        ),
        "diffannot.diff_tokens.calls": per(calls["diffannot.diff_tokens"]),
        "diffannot.diff_tokens.self_s": per(self_s["diffannot.diff_tokens"]),
        "diffannot.diff_tokens.ns_per_cell": ratio(
            self_s["diffannot.diff_tokens"] * 1e9, sum(ok("diffannot.diff_tokens"))
        ),
        "diffannot.diff_tokens.p50_ms": quantile(diff_ms, 50),
        "diffannot.diff_tokens.p90_ms": quantile(diff_ms, 90),
        "metrics.sample_scoring.self_s": per(sum(self_s[n] for n in scoring)),
        "metrics.aggregate.s": per(wall["metrics.aggregate"]),
        "modelgate.complete.calls": per(calls["modelgate.complete"]),
        "modelgate.complete.self_s": per(self_s["modelgate.complete"]),
        "modelgate.cache_key.self_s": per(self_s["modelgate.cache_key"]),
        "modelgate.cache.get.s": per(wall["modelgate.cache.get"]),
        "modelgate.cache.put.s": per(wall["modelgate.cache.put"]),
        "modelgate.cache.hit_fraction": ratio(hits, len(gets)),
        "modelgate.backend.calls": per(calls["modelgate.backend.send"]),
        "modelgate.backend.s": per(wall["modelgate.backend.send"]),
        "modelgate.retries": per(sum(attempts - 1 for cache_hit, attempts in responses if not cache_hit)),
        "modelgate.dedup_waits": per(served_from_cache - hits),
        "modelgate.failures": per(calls["modelgate.complete"] - len(responses)),
        "inject.inject_round.calls_per_sample": per(calls["inject.inject_round"]),
        "inject.inject_round.self_s": per(self_s["inject.inject_round"]),
        "inject.detect_round.self_s": per(self_s["inject.detect_round"]),
        "inject.filter_detected.self_s": per(self_s["inject.filter_detected"]),
        "inject.retry_fraction": ratio(sum(o[2] for o in outcomes), sum(o[1] for o in outcomes)),
        "inject.survivor_fraction": ratio(
            sum(o[0] for o in outcomes), sum(ok("inject.inject_round"))
        ),
        "evalrun.read_transcripts.s": per(wall["evalrun.read_transcripts"]),
        "evalrun.score_outputs.self_s": per(self_s["evalrun.score_outputs"]),
        "evalrun.build_prompt.self_s": per(self_s["evalrun.build_prompt"]),
        "inject.load_template.calls": per(calls["inject.load_template"]),
        "evalrun.write_transcripts.s": per(wall["evalrun.write_transcripts"]),
        "evalrun.emit_report.s": per(wall["evalrun.emit_report"]),
        "trace.overhead_fraction": overhead_fraction,
    }

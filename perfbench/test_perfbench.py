"""Tests of the benchmark itself: seeded inputs, output checks, per-sample
timing, the tracer, and the metric names BENCHMARK.json declares.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = HERE.parent
SMALL = {"SCORE_FAITHFUL_SAMPLES": 6, "SCORE_UNFAITHFUL_SAMPLES": 9}


@pytest.fixture(autouse=True)
def small_workloads(monkeypatch):
    for name, value in SMALL.items():
        monkeypatch.setattr(workloads, name, value)


def make(name: str, seed: int, workdir: Path) -> workloads.Workload:
    workdir.mkdir(parents=True, exist_ok=True)
    wl = workloads.WORKLOADS[name](seed, workdir)
    wl.write_inputs()
    return wl


def input_files(workdir: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(workdir.iterdir()) if p.is_file()}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_inputs(tmp_path, name):
    a = input_files(make(name, 7, tmp_path / "a").workdir)
    b = input_files(make(name, 7, tmp_path / "b").workdir)
    c = input_files(make(name, 8, tmp_path / "c").workdir)
    assert a and a == b
    assert a != c


def test_injection_script_is_deterministic():
    one, two = gen.InjectScript(3, 20), gen.InjectScript(3, 20)
    assert [one.expected(i) for i in range(20)] == [two.expected(i) for i in range(20)]


def test_generator_counts_match_own_tokenizer():
    samples, outputs, rows = gen.score_inputs(5, 9, unfaithful=True)
    for sample in samples:
        toks = gen.tokens_of(sample["caption"])
        assert len(toks) in gen.SCORE_LENGTHS
        assert len(gen.sentence_ranges(sample["caption"], toks)) == len(toks) // 10
        assert gen.OPEN_TAG not in sample["caption"]
        assert rows[sample["id"]]["faithful"] is False


def run_passes(wl: workloads.Workload, passes: int) -> list:
    out = []
    for _ in range(passes):
        result = wl.run_pass()
        wl.check(result)
        out.append(result)
    return out


def report_bytes(wl: workloads.Workload) -> bytes:
    if isinstance(wl, workloads.InjectWorkload):
        return (wl.workdir / "synthetic.jsonl").read_bytes()
    return workloads.normalized_report(Path(wl.cfg.out_dir) / "report.json")


def snapshot_bindings(objects) -> dict:
    caploc_modules = {k: m for k, m in sys.modules.items() if k == "caploc" or k.startswith("caploc.")}
    state = {("module", k): dict(vars(m)) for k, m in caploc_modules.items()}
    for obj in objects:
        state[("object", id(obj))] = dict(vars(obj))
    return state


def gate_objects(wl) -> list:
    gate = getattr(wl, "gate", None)
    return [gate, gate.backend, gate.cache] if gate is not None else []


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_run_matches_untraced_and_restores_bindings(tmp_path, name):
    wl = make(name, 11, tmp_path)
    wl.setup()
    run_passes(wl, 1)
    untraced = report_bytes(wl)
    before = snapshot_bindings(gate_objects(wl))

    tracer = tracing.Tracer(wl.ids_by_caption())
    wl.tracer = tracer
    with tracer:
        assert sys.modules["caploc.evalrun"].tokenize is not before[("module", "caploc.evalrun")]["tokenize"]
        results = run_passes(wl, 1)
    wl.tracer = None

    assert report_bytes(wl) == untraced
    assert snapshot_bindings(gate_objects(wl)) == before
    assert tracer.spans

    metrics = tracing.layer_metrics(tracer.spans, results[0].samples, 0.0)
    if name in ("score_faithful", "evaluate_warm"):
        assert metrics["diffannot.diff_tokens.calls"] == 0
        assert metrics["tagproto.align_to_reference.faithful_fraction"] == 1.0
    if name == "score_unfaithful":
        assert metrics["diffannot.diff_tokens.calls"] == 1
        assert metrics["tagproto.align_to_reference.faithful_fraction"] == 0.0
    if name == "evaluate_warm":
        assert metrics["modelgate.cache.hit_fraction"] == 1.0
        assert metrics["modelgate.backend.calls"] == 0
    if name == "inject_adversarial":
        assert metrics["modelgate.backend.calls"] == results[0].backend_calls / results[0].samples
        assert 0 < metrics["inject.survivor_fraction"] <= 1


def test_self_times_of_nested_spans_fit_in_parent(tmp_path):
    wl = make("inject_adversarial", 12, tmp_path)
    wl.setup()
    tracer = tracing.Tracer()
    wl.tracer = tracer
    with tracer:
        run_passes(wl, 1)
    spans = tracer.spans
    own = tracing.self_times(spans)
    children: dict = {}
    for span in spans:
        children.setdefault(span[4], []).append(span[0])
    by_id = {s[0]: s for s in spans}

    def subtree_self(span_id: int) -> float:
        return own[span_id] + sum(subtree_self(c) for c in children.get(span_id, []))

    nested = [s for s in spans if s[0] in children]
    assert nested
    for span_id, _, start, end, *_ in nested:
        assert subtree_self(span_id) <= (end - start) + 1e-9
        assert own[span_id] >= -1e-9
        for child in children[span_id]:
            assert start <= by_id[child][2] <= by_id[child][3] <= end


@pytest.mark.parametrize("name", ["score_faithful", "evaluate_warm"])
def test_span_attribution_to_samples(tmp_path, name):
    wl = make(name, 13, tmp_path)
    wl.setup()
    tracer = tracing.Tracer(wl.ids_by_caption())
    wl.tracer = tracer
    with tracer:
        for _ in range(2):
            tracer.new_pass()
            run_passes(wl, 1)
    ids = set(wl.ids_by_caption().values())
    assert {s[5] for s in tracer.spans if s[1] == "text.tokenize"} == ids
    if name == "evaluate_warm":
        assert {s[5] for s in tracer.spans if s[1] == "modelgate.complete"} == ids
    # a pass's first spans belong to no sample, not to the previous pass's last one
    assert {s[5] for s in tracer.spans if s[1] == "corpus.load_dataset"} == {None}


@pytest.mark.parametrize("name", ["score_unfaithful", "evaluate_warm", "inject_adversarial"])
def test_checks_reject_wrong_outputs(tmp_path, name):
    wl = make(name, 14, tmp_path)
    wl.setup()
    if name == "inject_adversarial":
        wl.expected_calls += 1
    else:
        wl.expected_rows[0]["token"]["gold"] += 1
    with pytest.raises(workloads.CheckError):
        run_passes(wl, 1)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_latency_per_sample_within_the_pass(tmp_path, name):
    wl = make(name, 15, tmp_path)
    wl.setup()
    before = snapshot_bindings(gate_objects(wl))
    start = time.perf_counter()
    (result,) = run_passes(wl, 1)
    wall = time.perf_counter() - start
    assert len(result.latencies) == result.samples
    assert all(lat > 0 for lat in result.latencies)
    assert sum(result.latencies) <= wall
    assert snapshot_bindings(gate_objects(wl)) == before


@pytest.mark.parametrize("trace", [0, 1])
def test_command_prints_every_metric(trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "score_faithful",
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_command_fails_without_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "score_faithful",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout

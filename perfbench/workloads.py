"""The four benchmark workloads: input generation, set-up, one timed pass, and
the output checks each pass must satisfy.

Importing this module imports nothing from caploc: set-up imports the
program, so that set-up time includes the import. Passes call the program
through module attributes (``self.p.evalrun.score_transcripts``), which is
what lets the tracer's wrappers see each call.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import gen

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# samples per pass, sized so that a pass takes about a second on a small
# machine and one run holds dozens of passes
SCORE_FAITHFUL_SAMPLES = 90
SCORE_UNFAITHFUL_SAMPLES = 9
INJECT_SAMPLES = 20  # one sample per InjectScript role
INJECT_ROUNDS = 2
EVAL_WIDTH = 2

_GENERATED_AT = re.compile(rb'\n  "generated_at": "[^"]*",?\n')


class CheckError(Exception):
    """An output of the program differs from what its inputs were built to give."""


def program_available() -> bool:
    return (SRC / "caploc" / "__init__.py").is_file()


def import_program() -> SimpleNamespace:
    """Import caploc from the checkout's source tree (never an installed copy)."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import caploc.cli  # noqa: F401  the whole import graph, as the command loads it
    from caploc import corpus, evalrun, fixtures, inject, modelgate

    caploc_file = Path(sys.modules["caploc"].__file__).resolve()
    if SRC.resolve() not in caploc_file.parents:
        raise ImportError(f"caploc was imported from {caploc_file}, not from {SRC}")
    return SimpleNamespace(
        corpus=corpus, evalrun=evalrun, fixtures=fixtures, inject=inject, modelgate=modelgate
    )


def dataset_header(p: SimpleNamespace) -> dict:
    c = p.corpus
    return {"format": c.FORMAT_NAME, "version": c.FORMAT_VERSION, "tokenizer": c.TOKENIZER_VERSION}


def normalized_report(path: Path) -> bytes:
    """report.json bytes with the generated_at line blanked out."""
    data = path.read_bytes()
    out, n = _GENERATED_AT.subn(b"\n", data)
    if n != 1:
        raise CheckError(f"{path}: expected one generated_at line, found {n}")
    return out


@contextmanager
def sample_clock(evalrun, latencies: list[float]):
    """Append the wall time of each iteration of score_outputs' per-sample
    loop to `latencies`. An iteration starts with the loop's one
    tokenize(caption) call, and the last one ends when score_outputs
    returns. The two wrappers cost well under a microsecond per sample;
    the original bindings are put back on exit."""
    tokenize, score_outputs = evalrun.tokenize, evalrun.score_outputs
    starts: list[float] = []

    def timed_tokenize(*args, **kwargs):
        starts.append(time.perf_counter())
        return tokenize(*args, **kwargs)

    def timed_score_outputs(*args, **kwargs):
        starts.clear()
        result = score_outputs(*args, **kwargs)
        ends = starts[1:] + [time.perf_counter()]
        latencies.extend(end - start for start, end in zip(starts, ends))
        return result

    evalrun.tokenize, evalrun.score_outputs = timed_tokenize, timed_score_outputs
    try:
        yield
    finally:
        evalrun.tokenize, evalrun.score_outputs = tokenize, score_outputs


@dataclass
class PassResult:
    samples: int
    failed: int = 0
    backend_calls: int = 0
    latencies: list[float] = field(default_factory=list)  # wall seconds per sample
    output: object = None  # what the pass produced, for check(); dropped after it


class Workload:
    """Base class. Subclasses set `name` and implement write_inputs, setup,
    run_pass and check."""

    name = ""
    min_passes = 3

    def __init__(self, seed: int, workdir: str | Path):
        self.seed = seed
        self.workdir = Path(workdir)
        self.tracer = None  # set by the traced run
        self.p: SimpleNamespace | None = None

    def write_inputs(self) -> None:
        """Generate this workload's inputs in workdir and load them (harness side)."""

    def load_inputs(self) -> None:
        """Load what set-up needs from workdir without importing caploc."""

    def cleanup_setup(self) -> None:
        """Delete what a set-up left in workdir."""

    def ids_by_caption(self) -> dict[str, str]:
        """Caption text -> sample id, for attributing spans to samples."""
        return {}

    def setup(self) -> None:
        raise NotImplementedError

    def run_pass(self) -> PassResult:
        raise NotImplementedError

    def check(self, result: PassResult) -> None:
        """Raise CheckError unless the pass's outputs are the expected ones."""
        raise NotImplementedError

    def _trace_gate(self, gate) -> None:
        if self.tracer is not None:
            self.tracer.wrap_gate(gate)


class ScoreWorkload(Workload):
    """Offline `caploc score`: score_transcripts, emit_report, render the table."""

    def __init__(self, seed, workdir, unfaithful: bool):
        super().__init__(seed, workdir)
        self.unfaithful = unfaithful
        self.name = "score_unfaithful" if unfaithful else "score_faithful"
        self.n = SCORE_UNFAITHFUL_SAMPLES if unfaithful else SCORE_FAITHFUL_SAMPLES
        self.dataset = self.workdir / "dataset.jsonl"
        self.transcripts = self.workdir / "transcripts.jsonl"

    def write_inputs(self) -> None:
        samples, outputs, rows = gen.score_inputs(self.seed, self.n, self.unfaithful)
        gen.write_jsonl(self.dataset, [dataset_header(import_program())] + samples)
        gen.write_jsonl(self.transcripts, [{"id": k, "output": v} for k, v in outputs.items()])
        self.expected_rows = [rows[s["id"]] for s in samples]
        self.captions = {s["caption"]: s["id"] for s in samples}

    def ids_by_caption(self) -> dict[str, str]:
        return self.captions

    def setup(self) -> None:
        self.p = import_program()
        self.cfg = self.p.evalrun.EvalConfig(
            dataset=self.dataset, model="offline", out_dir=self.workdir / "out"
        )

    def run_pass(self) -> PassResult:
        evalrun = self.p.evalrun
        result = PassResult(samples=self.n)
        with sample_clock(evalrun, result.latencies):
            report = evalrun.score_transcripts(self.cfg, self.transcripts)
        evalrun.emit_report(report, self.cfg.out_dir)
        evalrun.render_report_table(report)
        result.failed, result.output = len(report.skipped), report
        return result

    def check(self, result: PassResult) -> None:
        report = result.output
        want_rate = 1.0 if self.unfaithful else 0.0
        if report.card.faithfulness_violation_rate != want_rate:
            raise CheckError(
                f"faithfulness violation rate {report.card.faithfulness_violation_rate}, want {want_rate}"
            )
        if report.skipped or report.coverage != 1.0:
            raise CheckError(f"skipped samples {report.skipped[:5]}")
        for got, want in zip(report.samples, self.expected_rows, strict=True):
            if got != want:
                raise CheckError(f"sample {want['id']}: report row {got} != expected {want}")
        if not (Path(self.cfg.out_dir) / "report.json").is_file():
            raise CheckError("report.json was not written")


class EvaluateWarmWorkload(Workload):
    """Live `caploc evaluate` of the fixture through a scripted model, with a
    response cache the set-up's cold pass filled."""

    name = "evaluate_warm"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.dataset = self.workdir / "fixture.jsonl"
        self.replies = self.workdir / "replies.json"
        self.expected = self.workdir / "expected_rows.json"
        self.reference_report: bytes | None = None  # normalized report.json of the cold pass

    def write_inputs(self) -> None:
        p = import_program()
        samples = [s.to_dict() for s in p.fixtures.build_fixture(self.seed)]
        script = gen.EvalScript(self.seed, samples)
        gen.write_jsonl(self.dataset, [dataset_header(p)] + samples)
        self.replies.write_text(json.dumps(script.outputs, ensure_ascii=False), encoding="utf-8")
        self.expected.write_text(
            json.dumps([script.rows[s["id"]] for s in samples], ensure_ascii=False), encoding="utf-8"
        )
        self.captions = {s["caption"]: s["id"] for s in samples}
        self.load_inputs()

    def ids_by_caption(self) -> dict[str, str]:
        return self.captions

    def load_inputs(self) -> None:
        self.outputs = json.loads(self.replies.read_text(encoding="utf-8"))
        self.expected_rows = json.loads(self.expected.read_text(encoding="utf-8"))

    def _reply(self, req) -> str:
        return self.outputs[gen.caption_after_label(req.user)]

    def setup(self) -> None:
        p = self.p = import_program()
        mg = p.modelgate
        self.backend = mg.ScriptedBackend(
            [mg.ScriptRule(purpose=mg.Purpose.EVALUATE.value, responder=self._reply)]
        )
        cache = mg.ResponseCache(self.workdir / f"cache-{os.getpid()}")
        self.gate = mg.ModelGate(self.backend, cache=cache)
        self.cfg = p.evalrun.EvalConfig(
            dataset=self.dataset,
            model="bench-model",
            out_dir=self.workdir / f"out-{os.getpid()}",
            width=min(EVAL_WIDTH, os.cpu_count() or 1),
        )
        warm = self.run_pass()
        if not len(self.outputs) <= warm.backend_calls <= len(self.expected_rows):
            raise CheckError(
                f"cold pass made {warm.backend_calls} backend calls for "
                f"{len(self.outputs)} distinct prompts"
            )
        self.check(warm)

    def cleanup_setup(self) -> None:
        shutil.rmtree(self.gate.cache.directory, ignore_errors=True)
        shutil.rmtree(self.cfg.out_dir, ignore_errors=True)

    def run_pass(self) -> PassResult:
        self._trace_gate(self.gate)
        evalrun = self.p.evalrun
        calls_before = len(self.backend.requests)
        result = PassResult(samples=len(self.expected_rows))
        with sample_clock(evalrun, result.latencies):
            report = evalrun.evaluate_dataset(self.cfg, self.gate)
        evalrun.emit_report(report, self.cfg.out_dir)
        evalrun.render_report_table(report)
        result.failed, result.output = len(report.skipped), report
        result.backend_calls = len(self.backend.requests) - calls_before
        return result

    def check(self, result: PassResult) -> None:
        report = result.output
        if report.skipped or report.card.faithfulness_violation_rate != 0.0:
            raise CheckError(f"skipped {report.skipped[:5]}, violation rate {report.card.faithfulness_violation_rate}")
        for got, want in zip(report.samples, self.expected_rows, strict=True):
            if got != want:
                raise CheckError(f"sample {want['id']}: report row {got} != expected {want}")
        report_bytes = normalized_report(Path(self.cfg.out_dir) / "report.json")
        if self.reference_report is None:
            self.reference_report = report_bytes
            return
        if report_bytes != self.reference_report:
            raise CheckError("report.json differs from the cold pass's apart from generated_at")
        if result.backend_calls:
            raise CheckError(f"a warm pass made {result.backend_calls} backend calls")


class InjectWorkload(Workload):
    """`caploc inject` with K=2 on 250-token clean captions: load the clean
    dataset, run_adversarial per sample through a cold cache, save_dataset,
    then load_dataset the result."""

    name = "inject_adversarial"
    min_passes = 5  # at least 100 per-sample latencies, so p90 has 10 beyond it

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.clean_path = self.workdir / "clean.jsonl"
        self.pass_no = 0

    def load_inputs(self) -> None:
        self.script = gen.InjectScript(self.seed, INJECT_SAMPLES)
        expected = [self.script.expected(i, INJECT_ROUNDS) for i in range(INJECT_SAMPLES)]
        self.expected_samples = [s for s, _ in expected]
        self.expected_calls = sum(c for _, c in expected)

    def write_inputs(self) -> None:
        self.load_inputs()
        p = import_program()
        header = dataset_header(p)
        gen.write_jsonl(self.clean_path, [header] + self.script.clean)
        self.expected_bytes = "".join(
            json.dumps(r, ensure_ascii=False) + "\n" for r in [header] + self.expected_samples
        ).encode("utf-8")

    def _rules(self):
        mg = self.p.modelgate
        return [
            mg.ScriptRule(purpose=mg.Purpose.INJECT.value, responder=lambda r: self.script.inject_reply(r.user)),
            mg.ScriptRule(purpose=mg.Purpose.DETECT.value, responder=lambda r: self.script.detect_reply(r.user)),
        ]

    def _gate(self, tag: str):
        mg = self.p.modelgate
        self.backend = mg.ScriptedBackend(self._rules())
        cache = mg.ResponseCache(self.workdir / f"cache-{os.getpid()}-{tag}")
        return mg.ModelGate(self.backend, cache=cache)

    def setup(self) -> None:
        self.p = import_program()
        self.cfg = self.p.inject.InjectionConfig(rounds=INJECT_ROUNDS)
        self.gate = self._gate("setup")

    def cleanup_setup(self) -> None:
        shutil.rmtree(self.gate.cache.directory, ignore_errors=True)

    def run_pass(self) -> PassResult:
        p = self.p
        self.pass_no += 1
        gate = self._gate(str(self.pass_no))
        self._trace_gate(gate)
        out_path = self.workdir / "synthetic.jsonl"
        result = PassResult(samples=0)
        clean = p.corpus.load_dataset(self.clean_path)
        synthetic = []
        for sample in clean:
            start = time.perf_counter()
            try:
                outcome = p.inject.run_adversarial(sample, self.cfg, gate)
            except (p.inject.InjectionError, p.modelgate.BackendError):
                result.failed += 1
            else:
                synthetic.append(outcome.sample)
            result.latencies.append(time.perf_counter() - start)
        result.samples = len(clean)
        p.corpus.save_dataset(synthetic, out_path)
        reloaded = p.corpus.load_dataset(out_path)
        result.backend_calls = len(self.backend.requests)
        result.output = (synthetic, reloaded, out_path, gate.cache.directory)
        return result

    def check(self, result: PassResult) -> None:
        synthetic, reloaded, out_path, cache_dir = result.output
        shutil.rmtree(cache_dir, ignore_errors=True)
        if [s.to_dict() for s in reloaded] != [s.to_dict() for s in synthetic]:
            raise CheckError("load_dataset did not give back the saved samples")
        if out_path.read_bytes() != self.expected_bytes:
            got = [s.to_dict() for s in synthetic]
            for g, w in zip(got, self.expected_samples):
                if g != w:
                    raise CheckError(f"synthetic sample {g} != expected {w}")
            raise CheckError("saved dataset bytes differ from the expected dataset")
        if result.backend_calls != self.expected_calls:
            raise CheckError(f"{result.backend_calls} backend calls, want {self.expected_calls}")


WORKLOADS = {
    "score_faithful": lambda seed, d: ScoreWorkload(seed, d, unfaithful=False),
    "score_unfaithful": lambda seed, d: ScoreWorkload(seed, d, unfaithful=True),
    "evaluate_warm": EvaluateWarmWorkload,
    "inject_adversarial": InjectWorkload,
}

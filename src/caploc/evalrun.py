"""Evaluation orchestration: prompt the model under test, collect transcripts,
score them, and emit reports; build synthetic datasets; plus the round-sweep
and real-vs-synthetic correlation harnesses.

Scoring is one shared path whether outputs arrive live from a gate or from a
transcript file, so offline re-scoring reproduces a live run exactly.
"""

from __future__ import annotations

import concurrent.futures
import hashlib
import json
import logging
import math
import os
import threading
import time
from collections import Counter
from collections.abc import Callable, Iterable
from dataclasses import asdict, dataclass, replace as dc_replace
from itertools import takewhile
from json.encoder import encode_basestring
from pathlib import Path
from urllib.parse import quote

from . import __version__
from .corpus import (
    BenchmarkSample,
    DatasetError,
    _field,
    _json_type,
    decode_json,
    load_dataset,
    read_records,
    save_dataset,
    write_records,
)
from .inject import (
    PROMPT_VERSION,
    InjectionConfig,
    InjectionError,
    InjectionOutcome,
    fill_template,
    load_template,
    run_adversarial,
)
from .metrics import (
    ScoreCard,
    aggregate,
    dimension_counts,
    sentence_metrics,
    spearman,
    token_counts,
)
from .modelgate import (
    BackendError,
    ImageAttachment,
    ModelGate,
    ModelRequest,
    Purpose,
)
from .tagproto import align_to_reference, parse_tags
from .text import TOKENIZER_VERSION, tokenize

logger = logging.getLogger(__name__)

_MEDIA_TYPES = {
    ".png": "image/png",
    ".jpg": "image/jpeg",
    ".jpeg": "image/jpeg",
    ".webp": "image/webp",
    ".gif": "image/gif",
}


@dataclass(frozen=True)
class EvalConfig:
    dataset: str | Path
    model: str
    out_dir: str | Path = "eval_out"
    strict: bool = False
    width: int = 1
    image_root: str | Path | None = None
    require_image: bool = False

    def __post_init__(self) -> None:
        if self.width < 1:
            raise ValueError("EvalConfig: width must be >= 1")


@dataclass
class EvalReport:
    model: str
    dataset_sha256: str
    coverage: float
    card: ScoreCard
    samples: list[dict]
    skipped: list[str]
    tool_versions: dict
    generated_at: str

    def to_dict(self) -> dict:
        card = self.card.to_dict()
        return {
            "model": self.model,
            "dataset_sha256": self.dataset_sha256,
            "coverage": self.coverage,
            "overall": {"token": card["token"], "sentence": card["sentence"]},
            "dimensions": card["dimension_recall"],
            "domains": card.get("domains", {}),
            "faithfulness_violation_rate": card["faithfulness_violation_rate"],
            "macro": card["macro"],
            "sample_count": card["sample_count"],
            "samples": self.samples,
            "skipped": self.skipped,
            "tool_versions": self.tool_versions,
            "generated_at": self.generated_at,
        }

    @classmethod
    def from_dict(cls, data: dict) -> EvalReport:
        """Rebuild a report from its to_dict() form, its card made from the
        per-sample rows by metrics.aggregate, as a live run makes it.

        Raises ValueError when a key is missing or holds the wrong type (a
        coverage outside [0, 1] included), or aggregate refuses a row.
        """
        try:
            card = aggregate(data["samples"])
            report = cls(
                model=data["model"],
                dataset_sha256=data["dataset_sha256"],
                coverage=data["coverage"],
                card=card,
                samples=data["samples"],
                skipped=data.get("skipped", []),
                tool_versions=data.get("tool_versions", {}),
                generated_at=data.get("generated_at", ""),
            )
        except (KeyError, TypeError, AttributeError) as exc:
            raise ValueError(f"malformed report: {type(exc).__name__}: {exc}") from exc
        if not (
            isinstance(report.model, str)
            and isinstance(report.dataset_sha256, str)
            and _is_number(report.coverage)
            and 0 <= report.coverage <= 1
        ):
            raise ValueError("malformed report: model, dataset_sha256 or coverage has the wrong type")
        return report


class MissingImageError(FileNotFoundError):
    """A sample's image is not found and images are required: an error of
    that sample alone, unlike any other missing file."""


def load_image(image: str, image_root: str | Path | None) -> ImageAttachment | None:
    """The image file at path `image`, or None when that is empty or no file.

    The one image-path rule of evaluation and injection: an absolute path is
    used as it is; a relative one resolves against image_root when given,
    else against the working directory.
    """
    path = Path(image)
    if not path.is_absolute() and image_root is not None:
        path = Path(image_root) / path
    if not image or not path.is_file():
        return None
    media = _MEDIA_TYPES.get(path.suffix.lower(), "image/png")
    return ImageAttachment(data=path.read_bytes(), media_type=media)


def build_prompt(sample: BenchmarkSample, cfg: EvalConfig) -> ModelRequest:
    """One fixed instruction (shipped asset) plus the caption and the image."""
    image = load_image(sample.image, cfg.image_root)
    if image is None and cfg.require_image:
        raise MissingImageError(
            f"sample {sample.id!r}: image {sample.image!r} not found and images are required"
        )
    user = fill_template(load_template("evaluate"), caption=sample.caption)
    return ModelRequest(
        model=cfg.model,
        user=user,
        purpose=Purpose.EVALUATE.value,
        image=image,
    )


def score_sample(sample: BenchmarkSample, raw: str, strict: bool) -> dict:
    """Score one raw model output against the sample's gold spans: parse the
    tags, align the marks to the caption's tokens and count. This is the
    single per-output scoring path.

    Returns the sample's report row, the one per-sample score record. With
    strict, an unfaithful output scores as an empty prediction.
    """
    # the caption's one tokenize call comes first: perfbench's per-sample
    # clock (workloads.sample_clock) starts each sample there
    tc = tokenize(sample.caption)
    parsed = parse_tags(raw)
    pred = align_to_reference(parsed.stripped, parsed.marked_ranges, tc)
    indices = set(pred.indices)
    if strict and not pred.faithful:
        indices = set()
    gold = set()
    for span in sample.gold_spans:
        gold.update(range(span.start, span.end))
    return {
        "id": sample.id,
        "domain": sample.domain,
        "token": token_counts(gold, indices),
        "sentence": sentence_metrics(gold, indices, tc),
        "dimensions": dimension_counts(sample.gold_spans, indices),
        "faithful": pred.faithful,
        "alignment_coverage": pred.alignment_coverage,
        "parse_status": parsed.status,
    }


def score_outputs(
    samples: list[BenchmarkSample], outputs: dict[str, str], cfg: EvalConfig
) -> tuple[ScoreCard, list[dict], list[str]]:
    """Score raw model outputs against gold; the single scoring path shared by
    live evaluation and offline transcript scoring.

    Returns the aggregate card, per-sample rows, and skipped sample ids.
    Samples without an output are skipped and excluded from denominators. In
    strict mode an unfaithful output scores as an empty prediction.
    """
    rows: list[dict] = []
    skipped: list[str] = []
    for sample in samples:
        output = outputs.get(sample.id)
        if output is None:
            skipped.append(sample.id)
        else:
            rows.append(score_sample(sample, output, cfg.strict))
    if not rows:
        raise ValueError("score_outputs: no samples could be scored")
    return aggregate(rows), rows, skipped


def write_transcripts(path: str | Path, rows: Iterable[tuple[str, str]]) -> None:
    write_records(path, ({"id": sample_id, "output": output} for sample_id, output in rows))


def _parse_transcript(line: str) -> tuple[str, str]:
    try:
        record = decode_json(line)
        if not isinstance(record, dict):
            raise DatasetError(f"is a JSON {_json_type(record)}, expected an object")
        return _field(record, "id", str), _field(record, "output", str)
    except ValueError as exc:
        raise DatasetError(f"bad transcript line: {exc}") from exc


def read_transcripts(path: str | Path) -> dict[str, str]:
    outputs: dict[str, str] = {}
    for lineno, (sample_id, output) in read_records(path, _parse_transcript):
        if sample_id in outputs:
            raise DatasetError(f"{path}:{lineno}: duplicate transcript id {sample_id!r}")
        outputs[sample_id] = output
    return outputs


def _make_report(
    cfg: EvalConfig,
    samples: list[BenchmarkSample],
    outputs: dict[str, str],
) -> EvalReport:
    card, rows, skipped = score_outputs(samples, outputs, cfg)
    coverage = (len(samples) - len(skipped)) / len(samples) if samples else 0.0
    return EvalReport(
        model=cfg.model,
        dataset_sha256=hashlib.sha256(Path(cfg.dataset).read_bytes()).hexdigest(),
        coverage=coverage,
        card=card,
        samples=rows,
        skipped=skipped,
        tool_versions={"caploc": __version__, "tokenizer": TOKENIZER_VERSION, "prompts": PROMPT_VERSION},
        generated_at=time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    )


_SAMPLE_ERRORS = (BackendError, InjectionError, MissingImageError)
# this many samples in a row failing with a BackendError means the backend
# is down: the run stops rather than pay every later sample's retries
_DEAD_BACKEND_STREAK = 8


def run_samples(
    samples: list[BenchmarkSample], work: Callable[[BenchmarkSample], object], width: int
) -> list[tuple[BenchmarkSample, object]]:
    """(sample, work(sample)) per sample in input order, work running on `width`
    threads: the one per-sample loop of evaluation and injection. No samples
    raise ValueError. A BackendError, InjectionError or MissingImageError fails
    only its sample, which is logged and gets None; when every sample failed, a
    ValueError names how many and the commonest exception type, with the message
    of its first sample. When _DEAD_BACKEND_STREAK samples in a row, in
    completion order, failed with a BackendError, a ValueError naming the last
    stops the run. So does any other exception, a failed cache write or
    KeyboardInterrupt included: samples not yet started do not run, and the
    exception propagates once the running ones end."""
    if not samples:
        raise ValueError("the dataset holds no samples")
    stop = threading.Event()
    lock = threading.Lock()
    streak = 0

    def run(sample: BenchmarkSample) -> object:
        nonlocal streak
        if stop.is_set():
            return None
        try:
            result = work(sample)
        except _SAMPLE_ERRORS as exc:
            logger.warning("sample %s failed: %s", sample.id, exc)
            result = exc
        except BaseException:
            stop.set()
            raise
        with lock:
            streak = streak + 1 if isinstance(result, BackendError) else 0
            if streak >= _DEAD_BACKEND_STREAK:
                # set under the lock, so no later completion starts a sample
                stop.set()
                raise ValueError(
                    f"{streak} samples in a row failed with a backend error; "
                    f"the last on sample {sample.id!r}: {result}"
                ) from result
        return result

    with concurrent.futures.ThreadPoolExecutor(max_workers=width) as pool:
        # an exception raised here (a Ctrl-C while waiting, or one that
        # stopped a worker) cancels the samples not yet started
        results = list(zip(samples, pool.map(run, samples)))
    failed = [(sample, exc) for sample, exc in results if isinstance(exc, _SAMPLE_ERRORS)]
    if len(failed) == len(samples):
        # grouped by type, not by message: transport messages carry addresses
        kind, count = Counter(type(exc) for _, exc in failed).most_common(1)[0]
        sample, exc = next((s, e) for s, e in failed if type(e) is kind)
        raise ValueError(
            f"all {len(samples)} samples failed; {count} with {kind.__name__}, "
            f"the first on sample {sample.id!r}: {exc}"
        ) from exc
    return [(sample, None if isinstance(r, _SAMPLE_ERRORS) else r) for sample, r in results]


def evaluate_dataset(cfg: EvalConfig, gate: ModelGate) -> EvalReport:
    """Prompt the model for every sample, persist transcripts, score.

    Failed requests become skipped rows rather than aborting the run; with a
    warm cache no request leaves the process and the report is reproducible.
    The output directory is made before the first request, so an unusable one
    fails first; a run that raises removes again each directory this call
    made, the output directory and its parents, deepest first while each is
    still empty.
    """
    samples = load_dataset(cfg.dataset)
    out_dir = Path(cfg.out_dir)
    made = list(takewhile(lambda d: not d.is_dir(), (out_dir, *out_dir.parents)))
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        fetched = run_samples(
            samples, lambda sample: gate.complete(build_prompt(sample, cfg)).text, cfg.width
        )
    except BaseException:
        for directory in made:
            try:
                os.rmdir(directory)
            except OSError:  # no longer empty, and so no parent is
                break
        raise
    outputs = {sample.id: text for sample, text in fetched if text is not None}
    write_transcripts(out_dir / "transcripts.jsonl", outputs.items())
    return _make_report(cfg, samples, outputs)


def score_transcripts(cfg: EvalConfig, transcripts: str | Path) -> EvalReport:
    """Offline twin of evaluate_dataset: same scoring path, no model calls."""
    samples = load_dataset(cfg.dataset)
    outputs = read_transcripts(transcripts)
    return _make_report(cfg, samples, outputs)


def correlate_settings(
    real_reports: list[dict], synthetic_reports: list[dict]
) -> dict[str, float | None]:
    """Spearman rank agreement between real and synthetic token scores,
    models matched by id. Constant score vectors yield an absent value."""
    real_by_model = _token_scores_by_model("real", real_reports)
    syn_by_model = _token_scores_by_model("synthetic", synthetic_reports)
    if set(real_by_model) != set(syn_by_model):
        raise ValueError(
            f"correlate_settings: model sets differ: {sorted(real_by_model)} vs {sorted(syn_by_model)}"
        )
    if len(real_by_model) < 2:
        raise ValueError("correlate_settings: need at least 2 models")
    models = sorted(real_by_model)
    out: dict[str, float | None] = {}
    for metric in ("p", "r", "f1"):
        real_scores = [real_by_model[m][metric] for m in models]
        syn_scores = [syn_by_model[m][metric] for m in models]
        out[metric] = spearman(real_scores, syn_scores)
    return out


def _is_number(value: object) -> bool:
    """Whether a decoded JSON value is a finite number: no bool, NaN or ±Infinity."""
    return type(value) is int or (type(value) is float and math.isfinite(value))


def _token_scores_by_model(kind: str, reports: list[dict]) -> dict[str, dict]:
    """model -> token scores of the card each report's rows make, as caploc
    report reads them; a malformed report, or one that repeats a model,
    raises a ValueError naming it by its position in the list."""
    out = {}
    position: dict[str, int] = {}
    for i, data in enumerate(reports, 1):
        try:
            report = EvalReport.from_dict(data)
        except ValueError as exc:
            raise ValueError(f"correlate_settings: {kind} report {i}: {exc}") from exc
        if report.model in position:
            raise ValueError(
                f"correlate_settings: {kind} reports {position[report.model]} and {i} "
                f"are both for model {report.model!r}"
            )
        position[report.model] = i
        out[report.model] = report.card.token.to_dict()
    return out


def path_component(text: str) -> str:
    """text as one file name: all but letters, digits and "-_.~" is escaped
    as in a URL, "/" and "%" too, so "../x" names no other directory."""
    return quote(text, safe="")


def check_file_names(directory: Path, names: Iterable[tuple[str, str]]) -> None:
    """Refuse, before any model call, a (what, name) pair whose file name is
    longer than the file system allows in directory (255 bytes where it
    cannot say): raise ValueError naming what needs it."""
    try:
        limit = os.pathconf(directory, "PC_NAME_MAX")
    except (AttributeError, OSError, ValueError):
        limit = 255
    if limit < 0:  # the file system sets no limit
        return
    for what, name in names:
        size = len(name.encode())
        if size > limit:
            raise ValueError(
                f"{what} needs a file name of {size} bytes, "
                f"more than the {limit} {directory} allows"
            )


def build_synthetic(
    clean: list[BenchmarkSample],
    cfg: InjectionConfig,
    gate: ModelGate,
    image_root: str | Path | None,
) -> tuple[list[InjectionOutcome], list[str]]:
    """Run the adversarial loop on each clean sample, with its image when
    cfg.include_image. Returns the outcomes in input order and the ids of
    the samples whose injection failed, which are skipped with a warning;
    raises ValueError when there are none or every one failed
    (run_samples)."""

    def inject(sample: BenchmarkSample) -> InjectionOutcome:
        image = load_image(sample.image, image_root) if cfg.include_image else None
        return run_adversarial(sample, cfg, gate, image)

    results = run_samples(clean, inject, 1)
    outcomes = [outcome for _, outcome in results if outcome is not None]
    failed = [sample.id for sample, outcome in results if outcome is None]
    return outcomes, failed


@dataclass(frozen=True)
class SweepRow:
    model: str
    rounds: int
    p: float
    r: float
    f1: float


def sweep_rounds(
    clean_dataset: str | Path,
    ks: list[int],
    detector_models: list[str],
    inj_cfg: InjectionConfig,
    eval_cfg: EvalConfig,
    gate: ModelGate,
) -> list[SweepRow]:
    """Run the adversarial loop once per clean sample at the largest K
    (build_synthetic, images found by eval_cfg.image_root), write each K's
    dataset as the runs stood after round K, evaluate each listed model as a
    locator on it through the ordinary evaluation path, with its report card
    in sweep_k<K>_<model>/, and write the rows to sweep.json in
    eval_cfg.out_dir. A sample that fails at any round is left out at every
    K. A bad K, or an empty or repeated K or model list, raises ValueError
    naming rounds or models before any model call."""
    for key, values in (("rounds", ks), ("models", detector_models)):
        if not values:
            raise ValueError(f"{key}: the list is empty")
        repeated = [v for i, v in enumerate(values) if v in values[:i]]
        if repeated:
            raise ValueError(f"{key}: {repeated[0]!r} is listed more than once")
    dc_replace(inj_cfg, rounds=min(ks))  # raises if any K is bad
    cfg = dc_replace(inj_cfg, rounds=max(ks))
    clean = load_dataset(clean_dataset)
    out_dir = Path(eval_cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    dirs = {(k, m): f"sweep_k{k}_{path_component(m)}" for k in ks for m in detector_models}
    check_file_names(out_dir, ((f"models: {m!r}", name) for (_, m), name in dirs.items()))
    outcomes = build_synthetic(clean, cfg, gate, eval_cfg.image_root)[0]
    rows: list[SweepRow] = []
    for k in ks:
        dataset_path = out_dir / f"sweep_k{k}.jsonl"
        save_dataset([o.sample_after(k) for o in outcomes], dataset_path)
        for model in detector_models:
            model_cfg = dc_replace(
                eval_cfg,
                dataset=dataset_path,
                model=model,
                out_dir=out_dir / dirs[k, model],
            )
            report = evaluate_dataset(model_cfg, gate)
            emit_report(report, model_cfg.out_dir)
            rows.append(
                SweepRow(
                    model=model,
                    rounds=k,
                    p=report.card.token.p,
                    r=report.card.token.r,
                    f1=report.card.token.f1,
                )
            )
    (out_dir / "sweep.json").write_text(
        json.dumps([asdict(r) for r in rows], indent=2) + "\n", encoding="utf-8"
    )
    return rows


def render_sweep_table(rows: list[SweepRow]) -> str:
    lines = [f"{'model':<24} {'K':>3} {'P_tok':>8} {'R_tok':>8} {'F1_tok':>8}"]
    for row in rows:
        lines.append(
            f"{row.model:<24} {row.rounds:>3} {row.p:>8.4f} {row.r:>8.4f} {row.f1:>8.4f}"
        )
    return "\n".join(lines) + "\n"


def _format_card_line(name: str, card: ScoreCard, dims: list[str]) -> str:
    cells = [
        f"{name:<12}",
        f"{card.token.p:>7.4f}",
        f"{card.token.r:>7.4f}",
        f"{card.token.f1:>7.4f}",
        f"{card.sentence.p:>7.4f}",
        f"{card.sentence.r:>7.4f}",
        f"{card.sentence.f1:>7.4f}",
    ]
    for d in dims:
        value = card.dimension_recall.get(d)
        cells.append(f"{value:>7.4f}" if value is not None else f"{'-':>7}")
    return " ".join(cells)


def render_report_table(report: EvalReport) -> str:
    """Fixed-width summary: overall and per-domain rows, token and sentence
    P/R/F1, then per-dimension token recall columns."""
    dims = sorted(report.card.dimension_recall)
    header_cells = [f"{'section':<12}"] + [
        f"{h:>7}" for h in ("P_tok", "R_tok", "F1_tok", "P_sen", "R_sen", "F1_sen")
    ]
    header_cells += [f"{d[:7]:>7}" for d in dims]
    lines = [
        f"model: {report.model}",
        f"dataset: sha256 {report.dataset_sha256[:12]}...  coverage: {report.coverage:.3f}  "
        f"faithfulness violations: {report.card.faithfulness_violation_rate:.3f}",
        "",
        " ".join(header_cells),
    ]
    lines.append(_format_card_line("overall", report.card, dims))
    for domain, sub in sorted(report.card.per_domain.items()):
        lines.append(_format_card_line(domain, sub, dims))
    if not dims:
        lines.append("")
        lines.append("note: no gold dimension support in this dataset; recall columns omitted")
    return "\n".join(lines) + "\n"


def _json_text(value: object, newline: str = "\n") -> str:
    """value as json.dumps(value, ensure_ascii=False, indent=2,
    sort_keys=True) writes it, for the types a report holds: dicts with str
    keys, lists, tuples, str, int, float, bool and None. json indents in
    pure Python; this writer uses json's C string encoder, float.__repr__
    for a finite float and json's names for the rest. newline is the line
    break and indent that value's own lines start with."""
    if isinstance(value, str):
        return encode_basestring(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if math.isfinite(value):
            return float.__repr__(value)
        return "NaN" if value != value else "Infinity" if value > 0 else "-Infinity"
    inner = newline + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        # lists, not generators, for join: it would build the list anyway
        body = [
            encode_basestring(key) + ": " + _json_text(item, inner)
            for key, item in sorted(value.items())
        ]
        return "{" + inner + ("," + inner).join(body) + newline + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        body = [_json_text(item, inner) for item in value]
        return "[" + inner + ("," + inner).join(body) + newline + "]"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def emit_report(report: EvalReport, out_dir: str | Path) -> list[Path]:
    """Write report.json and report.txt under out_dir; return both paths."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    json_path = out_dir / "report.json"
    json_path.write_text(_json_text(report.to_dict()) + "\n", encoding="utf-8")
    table_path = out_dir / "report.txt"
    table_path.write_text(render_report_table(report), encoding="utf-8")
    return [json_path, table_path]

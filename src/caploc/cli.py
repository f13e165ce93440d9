"""Command-line front end: one executable exposing the whole pipeline.

Exit codes: 0 success, 1 validation or runtime failure, 2 usage error.
Values resolve as flag > config file > built-in default; a JSON config file
supplies the same keys the flags do.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import asdict
from pathlib import Path

from .corpus import (
    BenchmarkSample,
    DatasetError,
    _field,
    _json_type,
    dataset_stats,
    load_dataset,
    save_dataset,
    validate_sample,
)
from .diffannot import diff_tokens, extract_gold_spans, label_spans
from .evalrun import (
    EvalConfig,
    EvalReport,
    correlate_settings,
    emit_report,
    evaluate_dataset,
    load_image,
    render_report_table,
    render_sweep_table,
    score_transcripts,
    sweep_rounds,
)
from .inject import InjectionConfig, InjectionError, run_adversarial
from .modelgate import (
    BackendError,
    HttpBackend,
    ModelGate,
    ResponseCache,
    ScriptRule,
    ScriptedBackend,
)
from .text import tokenize

logger = logging.getLogger(__name__)

_GATE_KEYS = {"script": None, "base_url": None, "api_key_env": None, "cache": None}
_EVAL_KEYS = {
    "model": None,
    "strict": False,
    "width": 1,
    "image_root": None,
    "require_image": False,
    "out": "eval_out",
}
_INJECT_KEYS = {
    "rounds": 2,
    "strategy": "structured",
    "max_spans": 3,
    "overlap": 1,
    "injector_model": "injector",
    "detector_model": "detector",
    "include_image": True,
    "dimensions": None,
}


def _read_json(path: str | Path):
    """The decoded JSON content of a file; a decoding error names the file."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _effective(args: argparse.Namespace, keys: dict) -> dict:
    """Merge flag values over config-file values over defaults."""
    file_values: dict = {}
    if getattr(args, "config", None):
        file_values = _read_json(args.config)
        if not isinstance(file_values, dict):
            raise ValueError(
                f"{args.config}: config is a JSON {_json_type(file_values)}, expected an object"
            )
        unknown = set(file_values) - set(keys)
        if unknown:
            logger.warning("config keys not used by this subcommand: %s", sorted(unknown))
    eff = {}
    for key, default in keys.items():
        flag = getattr(args, key, None)
        eff[key] = flag if flag is not None else file_values.get(key, default)
    if getattr(args, "verbose", False):
        for key in sorted(eff):
            print(f"{key} = {eff[key]}", file=sys.stderr)
    return eff


def _build_gate(eff: dict) -> ModelGate | None:
    if eff.get("script"):
        backend = ScriptedBackend(_script_rules(eff["script"]))
    elif eff.get("base_url"):
        backend = HttpBackend(
            eff["base_url"], api_key_env=eff.get("api_key_env") or "CAPLOC_API_KEY"
        )
    else:
        return None
    cache = ResponseCache(eff["cache"]) if eff.get("cache") else None
    return ModelGate(backend, cache=cache)


def _script_rules(path: str) -> list[ScriptRule]:
    raw = _read_json(path)
    if not isinstance(raw, list):
        raise ValueError(f"{path}: script is a JSON {_json_type(raw)}, expected an array of rules")
    rules = []
    for i, entry in enumerate(raw):
        try:
            if not isinstance(entry, dict):
                raise DatasetError(f"is a JSON {_json_type(entry)}, expected an object")
            responses = entry.get("responses", [])
            if not (isinstance(responses, list) and all(isinstance(r, str) for r in responses)):
                raise DatasetError("responses is not an array of strings")
            rules.append(
                ScriptRule(
                    purpose=_field(entry, "purpose", str),
                    contains=_field(entry, "contains", str, default=None),
                    responses=list(responses),
                )
            )
        except DatasetError as exc:
            raise ValueError(f"{path}: rule {i}: {exc}") from exc
    return rules


def _int_list(value) -> list[int]:
    if isinstance(value, int):
        return [value]
    if isinstance(value, list):
        return [int(x) for x in value]
    return [int(x) for x in str(value).split(",") if x.strip()]


def _str_list(value) -> list[str]:
    if isinstance(value, list):
        return [str(x) for x in value]
    return [x.strip() for x in str(value).split(",") if x.strip()]


def _injection_config(eff: dict) -> InjectionConfig:
    kwargs = {
        "rounds": int(eff["rounds"]),
        "strategy": eff["strategy"],
        "max_spans": int(eff["max_spans"]),
        "overlap": int(eff["overlap"]),
        "injector_model": eff["injector_model"],
        "detector_model": eff["detector_model"],
        "include_image": bool(eff["include_image"]),
    }
    if eff.get("dimensions"):
        kwargs["dimensions"] = tuple(_str_list(eff["dimensions"]))
    return InjectionConfig(**kwargs)


def cmd_validate(args: argparse.Namespace) -> int:
    samples = load_dataset(args.dataset)
    domains = {s.domain for s in samples}
    print(f"OK: {len(samples)} samples across {len(domains)} domains")
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    samples = load_dataset(args.dataset)
    stats = dataset_stats(samples)
    if args.json:
        print(json.dumps(stats.to_dict(), indent=2, sort_keys=True))
        return 0

    def fmt(value) -> str:
        return f"{value:>10.2f}" if value is not None else f"{'-':>10}"

    print(f"{'domain':<10} {'samples':>8} {'mean_len':>10} {'hallu_rate':>10}")
    for domain, row in sorted(stats.per_domain.items()):
        print(
            f"{domain:<10} {row.samples:>8} {fmt(row.mean_caption_len)} {fmt(row.hallu_rate)}"
        )
    total = stats.total
    print(f"{'total':<10} {total.samples:>8} {fmt(total.mean_caption_len)} {fmt(total.hallu_rate)}")
    return 0


def _annotated_sample(record) -> BenchmarkSample:
    """Diff one {id, caption, corrected, ...} pair into an annotated sample."""
    if not isinstance(record, dict):
        raise DatasetError(f"record is a JSON {_json_type(record)}, expected an object")
    sample_id = _field(record, "id", str)
    caption = _field(record, "caption", str)
    script = diff_tokens(tokenize(caption), tokenize(_field(record, "corrected", str)))
    spans = extract_gold_spans(script)
    labels = record.get("labels")
    if labels:
        if not isinstance(labels, list):
            raise DatasetError(f"labels is a JSON {_json_type(labels)}, expected an array")
        spans = label_spans(spans, labels)
    return BenchmarkSample(
        id=sample_id,
        image=_field(record, "image", str, default=""),
        domain=_field(record, "domain", str, default="nature"),
        caption=caption,
        gold_spans=spans,
    )


def cmd_annotate(args: argparse.Namespace) -> int:
    samples: list[BenchmarkSample] = []
    issues = []
    with open(args.pairs, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                sample = _annotated_sample(json.loads(line))
            except ValueError as exc:
                print(f"error: {args.pairs}:{lineno}: {exc}", file=sys.stderr)
                return 1
            issues.extend(validate_sample(sample).issues)
            samples.append(sample)
    if issues:
        for issue in issues:
            print(f"error: {issue}", file=sys.stderr)
        return 1
    save_dataset(samples, args.out)
    print(f"wrote {len(samples)} annotated samples to {args.out}")
    return 0


def cmd_inject(args: argparse.Namespace) -> int:
    eff = _effective(args, {**_INJECT_KEYS, **_GATE_KEYS, "image_root": None})
    gate = _build_gate(eff)
    if gate is None:
        print("error: no backend configured (use --script or --base-url)", file=sys.stderr)
        return 2
    cfg = _injection_config(eff)
    samples = load_dataset(args.dataset)
    synthetic: list[BenchmarkSample] = []
    failures = 0
    audit_dir = Path(args.audit) if args.audit else None
    if audit_dir:
        audit_dir.mkdir(parents=True, exist_ok=True)
    for sample in samples:
        image = None
        if cfg.include_image and eff.get("image_root") and sample.image:
            image = load_image(Path(eff["image_root"]) / sample.image)
        try:
            outcome = run_adversarial(sample, cfg, gate, image)
        except (InjectionError, BackendError) as exc:
            logger.warning("sample %s failed: %s", sample.id, exc)
            failures += 1
            continue
        synthetic.append(outcome.sample)
        if audit_dir:
            (audit_dir / f"{sample.id}.json").write_text(
                json.dumps(outcome.state.audit, ensure_ascii=False, indent=2, default=list),
                encoding="utf-8",
            )
    if not synthetic:
        print("error: no samples could be injected", file=sys.stderr)
        return 1
    save_dataset(synthetic, args.out)
    print(f"wrote {len(synthetic)} synthetic samples to {args.out} ({failures} failed)")
    return 0


def _eval_config(args: argparse.Namespace, eff: dict, model: str) -> EvalConfig:
    return EvalConfig(
        dataset=args.dataset,
        model=model,
        out_dir=eff["out"],
        strict=bool(eff["strict"]),
        width=int(eff["width"]),
        image_root=eff["image_root"],
        require_image=bool(eff["require_image"]),
    )


def cmd_evaluate(args: argparse.Namespace) -> int:
    eff = _effective(args, {**_EVAL_KEYS, **_GATE_KEYS})
    if not eff["model"]:
        print("error: --model is required for evaluate", file=sys.stderr)
        return 2
    gate = _build_gate(eff)
    if gate is None:
        print("error: no backend configured (use --script or --base-url)", file=sys.stderr)
        return 2
    cfg = _eval_config(args, eff, eff["model"])
    report = evaluate_dataset(cfg, gate)
    emit_report(report, cfg.out_dir)
    print(render_report_table(report), end="")
    return 0


def cmd_score(args: argparse.Namespace) -> int:
    eff = _effective(args, {**_EVAL_KEYS})
    cfg = _eval_config(args, eff, eff["model"] or "offline")
    report = score_transcripts(cfg, args.transcripts)
    emit_report(report, cfg.out_dir)
    print(render_report_table(report), end="")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    eff = _effective(args, {**_INJECT_KEYS, **_EVAL_KEYS, **_GATE_KEYS, "models": None})
    gate = _build_gate(eff)
    if gate is None:
        print("error: no backend configured (use --script or --base-url)", file=sys.stderr)
        return 2
    if not eff["models"]:
        print("error: --models is required for sweep", file=sys.stderr)
        return 2
    models = _str_list(eff["models"])
    ks = _int_list(eff["rounds"])
    inj_cfg = _injection_config({**eff, "rounds": 0})
    eval_cfg = _eval_config(args, eff, models[0])
    rows = sweep_rounds(args.dataset, ks, models, inj_cfg, eval_cfg, gate)
    out_dir = Path(eff["out"])
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "sweep.json").write_text(
        json.dumps([asdict(r) for r in rows], indent=2) + "\n", encoding="utf-8"
    )
    print(render_sweep_table(rows), end="")
    return 0


def cmd_correlate(args: argparse.Namespace) -> int:
    real = [_read_json(p) for p in _str_list(args.real)]
    synthetic = [_read_json(p) for p in _str_list(args.synthetic)]
    rho = correlate_settings(real, synthetic)
    print(json.dumps(rho, indent=2))
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    data = _read_json(args.report)
    try:
        report = EvalReport.from_dict(data)
    except ValueError as exc:
        raise ValueError(f"{args.report}: {exc}") from exc
    print(render_report_table(report), end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="caploc",
        description="Dense hallucination localization benchmark tools.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file; flags override its values")
    common.add_argument("--verbose", "-v", action="store_true", help="echo effective config")

    gatep = argparse.ArgumentParser(add_help=False)
    gatep.add_argument("--script", help="scripted backend rules (JSON file)")
    gatep.add_argument("--base-url", help="HTTP backend endpoint")
    gatep.add_argument("--api-key-env", help="environment variable holding the API token")
    gatep.add_argument("--cache", help="response cache directory")

    injectp = argparse.ArgumentParser(add_help=False)
    injectp.add_argument("--rounds", help="adversarial rounds K (sweep: comma-separated list)")
    injectp.add_argument("--strategy", choices=["naive", "structured"])
    injectp.add_argument("--max-spans", type=int)
    injectp.add_argument("--overlap", type=int)
    injectp.add_argument("--injector-model")
    injectp.add_argument("--detector-model")
    injectp.add_argument(
        "--include-image", action=argparse.BooleanOptionalAction, default=None
    )
    injectp.add_argument("--image-root", help="directory image paths resolve against")

    evalp = argparse.ArgumentParser(add_help=False)
    evalp.add_argument("--model")
    evalp.add_argument("--strict", action=argparse.BooleanOptionalAction, default=None)
    evalp.add_argument("--width", type=int, help="parallel requests")
    evalp.add_argument("--image-root", help="directory image paths resolve against")
    evalp.add_argument(
        "--require-image", action=argparse.BooleanOptionalAction, default=None
    )
    evalp.add_argument("--out", help="output directory")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", parents=[common], help="check a dataset file")
    p.add_argument("dataset")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("stats", parents=[common], help="dataset summary table")
    p.add_argument("dataset")
    p.add_argument("--json", action="store_true", help="JSON instead of a table")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser(
        "annotate", parents=[common], help="diff caption/correction pairs into a dataset"
    )
    p.add_argument("--pairs", required=True, help="JSONL of {id, caption, corrected, ...}")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_annotate)

    p = sub.add_parser(
        "inject", parents=[common, gatep, injectp], help="build a synthetic dataset"
    )
    p.add_argument("--dataset", required=True, help="clean-caption dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--audit", help="directory for per-sample audit logs")
    p.set_defaults(func=cmd_inject)

    p = sub.add_parser("evaluate", parents=[common, gatep, evalp], help="run a model and score it")
    p.add_argument("--dataset", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("score", parents=[common, evalp], help="score saved transcripts")
    p.add_argument("--dataset", required=True)
    p.add_argument("--transcripts", required=True)
    p.set_defaults(func=cmd_score)

    p = sub.add_parser(
        "sweep",
        parents=[common, gatep, injectp, evalp],
        conflict_handler="resolve",  # --image-root appears in two parents
        help="round-count ablation table",
    )
    p.add_argument("--dataset", required=True, help="clean-caption dataset")
    p.add_argument("--models", help="comma-separated locator model ids")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("correlate", parents=[common], help="real-vs-synthetic rank agreement")
    p.add_argument("--real", required=True, help="comma-separated report.json paths")
    p.add_argument("--synthetic", required=True, help="comma-separated report.json paths")
    p.set_defaults(func=cmd_correlate)

    p = sub.add_parser("report", parents=[common], help="re-render a report JSON as a table")
    p.add_argument("report")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except (DatasetError, ValueError, InjectionError, BackendError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

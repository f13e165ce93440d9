"""Command-line front end: one executable exposing the whole pipeline.

Exit codes: 0 success, 1 validation or runtime failure, 2 usage error.
Values resolve as flag > config file > built-in default. A command's config
keys (_KEYS) are those its flags set; their defaults and value types are the
ones EvalConfig and InjectionConfig declare.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import MISSING, fields
from pathlib import Path

from .corpus import (
    BenchmarkSample,
    DatasetError,
    _field,
    _json_type,
    dataset_stats,
    decode_json,
    load_dataset,
    read_records,
    save_dataset,
    validate_sample,
)
from .diffannot import diff_tokens, extract_gold_spans, label_spans
from .evalrun import (
    EvalConfig,
    EvalReport,
    build_synthetic,
    check_file_names,
    correlate_settings,
    emit_report,
    evaluate_dataset,
    path_component,
    render_report_table,
    render_sweep_table,
    score_transcripts,
    sweep_rounds,
)
from .inject import InjectionConfig, InjectionError
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


class _UsageError(Exception):
    """A missing required value; main() exits with 2."""


_KEY_OF_FIELD = {"out_dir": "out"}  # config-class fields keyed by their flag's name


def _defaults(cls) -> dict:
    """Config key -> default for each field of cls that has one."""
    fs = fields(cls)
    return {_KEY_OF_FIELD.get(f.name, f.name): f.default for f in fs if f.default is not MISSING}


def _config(cls, eff: dict, **given):
    """cls from the effective values of its config keys and the given
    fields; a field with neither keeps its default."""
    name_of = {_KEY_OF_FIELD.get(f.name, f.name): f.name for f in fields(cls)}
    return cls(**{**{name_of[k]: v for k, v in eff.items() if k in name_of}, **given})


_GATE_KEYS = dict.fromkeys(("script", "base_url", "api_key_env", "cache", "image_root"))
_RUN_KEYS = {**_defaults(EvalConfig), **_GATE_KEYS}  # evaluate's keys but model
_INJECT_KEYS = {**_defaults(InjectionConfig), **_GATE_KEYS}
# each command's config keys: those its flags set, and dimensions
_KEYS = {
    "inject": _INJECT_KEYS,
    "evaluate": {"model": None, **_RUN_KEYS},
    "score": {"model": None, "strict": _RUN_KEYS["strict"], "out": _RUN_KEYS["out"]},
    "sweep": {**_INJECT_KEYS, **_RUN_KEYS, "models": None},
}


def _read_json(path: str | Path):
    """The decoded JSON content of a file; a decoding error names the file."""
    try:
        return decode_json(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


_EXPECTED = {type(None): "string or null", tuple: "array of strings"}


def _fits(value, default) -> bool:
    """Whether a decoded JSON value may replace default: a value of its type
    (a bool is no int), an array of strings for a tuple, a string or null
    for None."""
    if default is None:
        return value is None or isinstance(value, str)
    if isinstance(default, tuple):
        return isinstance(value, list) and all(isinstance(v, str) for v in value)
    return type(value) is type(default)


def _misfit(key: str, value, default, many: bool) -> str | None:
    """Why a decoded JSON value may not replace default, naming the key or
    the array item at fault; None when it fits (_fits). With many, a
    comma-separated string fits too, and so does an array of fitting values
    other than null."""
    expected = _EXPECTED.get(type(default), type(default).__name__)
    if many and isinstance(value, list):
        for i, item in enumerate(value):
            if item is None or not _fits(item, default):
                item_expected = "string" if default is None else expected
                return f"{key}[{i}] is a JSON {_json_type(item)}, expected {item_expected}"
        return None
    if (many and isinstance(value, str)) or _fits(value, default):
        return None
    return f"{key} is a JSON {_json_type(value)}, expected {expected}"


def _effective(args: argparse.Namespace, many: tuple[str, ...] = ()) -> dict:
    """Merge flag values over config-file values over the command's _KEYS.

    A config-file value that does not fit its key's default (_misfit; the
    keys in many may hold lists) raises ValueError naming the file and the
    key or array item.
    """
    keys = _KEYS[args.command]
    file_values: dict = {}
    if args.config:
        file_values = _read_json(args.config)
        if not isinstance(file_values, dict):
            raise ValueError(
                f"{args.config}: config is a JSON {_json_type(file_values)}, expected an object"
            )
        unknown = set(file_values) - set(keys)
        if unknown:
            logger.warning("config keys not used by this subcommand: %s", sorted(unknown))
        for key in sorted(file_values.keys() & keys.keys()):
            problem = _misfit(key, file_values[key], keys[key], key in many)
            if problem:
                raise ValueError(f"{args.config}: {problem}")
    eff = {}
    for key, default in keys.items():
        flag = getattr(args, key, None)
        eff[key] = flag if flag is not None else file_values.get(key, default)
    if args.verbose:
        for key in sorted(eff):
            print(f"{key} = {eff[key]}", file=sys.stderr)
    return eff


def _build_gate(eff: dict) -> ModelGate:
    if eff.get("script"):
        backend = ScriptedBackend(_script_rules(eff["script"]))
    elif eff.get("base_url"):
        backend = HttpBackend(eff["base_url"], api_key_env=eff.get("api_key_env"))
    else:
        raise _UsageError("no backend configured (use --script or --base-url)")
    return ModelGate(backend, cache=ResponseCache(eff.get("cache") or None))


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


def _list(value) -> list:
    """A list as given, a comma-separated string split, or one value."""
    if isinstance(value, list):
        return value
    if isinstance(value, str):
        return [x.strip() for x in value.split(",") if x.strip()]
    return [value]


def _round_counts(value) -> list[int]:
    """sweep's K values from an array of integers or a comma-separated
    string; an item that is no integer raises ValueError naming it."""
    ks = []
    for item in _list(value):
        try:
            ks.append(int(item))
        except ValueError:
            raise ValueError(f"rounds: {item!r} is not an integer") from None
    return ks


def _injection_config(eff: dict, **given) -> InjectionConfig:
    return _config(InjectionConfig, eff, dimensions=tuple(eff["dimensions"]), **given)


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
    records = read_records(args.pairs, lambda line: _annotated_sample(decode_json(line)))
    samples = [sample for _, sample in records]
    issues = [issue for sample in samples for issue in validate_sample(sample)]
    if issues:
        for issue in issues:
            print(f"error: {issue}", file=sys.stderr)
        return 1
    save_dataset(samples, args.out)
    print(f"wrote {len(samples)} annotated samples to {args.out}")
    return 0


def _audit_name(sample_id: str) -> str:
    """The audit file name of a sample, one path component inside the audit
    directory."""
    return path_component(sample_id) + ".json"


def cmd_inject(args: argparse.Namespace) -> int:
    eff = _effective(args)
    gate = _build_gate(eff)
    clean = load_dataset(args.dataset)
    audit_dir = Path(args.audit) if args.audit else None
    if audit_dir:
        audit_dir.mkdir(parents=True, exist_ok=True)
        names = ((f"--audit: sample id {s.id!r}", _audit_name(s.id)) for s in clean)
        check_file_names(audit_dir, names)
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    outcomes, failed = build_synthetic(clean, _injection_config(eff), gate, eff["image_root"])
    save_dataset([o.sample for o in outcomes], args.out)
    if audit_dir:
        for outcome in outcomes:
            (audit_dir / _audit_name(outcome.sample.id)).write_text(
                json.dumps(outcome.state.audit, ensure_ascii=False, indent=2),
                encoding="utf-8",
            )
    print(f"wrote {len(outcomes)} synthetic samples to {args.out} ({len(failed)} failed)")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    eff = _effective(args)
    if not eff["model"]:
        raise _UsageError("--model is required for evaluate")
    gate = _build_gate(eff)
    cfg = _config(EvalConfig, eff, dataset=args.dataset)
    report = evaluate_dataset(cfg, gate)
    emit_report(report, cfg.out_dir)
    print(render_report_table(report), end="")
    return 0


def cmd_score(args: argparse.Namespace) -> int:
    eff = _effective(args)
    cfg = _config(EvalConfig, eff, dataset=args.dataset, model=eff["model"] or "offline")
    report = score_transcripts(cfg, args.transcripts)
    emit_report(report, cfg.out_dir)
    print(render_report_table(report), end="")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    eff = _effective(args, many=("rounds", "models"))
    if not eff["models"]:
        raise _UsageError("--models is required for sweep")
    gate = _build_gate(eff)
    models = _list(eff["models"])
    ks = _round_counts(eff["rounds"])
    # sweep_rounds sets the round count and each row's model
    inj_cfg = _injection_config(eff, rounds=0)
    eval_cfg = _config(EvalConfig, eff, dataset=args.dataset, model="")
    rows = sweep_rounds(args.dataset, ks, models, inj_cfg, eval_cfg, gate)
    print(render_sweep_table(rows), end="")
    return 0


def cmd_correlate(args: argparse.Namespace) -> int:
    real = [_read_json(p) for p in _list(args.real)]
    synthetic = [_read_json(p) for p in _list(args.synthetic)]
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
    common.add_argument("--verbose", "-v", action="store_true", help="echo effective config")

    configp = argparse.ArgumentParser(add_help=False, parents=[common])
    configp.add_argument("--config", help="JSON config file; flags override its values")

    gatep = argparse.ArgumentParser(add_help=False)
    gatep.add_argument("--script", help="scripted backend rules (JSON file)")
    gatep.add_argument("--base-url", help="HTTP backend endpoint")
    gatep.add_argument("--api-key-env", help="environment variable holding the API token")
    gatep.add_argument("--cache", help="response cache directory")
    gatep.add_argument("--image-root", help="directory relative image paths resolve against")

    injectp = argparse.ArgumentParser(add_help=False)
    injectp.add_argument("--strategy", choices=["naive", "structured"])
    injectp.add_argument("--max-spans", type=int)
    injectp.add_argument("--injector-model")
    injectp.add_argument("--detector-model")
    injectp.add_argument("--include-image", action=argparse.BooleanOptionalAction, default=None)

    scorep = argparse.ArgumentParser(add_help=False)
    scorep.add_argument("--strict", action=argparse.BooleanOptionalAction, default=None)
    scorep.add_argument("--out", help="output directory")

    runp = argparse.ArgumentParser(add_help=False)
    runp.add_argument("--width", type=int, help="parallel requests")
    runp.add_argument("--require-image", action=argparse.BooleanOptionalAction, default=None)

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

    p = sub.add_parser("inject", parents=[configp, gatep, injectp], help="build a synthetic dataset")
    p.add_argument("--dataset", required=True, help="clean-caption dataset")
    p.add_argument("--rounds", type=int, help="adversarial rounds K")
    p.add_argument("--out", required=True)
    p.add_argument("--audit", help="directory for per-sample audit logs")
    p.set_defaults(func=cmd_inject)

    p = sub.add_parser(
        "evaluate", parents=[configp, gatep, scorep, runp], help="run a model and score it"
    )
    p.add_argument("--dataset", required=True)
    p.add_argument("--model")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("score", parents=[configp, scorep], help="score saved transcripts")
    p.add_argument("--dataset", required=True)
    p.add_argument("--transcripts", required=True)
    p.add_argument("--model")
    p.set_defaults(func=cmd_score)

    # no abbreviations: --model, which sweep does not read, would abbreviate --models
    sweep_parents = [configp, gatep, injectp, scorep, runp]
    p = sub.add_parser(
        "sweep", parents=sweep_parents, allow_abbrev=False, help="round-count ablation table"
    )
    p.add_argument("--dataset", required=True, help="clean-caption dataset")
    p.add_argument("--rounds", help="comma-separated adversarial round counts K")
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
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DatasetError, ValueError, InjectionError, BackendError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

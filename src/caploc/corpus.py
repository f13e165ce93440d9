"""Benchmark data model: sample records, JSONL serialization, validation, stats.

A dataset file is UTF-8 line-delimited JSON. The first line is a header
object recording the format name, format version and tokenizer version; each
following line is one sample. Gold spans are token-indexed against the
tokenizer in caploc.text, so they are only meaningful together with the
tokenizer version recorded in the header.
"""

from __future__ import annotations

import json
import logging
from collections.abc import Callable, Iterable, Iterator
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .text import _ASCII_PUNCT, TOKENIZER_VERSION, count_tokens

logger = logging.getLogger(__name__)

FORMAT_NAME = "dvb-jsonl"
FORMAT_VERSION = 1

# the literals of the inline tag protocol (caploc.tagproto): a caption that
# held one would read as tagged when a model echoes it
OPEN_TAG = "<HALLUCINATION>"
CLOSE_TAG = "</HALLUCINATION>"

_SAMPLE_FIELDS = {"id", "image", "domain", "variant", "caption", "clean_caption", "gold_spans"}
_SPAN_FIELDS = {"start", "end", "dimension"}


# the five image domains covered by a benchmark
DOMAIN_VALUES = ("gui", "nature", "chart", "movie", "poster")
# the ten hallucination categories, in canonical order
DIMENSION_VALUES = (
    "number", "color", "category", "shape", "material",
    "spatial", "ocr", "scene", "camera", "other",
)
# the category of a span that no label names
OTHER = "other"


class DatasetError(ValueError):
    """Raised for unreadable, malformed, or invalid dataset files."""


@dataclass(frozen=True)
class HallucinationSpan:
    """A contiguous run of hallucinated tokens: [start, end) with a category.

    Stored as plain values so that malformed input can be represented and
    reported by validate_sample instead of failing at construction time.
    """

    start: int
    end: int
    dimension: str = OTHER


@dataclass
class BenchmarkSample:
    """One benchmark record: image reference, caption, and gold annotations.

    variant is "real" for hallucinations produced naturally by a captioner and
    corrected by annotators, "synthetic" for injected ones. Synthetic samples
    carry the pre-injection caption in clean_caption as metadata.
    """

    id: str
    image: str
    domain: str
    caption: str
    gold_spans: list[HallucinationSpan] = field(default_factory=list)
    variant: str = "real"
    clean_caption: str | None = None

    def to_dict(self) -> dict:
        """asdict(self), built from the fields without its deep copy."""
        spans = [{"start": s.start, "end": s.end, "dimension": s.dimension} for s in self.gold_spans]
        return {"id": self.id, "image": self.image, "domain": self.domain, "caption": self.caption,
                "gold_spans": spans, "variant": self.variant, "clean_caption": self.clean_caption}

    @classmethod
    def from_dict(cls, data: dict) -> BenchmarkSample:
        """Build a sample from a decoded JSON record.

        Raises DatasetError when a field is missing or has the wrong JSON
        type; value checks (known domain, span ranges) are validate_sample's.
        """
        if not isinstance(data, dict):
            raise DatasetError(f"record is a JSON {_json_type(data)}, expected an object")
        unknown = set(data.keys()) - _SAMPLE_FIELDS
        if unknown:
            logger.warning("ignoring unknown sample fields: %s", sorted(unknown))
        raw_spans = data.get("gold_spans") or []
        if not isinstance(raw_spans, list):
            raise DatasetError(f"gold_spans is a JSON {_json_type(raw_spans)}, expected an array")
        spans = []
        for i, raw in enumerate(raw_spans):
            if not isinstance(raw, dict):
                raise DatasetError(f"gold_spans[{i}] is a JSON {_json_type(raw)}, expected an object")
            extra = set(raw.keys()) - _SPAN_FIELDS
            if extra:
                logger.warning("ignoring unknown span fields: %s", sorted(extra))
            spans.append(
                HallucinationSpan(
                    start=_field(raw, "start", int, f"gold_spans[{i}]."),
                    end=_field(raw, "end", int, f"gold_spans[{i}]."),
                    dimension=_field(raw, "dimension", str, f"gold_spans[{i}].", OTHER),
                )
            )
        return cls(
            id=_field(data, "id", str),
            image=_field(data, "image", str, default=""),
            domain=_field(data, "domain", str),
            caption=_field(data, "caption", str),
            gold_spans=spans,
            variant=_field(data, "variant", str, default="real"),
            clean_caption=_field(data, "clean_caption", str, default=None),
        )


_MISSING = object()


# the Python types json.loads produces, by their JSON names
_JSON_TYPES = {
    dict: "object", list: "array", str: "string", int: "number", float: "number",
    bool: "boolean", type(None): "null",
}


def _json_type(value: object) -> str:
    return _JSON_TYPES.get(type(value), type(value).__name__)


def _field(data: dict, key: str, kind: type, where: str = "", default: object = _MISSING):
    """data[key] checked to be a `kind` (bool is not an int here).

    An absent key gives `default`, and so does null when the default is
    None; with no default an absent key raises DatasetError. A string
    holding a lone surrogate (a JSON escape such as \\ud800) raises
    DatasetError too: it cannot be written back as UTF-8.
    """
    value = data.get(key, _MISSING)
    if value is _MISSING or (value is None and default is None):
        if default is _MISSING:
            raise DatasetError(f"missing field {where}{key!r}")
        return default
    if not isinstance(value, kind) or isinstance(value, bool):
        raise DatasetError(
            f"{where}{key} is a JSON {_json_type(value)}, expected a "
            + ("integer" if kind is int else "string")
        )
    if kind is str and not value.isascii():
        try:
            value.encode("utf-8")
        except UnicodeEncodeError as exc:
            raise DatasetError(
                f"{where}{key} holds a lone surrogate {value[exc.start]!r} at position "
                f"{exc.start}, which is not valid text"
            ) from None
    return value


@dataclass(frozen=True)
class ValidationIssue:
    sample_id: str
    field: str
    message: str

    def __str__(self) -> str:
        return f"sample {self.sample_id!r}: {self.field}: {self.message}"


def _token_count_bounds(caption: str) -> Iterator[tuple[int, bool]]:
    """Lower bounds on count_tokens(caption), each tighter and dearer than
    the one before, as (bound, whether it is the count itself) pairs.

    Every whitespace chunk holds a token, and a chunk of two or more
    characters ending in ASCII punctuation holds two: the token core
    excludes that character (text._CORE), so it is a token of its own. Only
    the last bound splits the caption into tokens.
    """
    chunks = caption.split()
    yield len(chunks), False
    yield len(chunks) + len([c for c in chunks if c[-1] in _ASCII_PUNCT and len(c) > 1]), False
    yield count_tokens(caption), True


def validate_sample(sample: BenchmarkSample) -> list[ValidationIssue]:
    """Check one sample against the data-model invariants.

    Returns every violation; an empty list means valid.
    """
    issues: list[ValidationIssue] = []

    def add(fld: str, msg: str) -> None:
        issues.append(ValidationIssue(sample.id, fld, msg))

    if not sample.id:
        add("id", "empty id")
    if sample.domain not in DOMAIN_VALUES:
        add("domain", f"unknown domain {sample.domain!r}; expected one of {list(DOMAIN_VALUES)}")
    if sample.variant not in ("real", "synthetic"):
        add("variant", f"unknown variant {sample.variant!r}")
    for fld, text in (("caption", sample.caption), ("clean_caption", sample.clean_caption)):
        tags = [tag for tag in (OPEN_TAG, CLOSE_TAG) if text and tag in text]
        if tags:
            add(fld, f"holds the tag literal {' and '.join(tags)}, which marks spans in model output")

    limit, exact = 0, False  # a lower bound on the token count, tightened as spans need
    bounds = _token_count_bounds(sample.caption)
    prev_end = None
    prev_idx = None
    for i, span in enumerate(sample.gold_spans):
        if span.dimension not in DIMENSION_VALUES:
            add(f"gold_spans[{i}].dimension", f"unknown dimension {span.dimension!r}")
        while not exact and not (0 <= span.start < span.end <= limit):
            limit, exact = next(bounds)
        if not (0 <= span.start < span.end <= limit):
            add(
                f"gold_spans[{i}]",
                f"token range [{span.start}, {span.end}) invalid for caption of {limit} tokens",
            )
            continue
        if prev_end is not None:
            if span.start < prev_end:
                add(
                    f"gold_spans[{i}]",
                    f"overlaps or precedes span {prev_idx} "
                    f"([{span.start}, {span.end}) vs end {prev_end})",
                )
        prev_end = span.end
        prev_idx = i
    return issues


def load_dataset(path: str | Path) -> list[BenchmarkSample]:
    """Load and validate a dataset file; returns samples in file order.

    Every defect in the file's contents raises DatasetError naming the file
    and, where one is to blame, the line.
    """
    path = Path(path)
    lines = text_lines(path)
    _, header_line = next(lines, (1, ""))
    if not header_line.strip():
        raise DatasetError(f"{path}: empty file, expected a header line")
    try:
        header = decode_json(header_line)
    except ValueError as exc:
        raise DatasetError(f"{path}:1: unparseable header: {exc}") from exc
    if not isinstance(header, dict):
        raise DatasetError(f"{path}:1: header is a JSON {_json_type(header)}, expected an object")
    if header.get("format") != FORMAT_NAME:
        raise DatasetError(f"{path}:1: unknown format {header.get('format')!r}")
    if header.get("version") != FORMAT_VERSION:
        raise DatasetError(f"{path}:1: unsupported format version {header.get('version')!r}")
    if header.get("tokenizer") != TOKENIZER_VERSION:
        raise DatasetError(
            f"{path}:1: tokenizer {header.get('tokenizer')!r} does not match "
            f"{TOKENIZER_VERSION!r}; gold spans are not portable across tokenizers"
        )
    samples: list[BenchmarkSample] = []
    seen_ids: set[str] = set()
    for lineno, sample in read_records(path, _parse_sample, lines):
        if sample.id in seen_ids:
            raise DatasetError(f"{path}:{lineno}: duplicate sample id {sample.id!r}")
        seen_ids.add(sample.id)
        issues = validate_sample(sample)
        if issues:
            raise DatasetError(
                f"{path}:{lineno}: invalid sample: " + "; ".join(str(i) for i in issues)
            )
        samples.append(sample)
    return samples


def _parse_sample(line: str) -> BenchmarkSample:
    try:
        record = decode_json(line)
    except ValueError as exc:
        raise DatasetError(f"unparseable record: {exc}") from exc
    return BenchmarkSample.from_dict(record)


def decode_json(text: str):
    """json.loads, raising ValueError for all undecodable text. json raises
    RecursionError for nesting deeper than the interpreter's stack allows."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON nested too deeply to decode") from None


def text_lines(path: str | Path) -> Iterator[tuple[int, str]]:
    """The numbered lines of a UTF-8 text file; bytes that are not UTF-8
    raise DatasetError naming the file."""
    with open(path, encoding="utf-8") as f:
        try:
            yield from enumerate(f, 1)
        except UnicodeDecodeError as exc:
            raise DatasetError(f"{path}: not UTF-8 text: {exc}") from exc


def read_records(
    path: str | Path,
    parse: Callable[[str], object],
    lines: Iterator[tuple[int, str]] | None = None,
) -> Iterator[tuple[int, object]]:
    """(line number, parse(line)) for each non-blank line of a JSONL file,
    stripped; the one line loop of every JSONL reader. A ValueError from
    parse becomes a DatasetError naming path:line, so parse owns only its
    format's message. lines, when given, are the file's remaining numbered
    lines (load_dataset reads the header itself); by default the whole file.
    """
    for lineno, line in text_lines(path) if lines is None else lines:
        line = line.strip()
        if not line:
            continue
        try:
            record = parse(line)
        except ValueError as exc:
            raise DatasetError(f"{path}:{lineno}: {exc}") from exc
        yield lineno, record


def write_records(path: str | Path, records: Iterable[object]) -> None:
    """Write one JSON line per record; the one JSONL writer."""
    with open(path, "w", encoding="utf-8") as f:
        for record in records:
            f.write(json.dumps(record, ensure_ascii=False) + "\n")


def save_dataset(samples: list[BenchmarkSample], path: str | Path) -> None:
    """Write samples to a dataset file with a fresh header line."""
    header = {"format": FORMAT_NAME, "version": FORMAT_VERSION, "tokenizer": TOKENIZER_VERSION}
    write_records(path, [header, *(s.to_dict() for s in samples)])


@dataclass
class DomainStats:
    samples: int = 0
    mean_caption_len: float | None = None
    hallu_locations: int = 0
    hallu_rate: float | None = None


@dataclass
class DatasetStats:
    per_domain: dict[str, DomainStats] = field(default_factory=dict)
    total: DomainStats = field(default_factory=DomainStats)

    def to_dict(self) -> dict:
        return asdict(self)


def _stats_for(group: list[tuple[BenchmarkSample, int]]) -> DomainStats:
    """Stats of (sample, caption token count) pairs."""
    if not group:
        return DomainStats()
    return DomainStats(
        samples=len(group),
        mean_caption_len=round(sum(n for _, n in group) / len(group), 1),
        hallu_locations=sum(len(s.gold_spans) for s, _ in group),
        hallu_rate=sum(1 for s, _ in group if s.gold_spans) / len(group),
    )


def dataset_stats(samples: list[BenchmarkSample]) -> DatasetStats:
    """Per-domain and global counts: sizes, mean token length, hallucination rate.

    The hallucination rate is the fraction of samples with at least one gold
    span; with no samples, rates are reported as absent rather than 0/0.
    Each caption is counted once, for its domain row and the total alike.
    """
    measured = [(s, count_tokens(s.caption)) for s in samples]
    by_domain: dict[str, list[tuple[BenchmarkSample, int]]] = {}
    for pair in measured:
        by_domain.setdefault(pair[0].domain, []).append(pair)
    return DatasetStats(
        per_domain={d: _stats_for(group) for d, group in sorted(by_domain.items())},
        total=_stats_for(measured),
    )

import dataclasses
import json

import pytest
from hypothesis import given, settings, strategies as st

from caploc.corpus import (
    BenchmarkSample,
    DIMENSION_VALUES,
    DOMAIN_VALUES,
    DatasetError,
    HallucinationSpan,
    dataset_stats,
    load_dataset,
    save_dataset,
    validate_sample,
)
from caploc.evalrun import read_transcripts


def make_sample(**kw):
    base = dict(
        id="s1",
        image="img/s1.png",
        domain="nature",
        caption="A red car parked near the gate.",
        gold_spans=[HallucinationSpan(1, 2, "color")],
    )
    base.update(kw)
    return BenchmarkSample(**base)


def test_enums():
    assert list(DOMAIN_VALUES) == ["gui", "nature", "chart", "movie", "poster"]
    assert len(DIMENSION_VALUES) == 10
    assert "ocr" in DIMENSION_VALUES


def test_validate_ok():
    assert validate_sample(make_sample()) == []


def test_validate_unknown_domain():
    issues = validate_sample(make_sample(domain="indoor"))
    assert issues
    assert any(i.field == "domain" for i in issues)


def test_validate_unknown_dimension():
    issues = validate_sample(make_sample(gold_spans=[HallucinationSpan(1, 2, "colour")]))
    assert any("colour" in i.message for i in issues)


@pytest.mark.parametrize("fld", ["caption", "clean_caption"])
def test_validate_rejects_tag_literals(fld):
    text = "A red <HALLUCINATION>car</HALLUCINATION> parked near the gate."
    issues = validate_sample(make_sample(**{fld: text}))
    assert [(i.field, i.message) for i in issues] == [
        (fld, "holds the tag literal <HALLUCINATION> and </HALLUCINATION>, which marks spans in model output")
    ]
    assert validate_sample(make_sample(**{fld: "A red <car> parked near the HALLUCINATION."})) == []


def test_validate_without_spans_does_not_split_the_caption():
    """The chunk bound serves only span checks: a clean caption, as every
    input of inject is, is never split."""

    class Unsplittable(str):
        def split(self, *args, **kwargs):
            raise AssertionError("caption was split")

    assert validate_sample(make_sample(caption=Unsplittable("A red car."), gold_spans=[])) == []


def test_validate_span_out_of_range():
    assert validate_sample(make_sample(gold_spans=[HallucinationSpan(5, 99)]))


def test_validate_overlap_cites_both():
    issues = validate_sample(
        make_sample(gold_spans=[HallucinationSpan(1, 3), HallucinationSpan(2, 4)])
    )
    assert issues
    issue = issues[0]
    assert "gold_spans[1]" in issue.field
    assert "span 0" in issue.message


def test_validate_unsorted_spans():
    assert validate_sample(
        make_sample(gold_spans=[HallucinationSpan(4, 5), HallucinationSpan(0, 1)])
    )


def test_roundtrip(tmp_path):
    samples = [
        make_sample(),
        make_sample(id="s2", variant="synthetic", clean_caption="A car parked near the gate."),
    ]
    path = tmp_path / "data.jsonl"
    save_dataset(samples, path)
    loaded = load_dataset(path)
    assert loaded == samples
    # saving what was loaded reproduces the file byte for byte
    path2 = tmp_path / "again.jsonl"
    save_dataset(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


@pytest.mark.parametrize(
    "sample",
    [
        make_sample(),
        make_sample(gold_spans=[], image=""),
        make_sample(
            gold_spans=[HallucinationSpan(0, 1, "ocr"), HallucinationSpan(2, 4)],
            variant="synthetic",
            clean_caption="A car parked near the gate.",
        ),
    ],
)
def test_to_dict_is_asdict(sample):
    """The same dict, keys in the same order, so saved bytes do not change."""
    assert json.dumps(sample.to_dict()) == json.dumps(dataclasses.asdict(sample))


def test_header_written(tmp_path):
    path = tmp_path / "d.jsonl"
    save_dataset([make_sample()], path)
    header = json.loads(path.read_text().splitlines()[0])
    assert header == {"format": "dvb-jsonl", "version": 1, "tokenizer": "dvb-tok/1"}


def test_load_rejects_bad_header(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_text('{"format":"csv"}\n')
    with pytest.raises(DatasetError):
        load_dataset(path)


def test_load_rejects_tokenizer_mismatch(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_text('{"format":"dvb-jsonl","version":1,"tokenizer":"dvb-tok/0"}\n')
    with pytest.raises(DatasetError, match="tokenizer"):
        load_dataset(path)


def test_load_names_sample_on_invalid_span(tmp_path):
    path = tmp_path / "d.jsonl"
    bad = make_sample(id="bad-one", gold_spans=[HallucinationSpan(0, 500)])
    save_dataset([bad], path)
    with pytest.raises(DatasetError, match="bad-one"):
        load_dataset(path)


def test_load_rejects_duplicate_id(tmp_path):
    path = tmp_path / "d.jsonl"
    save_dataset([make_sample(), make_sample()], path)
    with pytest.raises(DatasetError, match="duplicate"):
        load_dataset(path)


def test_load_reports_line_number(tmp_path):
    path = tmp_path / "d.jsonl"
    save_dataset([make_sample()], path)
    with open(path, "a", encoding="utf-8") as f:
        f.write("not json\n")
    with pytest.raises(DatasetError, match=":3:"):
        load_dataset(path)


def test_unknown_fields_ignored_with_warning(tmp_path, caplog):
    record = make_sample().to_dict()
    record["extra"] = 1
    path = tmp_path / "d.jsonl"
    with open(path, "w", encoding="utf-8") as f:
        f.write('{"format":"dvb-jsonl","version":1,"tokenizer":"dvb-tok/1"}\n')
        f.write(json.dumps(record) + "\n")
    with caplog.at_level("WARNING"):
        loaded = load_dataset(path)
    assert len(loaded) == 1
    assert "extra" in caplog.text


def test_stats_rate():
    s1 = make_sample()
    s2 = make_sample(id="s2", gold_spans=[])
    stats = dataset_stats([s1, s2])
    assert stats.total.samples == 2
    assert stats.total.hallu_rate == 0.5
    assert stats.total.hallu_locations == 1


def test_stats_mean_len_one_decimal():
    s1 = make_sample(caption="one two three", gold_spans=[])
    s2 = make_sample(id="s2", caption="one two", gold_spans=[])
    stats = dataset_stats([s1, s2])
    assert stats.total.mean_caption_len == 2.5


def test_stats_empty():
    stats = dataset_stats([])
    assert stats.total.samples == 0
    assert stats.total.hallu_rate is None
    assert stats.total.mean_caption_len is None
    assert stats.per_domain == {}


def test_stats_permutation_invariant():
    samples = [
        make_sample(id=f"s{i}", domain=d, gold_spans=[])
        for i, d in enumerate(["gui", "nature", "gui", "chart"])
    ]
    a = dataset_stats(samples)
    b = dataset_stats(list(reversed(samples)))
    assert a == b
    assert a.per_domain["gui"].samples == 2


HEADER = '{"format":"dvb-jsonl","version":1,"tokenizer":"dvb-tok/1"}\n'

# records of the wrong JSON shape; each used to escape load_dataset as an
# AttributeError or TypeError instead of a DatasetError
MALFORMED_RECORDS = {
    "list_record": ["s1", "nature", "a red car"],
    "string_bound": {**make_sample().to_dict(), "gold_spans": [{"start": "0", "end": 1}]},
    "null_caption": {**make_sample().to_dict(), "caption": None},
    "non_object_span": {**make_sample().to_dict(), "gold_spans": [3]},
    "bool_bound": {**make_sample().to_dict(), "gold_spans": [{"start": False, "end": True}]},
    "spans_not_a_list": {**make_sample().to_dict(), "gold_spans": 3},
    "numeric_id": {**make_sample().to_dict(), "id": 7},
}


@pytest.mark.parametrize("case", sorted(MALFORMED_RECORDS))
def test_load_rejects_malformed_record(tmp_path, case):
    path = tmp_path / "d.jsonl"
    path.write_text(HEADER + json.dumps(MALFORMED_RECORDS[case]) + "\n", encoding="utf-8")
    with pytest.raises(DatasetError, match=r"d\.jsonl:2: .*expected"):
        load_dataset(path)


def test_load_rejects_non_object_header(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_text("[1, 2]\n", encoding="utf-8")
    with pytest.raises(DatasetError, match=":1:"):
        load_dataset(path)


def test_load_rejects_non_utf8(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_bytes(HEADER.encode() + b'{"id": "\xff"}\n')
    with pytest.raises(DatasetError, match="UTF-8"):
        load_dataset(path)


def test_load_rejects_lone_surrogate(tmp_path):
    path = tmp_path / "d.jsonl"
    record = {**make_sample().to_dict(), "caption": "A red car.\ud800"}
    path.write_text(HEADER + json.dumps(record) + "\n", encoding="utf-8")
    with pytest.raises(DatasetError, match=r"d\.jsonl:2: caption holds a lone surrogate '\\ud800'"):
        load_dataset(path)


def test_load_accepts_null_clean_caption(tmp_path):
    path = tmp_path / "d.jsonl"
    record = {**make_sample().to_dict(), "clean_caption": None}
    path.write_text(HEADER + json.dumps(record) + "\n", encoding="utf-8")
    assert load_dataset(path)[0].clean_caption is None


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 40) | st.floats(allow_nan=False)
    | st.text(max_size=12),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)
_valid = make_sample().to_dict()
records = st.one_of(
    json_values,
    # a valid record with some fields replaced by, or missing, arbitrary values
    st.dictionaries(st.sampled_from(sorted(_valid)), json_values, max_size=4).flatmap(
        lambda changes: st.sets(st.sampled_from(sorted(_valid)), max_size=2).map(
            lambda dropped: {
                k: v for k, v in {**_valid, **changes}.items() if k not in dropped
            }
        )
    ),
    # a valid record whose spans are arbitrary
    st.lists(
        st.dictionaries(st.sampled_from(["start", "end", "dimension"]), json_values, max_size=3)
        | json_values,
        max_size=3,
    ).map(lambda spans: {**_valid, "gold_spans": spans}),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(records, min_size=1, max_size=3))
def test_load_raises_only_dataset_error(tmp_path_factory, recs):
    path = tmp_path_factory.mktemp("fuzz") / "d.jsonl"
    path.write_text(HEADER + "".join(json.dumps(r) + "\n" for r in recs), encoding="utf-8")
    try:
        samples = load_dataset(path)
    except DatasetError:
        return
    for sample in samples:
        assert validate_sample(sample) == []


# transcript strings: plain text, and text around a lone surrogate, which
# json.dumps writes as a \ud800-style escape
transcript_strings = st.text(max_size=8) | st.builds(
    "{}{}{}".format, st.text(max_size=3), st.sampled_from(["\ud800", "\udfff"]), st.text(max_size=3)
)
transcript_lines = st.one_of(
    st.text(max_size=12),  # mostly not JSON
    st.sampled_from(["", "   ", "\t"]),
    json_values.map(json.dumps),
    st.fixed_dictionaries(
        {},
        optional={
            "id": st.sampled_from(["s1", "s2"]) | transcript_strings | json_values,
            "output": transcript_strings | json_values,
        },
    ).map(json.dumps),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(transcript_lines, max_size=4))
def test_read_transcripts_raises_only_dataset_error(tmp_path_factory, lines):
    path = tmp_path_factory.mktemp("fuzz") / "t.jsonl"
    path.write_text("\n".join(lines), encoding="utf-8")
    try:
        outputs = read_transcripts(path)
    except DatasetError:
        return
    for sample_id, output in outputs.items():
        (sample_id + output).encode("utf-8")

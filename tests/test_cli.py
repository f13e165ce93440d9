"""CLI tests driving main() in-process with scripted backends."""

from __future__ import annotations

import argparse
import importlib.util
import json
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from caploc import cli, corpus, text
from caploc.cli import main
from caploc.corpus import BenchmarkSample, HallucinationSpan, load_dataset, save_dataset
from caploc.fixtures import build_fixture
from caploc.inject import fill_template, load_template
from caploc.modelgate import ModelGate, RetryableBackendError, ScriptedBackend, ScriptRule
from metric_helpers import report_dict

TAG = "<HALLUCINATION>"
END = "</HALLUCINATION>"


def write_dataset(tmp_path, samples, name="data.jsonl"):
    path = tmp_path / name
    save_dataset(samples, path)
    return path


def base_samples():
    return [
        BenchmarkSample(
            id="s1",
            image="",
            domain="nature",
            caption="a red car parked near the gate.",
            gold_spans=[HallucinationSpan(1, 2, "color")],
        ),
        BenchmarkSample(
            id="s2",
            image="",
            domain="gui",
            caption="the button is green.",
            gold_spans=[],
        ),
    ]


def perfbench_gen():
    """The benchmark's seeded input generator, perfbench/gen.py, which
    imports only the standard library."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"
    spec = importlib.util.spec_from_file_location("perfbench_gen", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_script(tmp_path, rules, name="script.json"):
    path = tmp_path / name
    path.write_text(json.dumps(rules), encoding="utf-8")
    return path


@pytest.fixture
def backends(monkeypatch):
    """The scripted backends main() builds, kept to inspect their requests."""
    made = []

    class Recording(ScriptedBackend):
        def __init__(self, rules):
            super().__init__(rules)
            made.append(self)

    monkeypatch.setattr(cli, "ScriptedBackend", Recording)
    return made


class TestValidate:
    def test_good_dataset(self, tmp_path, capsys):
        dataset = write_dataset(tmp_path, base_samples())
        assert main(["validate", str(dataset)]) == 0
        out = capsys.readouterr().out
        assert "OK: 2 samples" in out

    @pytest.mark.parametrize("tag", [TAG, END])
    def test_caption_holding_a_tag_literal_exits_1(self, tmp_path, capsys, tag):
        """A locator that echoed such a caption and tagged nothing would
        score the tokens after the tag as predicted; the dataset is
        rejected before any scoring instead."""
        caption = f"a {tag}red car parked near the gate."
        sample = BenchmarkSample(id="s1", image="", domain="nature", caption=caption)
        dataset = write_dataset(tmp_path, [sample])
        transcripts = tmp_path / "t.jsonl"
        transcripts.write_text(json.dumps({"id": "s1", "output": caption}) + "\n")
        want = f"error: {dataset}:2: invalid sample: sample 's1': caption: holds the tag literal {tag}"
        assert main(["validate", str(dataset)]) == 1
        assert want in capsys.readouterr().err
        argv = ["score", "--dataset", str(dataset), "--transcripts", str(transcripts)]
        assert main([*argv, "--out", str(tmp_path / "out")]) == 1
        assert want in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_bad_dataset_exits_1(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"format": "dvb-jsonl", "version": 1, "tokenizer": "dvb-tok/1"}\n{"id": ""}\n')
        assert main(["validate", str(path)]) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "record",
        [
            '["s1", "nature", "a red car"]',
            '{"id": "s1", "domain": "nature", "caption": "a red car", "gold_spans": [{"start": "0", "end": 1}]}',
            '{"id": "s1", "domain": "nature", "caption": null}',
            '{"id": "s1", "domain": "nature", "caption": "a red car", "gold_spans": [3]}',
        ],
        ids=["list_record", "string_bound", "null_caption", "non_object_span"],
    )
    def test_malformed_record_exits_1(self, tmp_path, capsys, record):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"format": "dvb-jsonl", "version": 1, "tokenizer": "dvb-tok/1"}\n' + record + "\n")
        assert main(["validate", str(path)]) == 1
        assert f"error: {path}:2: " in capsys.readouterr().err

    def test_missing_file_exits_1(self, tmp_path):
        assert main(["validate", str(tmp_path / "nope.jsonl")]) == 1


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 2
        assert "usage" in capsys.readouterr().err

    def test_unknown_flag(self, tmp_path, capsys):
        assert main(["validate", "--wat", "x"]) == 2

    def test_missing_required_flag(self, capsys):
        assert main(["score", "--dataset", "d.jsonl"]) == 2

    def test_score_takes_no_image_root(self, tmp_path, capsys):
        dataset = write_dataset(tmp_path, base_samples())
        argv = ["score", "--dataset", str(dataset), "--transcripts", "t.jsonl"]
        assert main([*argv, "--image-root", str(tmp_path)]) == 2

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["evaluate", "--script", "{script}"], "--model is required for evaluate"),
            (["sweep", "--rounds", "0", "--script", "{script}"], "--models is required for sweep"),
            (["sweep", "--rounds", "0"], "--models is required for sweep"),
            (["sweep", "--script", "{tmp}/missing.json"], "--models is required for sweep"),
        ],
        ids=[
            "evaluate_without_model",
            "sweep_without_models",
            "sweep_without_models_or_backend",
            "sweep_without_models_with_a_missing_script",
        ],
    )
    def test_required_value_missing_exits_2(self, tmp_path, capsys, backends, argv, message):
        """The missing value is named before the backend is built."""
        dataset = write_dataset(tmp_path, base_samples())
        script = write_script(tmp_path, [])
        argv = [a.format(script=script, tmp=tmp_path) for a in argv]
        assert main([*argv, "--dataset", str(dataset)]) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert all(backend.requests == [] for backend in backends)

    @pytest.mark.parametrize(
        "argv, option",
        [
            (["score", "--dataset", "d.jsonl", "--transcripts", "t.jsonl"], ["--width", "2"]),
            (["score", "--dataset", "d.jsonl", "--transcripts", "t.jsonl"], ["--require-image"]),
            (["sweep", "--dataset", "d.jsonl", "--models", "a"], ["--model", "m"]),
            (["inject", "--dataset", "d.jsonl", "--out", "o.jsonl"], ["--overlap", "1"]),
            (["sweep", "--dataset", "d.jsonl", "--models", "a"], ["--overlap", "1"]),
            (["validate", "d.jsonl"], ["--config", "c.json"]),
            (["stats", "d.jsonl"], ["--config", "c.json"]),
            (["annotate", "--pairs", "p.jsonl", "--out", "o.jsonl"], ["--config", "c.json"]),
            (["correlate", "--real", "r.json", "--synthetic", "s.json"], ["--config", "c.json"]),
            (["report", "r.json"], ["--config", "c.json"]),
        ],
        ids=lambda value: value[0].lstrip("-"),
    )
    def test_option_the_command_does_not_read_exits_2(self, capsys, argv, option):
        assert main([*argv, *option]) == 2
        assert f"unrecognized arguments: {option[0]}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", sorted(cli._KEYS))
    def test_config_keys_are_the_options_the_command_reads(self, command):
        """A command's config keys are its flags' destinations, but for
        the config file, --verbose and the files it names, plus dimensions,
        which has no flag."""
        (sub,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        named_files = {"dataset", "transcripts", "audit", *(["out"] if command == "inject" else [])}
        dests = {a.dest for a in sub.choices[command]._actions} - {"help", "config", "verbose"}
        assert dests - named_files == set(cli._KEYS[command]) - {"dimensions"}

    def test_evaluate_without_backend(self, tmp_path, capsys):
        dataset = write_dataset(tmp_path, base_samples())
        code = main(["evaluate", "--dataset", str(dataset), "--model", "m"])
        assert code == 2
        assert "no backend" in capsys.readouterr().err

    def test_base_url_without_requests_exits_1(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setitem(sys.modules, "requests", None)
        dataset = write_dataset(tmp_path, base_samples())
        argv = ["evaluate", "--dataset", str(dataset), "--model", "m", "--base-url", "http://localhost:9"]
        assert main([*argv, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: the HTTP backend needs the 'requests' package")
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()


class TestStats:
    def test_table(self, tmp_path, capsys):
        dataset = write_dataset(tmp_path, base_samples())
        assert main(["stats", str(dataset)]) == 0
        out = capsys.readouterr().out
        assert "nature" in out and "total" in out

    def test_json(self, tmp_path, capsys):
        dataset = write_dataset(tmp_path, base_samples())
        assert main(["stats", str(dataset), "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["per_domain"]["nature"]["samples"] == 1
        assert data["total"]["samples"] == 2


class TestTokenCountPasses:
    """validate checks span ends against lower bounds on each caption's
    token count, its whitespace chunk count and then one more for each chunk
    that ends in a detached ASCII punctuation character, and counts tokens
    only for a span that ends past both; stats counts each caption's tokens
    once, for its domain row and the total together."""

    @staticmethod
    def count_passes(monkeypatch) -> list:
        calls = []
        split = text._split
        monkeypatch.setattr(text, "_split", lambda s: calls.append(s) or split(s))
        return calls

    @pytest.mark.parametrize(
        "argv", [["validate"], ["stats"], ["stats", "--json"]], ids=["validate", "stats", "stats_json"]
    )
    def test_one_span_pass_per_caption(self, tmp_path, capsys, monkeypatch, argv):
        samples = build_fixture()
        dataset = write_dataset(tmp_path, samples)
        calls = self.count_passes(monkeypatch)
        assert main([*argv, str(dataset)]) == 0
        # fixture spans may end on a caption's last tokens, past its chunk
        # count when sentences end in a detached "."; the second bound
        # counts that "." and holds every fixture span, so validate never
        # counts tokens
        past_chunks = [
            s.caption for s in samples if any(g.end > len(s.caption.split()) for g in s.gold_spans)
        ]
        assert 0 < len(past_chunks) < len(samples) // 5
        counted = [s.caption for s in samples] if argv[0] == "stats" else []
        assert calls == counted

    @pytest.mark.parametrize(
        "start, end, exit_code, counted",
        [(3, 4, 0, False), (4, 5, 1, True)],
        ids=["last_token", "past_the_end"],
    )
    def test_only_a_span_past_the_punctuation_bound_is_counted(
        self, tmp_path, capsys, monkeypatch, start, end, exit_code, counted
    ):
        # 3 whitespace chunks, 4 tokens: the final "." is a token of its
        # own, which the second bound counts
        caption = "A red car."
        sample = BenchmarkSample(
            id="s", image="", domain="nature", caption=caption,
            gold_spans=[HallucinationSpan(start, end, "other")],
        )
        dataset = write_dataset(tmp_path, [sample])
        calls = self.count_passes(monkeypatch)
        assert main(["validate", str(dataset)]) == exit_code
        assert calls == ([caption] if counted else [])
        if exit_code:
            assert "invalid for caption of 4 tokens" in capsys.readouterr().err


class TestAnnotate:
    def test_pairs_to_dataset(self, tmp_path, capsys):
        pairs = tmp_path / "pairs.jsonl"
        rows = [
            {
                "id": "p1",
                "domain": "nature",
                "caption": "a blue car parked here.",
                "corrected": "a red car parked here.",
                "labels": ["color"],
            },
            {
                "id": "p2",
                "domain": "gui",
                "caption": "the button is green.",
                "corrected": "the button is green.",
            },
        ]
        pairs.write_text("\n".join(json.dumps(r) for r in rows), encoding="utf-8")
        out = tmp_path / "annotated.jsonl"
        assert main(["annotate", "--pairs", str(pairs), "--out", str(out)]) == 0
        samples = load_dataset(out)
        assert samples[0].gold_spans == [HallucinationSpan(1, 2, "color")]
        assert samples[1].gold_spans == []

    def test_bad_label_count_exits_1(self, tmp_path, capsys):
        pairs = tmp_path / "pairs.jsonl"
        pairs.write_text(
            json.dumps(
                {
                    "id": "p1",
                    "caption": "a blue car.",
                    "corrected": "a red car.",
                    "labels": ["color", "shape"],
                }
            ),
            encoding="utf-8",
        )
        assert main(["annotate", "--pairs", str(pairs), "--out", str(tmp_path / "o.jsonl")]) == 1


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 40) | st.floats(allow_nan=False)
    | st.text(max_size=12),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)
pair_texts = st.sampled_from(["a red car.", "a blue car.", "the <HALLUCINATION> gate", ""]) | st.text(
    st.sampled_from("ab .,\u00e9<>"), max_size=12
)
pair_lines = st.one_of(
    st.text(max_size=12),  # mostly not JSON
    st.sampled_from(["", "  "]),
    json_values.map(json.dumps),
    # a well-formed pair, which annotate writes unless a check fails
    st.fixed_dictionaries(
        {"id": st.sampled_from(["p1", "p2"]), "caption": pair_texts, "corrected": pair_texts},
        optional={
            "labels": st.lists(st.sampled_from(["color", "shape"]), max_size=2)
            | st.one_of(st.booleans(), st.integers(), st.floats(), st.text(max_size=6)),
        },
    ).map(json.dumps),
    st.fixed_dictionaries(
        {},
        optional={
            "id": st.sampled_from(["p1", "p2", ""]) | json_values,
            "caption": pair_texts | json_values,
            "corrected": pair_texts | json_values,
            "labels": st.lists(st.sampled_from(["color", "shape", "hue"]), max_size=2)
            | json_values,
            "domain": st.sampled_from(["gui", "nature", "space"]) | json_values,
            "image": json_values,
        },
    ).map(json.dumps),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(pair_lines, max_size=3))
def test_annotate_exits_0_or_1_on_any_pairs(tmp_path_factory, lines):
    tmp = tmp_path_factory.mktemp("fuzz")
    pairs = tmp / "pairs.jsonl"
    pairs.write_text("\n".join(lines), encoding="utf-8")
    assert main(["annotate", "--pairs", str(pairs), "--out", str(tmp / "o.jsonl")]) in (0, 1)


_CONFIG_KEYS = sorted(set().union(*cli._KEYS.values()))


def _configs_from(eff: dict, command: str) -> None:
    """The config objects `command` builds from its effective values, as
    cmd_evaluate, cmd_score, cmd_inject and cmd_sweep build them, without
    running it."""
    if command == "evaluate":
        if not eff["model"]:
            raise cli._UsageError("--model is required for evaluate")
        cli._config(cli.EvalConfig, eff, dataset="d.jsonl")
    elif command == "score":
        cli._config(cli.EvalConfig, eff, dataset="d.jsonl", model=eff["model"] or "offline")
    elif command == "inject":
        cli._injection_config(eff)
    else:
        if not eff["models"]:
            raise cli._UsageError("--models is required for sweep")
        cli._list(eff["models"])
        cli._round_counts(eff["rounds"])
        cli._injection_config(eff, rounds=0)
        cli._config(cli.EvalConfig, eff, dataset="d.jsonl", model="")


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(sorted(cli._KEYS)),
    st.dictionaries(st.sampled_from(_CONFIG_KEYS + ["unknown"]), json_values, max_size=5)
    | json_values,
)
def test_any_config_document_raises_only_value_or_usage_error(tmp_path_factory, command, doc):
    config = tmp_path_factory.mktemp("fuzz") / "config.json"
    config.write_text(json.dumps(doc), encoding="utf-8")
    args = argparse.Namespace(command=command, config=str(config), verbose=False)
    many = ("rounds", "models") if command == "sweep" else ()
    try:
        _configs_from(cli._effective(args, many=many), command)
    except (ValueError, cli._UsageError):
        pass


def eval_script_rules():
    # gold echo for s1, plain echo for s2
    return [
        {
            "purpose": "evaluate",
            "contains": "a red car parked near the gate.",
            "responses": [f"a {TAG}red{END} car parked near the gate."] * 4,
        },
        {
            "purpose": "evaluate",
            "contains": "the button is green.",
            "responses": ["the button is green."] * 4,
        },
    ]


class TestEvaluateScoreRoundTrip:
    def test_reports_identical(self, tmp_path, capsys):
        dataset = write_dataset(tmp_path, base_samples())
        script = write_script(tmp_path, eval_script_rules())
        out_eval = tmp_path / "out_eval"
        code = main(
            [
                "evaluate",
                "--dataset", str(dataset),
                "--model", "locator",
                "--script", str(script),
                "--out", str(out_eval),
            ]
        )
        assert code == 0
        eval_report = json.loads((out_eval / "report.json").read_text())
        assert eval_report["overall"]["token"]["f1"] == 1.0
        assert eval_report["coverage"] == 1.0

        out_score = tmp_path / "out_score"
        code = main(
            [
                "score",
                "--dataset", str(dataset),
                "--transcripts", str(out_eval / "transcripts.jsonl"),
                "--model", "locator",
                "--out", str(out_score),
            ]
        )
        assert code == 0
        score_report = json.loads((out_score / "report.json").read_text())
        eval_report.pop("generated_at")
        score_report.pop("generated_at")
        assert score_report == eval_report

    def test_table_on_stdout(self, tmp_path, capsys):
        dataset = write_dataset(tmp_path, base_samples())
        script = write_script(tmp_path, eval_script_rules())
        main(
            [
                "evaluate",
                "--dataset", str(dataset),
                "--model", "locator",
                "--script", str(script),
                "--out", str(tmp_path / "out"),
            ]
        )
        out = capsys.readouterr().out
        assert "overall" in out
        assert "model: locator" in out


    def test_reply_with_a_lone_surrogate_skips_its_sample(self, tmp_path, caplog):
        dataset = write_dataset(tmp_path, base_samples())
        rules = eval_script_rules()
        rules[0]["responses"] = ["a red car parked near the gate.\ud800"]
        script = write_script(tmp_path, rules)
        out = tmp_path / "out"
        argv = ["evaluate", "--dataset", str(dataset), "--model", "locator", "--out", str(out)]
        assert main([*argv, "--script", str(script)]) == 0
        assert "sample s1 failed: model 'locator' (evaluate)" in caplog.text
        lines = (out / "transcripts.jsonl").read_text(encoding="utf-8").splitlines()
        assert [json.loads(line)["id"] for line in lines] == ["s2"]
        assert json.loads((out / "report.json").read_text())["coverage"] == 0.5


class TestConfigFile:
    def test_flags_override_config(self, tmp_path, capsys):
        dataset = write_dataset(tmp_path, base_samples())
        script = write_script(tmp_path, eval_script_rules())
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps({"model": "from-config", "out": str(tmp_path / "cfg_out"), "script": str(script)})
        )
        code = main(
            [
                "evaluate",
                "--dataset", str(dataset),
                "--config", str(config),
                "--model", "from-flag",
            ]
        )
        assert code == 0
        report = json.loads((tmp_path / "cfg_out" / "report.json").read_text())
        assert report["model"] == "from-flag"

    def test_score_warns_about_the_evaluate_keys_it_does_not_read(self, tmp_path, capsys, caplog):
        """One config file serves evaluate and score: score warns about the
        keys only evaluate reads, whatever their values, and ignores them."""
        dataset = write_dataset(tmp_path, base_samples())
        transcripts = tmp_path / "t.jsonl"
        lines = [json.dumps({"id": s.id, "output": s.caption}) for s in base_samples()]
        transcripts.write_text("\n".join(lines) + "\n", encoding="utf-8")
        config = tmp_path / "config.json"
        doc = {"model": "shared", "width": 0, "require_image": True, "image_root": "/nonexistent"}
        config.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "out"
        argv = ["score", "--dataset", str(dataset), "--transcripts", str(transcripts)]
        assert main([*argv, "--config", str(config), "--out", str(out)]) == 0
        assert json.loads((out / "report.json").read_text())["model"] == "shared"
        warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
        assert warnings == [
            "config keys not used by this subcommand: ['image_root', 'require_image', 'width']"
        ]

    def test_verbose_echoes_effective_values(self, tmp_path, capsys):
        dataset = write_dataset(tmp_path, base_samples())
        script = write_script(tmp_path, eval_script_rules())
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"model": "cfg-model", "script": str(script)}))
        main(
            [
                "evaluate",
                "--dataset", str(dataset),
                "--config", str(config),
                "--out", str(tmp_path / "out"),
                "--verbose",
            ]
        )
        err = capsys.readouterr().err
        assert "model = cfg-model" in err
        assert f"out = {tmp_path / 'out'}" in err


def inject_script(tmp_path):
    first = (
        f"a {TAG}blue{END} car parked near the {TAG}open{END} gate.\n"
        "LABELS: color, scene"
    )
    second = f"a red car parked near the {TAG}open{END} gate.\nLABELS: scene"
    rules = [
        {"purpose": "inject", "responses": [first, second] * 4},
        {
            "purpose": "detect",
            "contains": "blue",
            "responses": ['"blue" - unlikely color for this car'] * 4,
        },
        {"purpose": "detect", "responses": ["No issues found."] * 8},
    ]
    return write_script(tmp_path, rules, "inject_script.json")


class TestInject:
    def clean_dataset(self, tmp_path):
        return write_dataset(
            tmp_path,
            [
                BenchmarkSample(
                    id="c1",
                    image="",
                    domain="nature",
                    caption="a red car parked near the gate.",
                    gold_spans=[],
                )
            ],
            name="clean.jsonl",
        )

    def test_inject_writes_synthetic_dataset(self, tmp_path, capsys):
        dataset = self.clean_dataset(tmp_path)
        script = inject_script(tmp_path)
        out = tmp_path / "synthetic.jsonl"
        audit = tmp_path / "audit"
        code = main(
            [
                "inject",
                "--dataset", str(dataset),
                "--out", str(out),
                "--script", str(script),
                "--rounds", "1",
                "--no-include-image",
                "--audit", str(audit),
            ]
        )
        assert code == 0
        samples = load_dataset(out)
        assert samples[0].variant == "synthetic"
        assert samples[0].caption == "a red car parked near the open gate."
        assert samples[0].gold_spans == [HallucinationSpan(6, 7, "scene")]
        assert samples[0].clean_caption == "a red car parked near the gate."
        log = json.loads((audit / "c1.json").read_text())
        assert any(entry["phase"] == "detect" for entry in log)

    def test_naive_strategy_prompts_with_the_naive_template(self, tmp_path, capsys):
        """The rule answers only a prompt holding a phrase that only the
        naive template has."""
        dataset = self.clean_dataset(tmp_path)
        reply = f"a red car parked near the {TAG}open{END} gate.\nLABELS: scene"
        rules = [{"purpose": "inject", "contains": "Change a few words", "responses": [reply]}]
        script = write_script(tmp_path, rules)
        out = tmp_path / "synthetic.jsonl"
        audit = tmp_path / "audit"
        argv = ["inject", "--dataset", str(dataset), "--out", str(out), "--script", str(script)]
        argv += ["--strategy", "naive", "--rounds", "0", "--no-include-image", "--audit", str(audit)]
        assert main(argv) == 0
        (sample,) = load_dataset(out)
        assert sample.caption == "a red car parked near the open gate."
        assert sample.gold_spans == [HallucinationSpan(6, 7, "scene")]
        (entry,) = json.loads((audit / "c1.json").read_text())
        assert entry["phase"] == "inject"
        assert entry["prompt"] == fill_template(
            load_template("inject_naive"),
            caption="a red car parked near the gate.",
            dimensions=", ".join(corpus.DIMENSION_VALUES),
            feedback="None.",
        )

    def test_reply_with_a_lone_surrogate_skips_its_sample(self, tmp_path, caplog):
        clean = [
            BenchmarkSample(id=i, image="", domain="nature", caption=caption, gold_spans=[])
            for i, caption in (("c1", "a red car."), ("c2", "a green gate."))
        ]
        dataset = write_dataset(tmp_path, clean, name="clean.jsonl")
        rules = [
            {"purpose": "inject", "contains": "a red car.", "responses": ["a red car.\ud800"]},
            {"purpose": "inject", "responses": [f"a {TAG}blue{END} gate."]},
        ]
        script = write_script(tmp_path, rules)
        out = tmp_path / "syn.jsonl"
        argv = ["inject", "--dataset", str(dataset), "--out", str(out), "--rounds", "0"]
        assert main([*argv, "--script", str(script), "--no-include-image"]) == 0
        assert "sample c1 failed: model 'injector' (inject)" in caplog.text
        assert [(s.id, s.caption) for s in load_dataset(out)] == [("c2", "a blue gate.")]

    def test_unusable_audit_path_exits_before_any_model_call(self, tmp_path, capsys, backends):
        dataset = self.clean_dataset(tmp_path)
        script = inject_script(tmp_path)
        audit = tmp_path / "audit"
        audit.write_text("a file, not a directory")
        argv = ["inject", "--dataset", str(dataset), "--out", str(tmp_path / "syn.jsonl")]
        assert main([*argv, "--script", str(script), "--audit", str(audit)]) == 1
        assert "error:" in capsys.readouterr().err
        (backend,) = backends
        assert backend.requests == []

    def test_audit_file_name_is_one_component_inside_the_audit_directory(
        self, tmp_path, capsys
    ):
        """An id holding "/" or "../" names one file inside --audit, escaped
        as a URL path segment; an id of letters, digits, "-", "_" and "."
        keeps its name."""
        ids = ["gui/0001", "../escape", "c.1-x_Y"]
        clean = [
            BenchmarkSample(id=i, image="", domain="gui", caption="a red car.", gold_spans=[])
            for i in ids
        ]
        dataset = write_dataset(tmp_path, clean, name="clean.jsonl")
        rules = [{"purpose": "inject", "responses": [f"a {TAG}blue{END} car."] * 4}]
        script = write_script(tmp_path, rules)
        out, audit = tmp_path / "syn.jsonl", tmp_path / "run" / "audit"
        argv = ["inject", "--dataset", str(dataset), "--script", str(script), "--rounds", "0"]
        argv += ["--no-include-image", "--out", str(out), "--audit", str(audit)]
        assert main(argv) == 0
        assert [s.id for s in load_dataset(out)] == ids
        names = sorted(p.name for p in audit.iterdir())
        assert names == ["..%2Fescape.json", "c.1-x_Y.json", "gui%2F0001.json"]
        assert sorted(p.name for p in (tmp_path / "run").iterdir()) == ["audit"]
        (entry,) = json.loads((audit / "gui%2F0001.json").read_text(encoding="utf-8"))
        assert entry["phase"] == "inject"

    @pytest.mark.parametrize("too_long", ["x" * 300, "é" * 50], ids=["ascii", "escaped"])
    def test_too_long_audit_file_name_exits_before_any_model_call(
        self, tmp_path, capsys, backends, too_long
    ):
        """An id whose escaped audit file name is longer than the file
        system allows (escaping makes each byte of "é" three) exits 1 naming
        the id, with no model call and no --out file."""
        ids = ["c1", too_long]
        clean = [
            BenchmarkSample(id=i, image="", domain="gui", caption="a red car.", gold_spans=[])
            for i in ids
        ]
        dataset = write_dataset(tmp_path, clean, name="clean.jsonl")
        rules = [{"purpose": "inject", "responses": [f"a {TAG}blue{END} car."] * 4}]
        script = write_script(tmp_path, rules)
        out, audit = tmp_path / "syn.jsonl", tmp_path / "audit"
        argv = ["inject", "--dataset", str(dataset), "--script", str(script), "--rounds", "0"]
        argv += ["--no-include-image", "--out", str(out), "--audit", str(audit)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --audit: sample id ") and repr(too_long) in err
        (backend,) = backends
        assert backend.requests == []
        assert not out.exists()
        assert list(audit.iterdir()) == []

        # five of its characters fit
        clean[1] = BenchmarkSample(
            id=too_long[:5], image="", domain="gui", caption="a red car.", gold_spans=[]
        )
        dataset = write_dataset(tmp_path, clean, name="clean.jsonl")
        assert main(argv) == 0
        assert [s.id for s in load_dataset(out)] == ["c1", too_long[:5]]

    def test_inject_without_cache_sends_what_a_cold_cache_run_sends(
        self, tmp_path, capsys, monkeypatch
    ):
        """Without --cache, inject answers a repeated prompt (a detect
        round after one that reverted nothing) from memory: on perfbench's
        injector and detector script (seed 3001, 40 samples) it sends the
        130 requests a cold --cache run sends, at K = 2 and at K = 3, and
        writes the same dataset and audit files."""
        gen = perfbench_gen()
        script = gen.InjectScript(3001, 40)
        clean = tmp_path / "clean.jsonl"
        header = {
            "format": corpus.FORMAT_NAME,
            "version": corpus.FORMAT_VERSION,
            "tokenizer": corpus.TOKENIZER_VERSION,
        }
        gen.write_jsonl(clean, [header] + script.clean)
        rules = [
            ScriptRule(purpose="inject", responder=lambda r: script.inject_reply(r.user)),
            ScriptRule(purpose="detect", responder=lambda r: script.detect_reply(r.user)),
        ]
        made = []

        class Responding(ScriptedBackend):
            def __init__(self, _):
                super().__init__(rules)
                made.append(self)

        monkeypatch.setattr(cli, "ScriptedBackend", Responding)
        for k in ("2", "3"):
            runs = {}
            for name, extra in (("plain", []), ("cached", ["--cache", str(tmp_path / k)])):
                out = tmp_path / f"{name}{k}"
                argv = ["inject", "--dataset", str(clean), "--no-include-image"]
                argv += ["--script", str(write_script(tmp_path, [])), "--rounds", k]
                argv += ["--out", str(out / "syn.jsonl"), "--audit", str(out / "audit")]
                assert main([*argv, *extra]) == 0
                files = sorted(out.rglob("*.json*"))
                runs[name] = (
                    len(made[-1].requests),
                    [(p.relative_to(out), p.read_bytes()) for p in files],
                )
            assert runs["plain"][0] == runs["cached"][0] == 130
            assert runs["plain"][1] == runs["cached"][1]
            assert len(runs["plain"][1]) == 41

    def test_out_directory_is_created(self, tmp_path, capsys):
        dataset = self.clean_dataset(tmp_path)
        script = inject_script(tmp_path)
        out = tmp_path / "missing" / "dir" / "syn.jsonl"
        argv = ["inject", "--dataset", str(dataset), "--out", str(out), "--script", str(script)]
        assert main([*argv, "--no-include-image"]) == 0
        assert [s.id for s in load_dataset(out)] == ["c1"]

    def test_out_under_a_file_exits_before_any_model_call(self, tmp_path, capsys, backends):
        dataset = self.clean_dataset(tmp_path)
        script = inject_script(tmp_path)
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        out = blocker / "syn.jsonl"
        argv = ["inject", "--dataset", str(dataset), "--out", str(out), "--script", str(script)]
        assert main(argv) == 1
        assert f"File exists: '{blocker}'" in capsys.readouterr().err
        (backend,) = backends
        assert backend.requests == []


def run_with_gate(tmp_path, monkeypatch, gate, command, extra, n):
    """Exit code of one command over n samples "a red car <i>." on gate."""
    monkeypatch.setattr(cli, "_build_gate", lambda eff: gate)
    monkeypatch.chdir(tmp_path)
    samples = [
        BenchmarkSample(
            id=f"s{i}", image="", domain="nature", caption=f"a red car {i}.", gold_spans=[]
        )
        for i in range(n)
    ]
    dataset = write_dataset(tmp_path, samples)
    return main([command, "--dataset", str(dataset), "--script", "unused.json", *extra])


# evaluate and inject, each run through run_with_gate
GATED_RUNS = [
    ("evaluate", ["--model", "locator", "--out", "out"]),
    ("inject", ["--no-include-image", "--rounds", "1", "--out", "syn.jsonl"]),
]


class RefusingBackend:
    """A backend that is down: every send fails with a transport error."""

    def __init__(self):
        self.sends = 0

    def send(self, req):
        self.sends += 1
        raise RetryableBackendError("transport failure: connection refused")


class TestEverySampleFailed:
    """When every sample of a run fails, the run exits 1 with how many
    failed and the commonest cause, whichever command ran it."""

    @pytest.mark.parametrize("command, extra", GATED_RUNS)
    def test_exit_names_the_count_and_the_cause(
        self, tmp_path, capsys, monkeypatch, command, extra
    ):
        backend, waits = RefusingBackend(), []
        gate = ModelGate(backend, sleep=waits.append)
        assert run_with_gate(tmp_path, monkeypatch, gate, command, extra, 4) == 1
        err = capsys.readouterr().err
        assert "all 4 samples failed; 4 with BackendError" in err
        assert "connection refused" in err
        assert backend.sends == 4 * 3 and len(waits) == 4 * 2


class TestDeadBackend:
    """A run stops once 8 samples in a row failed with a backend error,
    rather than pay every later sample's retries."""

    @pytest.mark.parametrize("command, extra", GATED_RUNS)
    def test_run_stops_after_8_failed_samples_in_a_row(
        self, tmp_path, capsys, monkeypatch, command, extra
    ):
        backend, waits = RefusingBackend(), []
        gate = ModelGate(backend, sleep=waits.append)
        assert run_with_gate(tmp_path, monkeypatch, gate, command, extra, 40) == 1
        err = capsys.readouterr().err
        assert "error: 8 samples in a row failed with a backend error; the last on sample 's7'" in err
        assert "transport failure: connection refused" in err
        assert backend.sends == 8 * 3 and len(waits) == 8 * 2
        assert not (tmp_path / "out" / "transcripts.jsonl").exists()
        assert not (tmp_path / "syn.jsonl").exists()
        # evaluate made --out before its first request, and removes it again
        assert not (tmp_path / "out").exists()

    def test_wider_run_sends_for_at_most_the_samples_in_flight_more(
        self, tmp_path, capsys, monkeypatch
    ):
        backend = RefusingBackend()
        gate = ModelGate(backend, sleep=lambda s: None)
        extra = ["--model", "locator", "--out", "out", "--width", "4"]
        assert run_with_gate(tmp_path, monkeypatch, gate, "evaluate", extra, 40) == 1
        assert "samples in a row failed with a backend error" in capsys.readouterr().err
        assert 8 * 3 <= backend.sends <= (8 + 3) * 3

    @pytest.mark.parametrize(
        "fails",
        [lambda i: i % 4 == 3, lambda i: i % 8 != 7],
        ids=["every_4th", "7_in_a_row"],
    )
    def test_failures_between_successes_skip_only_their_samples(
        self, tmp_path, capsys, monkeypatch, fails
    ):
        failing = [i for i in range(40) if fails(i)]

        class PartlyDown:
            def send(self, req):
                if any(f"a red car {i}." in req.user for i in failing):
                    raise RetryableBackendError("transport failure: connection refused")
                return "a red car."

        gate = ModelGate(PartlyDown(), sleep=lambda s: None)
        extra = ["--model", "locator", "--out", "out"]
        assert run_with_gate(tmp_path, monkeypatch, gate, "evaluate", extra, 40) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text(encoding="utf-8"))
        assert report["skipped"] == [f"s{i}" for i in failing]
        assert len(report["samples"]) == 40 - len(failing)


class TestSweepRounds:
    """A bad K in sweep's rounds exits 1 naming rounds and the item before
    any model call."""

    @pytest.mark.parametrize(
        "source, rounds, message",
        [
            ("flag", "0,x", "error: rounds: 'x' is not an integer"),
            ("config", "0,x", "error: rounds: 'x' is not an integer"),
            ("flag", "0,-1", "error: InjectionConfig: rounds must be >= 0, got -1"),
            ("config", [0, -1], "error: InjectionConfig: rounds must be >= 0, got -1"),
        ],
        ids=["flag_not_int", "config_not_int", "flag_negative", "config_negative"],
    )
    def test_bad_k_exits_before_any_model_call(
        self, tmp_path, capsys, backends, source, rounds, message
    ):
        clean = write_dataset(tmp_path, base_samples(), name="clean.jsonl")
        script = inject_script(tmp_path)
        argv = ["sweep", "--dataset", str(clean), "--models", "locator", "--script", str(script)]
        if source == "flag":
            argv += ["--rounds", rounds]
        else:
            config = tmp_path / "config.json"
            config.write_text(json.dumps({"rounds": rounds}), encoding="utf-8")
            argv += ["--config", str(config)]
        assert main([*argv, "--out", str(tmp_path / "out")]) == 1
        assert message in capsys.readouterr().err
        (backend,) = backends
        assert backend.requests == []


    @pytest.mark.parametrize(
        "flags, config, message",
        [
            (["--rounds", ","], None, "error: rounds: the list is empty"),
            ([], {"rounds": []}, "error: rounds: the list is empty"),
            (["--rounds", "1,1"], None, "error: rounds: 1 is listed more than once"),
            (["--models", "m,m"], None, "error: models: 'm' is listed more than once"),
            (["--models", ","], None, "error: models: the list is empty"),
        ],
        ids=["flag_empty", "config_empty", "repeated_k", "repeated_model", "empty_models"],
    )
    def test_empty_or_repeated_list_exits_before_any_model_call(
        self, tmp_path, capsys, backends, flags, config, message
    ):
        clean = write_dataset(tmp_path, base_samples(), name="clean.jsonl")
        script = inject_script(tmp_path)
        argv = ["sweep", "--dataset", str(clean), "--models", "locator", "--script", str(script)]
        if config is not None:
            config_path = tmp_path / "config.json"
            config_path.write_text(json.dumps(config), encoding="utf-8")
            argv += ["--config", str(config_path)]
        assert main([*argv, *flags, "--out", str(tmp_path / "out")]) == 1
        assert message in capsys.readouterr().err
        (backend,) = backends
        assert backend.requests == []
        assert not (tmp_path / "out").exists()

    def test_null_model_in_config_exits_before_any_model_call(self, tmp_path, capsys, backends):
        """A null among a config file's models is no model name: sweep
        exits 1 naming the item, and writes no sweep_k<K>_None/."""
        clean = write_dataset(tmp_path, base_samples(), name="clean.jsonl")
        script = inject_script(tmp_path)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"models": [None, "a"], "rounds": "0"}), encoding="utf-8")
        out = tmp_path / "out"
        argv = ["sweep", "--dataset", str(clean), "--config", str(config), "--script", str(script)]
        assert main([*argv, "--out", str(out)]) == 1
        assert f"error: {config}: models[0] is a JSON null, expected string" in capsys.readouterr().err
        assert backends == []  # refused before the gate is built
        assert not out.exists()
        assert cli._misfit("models", [None, "a"], None, True) == "models[0] is a JSON null, expected string"

    @pytest.mark.parametrize(
        "config, message",
        [
            ({"models": ["a", 5], "rounds": "0"}, "models[1] is a JSON number, expected string"),
            ({"models": "a", "rounds": [True]}, "rounds[0] is a JSON boolean, expected int"),
            ({"models": "a", "rounds": [0, "1"]}, "rounds[1] is a JSON string, expected int"),
        ],
        ids=["number_model", "boolean_round", "string_round"],
    )
    def test_bad_array_item_in_config_exits_before_any_model_call(
        self, tmp_path, capsys, backends, config, message
    ):
        """A config array item that does not fit its key exits 1 naming the
        item, before any model call."""
        clean = write_dataset(tmp_path, base_samples(), name="clean.jsonl")
        script = inject_script(tmp_path)
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        out = tmp_path / "out"
        argv = ["sweep", "--dataset", str(clean), "--config", str(config_path), "--script", str(script)]
        assert main([*argv, "--out", str(out)]) == 1
        assert f"error: {config_path}: {message}\n" in capsys.readouterr().err
        assert backends == []  # refused before the gate is built
        assert not out.exists()


    def test_model_names_one_directory_inside_out(self, tmp_path, capsys):
        """Each sweep_k<K>_<model>/ is one path component inside --out, the
        model escaped as an audit file name is: a "/" or "../" in a model
        nests no directory and writes nothing outside --out."""
        clean = write_dataset(tmp_path, base_samples()[:1], name="clean.jsonl")
        rules = [
            {"purpose": "inject", "responses": [f"a {TAG}blue{END} car parked near the gate."]},
            {"purpose": "detect", "responses": ["No issues found."]},
            {"purpose": "evaluate", "responses": ["a blue car parked near the gate."] * 2},
        ]
        out = tmp_path / "run" / "out"
        argv = ["sweep", "--dataset", str(clean), "--script", str(write_script(tmp_path, rules))]
        argv += ["--rounds", "0", "--models", "org/model,a/../../escaped", "--out", str(out)]
        assert main(argv) == 0
        dirs = ["sweep_k0_a%2F..%2F..%2Fescaped", "sweep_k0_org%2Fmodel"]
        want = sorted([*dirs, "sweep.json", "sweep_k0.jsonl"])
        assert sorted(p.name for p in out.iterdir()) == want
        for name in dirs:
            files = sorted(p.name for p in (out / name).iterdir())
            assert files == ["report.json", "report.txt", "transcripts.jsonl"]
        assert sorted(p.name for p in (tmp_path / "run").iterdir()) == ["out"]
        rows = json.loads((out / "sweep.json").read_text())
        assert [r["model"] for r in rows] == ["org/model", "a/../../escaped"]

    @pytest.mark.parametrize("too_long", ["x" * 300, "é" * 50], ids=["ascii", "escaped"])
    def test_too_long_model_directory_name_exits_before_any_model_call(
        self, tmp_path, capsys, backends, too_long
    ):
        """A model whose escaped directory name is longer than the file
        system allows exits 1 naming models and the model, with no model
        call and no file under --out."""
        clean = write_dataset(tmp_path, base_samples(), name="clean.jsonl")
        out = tmp_path / "out"
        argv = ["sweep", "--dataset", str(clean), "--script", str(inject_script(tmp_path))]
        argv += ["--rounds", "0,1", "--models", f"a,{too_long}", "--out", str(out)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: models: {too_long!r} needs a file name of ")
        (backend,) = backends
        assert backend.requests == []
        assert list(out.iterdir()) == []


class TestSweepAndReport:
    def test_sweep_table_and_file(self, tmp_path, capsys):
        clean = write_dataset(
            tmp_path,
            [
                BenchmarkSample(
                    id="c1",
                    image="",
                    domain="nature",
                    caption="a red car parked near the gate.",
                    gold_spans=[],
                )
            ],
            name="clean.jsonl",
        )
        rules = [
            {
                "purpose": "inject",
                "responses": [f"a {TAG}blue{END} car parked near the gate.\nLABELS: color"] * 8,
            },
            {"purpose": "detect", "responses": ["No issues found."] * 8},
            {
                "purpose": "evaluate",
                "responses": [f"a {TAG}blue{END} car parked near the gate."] * 8,
            },
        ]
        script = write_script(tmp_path, rules)
        out = tmp_path / "sweep_out"
        code = main(
            [
                "sweep",
                "--dataset", str(clean),
                "--models", "locator",
                "--rounds", "0,1",
                "--script", str(script),
                "--no-include-image",
                "--out", str(out),
            ]
        )
        assert code == 0
        rows = json.loads((out / "sweep.json").read_text())
        assert [(r["model"], r["rounds"]) for r in rows] == [("locator", 0), ("locator", 1)]
        assert all(r["f1"] == 1.0 for r in rows)
        table = capsys.readouterr().out
        assert "locator" in table

    def test_sweep_skips_a_sample_that_cannot_be_injected(self, tmp_path, capsys):
        captions = {
            "c1": "a red car parked near the gate.",
            "c2": "the button is green.",
            "c3": "values rose in march.",
        }
        clean = write_dataset(
            tmp_path,
            [
                BenchmarkSample(id=i, image="", domain="nature", caption=c, gold_spans=[])
                for i, c in captions.items()
            ],
            name="clean.jsonl",
        )
        injected = {
            "c1": f"a {TAG}blue{END} car parked near the gate.",
            # rewrites untagged text next to its tag, so it cannot be salvaged
            "c2": f"the {TAG}red{END} switch is green.",
            "c3": f"values {TAG}fell{END} in march.",
        }
        rules = [
            {"purpose": "inject", "contains": captions[i], "responses": [reply] * 8}
            for i, reply in injected.items()
        ]
        rules.append({"purpose": "detect", "responses": ["No issues found."] * 8})
        rules += [
            {"purpose": "evaluate", "contains": "a blue car", "responses": [injected["c1"]] * 8},
            {"purpose": "evaluate", "contains": "values fell", "responses": [injected["c3"]] * 8},
        ]
        script = write_script(tmp_path, rules)
        out = tmp_path / "sweep_out"
        argv = ["sweep", "--dataset", str(clean), "--models", "locator", "--rounds", "0,1"]
        assert main([*argv, "--script", str(script), "--out", str(out)]) == 0
        for k in (0, 1):
            assert [s.id for s in load_dataset(out / f"sweep_k{k}.jsonl")] == ["c1", "c3"]
        rows = json.loads((out / "sweep.json").read_text())
        assert [(r["rounds"], r["f1"]) for r in rows] == [(0, 1.0), (1, 1.0)]

    def test_sweep_scores_every_k_on_the_samples_injected_at_every_k(self, tmp_path, capsys):
        captions = {
            "c1": "a red car parked near the gate.",
            "c2": "the button is green.",
            "c3": "values rose in march.",
        }
        clean = write_dataset(
            tmp_path,
            [
                BenchmarkSample(id=i, image="", domain="nature", caption=c, gold_spans=[])
                for i, c in captions.items()
            ],
            name="clean.jsonl",
        )
        injected = {
            "c1": f"a {TAG}blue{END} car parked near the gate.",
            "c2": f"the button is {TAG}red{END}.",
            "c3": f"values {TAG}fell{END} in march.",
        }
        rules = [
            {"purpose": "inject", "contains": captions[i], "responses": [reply] * 8}
            for i, reply in injected.items()
        ]
        # no detector reply for c2: it is injected at K=0 and fails at K=1
        rules += [
            {"purpose": "detect", "contains": "a blue car", "responses": ["No issues found."] * 8},
            {"purpose": "detect", "contains": "values fell", "responses": ["No issues found."] * 8},
        ]
        rules += [
            {"purpose": "evaluate", "contains": "a blue car", "responses": [injected["c1"]] * 8},
            {"purpose": "evaluate", "contains": "values fell", "responses": [injected["c3"]] * 8},
            {"purpose": "evaluate", "contains": "button is red", "responses": ["wrong"] * 8},
        ]
        script = write_script(tmp_path, rules)
        out = tmp_path / "sweep_out"
        argv = ["sweep", "--dataset", str(clean), "--models", "locator", "--rounds", "0,1"]
        assert main([*argv, "--script", str(script), "--out", str(out)]) == 0
        for k in (0, 1):
            assert [s.id for s in load_dataset(out / f"sweep_k{k}.jsonl")] == ["c1", "c3"]
        rows = json.loads((out / "sweep.json").read_text())
        assert [(r["rounds"], r["f1"]) for r in rows] == [(0, 1.0), (1, 1.0)]

    def test_sweep_makes_the_requests_of_one_run_at_the_largest_k(
        self, tmp_path, capsys, monkeypatch
    ):
        """Without a cache, sweep makes the inject and detect requests of one
        inject run at its largest K, in the same order, and that K's dataset
        is the run's dataset. The run repeats no prompt, so sweep's
        in-memory cache answers none of them."""
        replies = {
            "a red car parked near the gate.": (
                f"a {TAG}blue{END} car parked near the {TAG}open{END} gate.\nLABELS: color, scene",
                f"a red car parked near the {TAG}open{END} gate.\nLABELS: scene",
            ),
            "the red button is near the door.": (
                f"the {TAG}blue{END} button is near the door.\nLABELS: color",
                f"the red button is near the {TAG}green{END} door.\nLABELS: color",
            ),
        }
        clean = write_dataset(
            tmp_path,
            [
                BenchmarkSample(id=f"c{i}", image="", domain="nature", caption=c, gold_spans=[])
                for i, c in enumerate(replies)
            ],
            name="clean.jsonl",
        )

        def inject(req):
            first, after_feedback = next(r for c, r in replies.items() if c in req.user)
            return after_feedback if "was caught" in req.user else first

        def detect(req):
            return '"blue" - unlikely color' if "blue" in req.user else "No issues found."

        rules = [
            ScriptRule(purpose="inject", responder=inject),
            ScriptRule(purpose="detect", responder=detect),
            ScriptRule(purpose="evaluate", responder=lambda req: "no tags here."),
        ]
        made = []

        class Responding(ScriptedBackend):
            def __init__(self, _):
                super().__init__(rules)
                made.append(self)

        monkeypatch.setattr(cli, "ScriptedBackend", Responding)
        script = write_script(tmp_path, [])
        argv = ["--dataset", str(clean), "--script", str(script), "--no-include-image"]
        syn, out = tmp_path / "syn.jsonl", tmp_path / "sweep_out"
        assert main(["inject", *argv, "--rounds", "2", "--out", str(syn)]) == 0
        argv += ["--rounds", "0,1,2", "--models", "locator", "--out", str(out)]
        assert main(["sweep", *argv]) == 0
        inject_run, sweep_run = made
        assert [r.purpose for r in inject_run.requests] == ["inject", "detect"] * 4
        assert [r for r in sweep_run.requests if r.purpose != "evaluate"] == inject_run.requests
        assert (out / "sweep_k2.jsonl").read_bytes() == syn.read_bytes()

    def test_sweep_without_cache_asks_each_locator_once_per_prompt(
        self, tmp_path, capsys, monkeypatch
    ):
        """Without --cache, sweep keeps replies in memory: perfbench's
        injector and detector script (seed 1, 40 samples) leave 72 distinct
        captions over K = 0, 1 and 2, so two locators are asked 144 times,
        not 240, as with --cache and with the same rows."""
        gen = perfbench_gen()
        script = gen.InjectScript(1, 40)
        clean = tmp_path / "clean.jsonl"
        header = {
            "format": corpus.FORMAT_NAME,
            "version": corpus.FORMAT_VERSION,
            "tokenizer": corpus.TOKENIZER_VERSION,
        }
        gen.write_jsonl(clean, [header] + script.clean)
        rules = [
            ScriptRule(purpose="inject", responder=lambda r: script.inject_reply(r.user)),
            ScriptRule(purpose="detect", responder=lambda r: script.detect_reply(r.user)),
            ScriptRule(purpose="evaluate", responder=lambda r: gen.caption_after_label(r.user)),
        ]
        made = []

        class Responding(ScriptedBackend):
            def __init__(self, _):
                super().__init__(rules)
                made.append(self)

        monkeypatch.setattr(cli, "ScriptedBackend", Responding)
        argv = ["sweep", "--dataset", str(clean), "--script", str(write_script(tmp_path, []))]
        argv += ["--rounds", "0,1,2", "--models", "a,b", "--no-include-image"]
        assert main([*argv, "--out", str(tmp_path / "plain")]) == 0
        assert main([*argv, "--out", str(tmp_path / "cached"), "--cache", str(tmp_path / "c")]) == 0
        locator_calls = [sum(r.purpose == "evaluate" for r in run.requests) for run in made]
        assert locator_calls == [144, 144]
        assert (tmp_path / "plain" / "sweep.json").read_bytes() == (
            tmp_path / "cached" / "sweep.json"
        ).read_bytes()

    def test_sweep_keeps_the_report_card_evaluate_writes(self, tmp_path, capsys):
        """Each sweep_k<K>_<model>/ holds the report evaluate writes for that
        model on sweep_k<K>.jsonl."""
        rules = [
            {
                "purpose": "inject",
                "contains": "a red car",
                "responses": [f"a {TAG}blue{END} car parked near the gate.\nLABELS: color"] * 4,
            },
            {
                "purpose": "inject",
                "responses": [f"the {TAG}round{END} button is green.\nLABELS: shape"] * 4,
            },
            {"purpose": "detect", "responses": ["No issues found."] * 8},
            {
                "purpose": "evaluate",
                "contains": "a blue car",
                "responses": [f"a blue {TAG}car{END} parked near the gate."] * 4,
            },
            {"purpose": "evaluate", "responses": [f"the {TAG}round{END} button is green."] * 4},
        ]
        clean = write_dataset(
            tmp_path,
            [
                BenchmarkSample(id=f"c{i}", image="", domain=d, caption=c, gold_spans=[])
                for i, (d, c) in enumerate(
                    [("nature", "a red car parked near the gate."), ("gui", "the button is green.")]
                )
            ],
            name="clean.jsonl",
        )
        script = write_script(tmp_path, rules)
        out, direct = tmp_path / "sweep_out", tmp_path / "direct"
        argv = ["--script", str(script), "--no-include-image", "--out"]
        sweep = ["sweep", "--dataset", str(clean), "--rounds", "1", "--models", "locator"]
        assert main([*sweep, *argv, str(out)]) == 0
        dataset = out / "sweep_k1.jsonl"
        evaluate = ["evaluate", "--dataset", str(dataset), "--model", "locator"]
        assert main([*evaluate, "--script", str(script), "--out", str(direct)]) == 0

        def report(directory):
            data = json.loads((directory / "report.json").read_text(encoding="utf-8"))
            return {**data, "generated_at": ""}

        swept = report(out / "sweep_k1_locator")
        assert swept == report(direct)
        assert swept["overall"]["token"]["f1"] == 0.5
        assert (out / "sweep_k1_locator" / "report.txt").read_text() == (
            direct / "report.txt"
        ).read_text()

    def test_report_rerenders_json(self, tmp_path, capsys):
        dataset = write_dataset(tmp_path, base_samples())
        script = write_script(tmp_path, eval_script_rules())
        out = tmp_path / "out"
        main(
            [
                "evaluate",
                "--dataset", str(dataset),
                "--model", "locator",
                "--script", str(script),
                "--out", str(out),
            ]
        )
        evaluate_stdout = capsys.readouterr().out
        assert main(["report", str(out / "report.json")]) == 0
        report_stdout = capsys.readouterr().out
        assert report_stdout == evaluate_stdout


class TestImages:
    """inject, sweep and evaluate find a sample's image by one rule: a
    relative path resolves against --image-root when given, else against
    the working directory."""

    PNG = b"\x89PNG fake"

    @pytest.mark.parametrize("with_root", [True, False], ids=["image_root", "working_dir"])
    @pytest.mark.parametrize("command", ["inject", "sweep", "evaluate"])
    def test_every_request_carries_the_image(
        self, tmp_path, monkeypatch, backends, command, with_root
    ):
        (tmp_path / "img").mkdir()
        (tmp_path / "img" / "c1.png").write_bytes(self.PNG)
        caption = "a red car parked near the gate."
        sample = BenchmarkSample(
            id="c1", image="img/c1.png", domain="nature", caption=caption, gold_spans=[]
        )
        dataset = write_dataset(tmp_path, [sample])
        rules = [
            {"purpose": "inject", "responses": [f"a {TAG}blue{END} car parked near the gate."] * 4},
            {"purpose": "detect", "responses": ["No issues found."] * 4},
            {"purpose": "evaluate", "responses": [caption] * 4},
        ]
        script = write_script(tmp_path, rules)
        out = tmp_path / "out"
        argv, purposes = {
            "inject": (["inject", "--out", str(tmp_path / "syn.jsonl")], {"inject"}),
            "sweep": (
                ["sweep", "--models", "locator", "--rounds", "1", "--out", str(out)],
                {"inject", "evaluate"},
            ),
            "evaluate": (["evaluate", "--model", "locator", "--out", str(out)], {"evaluate"}),
        }[command]
        argv += ["--dataset", str(dataset), "--script", str(script)]
        if with_root:
            argv += ["--image-root", str(tmp_path)]
            monkeypatch.chdir(tmp_path / "img")
        else:
            monkeypatch.chdir(tmp_path)
        assert main(argv) == 0
        (backend,) = backends
        imaged = [r for r in backend.requests if r.purpose != "detect"]  # the detector is text-only
        assert {r.purpose for r in imaged} == purposes
        assert all(r.image is not None and r.image.data == self.PNG for r in imaged)


# (file name, content as text or bytes, argv with {file}/{dataset}/{tmp}
# placeholders, where)
MALFORMED_INPUT_FILES = {
    "annotate_not_utf8": (
        "pairs.jsonl",
        b'{"id": "p1", "caption": "a red car.", "corrected": "a \xff car."}',
        ["annotate", "--pairs", "{file}", "--out", "{tmp}/o.jsonl"],
        ": not UTF-8 text: 'utf-8' codec can't decode byte 0xff",
    ),
    "annotate_nested_too_deeply": (
        "pairs.jsonl",
        "[" * 100_000,
        ["annotate", "--pairs", "{file}", "--out", "{tmp}/o.jsonl"],
        ":1: JSON nested too deeply to decode",
    ),
    "annotate_list_record": (
        "pairs.jsonl",
        '["p1", "a red car.", "a blue car."]',
        ["annotate", "--pairs", "{file}", "--out", "{tmp}/o.jsonl"],
        ":1: record is a JSON array",
    ),
    "annotate_null_caption": (
        "pairs.jsonl",
        '{"id": "p1", "caption": "a red car.", "corrected": "a red car."}\n'
        '{"id": "p2", "caption": null, "corrected": "a"}',
        ["annotate", "--pairs", "{file}", "--out", "{tmp}/o.jsonl"],
        ":2: caption is a JSON null",
    ),
    "annotate_number_corrected": (
        "pairs.jsonl",
        '{"id": "p1", "caption": "a red car.", "corrected": 5}',
        ["annotate", "--pairs", "{file}", "--out", "{tmp}/o.jsonl"],
        ":1: corrected is a JSON number",
    ),
    "config_nested_too_deeply": (
        "config.json",
        "[" * 100_000,
        ["score", "--dataset", "{dataset}", "--transcripts", "t.jsonl", "--config", "{file}"],
        ": JSON nested too deeply to decode",
    ),
    "config_not_an_object": (
        "config.json",
        "[1, 2]",
        ["score", "--dataset", "{dataset}", "--transcripts", "t.jsonl", "--config", "{file}"],
        ": config is a JSON array",
    ),
    **{
        f"config_{key}_{name}": (
            "config.json",
            json.dumps({key: value}),
            {
                "inject": ["inject", "--dataset", "{dataset}", "--out", "{tmp}/o.jsonl"],
                "evaluate": ["evaluate", "--dataset", "{dataset}"],
                "score": ["score", "--dataset", "{dataset}", "--transcripts", "t.jsonl"],
            }[command]
            + ["--config", "{file}"],
            f": {key} is a JSON {kind}, expected {expected}",
        )
        for command, key, name, value, kind, expected in [
            ("inject", "rounds", "array", [1], "array", "int"),
            ("inject", "rounds", "null", None, "null", "int"),
            ("evaluate", "width", "null", None, "null", "int"),
            ("score", "strict", "string", "false", "string", "bool"),
            ("inject", "include_image", "string", "false", "string", "bool"),
            ("inject", "max_spans", "fraction", 2.7, "number", "int"),
            ("inject", "dimensions", "string", "color", "string", "array of strings"),
            ("score", "model", "number", 5, "number", "string or null"),
        ]
    },
    "transcript_not_utf8": (
        "t.jsonl",
        b'{"id": "s1", "output": "a red\xff car parked near the gate."}',
        ["score", "--dataset", "{dataset}", "--transcripts", "{file}"],
        ": not UTF-8 text: 'utf-8' codec can't decode byte 0xff",
    ),
    "transcript_nested_too_deeply": (
        "t.jsonl",
        '{"id": "s1", "output": "a red car parked near the gate."}\n' + "[" * 100_000,
        ["score", "--dataset", "{dataset}", "--transcripts", "{file}"],
        ":2: bad transcript line: JSON nested too deeply to decode",
    ),
    "transcript_line_not_an_object": (
        "t.jsonl",
        '["s1", "a red car"]',
        ["score", "--dataset", "{dataset}", "--transcripts", "{file}"],
        ":1: bad transcript line: is a JSON array",
    ),
    "transcript_number_output": (
        "t.jsonl",
        '{"id": "s1", "output": "a red car parked near the gate."}\n{"id": "s2", "output": 5}',
        ["score", "--dataset", "{dataset}", "--transcripts", "{file}"],
        ":2: bad transcript line: output is a JSON number",
    ),
    "transcript_lone_surrogate": (
        "t.jsonl",
        '{"id": "s1", "output": "a red car parked near the gate.\\ud800"}',
        ["score", "--dataset", "{dataset}", "--transcripts", "{file}"],
        ":1: bad transcript line: output holds a lone surrogate",
    ),
    "dataset_nested_too_deeply": (
        "d.jsonl",
        '{"format": "dvb-jsonl", "version": 1, "tokenizer": "dvb-tok/1"}\n' + "[" * 100_000,
        ["validate", "{file}"],
        ":2: unparseable record: JSON nested too deeply to decode",
    ),
    "dataset_lone_surrogate": (
        "d.jsonl",
        '{"format": "dvb-jsonl", "version": 1, "tokenizer": "dvb-tok/1"}\n'
        '{"id": "s1", "domain": "nature", "caption": "A red car.\\ud800"}',
        ["validate", "{file}"],
        ":2: caption holds a lone surrogate",
    ),
    "dataset_empty_file": ("d.jsonl", "", ["validate", "{file}"], ": empty file"),
    "dataset_unparseable_header": (
        "d.jsonl", "{format: dvb-jsonl}\n", ["validate", "{file}"], ":1: unparseable header"
    ),
    "dataset_unsupported_version": (
        "d.jsonl",
        '{"format": "dvb-jsonl", "version": 2, "tokenizer": "dvb-tok/1"}\n',
        ["validate", "{file}"],
        ":1: unsupported format version 2",
    ),
    "dataset_empty_id": (
        "d.jsonl",
        '{"format": "dvb-jsonl", "version": 1, "tokenizer": "dvb-tok/1"}\n'
        '{"id": "", "domain": "nature", "caption": "A red car."}',
        ["validate", "{file}"],
        ":2: invalid sample: sample '': id: empty id",
    ),
    "dataset_unknown_variant": (
        "d.jsonl",
        '{"format": "dvb-jsonl", "version": 1, "tokenizer": "dvb-tok/1"}\n'
        '{"id": "s1", "domain": "nature", "caption": "A red car.", "variant": "mixed"}',
        ["validate", "{file}"],
        ":2: invalid sample: sample 's1': variant: unknown variant 'mixed'",
    ),
    "annotate_unknown_label": (
        "pairs.jsonl",
        '{"id": "p1", "caption": "a blue car.", "corrected": "a red car.", "labels": ["hue"]}',
        ["annotate", "--pairs", "{file}", "--out", "{tmp}/o.jsonl"],
        ":1: label_spans: unknown label 'hue'",
    ),
    "script_not_an_array": (
        "script.json",
        '{"purpose": "evaluate"}',
        ["evaluate", "--dataset", "{dataset}", "--model", "m", "--script", "{file}"],
        ": script is a JSON object, expected an array of rules",
    ),
    "script_responses_not_strings": (
        "script.json",
        '[{"purpose": "evaluate", "responses": ["a red car.", 3]}]',
        ["evaluate", "--dataset", "{dataset}", "--model", "m", "--script", "{file}"],
        ": rule 0: responses is not an array of strings",
    ),
    "script_rule_not_an_object": (
        "script.json",
        '[{"purpose": "evaluate"}, 3]',
        ["evaluate", "--dataset", "{dataset}", "--model", "m", "--script", "{file}"],
        ": rule 1: is a JSON number",
    ),
    "report_row_without_domain": (
        "report.json",
        '{"samples": [{"id": "a"}]}',
        ["report", "{file}"],
        ": malformed report: KeyError",
    ),
    "report_not_an_object": ("report.json", "[1]", ["report", "{file}"], ": malformed report"),
    "report_nested_too_deeply": (
        "report.json", "[" * 100_000, ["report", "{file}"], ": JSON nested too deeply to decode"
    ),
    "report_rows_not_a_list": (
        "report.json", '{"samples": 3}', ["report", "{file}"], ": malformed report: TypeError"
    ),
}


def scored_report(tmp_path) -> dict:
    """The report.json score writes for base_samples(), each output a copy
    of its caption."""
    dataset = write_dataset(tmp_path, base_samples())
    transcripts = tmp_path / "t.jsonl"
    lines = [json.dumps({"id": s.id, "output": s.caption}) for s in base_samples()]
    transcripts.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "scored"
    argv = ["score", "--dataset", str(dataset), "--transcripts", str(transcripts)]
    assert main([*argv, "--out", str(out)]) == 0
    return json.loads((out / "report.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize(
    "path, value, message",
    [
        (("samples", 0, "faithful"), "no", "sample row 0: faithful is 'no', not a boolean"),
        (("samples", 0, "faithful"), 1, "sample row 0: faithful is 1, not a boolean"),
        (
            ("samples", 0, "dimensions", "color"),
            {"hit": 5, "total": 2},
            "sample row 0: dimensions/color: hit exceeds total",
        ),
        (
            ("samples", 0, "dimensions", "color"),
            {"hit": -1, "total": 1},
            "sample row 0: dimensions/color: negative count",
        ),
        (
            ("samples", 0, "dimensions", "color"),
            {"hit": 1.0, "total": 1},
            "sample row 0: dimensions/color: count 1.0 is not an integer",
        ),
        (
            ("samples", 0, "token", "intersection"),
            True,
            "sample row 0: token: count True is not an integer",
        ),
        (
            ("samples", 1, "sentence", "predicted"),
            2.5,
            "sample row 1: sentence: count 2.5 is not an integer",
        ),
        (
            ("samples", 0, "token"),
            {"intersection": 0, "predicted": 0},
            "sample row 0: token: not an object of exactly intersection, predicted, gold",
        ),
        (
            ("samples", 1, "sentence"),
            {"intersection": 0, "predicted": 0, "gold": 0, "extra": 0},
            "sample row 1: sentence: not an object of exactly intersection, predicted, gold",
        ),
        (
            ("samples", 0, "dimensions", "color"),
            [1, 1],
            "sample row 0: dimensions/color: not an object of exactly hit, total",
        ),
        (
            ("samples", 0, "token", "intersection"),
            2,
            "sample row 0: token: intersection exceeds predicted or gold",
        ),
        (("samples", 1, "domain"), None, "sample row 1: id or domain is not a string"),
        (("coverage",), float("nan"), "coverage has the wrong type"),
        (("coverage",), float("-inf"), "coverage has the wrong type"),
        (("coverage",), 5.0, "coverage has the wrong type"),
    ],
    ids=[
        "faithful_string",
        "faithful_number",
        "hit_above_total",
        "negative_hit",
        "fractional_hit",
        "boolean_intersection",
        "fractional_predicted",
        "missing_count_key",
        "extra_count_key",
        "count_list",
        "intersection_above_a_side",
        "null_domain",
        "nan_coverage",
        "infinite_coverage",
        "coverage_above_one",
    ],
)
def test_report_with_a_malformed_value_exits_1(tmp_path, capsys, path, value, message):
    """report refuses a row value that no score writes, and a coverage that
    is not a number in [0, 1], naming the file, rather than render a table."""
    report = scored_report(tmp_path)
    *parents, last = path
    target = report
    for key in parents:
        target = target[key]
    target[last] = value
    file = tmp_path / "report.json"
    # json.dumps writes NaN and Infinity, which json.loads reads back
    file.write_text(json.dumps(report), encoding="utf-8")
    capsys.readouterr()
    assert main(["report", str(file)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {file}: ") and message in captured.err


@pytest.mark.parametrize("case", sorted(MALFORMED_INPUT_FILES))
def test_malformed_input_file_exits_1(tmp_path, capsys, case):
    name, content, argv, where = MALFORMED_INPUT_FILES[case]
    path = tmp_path / name
    path.write_bytes(content if isinstance(content, bytes) else content.encode("utf-8"))
    dataset = write_dataset(tmp_path, base_samples())
    argv = [a.format(file=path, dataset=dataset, tmp=tmp_path) for a in argv]
    assert main(argv) == 1
    assert f"error: {path}{where}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, message",
    [
        ("score", "error: score_outputs: no samples could be scored"),
        ("inject", "error: the dataset holds no samples"),
        ("evaluate", "error: the dataset holds no samples"),
        ("sweep", "error: the dataset holds no samples"),
    ],
)
def test_run_with_no_sample_to_work_on_exits_1(tmp_path, capsys, backends, command, message):
    """score with transcripts that name no sample of the dataset, and
    inject, evaluate and sweep on a dataset of a header alone."""
    if command == "score":
        dataset = write_dataset(tmp_path, base_samples())
        transcripts = tmp_path / "t.jsonl"
        transcripts.write_text('{"id": "elsewhere", "output": "a red car."}\n', encoding="utf-8")
        argv = ["score", "--dataset", str(dataset), "--transcripts", str(transcripts)]
    else:
        dataset = write_dataset(tmp_path, [])
        script = write_script(tmp_path, [])
        argv = [command, "--dataset", str(dataset), "--script", str(script)]
        argv += {"inject": [], "evaluate": ["--model", "m"], "sweep": ["--models", "m"]}[command]
    assert main([*argv, "--out", str(tmp_path / "out")]) == 1
    assert message in capsys.readouterr().err
    assert all(backend.requests == [] for backend in backends)


class TestCorrelate:
    def write_report(self, tmp_path, name, model, intersection, predicted, gold):
        path = tmp_path / name
        path.write_text(json.dumps(report_dict(model, intersection, predicted, gold)))
        return path

    def test_correlate_outputs_rho(self, tmp_path, capsys):
        r1 = self.write_report(tmp_path, "r1.json", "a", 1, 10, 5)
        r2 = self.write_report(tmp_path, "r2.json", "b", 8, 10, 9)
        s1 = self.write_report(tmp_path, "s1.json", "a", 3, 15, 5)
        s2 = self.write_report(tmp_path, "s2.json", "b", 9, 10, 18)
        code = main(
            ["correlate", "--real", f"{r1},{r2}", "--synthetic", f"{s1},{s2}"]
        )
        assert code == 0
        rho = json.loads(capsys.readouterr().out)
        assert rho == {"p": 1.0, "r": -1.0, "f1": 1.0}

    def test_model_mismatch_exits_1(self, tmp_path, capsys):
        r1 = self.write_report(tmp_path, "r1.json", "a", 1, 10, 5)
        r2 = self.write_report(tmp_path, "r2.json", "b", 8, 10, 9)
        s1 = self.write_report(tmp_path, "s1.json", "a", 3, 15, 5)
        s2 = self.write_report(tmp_path, "s2.json", "c", 9, 10, 18)
        code = main(
            ["correlate", "--real", f"{r1},{r2}", "--synthetic", f"{s1},{s2}"]
        )
        assert code == 1

    def test_report_without_rows_exits_1(self, tmp_path, capsys):
        r1 = self.write_report(tmp_path, "r1.json", "a", 1, 10, 5)
        r2 = self.write_report(tmp_path, "r2.json", "b", 8, 10, 9)
        s1 = self.write_report(tmp_path, "s1.json", "a", 3, 15, 5)
        s2 = tmp_path / "s2.json"
        s2.write_text(json.dumps({"model": "b", "overall": {"token": {"p": 1, "r": 1, "f1": 1}}}))
        code = main(
            ["correlate", "--real", f"{r1},{r2}", "--synthetic", f"{s1},{s2}"]
        )
        assert code == 1
        assert "synthetic report 2: malformed report: KeyError: 'samples'" in capsys.readouterr().err

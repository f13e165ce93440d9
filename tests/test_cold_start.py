"""Only --base-url loads the HTTP stack: importing the CLI, and the offline
and --script commands, never import requests. Each test runs a fresh
interpreter, since this test process has imported requests already."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from caploc.corpus import BenchmarkSample, save_dataset
from caploc.fixtures import build_fixture

SRC = Path(__file__).resolve().parents[1] / "src"
HTTP_STACK = ("requests", "urllib3", "http.client", "ssl", "socket")


def run_python(code: str, cwd: Path) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )


def http_modules(names) -> list[str]:
    return sorted(
        m for m in names if m in HTTP_STACK or m.split(".")[0] in ("requests", "urllib3")
    )


def test_importing_the_cli_loads_no_http_stack(tmp_path):
    # the baseline is what the bare interpreter holds after site, which may
    # import packages of its own (certifi, say)
    code = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "import caploc.cli\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"
    )
    proc = run_python(code, tmp_path)
    assert proc.returncode == 0, proc.stderr
    added = json.loads(proc.stdout.splitlines()[-1])
    assert "caploc.modelgate" in added
    assert http_modules(added) == []


def test_offline_and_scripted_commands_run_with_requests_blocked(tmp_path):
    dataset = tmp_path / "data.jsonl"
    samples = build_fixture()[::200]
    save_dataset(samples, dataset)
    transcripts = tmp_path / "t.jsonl"
    transcripts.write_text(
        "".join(json.dumps({"id": s.id, "output": s.caption}) + "\n" for s in samples),
        encoding="utf-8",
    )
    clean = tmp_path / "clean.jsonl"
    caption = "a red car parked near the gate."
    save_dataset([BenchmarkSample(id="c1", image="", domain="nature", caption=caption)], clean)
    script = tmp_path / "script.json"
    script.write_text(
        json.dumps(
            [
                {
                    "purpose": "inject",
                    "responses": ["a <HALLUCINATION>blue</HALLUCINATION> car parked near the gate.\nLABELS: color"],
                },
                {"purpose": "detect", "responses": ["No issues found."]},
            ]
        ),
        encoding="utf-8",
    )
    argvs = [
        ["validate", str(dataset)],
        ["score", "--dataset", str(dataset), "--transcripts", str(transcripts), "--out", "out"],
        ["inject", "--dataset", str(clean), "--script", str(script), "--rounds", "1", "--out", "syn.jsonl"],
    ]
    code = (
        "import json, sys\n"
        "sys.modules['requests'] = None\n"
        "from caploc.cli import main\n"
        f"codes = [main(argv) for argv in {argvs!r}]\n"
        "print(json.dumps({'codes': codes, 'modules': sorted(sys.modules)}))\n"
    )
    proc = run_python(code, tmp_path)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["codes"] == [0, 0, 0], proc.stderr
    assert http_modules(result["modules"]) == ["requests"]  # only the block itself
    assert "wrote 1 synthetic samples" in proc.stdout
    assert (tmp_path / "out" / "report.json").is_file()

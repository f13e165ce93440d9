"""Run one benchmark workload for one seed and print its metrics.

    python3 perfbench/run.py --workload score_faithful --seed 1 --seconds 50 --trace 0

With --trace 0 the last line of stdout is a JSON object holding every
end-to-end metric; with --trace 1 it holds every per-layer metric, taken
from traced passes that alternate with untraced ones (see README.md). Each
metric's unit is the one BENCHMARK.json, at the repository root, declares. The exit
status is 0 when every output check passed, 1 when one failed, and 2 when
the program's source tree (src/caploc next to this directory) is missing.

Everything the run writes stays inside the checkout: inputs and program
outputs go to a scratch directory under .perfbench_work/, which is deleted
at the end, and span traces go to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = workloads.ROOT
SETUP_REPEATS = 20
SETUP_TIMEOUT_S = 120


def declared_units() -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def timed_passes(wl: workloads.Workload, seconds: float, min_passes: int, results: list) -> list[float]:
    """Run and check passes until `seconds` have passed and at least
    min_passes ran; return the wall time of each pass. Checks run between
    passes, outside the timed region."""
    times: list[float] = []
    deadline = time.perf_counter() + seconds
    while len(times) < min_passes or time.perf_counter() < deadline:
        gc.collect()
        if wl.tracer is not None:
            wl.tracer.new_pass()
        start = time.perf_counter()
        result = wl.run_pass()
        times.append(time.perf_counter() - start)
        wl.check(result)
        result.output = None
        results.append(result)
    return times


def setup_once(name: str, seed: int, workdir: Path) -> float:
    """Set the workload up in a fresh interpreter and return the seconds taken."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_once.py"), name, str(seed), str(workdir)],
        capture_output=True,
        text=True,
        timeout=SETUP_TIMEOUT_S,
        cwd=ROOT,
    )
    if proc.returncode != 0:
        raise workloads.CheckError(f"set-up failed:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def measure(wl: workloads.Workload, seed: int, workdir: Path, seconds: float, results: list):
    """SETUP_REPEATS rounds of one fresh-interpreter set-up followed by
    timed passes, so that set-ups and passes are both sampled across the
    whole run. Round i runs passes until i+1 shares of `seconds` of pass time
    have been timed, so one round's overrun shortens the next. Returns
    (pass times, set-up times)."""
    times: list[float] = []
    setups: list[float] = []
    min_passes = -(-wl.min_passes // SETUP_REPEATS)
    for i in range(SETUP_REPEATS):
        setups.append(setup_once(wl.name, seed, workdir))
        target = seconds * (i + 1) / SETUP_REPEATS
        times += timed_passes(wl, target - sum(times), min_passes, results)
    return times, setups


def sample_ms(results: list) -> list[float]:
    return [lat * 1000 for r in results for lat in r.latencies]


def end_to_end(times: list[float], results: list, setups: list[float]) -> dict[str, float]:
    return {
        "samples_per_s": sum(r.samples for r in results) / sum(times),
        "sample_p90_ms": tracing.quantile(sample_ms(results), 90),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(wl, name: str, seed: int, seconds: float, results: list) -> dict[str, float]:
    """Alternate untraced and traced passes for `seconds`, so that both kinds
    see the same machine conditions, and build per-layer metrics from the
    traced ones."""
    tracer = tracing.Tracer(wl.ids_by_caption())
    untraced: list[float] = []
    traced: list[float] = []
    traced_results: list = []
    deadline = time.perf_counter() + seconds
    while len(traced) < 2 or time.perf_counter() < deadline:
        untraced += timed_passes(wl, 0, 1, results)
        wl.tracer = tracer
        try:
            with tracer:
                traced += timed_passes(wl, 0, 1, traced_results)
        finally:
            wl.tracer = None
    overhead = statistics.median(traced) / statistics.median(untraced) - 1
    metrics = tracing.layer_metrics(tracer.spans, sum(r.samples for r in traced_results), overhead)
    metrics["sample_p50_ms"] = statistics.median(sample_ms(results))
    results += traced_results
    attempted = sum(r.samples for r in results)
    metrics["backend_calls_per_sample"] = sum(r.backend_calls for r in results) / attempted
    metrics["failed_fraction"] = sum(r.failed for r in results) / attempted
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"trace-{name}-seed{seed}.jsonl")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not workloads.program_available():
        print(f"error: no program source at {workloads.SRC / 'caploc'}", file=sys.stderr)
        return 2

    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    results: list = []
    metrics: dict[str, float] = {}
    correct = True
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        wl.write_inputs()
        wl.setup()
        if args.trace:
            metrics = per_layer(wl, args.workload, args.seed, args.seconds, results)
        else:
            times, setups = measure(wl, args.seed, workdir, args.seconds, results)
            metrics = end_to_end(times, results, setups)
            print(
                f"{args.workload} seed {args.seed}: {len(times)} passes of "
                f"{results[0].samples} samples, {sum(len(r.latencies) for r in results)} "
                f"per-sample latencies, {len(setups)} set-ups"
            )
    except workloads.CheckError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        correct = False
        metrics = {}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = declared_units()
    result = {
        "correct": correct,
        "attempted": max(1, sum(r.samples for r in results)),
        "failed": sum(r.failed for r in results),
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

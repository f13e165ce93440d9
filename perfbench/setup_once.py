"""Time one set-up of a workload in a fresh interpreter, so that the import of
caploc is cold. Prints the seconds as JSON on the last line.

    python3 perfbench/setup_once.py WORKLOAD SEED WORKDIR

WORKDIR must hold the inputs run.py wrote for that workload and seed.
Interpreter start-up is not counted: the clock starts after this script's
own stdlib imports and input loading.
"""

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402


def main(argv: list[str]) -> int:
    name, seed, workdir = argv
    wl = workloads.WORKLOADS[name](int(seed), workdir)
    wl.load_inputs()
    start = time.perf_counter()
    wl.setup()
    elapsed = time.perf_counter() - start
    wl.cleanup_setup()
    print(json.dumps({"setup_s": elapsed}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

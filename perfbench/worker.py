"""One pass of a workload in a fresh interpreter.

The homology and linear-resolution memos are process-global and grow for
the life of the process, and a command-line user pays for them cold on
every call; so each pass gets its own interpreter.  The pass prints one
JSON object on its last stdout line.

    PYTHONPATH=src python3 perfbench/worker.py --workload betti-qq --seed 1 \
        --tmpdir DIR [--trace] [--setup-only] [--reduced]
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))

from reference import reference_s  # noqa: E402
from workloads import build_calls  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--tmpdir", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--reduced", action="store_true")
    args = parser.parse_args()

    # set-up: importing the library and generating the inputs
    calls = build_calls(args.workload, args.seed, args.reduced)
    setup_s = time.perf_counter() - _START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "reference_s": [reference_s()]}))
        return

    tracer = None
    if args.trace:
        from layertrace import LayerTrace

        tracer = LayerTrace()
        tracer.install()

    reference = [reference_s()]
    commands = []
    graphs = 0
    for call in calls:
        start = time.perf_counter()
        try:
            result = call.run(args.tmpdir)
        except Exception:
            elapsed = time.perf_counter() - start
            traceback.print_exc()
            commands.append({"label": call.label, "s": elapsed, "digest": "",
                             "problems": ["raised"]})
            continue
        elapsed = time.perf_counter() - start
        digest, problems, count = call.check(result)
        graphs += count
        commands.append({"label": call.label, "s": elapsed, "digest": digest,
                         "problems": problems})
    # program time only: the output checks are left out
    wall_s = sum(c["s"] for c in commands)
    reference.append(reference_s())

    out = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "graphs": graphs,
        "commands": commands,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "reference_s": reference,
    }
    if tracer is not None:
        out["layers"] = tracer.metrics(max(graphs, 1))
    print(json.dumps(out))


if __name__ == "__main__":
    main()

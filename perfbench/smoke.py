"""Smoke test of the benchmark itself, on reduced inputs.

    python3 perfbench/smoke.py

Runs every workload for one second on small inputs, untraced and traced,
and checks that the last output line is the result object, that the run
is correct, and that it reports exactly the metrics of ``BENCHMARK.json``
with their units.  Then checks that a directory holding only the
benchmark makes the run fail without printing a result.  Exits 0 when all
checks pass.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--reduced"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def check_result(spec: dict, workload: str, trace: int) -> list[str]:
    proc = run(ROOT, workload, trace)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"{where}: correct={result['correct']} failed={result['failed']} "
                        f"attempted={result['attempted']}")
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        problems.append(f"{where}: metrics and units {got} != {expected}")
    for name, m in result["metrics"].items():
        value = m["value"]
        if not isinstance(value, (int, float)) or not math.isfinite(value) or value < 0:
            problems.append(f"{where}: {name} = {value!r}")
        elif not trace and value == 0:
            problems.append(f"{where}: end-to-end metric {name} is 0")
    return problems


def check_refuses_without_sources() -> list[str]:
    """A directory with only BENCHMARK.json and the benchmark must fail."""
    bare = Path(tempfile.mkdtemp(prefix=".perfbench-smoke-", dir=ROOT))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, WORKLOADS[0], 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return ["a run without the library's sources did not fail"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            problems += check_result(spec, workload, trace)
    problems += check_refuses_without_sources()
    for p in problems:
        print("FAIL", p)
    print("smoke:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

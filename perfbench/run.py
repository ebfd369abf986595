"""Run one workload of the compedge benchmark and print its metrics.

    python3 perfbench/run.py --workload sweep-n5 --seed 1 --seconds 35 --trace 0

Run from the root of a checkout.  The run first sets up several times in
fresh interpreters, then runs whole passes of the workload, each in a
fresh interpreter with one worker, one after the other (a closed loop with
one caller), until ``--seconds`` have passed.  Every output is checked.
With ``--trace 1`` untraced and traced passes alternate, and the traced
ones give the per-layer metrics.  End-to-end timings are scaled to a
nominal machine speed measured by a fixed reference kernel in the same
run.  One line per metric, with its unit, is printed, and the last line is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The metric names and units
come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 5
# End-to-end timings are scaled to a machine on which the reference kernel
# (reference.py) takes this long; see scale_to_nominal.
NOMINAL_REFERENCE_S = 0.2
# a run must end within 180 s; no pass starts that could cross this
RUN_BUDGET_S = 170.0


def run_child(args, tmpdir: Path, extra: list[str], timeout: float) -> dict | None:
    """One fresh-interpreter worker; its last stdout line, or None on failure."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--tmpdir", str(tmpdir), *extra]
    if args.reduced:
        cmd.append("--reduced")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired as exc:
        sys.stderr.write(f"pass timed out after {exc.timeout:.0f} s\n")
        return None
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(f"worker exited with code {proc.returncode}\n")
        return None
    return json.loads(lines[-1])


def end_to_end(probes: list[float], passes: list[dict]) -> dict[str, float]:
    """Medians over the passes: on a shared machine contention only ever
    adds time, in bursts, and a median ignores a burst that a mean takes in."""
    per_command_s = [statistics.median(p["commands"][k]["s"] for p in passes)
                     for k in range(len(passes[0]["commands"]))]
    return {
        "setup_s": statistics.median(probes + [p["setup_s"] for p in passes]),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "graphs_per_s": statistics.median(p["graphs"] / p["wall_s"] for p in passes),
        "cmd_p50_ms": statistics.median(per_command_s) * 1e3,
        "cmd_max_ms": max(per_command_s) * 1e3,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }


def per_layer(plain: list[dict], traced: list[dict]) -> dict[str, float]:
    out = {name: statistics.median(p["layers"][name] for p in traced)
           for name in traced[0]["layers"]}
    out["trace.overhead_ratio"] = (statistics.median(p["wall_s"] for p in traced)
                                   / statistics.median(p["wall_s"] for p in plain))
    return out


def scale_to_nominal(values: dict, units: dict, slowdown: float) -> dict:
    """Divide times, and multiply rates, by the run's slowdown: the median
    time of the reference kernel over its nominal time.

    The reference machine is shared, and its speed drifts by a third over
    minutes; the kernel runs before and after every pass and in every
    set-up probe, so the run's slowdown is measured alongside the program.
    """
    factor = {"s": 1 / slowdown, "ms": 1 / slowdown, "1/s": slowdown}
    return {name: v * factor.get(units[name], 1.0) for name, v in values.items()}


def check_outputs(passes: list[dict]) -> tuple[int, int, bool]:
    """Attempted and failed commands, and whether every pass gave the same
    output digests (traced passes included)."""
    attempted = failed = 0
    for p in passes:
        for c in p["commands"]:
            attempted += 1
            if c["problems"]:
                failed += 1
                sys.stderr.write(f"FAILED {c['label']}: {'; '.join(c['problems'])}\n")
    digests = {tuple(c["digest"] for c in p["commands"]) for p in passes}
    if len(digests) > 1:
        sys.stderr.write("output digests differ between passes\n")
    return attempted, failed, len(digests) == 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reduced", action="store_true",
                        help="small inputs, for the smoke test")
    args = parser.parse_args()

    if not (ROOT / "src" / "compedge" / "__init__.py").is_file():
        sys.stderr.write(f"error: no compedge sources under {ROOT / 'src'}\n")
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}

    started = time.monotonic()
    tmpdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        probes = []
        refs: list[float] = []
        for _ in range(SETUP_PROBES):
            result = run_child(args, tmpdir, ["--setup-only"], RUN_BUDGET_S)
            if result is None:
                return 2
            probes.append(result["setup_s"])
            refs += result["reference_s"]
        plain: list[dict] = []
        traced: list[dict] = []
        kinds = [([], plain), (["--trace"], traced)] if args.trace else [([], plain)]
        lost = 0
        last_s = [0.0] * len(kinds)
        deadline = min(time.monotonic() + args.seconds, started + RUN_BUDGET_S)
        # whole passes only: none starts that its kind's last pass says would
        # overrun, and each kind runs at least once
        for k in itertools.count():
            now = time.monotonic()
            kind = k % len(kinds)
            if k >= len(kinds) and (now + last_s[kind] > deadline or not (plain or traced)):
                break
            flags, runs = kinds[kind]
            result = run_child(args, tmpdir, flags, started + RUN_BUDGET_S - now)
            last_s[kind] = time.monotonic() - now
            if result is None:
                lost += 1
            else:
                runs.append(result)
                refs += result["reference_s"]
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)

    if not plain or (args.trace and not traced):
        sys.stderr.write("error: no pass completed\n")
        return 2
    attempted, failed, same_digests = check_outputs(plain + traced)
    # a pass that crashed counts all its commands as failed
    failed += lost * len(plain[0]["commands"])
    attempted += lost * len(plain[0]["commands"])
    measured = per_layer(plain, traced) if args.trace else end_to_end(probes, plain)
    slowdown = statistics.median(refs) / NOMINAL_REFERENCE_S
    values = measured if args.trace else scale_to_nominal(measured, units, slowdown)
    if set(values) != set(units):
        sys.stderr.write(f"error: metrics {sorted(set(values) ^ set(units))} "
                         "differ from BENCHMARK.json\n")
        return 2

    print(f"workload {args.workload}, seed {args.seed}: {len(plain)} untraced and "
          f"{len(traced)} traced passes of {len(plain[0]['commands'])} commands; "
          f"{SETUP_PROBES + len(plain)} set-ups")
    if not args.trace:
        print(f"slowdown {slowdown:.4f}: reference kernel median "
              f"{statistics.median(refs):.4f} s over {len(refs)} samples, nominal "
              f"{NOMINAL_REFERENCE_S} s; timings below are scaled to nominal")
    for name in units:
        note = "" if args.trace else f" (measured {measured[name]:.6g})"
        print(f"{name:40s} {values[name]:>14.6g} {units[name]:6s}{note}")
    print(f"outputs {'agree' if same_digests else 'DIFFER'} across passes; "
          f"{failed} of {attempted} commands failed")
    print(json.dumps({
        "correct": failed == 0 and same_digests,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

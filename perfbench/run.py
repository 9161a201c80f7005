"""The bmx benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload search|index|queries --seed N \\
        --seconds S --trace 0|1

Run it from a checkout of the repository: bmx is imported from ./src with
whatever kernel backend imports there, and nothing is built.  Set-up (a
fresh interpreter importing bmx and writing the seeded inputs) is timed
seven times in fresh processes; then one more fresh process runs the
workload (worker.py).  With --trace 0 the result holds the end-to-end
metrics listed in BENCHMARK.json, with --trace 1 the per-layer ones.
The last line of output is the result as JSON.

Exit status: 0 when every answer was right, 1 when an answer was wrong or
the run broke, 2 when the checkout has no bmx sources.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
SETUPS = 7
RUN_LIMIT_S = 170.0  # a run ends within 180 s, builds included


class RunError(Exception):
    pass


def _remaining(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise RunError(f"run exceeded {RUN_LIMIT_S:g} s")
    return left


def _worker_argv(args, tmp: Path) -> list[str]:
    return [sys.executable, str(WORKER), "--workload", args.workload,
            "--seed", str(args.seed), "--tmp", str(tmp)]


def _setup_seconds(args, tmp: Path, deadline: float) -> float:
    """Median wall time of fresh interpreters that import bmx and write the
    workload's inputs."""
    times = []
    for i in range(SETUPS):
        argv = _worker_argv(args, tmp / f"setup-{i}") + ["--setup-only"]
        t0 = time.perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True,
                              timeout=_remaining(deadline))
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RunError(f"set-up failed:\n{proc.stderr}")
    return statistics.median(times)


def _measure(args, tmp: Path, deadline: float) -> dict:
    argv = _worker_argv(args, tmp / "measure") + [
        "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True,
                          timeout=_remaining(deadline))
    if proc.returncode != 0:
        raise RunError(f"worker exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run(args) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    deadline = time.monotonic() + RUN_LIMIT_S
    tmp = ROOT / ".perfbench_tmp" / f"run-{os.getpid()}"
    try:
        setup_s = None if args.trace else _setup_seconds(args, tmp, deadline)
        result = _measure(args, tmp, deadline)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:  # another run still uses it
            pass

    values = dict(result["metrics"])
    if setup_s is not None:
        values["setup_s"] = setup_s
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in listed if m["name"] not in values]
    if missing:
        raise RunError(f"worker did not report {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in listed}

    info = result["info"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"backend {info['backend']}  passes {info['passes']}  "
          f"requests/pass {info['requests_per_pass']}  "
          f"latency limit {info['latency_limit_s']:g} s")
    print(f"attempted {result['attempted']}  failed {result['failed']}  "
          f"(latency percentiles over per-request means)  "
          f"failed per pass {info['failed_by_pass']}")
    for label in ("pass_walls_s", "traced_pass_walls_s"):
        if info[label]:
            print(f"  {label}: " + " ".join(f"{w:.3f}" for w in info[label]))
    for why, n in sorted(info["failures"].items()):
        print(f"  failed x{n}: {why}")
    for why in info["wrong"]:
        print(f"  WRONG: {why}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']} {m['unit']}")
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if result["correct"] else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Run one bmx benchmark workload.")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "bmx" / "cli.py").is_file():
        print(f"error: no bmx sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        return run(args)
    except (RunError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Runs one workload in a fresh interpreter and prints its result as JSON.

    python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1 --tmp DIR
    python3 perfbench/worker.py --setup-only --workload W --seed N --tmp DIR

One closed-loop client sends the workload's requests to ``bmx.cli.run``
in this process, one after another, in passes over the whole stream
while another pass fits in ``--seconds``.  Each pass gets a fresh catalog
directory, used by the requests that name one.  A
request that runs past the workload's latency limit is interrupted with
SIGALRM and counted as failed.  ``--setup-only`` imports bmx and writes
the inputs, then exits: the parent times it as set-up.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import resource
import shutil
import signal
import statistics
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import bmx.cli  # noqa: E402  the import every CLI invocation pays
from bmx import kernels, morphism  # noqa: E402

from tracer import EXACT, Tracer  # noqa: E402
from workloads import CATALOG, WORKLOADS, Workload, generate  # noqa: E402


class RequestTimeout(BaseException):
    """Raised by SIGALRM; a BaseException so no handler in bmx swallows it."""


def _alarm(_signum, _frame):
    raise RequestTimeout


@dataclass
class Outcome:
    latency: float
    answer: dict | None = None  # bmx's JSON output
    failure: str | None = None  # why the request failed
    wrong: str | None = None  # why the answer is wrong


def run_request(req, catalog_dir: str, limit_s: float) -> Outcome:
    argv = [catalog_dir if a == CATALOG else a for a in req.argv]
    argv += ["--format", "json"]
    # each CLI invocation starts with a cold closure-schedule cache
    morphism._schedule_cached.cache_clear()
    out, err = io.StringIO(), io.StringIO()
    rc = None
    error = None
    t0 = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, limit_s)
        try:
            with redirect_stdout(out), redirect_stderr(err):
                rc = bmx.cli.run(argv)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except RequestTimeout:
        error = f"over the {limit_s:g} s limit"
    except Exception as exc:  # a crash is a failed request, not a lost run
        error = f"raised {type(exc).__name__}: {exc}"
    res = Outcome(time.perf_counter() - t0)
    if error is not None:
        res.failure = error
        return res
    if rc not in req.ok_rcs:
        res.failure = f"exit {rc}: {err.getvalue().strip()[:200]}"
        return res
    try:
        answer = json.loads(out.getvalue().strip().splitlines()[-1])
    except (ValueError, IndexError):
        res.wrong = f"unparseable output {out.getvalue()[:200]!r}"
        return res
    res.answer = answer
    return res


class Run:
    """The passes of one run and what they measured."""

    def __init__(self, wl: Workload, tmp: Path):
        self.wl = wl
        self.tmp = tmp
        self.attempted = 0
        self.failed = 0
        self.failed_by_pass: list[int] = []
        self.wrong: list[str] = []
        self.failures: dict[str, int] = {}
        self.latencies: list[list[float]] = [[] for _ in wl.requests]
        self.nodes: dict[int, int] = {}

    def one_pass(self, index: int, tracer: Tracer | None) -> float:
        """Send every request once; return the summed request latency."""
        catalog = self.tmp / f"catalog-{index}"
        catalog.mkdir()
        state: dict = {}
        total = 0.0
        failed_before = self.failed
        for i, req in enumerate(self.wl.requests):
            if tracer is not None:
                tracer.request = f"{index}.{i}"  # pass.request
            res = run_request(req, str(catalog), self.wl.limit_s)
            total += res.latency
            self.latencies[i].append(res.latency)
            self.attempted += 1
            answer = res.answer
            if answer is not None:
                res.wrong = req.check(answer, state)
                if req.kind == "ex" and res.wrong is None:
                    if not answer["certified"]:
                        res.failure = "uncertified within its budget"
                    elif self.nodes.setdefault(i, answer["nodes"]) != answer["nodes"]:
                        res.wrong = (f"search nodes {answer['nodes']} differ "
                                     f"from {self.nodes[i]} on an earlier pass")
            if res.wrong is not None:
                self.wrong.append(f"{req.kind} {req.argv}: {res.wrong}")
                res.failure = "wrong answer"
            if res.failure is not None:
                self.failed += 1
                key = f"{req.kind}: {res.failure}"
                self.failures[key] = self.failures.get(key, 0) + 1
        shutil.rmtree(catalog, ignore_errors=True)
        self.failed_by_pass.append(self.failed - failed_before)
        return total

    def latency_percentile(self, q: float) -> float:
        """Nearest-rank percentile over the requests of the stream, each at
        its mean latency over the passes.  With one value per request the
        percentile lands on the same request whatever the number of
        passes.  The mean uses every sample, where a median of the three
        passes of ``index`` keeps one, so a request that takes seconds
        spreads less from run to run on a machine whose speed wanders."""
        per_request = sorted(statistics.fmean(ls) for ls in self.latencies)
        return per_request[max(0, math.ceil(q * len(per_request)) - 1)]


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def measure(wl: Workload, tmp: Path, seconds: float,
            spans: Path | None) -> dict:
    """Run passes while another one fits in ``seconds``; with ``spans``,
    trace and write the spans there.

    An untraced run makes at least two passes, so every request has two
    samples.  A traced run makes pairs of one untraced and one traced pass,
    in alternating order, and at least two pairs: the overhead is the
    median ratio within a pair, so a drift in machine speed or a first pass
    that warms the interpreter does not read as tracing cost, and the exact
    counters of two traced passes can be compared.
    """
    trace = spans is not None
    run = Run(wl, tmp)
    walls: list[float] = []
    traced_walls: list[float] = []
    layers: list[dict[str, float]] = []
    tracer = Tracer()
    start = time.perf_counter()
    pass_times: list[float] = []

    def one_pass(traced: bool) -> None:
        index = len(pass_times)
        t0 = time.perf_counter()
        if traced:
            tracer.install()
            tracer.start_pass()
            try:
                traced_walls.append(run.one_pass(index, tracer))
            finally:
                tracer.uninstall()
            layers.append(tracer.metrics())
        else:
            walls.append(run.one_pass(index, None))
        pass_times.append(time.perf_counter() - t0)

    step = 2 if trace else 1  # passes per step of the loop below
    while len(pass_times) < 2 * step or (
            time.perf_counter() - start + step * statistics.median(pass_times)
            <= seconds):
        if not trace:
            one_pass(False)
        elif len(walls) % 2 == 0:
            one_pass(False)
            one_pass(True)
        else:
            one_pass(True)
            one_pass(False)

    if trace:
        # counts stay whole numbers: median_low picks one of the values
        metrics = {k: (statistics.median_low if isinstance(v, int)
                       else statistics.median)([m[k] for m in layers])
                   for k, v in layers[0].items()}
        metrics["trace.overhead_frac"] = statistics.median(
            t / p for t, p in zip(traced_walls, walls)) - 1
        for name in EXACT:
            seen = sorted({m[name] for m in layers})
            if len(seen) > 1:
                run.wrong.append(f"{name} differs between passes: {seen}")
        spans.parent.mkdir(exist_ok=True)
        tracer.write(spans)
    else:
        metrics = {
            "wall_s": statistics.fmean(walls),
            "req_p50_ms": run.latency_percentile(0.50) * 1e3,
            "req_p95_ms": run.latency_percentile(0.95) * 1e3,
            "ok_frac": 1 - run.failed / run.attempted,
            "failed_per_pass_plus1": statistics.median(run.failed_by_pass) + 1,
            "peak_rss_mb": _peak_rss_mb(),
        }
    info = {
        "backend": kernels.ACTIVE_BACKEND,
        "passes": len(pass_times),
        "requests_per_pass": len(wl.requests),
        "latency_limit_s": wl.limit_s,
        "pass_walls_s": walls,
        "traced_pass_walls_s": traced_walls,
        "failed_by_pass": run.failed_by_pass,
        "failures": run.failures,
        "wrong": run.wrong[:20],
    }
    return {"correct": not run.wrong, "attempted": run.attempted,
            "failed": run.failed, "metrics": metrics, "info": info}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tmp", type=Path, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    inputs = args.tmp / "inputs"
    inputs.mkdir(parents=True)
    wl = generate(args.workload, args.seed, inputs)
    if args.setup_only:
        return 0
    signal.signal(signal.SIGALRM, _alarm)
    spans = (ROOT / ".perfbench_out" / f"spans-{args.workload}-{args.seed}.jsonl"
             if args.trace else None)
    result = measure(wl, args.tmp, args.seconds, spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

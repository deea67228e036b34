"""g2cubics benchmark: closed-loop workloads driven through `cli.main(argv)`.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the program is imported from its
`src/` directory. One client on one thread runs the workload's blocks until
`--seconds` have passed and the tail percentile has ten answered samples
beyond it.
Every answer is checked. Human-readable lines come first; the last line of
standard output is one JSON object with the metrics.

`--trace 0` reports the end-to-end metrics. `--trace 1` runs every operation
twice, once with the span recorder on and once with it off, checks that both
give the same bytes, and reports calls and self time per layer.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 21
MAX_RUN_S = 120  # a run stops here, set-up samples included, even short of samples


class DeadlineExceeded(BaseException):
    """Raised by the alarm. A BaseException, because `cli.main` turns a
    ValueError into exit code 2 and `run_checks` swallows any Exception, so a
    timeout would otherwise read as an answer."""


def _on_alarm(signum, frame):
    raise DeadlineExceeded()


@dataclass
class Result:
    rc: int | None
    out: str
    err: str
    elapsed_ns: int
    timed_out: bool = False


def call(cli, argv, deadline_s: float | None) -> Result:
    """Run one command in-process with its output captured."""
    out, err = io.StringIO(), io.StringIO()
    rc, timed_out = None, False
    start = time.perf_counter_ns()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                if deadline_s:
                    signal.setitimer(signal.ITIMER_REAL, deadline_s)
                rc = cli.main(list(argv))
            finally:
                if deadline_s:
                    signal.setitimer(signal.ITIMER_REAL, 0)
    except DeadlineExceeded:
        timed_out = True
    except SystemExit as exc:  # argparse rejects its input this way
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a crash is a wrong answer, not a benchmark error
        err.write(traceback.format_exc())
    return Result(rc, out.getvalue(), err.getvalue(), time.perf_counter_ns() - start, timed_out)


def setup_once() -> float:
    """Wall time of a fresh interpreter that imports the CLI (which builds
    the shipped tables) and answers one query."""
    script = (
        "import sys; sys.path.insert(0, sys.argv[1]); "
        "from g2cubics import cli; "
        "sys.exit(cli.main(sys.argv[2:]))"
    )
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", script, str(SRC), *workloads.SETUP_QUERY],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    elapsed = time.perf_counter() - start
    if proc.returncode != 0 or '"orbit": "C3"' not in proc.stdout:
        raise SystemExit(f"set-up query failed: exit {proc.returncode}: {proc.stderr.strip()}")
    return elapsed


def percentile(sorted_values, pct: float):
    """Linearly interpolated percentile and the number of samples above it."""
    pos = (len(sorted_values) - 1) * pct / 100
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    value = sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)
    return value, sum(1 for v in sorted_values if v > value)


def _judge(checker, op, res: Result) -> str | None:
    if res.timed_out:
        return None
    if res.rc is None:
        return "crashed: " + res.err.strip().splitlines()[-1]
    return checker.check(op, res.rc, res.out, res.err)


def run_untraced(cli, checker, spec, seed: int, seconds: float, setup_times: list[float]):
    """Latencies of the answered commands, the number attempted, failures
    and wrong answers. A failed command counts only in the failures, so the
    time spent waiting for a deadline stays out of the latency and
    throughput figures. Between blocks the run takes set-up samples, spread
    evenly over its length so that they meet the same host speed as the
    workload."""
    start = time.monotonic()
    setup_spent = 0.0
    samples, attempted, failed, wrong = [], 0, 0, []
    for block in workloads.blocks(spec.name, seed):
        for op in block:
            if time.monotonic() - start >= MAX_RUN_S:
                break
            res = call(cli, op.argv, op.deadline_s)
            reason = _judge(checker, op, res)
            attempted += 1
            if res.timed_out or reason:
                failed += 1
            else:
                samples.append(res.elapsed_ns)
            if reason:
                wrong.append((op.argv, reason))
        elapsed = time.monotonic() - start - setup_spent
        while len(setup_times) < SETUP_REPEATS * min(1.0, elapsed / seconds):
            setup_times.append(setup_once())
            setup_spent += setup_times[-1]
        if (elapsed >= seconds and len(samples) >= spec.min_samples) or time.monotonic() - start >= MAX_RUN_S:
            return samples, attempted, failed, wrong


def run_traced(cli, checker, spec, seed: int, seconds: float, tracer):
    deadline = time.monotonic() + seconds
    plain, traced, failed, wrong = [], [], 0, []
    op_id = 0
    for block in workloads.blocks(spec.name, seed):
        for op in block:
            pair = {}
            for mode in ((False, True) if op_id % 2 == 0 else (True, False)):
                if mode:
                    tracer.enable(op_id)
                try:
                    pair[mode] = call(cli, op.argv, op.deadline_s)
                finally:
                    tracer.disable()
            a, b = pair[False], pair[True]
            plain.append(a.elapsed_ns)
            traced.append(b.elapsed_ns)
            reason = _judge(checker, op, a)
            if not (a.timed_out or b.timed_out) and (a.rc, a.out, a.err) != (b.rc, b.out, b.err):
                reason = reason or "traced and untraced outputs differ"
            if a.timed_out or reason:
                failed += 1
            if reason:
                wrong.append((op.argv, reason))
            op_id += 1
        if time.monotonic() >= deadline:
            return plain, traced, failed, wrong


def metric(value, unit):
    return {"value": value, "unit": unit}


def traced_report(cli, checker, spec, args):
    """Per-layer calls and self time per command, and the tracing overhead."""
    import spans

    tracer = spans.Tracer()
    plain, traced, failed, wrong = run_traced(cli, checker, spec, args.seed, args.seconds, tracer)
    attempted = len(plain)
    calls, own = tracer.summary()
    path = TRACE_DIR / f"trace-{spec.name}-seed{args.seed}.json"
    tracer.write(path)

    def per_op_ms(ns):
        return metric(ns / 1e6 / attempted, "ms/op")

    metrics = {}
    for name in spans.FUNCTIONS:
        metrics[f"{name}.calls"] = metric(calls.get(name, 0) / attempted, "calls/op")
        metrics[f"{name}.self_ms"] = per_op_ms(own.get(name, 0))
    for scope in spans.SCOPES:
        checks = [c for c, s in tracer.name_of_check.items() if s == scope]
        metrics[f"verify.scope.{scope}.self_ms"] = per_op_ms(sum(own.get(f"verify.check.{c}", 0) for c in checks))
    for check in spans.COSTLY_CHECKS:
        metrics[f"verify.check.{check}.self_ms"] = per_op_ms(own.get(f"verify.check.{check}", 0))
    overhead_ms = (statistics.median(traced) - statistics.median(plain)) / 1e6
    metrics["trace.overhead_ms"] = metric(overhead_ms, "ms")

    print(f"{spec.name} seed={args.seed}: traced run, {attempted} ops, {len(tracer.spans)} spans in {path.relative_to(ROOT)}")
    if tracer.missing:
        print(f"  not found in the program, reported as 0: {', '.join(tracer.missing)}")
    print(f"  tracing overhead {overhead_ms:.4f} ms (median traced minus median untraced latency)")
    for name, ns in sorted(own.items(), key=lambda kv: -kv[1])[:8]:
        print(f"  {name}: {calls[name] / attempted:.2f} calls/op, {ns / 1e6 / attempted:.4f} ms/op self")
    return attempted, failed, wrong, metrics


def end_to_end_report(cli, checker, spec, args, setup_times):
    samples, attempted, failed, wrong = run_untraced(
        cli, checker, spec, args.seed, args.seconds, setup_times
    )
    while len(setup_times) < SETUP_REPEATS:
        setup_times.append(setup_once())
    if not samples:
        raise SystemExit(f"error: none of {attempted} commands was answered")
    answered = len(samples)
    tail, beyond = percentile(sorted(samples), spec.tail_pct)
    metrics = {
        "setup_s": metric(statistics.median(setup_times), "s"),
        "ops_per_s": metric(answered * 1e9 / sum(samples), "1/s"),
        "latency_p50_ms": metric(statistics.median(samples) / 1e6, "ms"),
        "latency_tail_ms": metric(tail / 1e6, "ms"),
        "answered_share": metric(answered / attempted, "share"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    print(f"{spec.name} seed={args.seed}: {attempted} ops, {answered} answered in {sum(samples) / 1e9:.2f} s busy")
    print(f"  failed_share {failed / attempted:.4f} (wrong answers and deadline misses over attempted)")
    print(f"  setup_s is the median of {len(setup_times)} fresh interpreters spread over the run")
    print(f"  latency_tail_ms is p{spec.tail_pct:g} of {answered} answered samples, {beyond} beyond it")
    for name, m in metrics.items():
        print(f"  {name} {m['value']:.6g} {m['unit']}")
    return attempted, failed, wrong, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "g2cubics" / "cli.py").is_file():
        sys.stderr.write(f"error: no g2cubics sources under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))
    from g2cubics import cli

    import answers

    spec = workloads.WORKLOADS[args.workload]
    checker = answers.Checker(SRC)
    signal.signal(signal.SIGALRM, _on_alarm)
    # one set-up sample first, so that a program that cannot start fails early
    setup_times = [] if args.trace else [setup_once()]
    for warm in (workloads.SETUP_QUERY, spec.warmup):
        res = call(cli, warm, None)
        if res.rc != 0:
            sys.stderr.write(f"error: warm-up {' '.join(warm)} exited {res.rc}: {res.err}")
            return 2
    if args.trace:
        attempted, failed, wrong, metrics = traced_report(cli, checker, spec, args)
    else:
        attempted, failed, wrong, metrics = end_to_end_report(cli, checker, spec, args, setup_times)
    for argv_, reason in wrong[:10]:
        print(f"  WRONG: {' '.join(argv_)[:120]}: {reason[:200]}")
    print(json.dumps({"correct": not wrong, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

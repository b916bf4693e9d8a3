"""End-to-end benchmark of the chainpart CLI.

    python3 benchmarks/run.py --workload scan|huge|sets --seed N --seconds S --trace 0|1

Run from the repository root.  The runner calls ``chainpart.cli.main(argv)``
in process, one op after another on one thread (a closed loop with one
client), with stdin and stdout redirected; an op's output is consumed inside
its timed region.  A child process makes the seeded ops (``workloads.py``)
and checks each op's output between ops, so that neither the input generation
nor the checks' second engines count in the measured process's memory.  A run
makes a fixed number of ops, set by the workload and ``--seconds`` alone
(``workloads.op_count``), so a faster program runs exactly the same ops.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs every op
twice, once under the layer spans of ``tracing.py`` and once without them
(alternating which goes first), and reports the per-layer metrics, the
tracing overhead among them; its spans are written to ``benchmarks/out/``.

Human-readable lines come first; the last line of stdout is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
exit code is 0 whenever that line is printed.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import math
import os
import resource
import socket
import statistics
import subprocess
import sys
import time
from collections import Counter
from multiprocessing.connection import Connection
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from chainpart import cli  # noqa: E402  (fails, exit 1, where the sources are absent)

import tracing  # noqa: E402
import workloads  # noqa: E402

#: Fresh interpreters timed for setup_s; the median is reported.
SETUP_RUNS = 7
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import chainpart.cli; "
    "print(time.perf_counter() - t)"
)
WARMUP_ARGV = ["count", "--u", "27"]
#: The checker process: argv is (benchmarks dir, socket fd, workload, seed).
CHECKER = (
    "import sys; sys.path.insert(0, sys.argv[1]); import run; "
    "run.serve_ops(run.Connection(int(sys.argv[2])), sys.argv[3], int(sys.argv[4]))"
)
#: Each workload starts with fixed ops that match ROADMAP baseline rows; the
#: detail file keeps their latencies and span self times.
FIRST_OPS = 2


def measure_setup(runs: int) -> float:
    """Median time to import chainpart.cli in a fresh interpreter.

    One untimed import first writes the bytecode caches.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    samples = []
    for i in range(runs + 1):
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=60, check=True)
        if i:
            samples.append(float(done.stdout))
    return statistics.median(samples)


def call_cli(main, argv: list[str], stdin: str):
    """One op: (seconds, exit code or None, exception type or None, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(stdin), out, err
    rc = error = None
    start = time.perf_counter()
    try:
        rc = main(argv)
    except Exception as exc:  # cli.main lets RecursionError and MemoryError escape
        error = type(exc).__name__
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved
    text = out.getvalue()
    return time.perf_counter() - start, rc, error, text, err.getvalue()


def judge(op: workloads.Op, rc, error, text: str, err: str) -> str | None:
    """None when the op succeeded, else why it failed."""
    if error is not None:
        return f"raised {error}"
    if rc != 0:
        return f"exit {rc}: {err.strip()[:120]}"
    try:
        op.check(text)
    except Exception as exc:  # a check that cannot parse the output fails the op too
        return f"check: {type(exc).__name__}: {str(exc)[:120]}"
    return None


#: Characters of op output per pipe message.
CHUNK = 1 << 20


def serve_ops(conn, workload: str, seed: int) -> None:
    """The checker process: makes each op and its stdin, then checks its outcome.

    Messages: ``("next",)`` is answered with ``(kind, argv, stdin)`` of the
    next op; ``("outcome", index, rc, error, stderr, chunks)`` is followed by
    the op's stdout in ``chunks`` byte messages; ``("settle",)`` is answered
    with every failure, {op index: reason}, and ends the process, as does
    the runner closing its end.
    """
    reference = workloads.Reference()
    stream = workloads.ops(workload, seed, reference)
    failures: dict[int, str] = {}
    op = None
    while True:
        try:
            message = conn.recv()
        except EOFError:
            return
        if message[0] == "next":
            op = next(stream)
            conn.send((op.kind, op.argv, op.payload()))
        elif message[0] == "outcome":
            _, index, rc, error, err, chunks = message
            text = "".join(conn.recv_bytes().decode() for _ in range(chunks))
            reference.op_index = index
            reason = judge(op, rc, error, text, err)
            if reason is not None:
                failures[index] = reason
        else:
            failures.update(reference.settle())
            conn.send(failures)
            conn.close()
            return


def band_mean(ranked: list[float], lo: float, hi: float) -> float:
    """Mean of the sorted latencies ranked from share ``lo`` to share ``hi``.

    A percentile is reported as the mean of a band of ranks around it: near
    the median and the p90, ops of neighbouring rank differ by 5-15% in
    latency, and a shared 2-vCPU machine's speed drifts by about 20% over a
    few seconds, so a single rank jumps between runs.  The p90 band stops
    below the slowest 5% of ops, which vary most.
    """
    n = len(ranked)
    return statistics.fmean(ranked[math.floor(lo * n):math.ceil(hi * n)])


class Run:
    """Ops of one workload, their latencies and their failures.

    The ops come from, and their outputs go to, the checker process.  It
    answers the request for the next op only after it has checked the last
    one, so no check runs while an op is timed.
    """

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.kinds: list[str] = []
        self.argvs: list[list[str]] = []
        self.latency: list[float] = []
        self.failures: dict[int, str] = {}
        self.first_spans: list[dict] = []
        # A plain child process, not multiprocessing's, whose start methods
        # leave helper processes (the resource tracker) that outlive the run.
        mine, theirs = socket.socketpair()
        self.conn = Connection(mine.detach())
        with theirs:
            self.checker = subprocess.Popen(
                [sys.executable, "-c", CHECKER, str(HERE), str(theirs.fileno()), workload, str(seed)],
                cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                pass_fds=(theirs.fileno(),))

    def next_op(self) -> tuple[int, list[str], str]:
        self.conn.send(("next",))
        kind, argv, stdin = self.conn.recv()
        self.kinds.append(kind)
        self.argvs.append(argv)
        return len(self.kinds) - 1, argv, stdin

    def record(self, index: int, seconds: float, rc, error, text: str, err: str) -> None:
        self.latency.append(seconds)
        chunks = range(0, len(text), CHUNK)
        self.conn.send(("outcome", index, rc, error, err, len(chunks)))
        for at in chunks:
            self.conn.send_bytes(text[at:at + CHUNK].encode())

    def settle(self) -> None:
        self.conn.send(("settle",))
        self.failures.update(self.conn.recv())
        self.close()

    def close(self) -> None:
        """End the checker process and wait for it, on every way out of a run."""
        self.conn.close()
        try:
            self.checker.wait(timeout=60)
        except subprocess.TimeoutExpired:
            pass
        finally:
            if self.checker.poll() is None:
                self.checker.kill()
                self.checker.wait()

    @property
    def correct(self) -> bool:
        """False when an output was wrong; crashes count as failures only."""
        return not any(r.startswith(("check", "exit 2")) for r in self.failures.values())

    def summary_lines(self) -> list[str]:
        lines = []
        by_kind = Counter(self.kinds)
        for kind in sorted(by_kind):
            times = sorted(t for k, t in zip(self.kinds, self.latency) if k == kind)
            lines.append(f"  op {kind:<20} n={len(times):<4} median {1e3 * statistics.median(times):9.1f} ms"
                         f"  max {1e3 * times[-1]:9.1f} ms")
        for reason, n in Counter(self.failures.values()).most_common():
            kinds = sorted({self.kinds[i] for i, r in self.failures.items() if r == reason})
            lines.append(f"  failure x{n}: {reason} ({', '.join(kinds)})")
        return lines


def run_plain(run: Run, seconds: float) -> dict:
    call_cli(cli.main, WARMUP_ARGV, "")
    spent = 0.0
    for _ in range(workloads.op_count(run.workload, seconds)):
        index, argv, stdin = run.next_op()
        elapsed, rc, error, text, err = call_cli(cli.main, argv, stdin)
        spent += elapsed
        run.record(index, elapsed, rc, error, text, err)
        del text, stdin  # so that they do not count in the next op's peak memory
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    run.settle()
    n = len(run.latency)
    # A failed op ranks above every success, at the run's longest latency.
    ranked = sorted(t for i, t in enumerate(run.latency) if i not in run.failures)
    ranked += [max(run.latency)] * len(run.failures)
    above = n - max(math.ceil(0.9 * n), 1)
    return {
        "ops_per_s": ((n - len(run.failures)) / spent, "ops/s"),
        "op_p50_ms": (1e3 * band_mean(ranked, 0.40, 0.60), "ms"),
        "op_p90_ms": (1e3 * band_mean(ranked, 0.85, 0.95), "ms"),
        "peak_rss_mb": (peak_kib / 1024.0, "MB"),
        "fail_frac": (len(run.failures) / n, "1"),
        "_above_p90": above,
        "_spent": spent,
    }


def run_traced(run: Run, seconds: float, seed: int) -> dict:
    tracer = tracing.Tracer()
    call_cli(cli.main, WARMUP_ARGV, "")
    plain_s = traced_s = 0.0
    out_bytes = 0
    differs = {}
    for _ in range(workloads.op_count(run.workload, seconds) // 2):
        index, argv, stdin = run.next_op()
        outcomes = {}
        for traced in ((True, False) if index % 2 == 0 else (False, True)):
            if not traced:
                outcomes[traced] = call_cli(cli.main, argv, stdin)
                continue
            tracer.install()
            try:
                main = functools.partial(tracer.run_op, index, cli.main)
                outcomes[traced] = call_cli(main, argv, stdin)
            finally:
                tracer.uninstall()
        elapsed, rc, error, text, err = outcomes[True]
        traced_s += elapsed
        plain_s += outcomes[False][0]
        out_bytes += len(text)
        run.record(index, elapsed, rc, error, text, err)
        if outcomes[False][3] != text:
            differs[index] = "check: output differs with tracing on"
    run.settle()
    run.failures = {**differs, **run.failures}
    tracer.dump(ROOT / "benchmarks" / "out" / f"spans-{run.workload}-seed{seed}.json.gz")
    metrics = tracing.layer_metrics(tracer, len(run.latency), out_bytes, traced_s / plain_s - 1.0)
    run.first_spans = [tracer.self_by_name(i) for i in range(min(FIRST_OPS, len(run.latency)))]
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--detail", type=Path, default=None,
                        help="also write failures, op latencies and first-op spans here (JSON)")
    args = parser.parse_args(argv)

    print(f"workload {args.workload}: {workloads.WHY[args.workload]}")
    detail: dict = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    # The imports are timed before the checker process starts, so that its
    # own start does not compete with them.
    setup_s = None if args.trace else measure_setup(SETUP_RUNS)
    run = Run(args.workload, args.seed)
    try:
        measured = (run_traced(run, args.seconds, args.seed) if args.trace
                    else run_plain(run, args.seconds))
    finally:
        run.close()
    if args.trace:
        keep = measured
        op_s = sum(measured[f"{layer}.self_s"][0] for layer in tracing.LAYERS)
        op_s += measured["cli.build_parser.self_s"][0]
        print(f"traced {len(run.latency)} ops (each also run untraced)")
        for name, (value, unit) in measured.items():
            share = f"  {100 * value / op_s:5.1f}% of op time" if unit == "s/op" and op_s else ""
            print(f"  {name:<34} {value:14.6g} {unit}{share}")
        detail["first_op_spans"] = [{name: cell for name, cell in spans.items() if cell[0]}
                                    for spans in run.first_spans]
    else:
        above, spent = measured.pop("_above_p90"), measured.pop("_spent")
        measured = {"setup_s": (setup_s, "s"), **measured}
        keep = {k: v for k, v in measured.items() if k != "fail_frac"}
        n = len(run.latency)
        print(f"{n} ops in {spent:.2f} s of op time; {above} ops above the p90")
        for name, (value, unit) in measured.items():
            count = f"median of {SETUP_RUNS} imports" if name == "setup_s" else f"n={n} ops"
            print(f"  {name:<12} {value:14.6g} {unit:<6} ({count})")
        detail["first_op_ms"] = [1e3 * t for t in run.latency[:FIRST_OPS]]
    for line in run.summary_lines():
        print(line)
    detail["failures"] = {str(i): r for i, r in sorted(run.failures.items())}
    detail["ops"] = [[kind, round(1e3 * t, 3), " ".join(argv)[:100]]
                     for kind, t, argv in zip(run.kinds, run.latency, run.argvs)]
    detail["metrics"] = {name: value for name, (value, _) in measured.items()}
    if args.detail is not None:
        args.detail.parent.mkdir(parents=True, exist_ok=True)
        args.detail.write_text(json.dumps(detail, indent=1) + "\n")
    print(json.dumps({
        "correct": run.correct,
        "attempted": len(run.latency),
        "failed": len(run.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in keep.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

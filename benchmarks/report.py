"""Run the benchmark over several seeds and write one run record.

    python3 benchmarks/report.py --seeds 1 2 3 [--out FILE]

Run from the repository root.  Every workload of BENCHMARK.json runs once
per seed for its ``run_seconds``, each run a fresh ``run.py`` process, so
peak RSS is per run.  For each workload the record holds, across the runs
with tracing off, the median, quartiles and run count of each end-to-end
metric and its spread ((q3 - q1) / median) beside the bound in
BENCHMARK.json; the failures by reason; the per-layer metrics of the first
seed run again with tracing on; and the traced numbers beside the ROADMAP
baseline rows that the workload covers.  The record also names the Python
version, the CPU count, the git SHA and the seeds.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "benchmarks" / "out"
#: Seeds, the first of the list, run again with tracing on.
TRACED_SEEDS = 1

# (workload, ROADMAP row, its figure, source).  A source is the latency of a
# first op in untraced runs, or the self time of spans in a first op of the
# traced runs; every workload starts with these ops (workloads.py).
BASELINE_ROWS = (
    ("scan", "end to end: chainpart scan w --limit 1000000 --emit csv", "2.8 s",
     ("latency", 0)),
    ("scan", "dense count: halving scan(10^6), (2,3), in that op", "0.57 s",
     ("span", 0, "counting.scan")),
    ("scan", "shortest: sigma scan to 5*10^5, in sigma-stats --limit 500000", "0.48 s",
     ("span", 1, "shortest.scan")),
    ("huge", "sparse count: w(10^300), (2,3)", "1.1 s", ("span", 0, "counting.w")),
    ("sets", "codecs: tree_encode of the binary partition of 2^1500 - 1", "1.06 s",
     ("span", 0, "codec.tree_encode")),
)


def git_sha() -> str:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=True, timeout=30).stdout.strip()
        dirty = subprocess.run(["git", "status", "--porcelain", "src"], cwd=ROOT,
                               capture_output=True, text=True, check=True, timeout=30).stdout
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return sha + ("+dirty" if dirty.strip() else "")


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    detail_path = OUT / f"detail-{workload}-seed{seed}-trace{trace}.json"
    argv = [sys.executable, str(ROOT / "benchmarks" / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
            "--detail", str(detail_path)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} failed:\n{done.stderr}")
    sys.stdout.write(done.stdout)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return result, json.loads(detail_path.read_text())


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    spread = (q3 - q1) / median if median else 0.0
    return {"median": median, "q1": q1, "q3": q3, "n": len(values), "spread": spread}


def report_workload(workload: str, seeds: list[int], spec: dict) -> dict:
    seconds = spec["run_seconds"]
    plain = [run_once(workload, seed, seconds, 0) for seed in seeds]
    traces = [run_once(workload, seed, seconds, 1) for seed in seeds[:TRACED_SEEDS]]

    end_to_end = {}
    for metric in spec["end_to_end"]:
        values = [result["metrics"][metric["name"]]["value"] for result, _ in plain]
        end_to_end[metric["name"]] = {**summarize(values), "unit": metric["unit"],
                                      "bound": metric["bound"]}
    end_to_end["fail_frac"] = {**summarize([d["metrics"]["fail_frac"] for _, d in plain]),
                               "unit": "1"}
    failures = Counter(reason.split(":")[0] for _, d in plain for reason in d["failures"].values())
    per_layer = {}
    for metric in spec["per_layer"]:
        values = [result["metrics"][metric["name"]]["value"] for result, _ in traces]
        if values:
            per_layer[metric["name"]] = {**summarize(values), "unit": metric["unit"]}

    rows = []
    for row_workload, label, figure, source in BASELINE_ROWS:
        if row_workload != workload:
            continue
        if source[0] == "latency":
            values = [d["first_op_ms"][source[1]] / 1e3 for _, d in plain]
        else:
            values = [d["first_op_spans"][source[1]].get(source[2], [0, 0.0, 0])[1]
                      for _, d in traces]
        if values:
            rows.append({"row": label, "roadmap": figure,
                         "measured_s": summarize(values)["median"], "runs": len(values)})
    setup = end_to_end["setup_s"]["median"]
    rows.append({"row": "end to end: CLI import", "roadmap": "0.25 s", "measured_s": setup,
                 "runs": len(plain)})
    return {
        "attempted": [result["attempted"] for result, _ in plain],
        "correct": all(result["correct"] for result, _ in plain + traces),
        "end_to_end": end_to_end,
        "failures": dict(failures),
        "per_layer": per_layer,
        "baseline_rows": rows,
    }


def print_workload(name: str, doc: dict) -> None:
    print(f"\n== {name}: ops per run {doc['attempted']}, outputs correct: {doc['correct']}")
    for metric, s in doc["end_to_end"].items():
        bound = ""
        if "bound" in s:
            bound = f" (bound {s['bound']})"
            if metric != "setup_s" and s["spread"] > s["bound"] / 3:
                bound += "  <-- spread above a third of its bound"
        print(f"  {metric:<12} median {s['median']:12.6g} {s['unit']:<6} "
              f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} n={s['n']} runs  spread {s['spread']:.3f}{bound}")
    for reason, count in doc["failures"].items():
        print(f"  failed x{count}: {reason}")
    for metric, s in doc["per_layer"].items():
        print(f"  {metric:<34} median {s['median']:12.6g} {s['unit']} (n={s['n']} traced runs)")
    for row in doc["baseline_rows"]:
        print(f"  baseline {row['row']}: ROADMAP {row['roadmap']}, "
              f"now {row['measured_s']:.3f} s (median of {row['runs']})")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--out", type=Path, default=None, help="write the record here (JSON)")
    args = parser.parse_args()

    record = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "seeds": args.seeds,
        "run_seconds": spec["run_seconds"],
        "workloads": {},
    }
    for workload in spec["workloads"]:
        name = workload["name"]
        record["workloads"][name] = report_workload(name, args.seeds, spec)
    print(f"\npython {record['python']}, nproc {record['nproc']}, git {record['git_sha']}, "
          f"seeds {args.seeds}, {spec['run_seconds']} s per run")
    for name, doc in record["workloads"].items():
        print_workload(name, doc)
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

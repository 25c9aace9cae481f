"""Run every workload over a range of seeds and write one summary JSON.

    python3 perfbench/collect.py --seeds 1-10 --label seed --out perfbench/baseline/seed.json

For each workload: one untraced run per seed, then one traced run on the
first seed. The summary keeps every run's result and report line, and per
end-to-end metric the median, the quartiles (statistics.quantiles, n=4) and
the spread (interquartile distance over the median). Runs one at a time.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload: str, seed: int, trace: int, seconds=SPEC["run_seconds"], extra=()) -> dict:
    """One benchmark run in a child process: its result and report lines."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace), *extra]
    start = time.time()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv[1:])} exited {proc.returncode}: {proc.stderr[-2000:]}")
    *_, report, result = proc.stdout.strip().split("\n")
    return {"seed": seed, "trace": trace, "wall_s": time.time() - start,
            "result": json.loads(result), "report": json.loads(report)}


def summarize(runs: list) -> dict:
    out = {}
    for m in SPEC["end_to_end"]:
        values = [r["result"]["metrics"][m["name"]]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
        out[m["name"]] = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
                          "bound": m["bound"], "unit": m["unit"]}
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", default="1-10", help="first-last")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in SPEC["workloads"]))
    ap.add_argument("--label", required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    first, last = map(int, args.seeds.split("-"))
    seeds = list(range(first, last + 1))
    summary = {"label": args.label, "run_seconds": SPEC["run_seconds"], "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            runs.append(run(workload, seed, 0))
            r = runs[-1]["result"]
            print(f"{workload} seed={seed} correct={r['correct']} attempted={r['attempted']}"
                  f" failed={r['failed']} " + " ".join(
                      f"{k}={v['value']:.5g} {v['unit']}" for k, v in r["metrics"].items()), flush=True)
        traced = run(workload, seeds[0], 1)
        stats = summarize(runs) if len(runs) >= 2 else {}
        for name, s in stats.items():
            print(f"  {name:18s} median {s['median']:.5g} {s['unit']}  spread {s['spread']:.3f}"
                  f"  (bound {s['bound']})", flush=True)
        summary["workloads"][workload] = {"untraced": runs, "traced": traced, "end_to_end": stats}
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

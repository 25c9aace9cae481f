"""crd benchmark: `orbit`, `integrals` and `verify` through `crd.cli.main`, in-process.

    python3 perfbench/run.py --workload orbit --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; `crd` is imported from ./src and from
nowhere else, so the command fails in a tree without the sources. One
process, no threads, CRD_NUM_THREADS=1, closed loop: each call starts when
the previous one returns. A run is whole rounds (every input called once);
it stops at the round end nearest to --seconds.

The last stdout line is the result {"correct", "attempted", "failed",
"metrics"}: the end-to-end metrics with --trace 0, the per-layer ones with
--trace 1. The line before it is a report with the environment, the input
and output digests and the figures that are not metrics. See README.md.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from tracing import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, accuracy_decades  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5
THREADS = "1"
CRASHED = 70
# The reported times are scaled to a reference speed at which the calibration
# kernel below takes REF_CAL_S; see README, "Timing".
CAL_LOOPS = 1500
REF_CAL_S = 1e-3


def _cross(a, b):
    return a[0] * b[1] - a[1] * b[0]


def calibrate() -> float:
    """Seconds of a fixed pure-Python kernel, the fastest of five: the host's
    speed now. The kernel makes small tuples, lists, dicts and complex numbers
    and does complex arithmetic through a function call, the kind of work `crd`
    spends its time on. The garbage collector is off while it runs, so the
    size of the heap `crd` leaves behind does not change its time."""
    best = math.inf
    gc.disable()
    try:
        for _ in range(5):
            start = time.perf_counter()
            out, acc = [], 0j
            for i in range(CAL_LOOPS):
                t = (i, float(i), complex(i, 1.0))
                out.append({"a": t, "b": [t[0], t[1]]})
                acc += _cross((t[2], t[1] + 1j), (1.0 + 2j, t[2])) / (t[2] + 1j)
            best = min(best, time.perf_counter() - start)
    finally:
        gc.enable()
    return best


def fresh_cli():
    """Import `crd.cli` from scratch, so every set-up pays the import."""
    for name in [m for m in sys.modules if m == "crd" or m.startswith("crd.")]:
        del sys.modules[name]
    return importlib.import_module("crd.cli")


def call(cli, argv):
    """(exit code, stdout) of one in-process CLI call; a crash exits CRASHED."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(list(argv))
    except Exception:  # a crash is a failed call, reported, not the end of the run
        traceback.print_exc()
        rc = CRASHED
    return rc, out.getvalue()


def run_round(cli, jobs, keep=False, tracer=None, regauges=None):
    """(digest of the outputs, outputs if `keep`, wall latencies, scaled
    latencies) of one pass over the jobs; with a tracer, also adds each input
    class's [orbit steps, re-gauges] to `regauges`. Outputs are dropped unless
    kept, so memory does not grow with the number of rounds.

    A calibration before and after each call scales its latency to the
    reference speed: wall time * REF_CAL_S / mean of the two calibrations."""
    h, outputs, latencies, scaled = hashlib.sha256(), [], [], []
    cal = calibrate()
    for job in jobs:
        if tracer:
            before = tracer.calls("dynamics.step"), tracer.calls("dynamics.renormalizing_map")
        start = time.perf_counter()
        rc, out = call(cli, job.argv)
        latencies.append(time.perf_counter() - start)
        cal, previous = calibrate(), cal
        scaled.append(latencies[-1] * REF_CAL_S / ((cal + previous) / 2))
        h.update(f"{rc}\n{len(out)}\n{out}".encode())
        if keep:
            outputs.append((rc, out))
        if tracer:
            acc = regauges.setdefault(job.label, [0, 0])
            acc[0] += tracer.calls("dynamics.step") - before[0]
            acc[1] += tracer.calls("dynamics.renormalizing_map") - before[1]
    return h.hexdigest(), outputs, latencies, scaled


def tail(latencies):
    """Highest of p99/p95/p90/p75/p50 with at least ten samples beyond it."""
    ordered = sorted(latencies)
    for p in (99, 95, 90, 75, 50):
        k = math.ceil(p / 100 * len(ordered)) - 1
        if len(ordered) - 1 - k >= 10:
            return {"value_ms": ordered[k] * 1e3, "percentile": p, "samples": len(ordered)}
    return None


def environment(seed: int) -> dict:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": model, "python": platform.python_version(),
            "numpy": np.__version__, "seed": seed, "CRD_NUM_THREADS": THREADS}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="smoke-test sizes (see smoke.py)")
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "crd" / "cli.py").is_file():
        sys.stderr.write(f"perfbench: no crd sources under {src}\n")
        return 2
    sys.path.insert(0, str(src))
    os.environ["CRD_NUM_THREADS"] = THREADS
    workload = WORKLOADS[args.workload](args.tiny)
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        return measure(args, workload, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()


def measure(args, workload, workdir: Path) -> int:
    # set-up: import, inputs, file writes and warm-up calls, repeated; the
    # first repetition also counts from process start. Each is scaled by the
    # calibrations around it (the first has only the one after it).
    setups, scaled_setups, cals, input_digests = [], [], [], set()
    for rep in range(SETUP_REPEATS):
        start = T_START if rep == 0 else time.perf_counter()
        cli = fresh_cli()
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        files = []
        jobs = workload.prepare(np.random.default_rng([args.seed, workload.wid]), workdir, files)
        for argv in workload.warmups(jobs):
            call(cli, argv)
        setups.append(time.perf_counter() - start)
        cals.append(calibrate())
        scaled_setups.append(setups[-1] * REF_CAL_S / statistics.mean(cals[-2:]))
        input_digests.add(hashlib.sha256(b"".join(f.read_bytes() for f in files)).hexdigest())

    first_digest, outputs, latencies, scaled = run_round(cli, jobs, keep=True)
    checked = workload.check(jobs, outputs)
    del outputs
    rounds, elapsed, same = 1, sum(latencies), True
    tracer = reference_s = None
    regauges, probe = {}, 0.0
    if args.trace:
        reference_s, reference_scaled = elapsed, sum(scaled)
        if hasattr(workload, "probe_defect"):
            probe = workload.probe_defect(lambda argv: call(cli, argv))
        tracer = Tracer()
        tracer.install()
        rounds, elapsed, latencies, scaled = 0, 0.0, [], []
    # stop at the round end nearest to --seconds
    while rounds == 0 or (elapsed + (reference_s or 0.0)) * (1 + 0.5 / rounds) < args.seconds:
        round_digest, _, lats, scaled_lats = run_round(cli, jobs, tracer=tracer, regauges=regauges)
        same &= round_digest == first_digest
        rounds += 1
        elapsed += sum(lats)
        latencies += lats
        scaled += scaled_lats

    executed = rounds + (1 if args.trace else 0)  # the untraced reference round counts too
    correct = checked.readable and same and len(input_digests) == 1
    report = {
        "workload": args.workload, "trace": args.trace, "env": environment(args.seed),
        "inputs_sha256": input_digests.pop(), "output_sha256": first_digest,
        "rounds": rounds, "calls": len(latencies), "setup_runs_s": setups,
        "per_round": {"attempted": checked.attempted, "failed": checked.failed, "ops": checked.ops},
        "class_median_ms": {label: statistics.median(
            lat for job, lat in zip(jobs * rounds, latencies) if job.label == label) * 1e3
            for label in dict.fromkeys(job.label for job in jobs)},
        "call_ms_tail": tail(scaled),
        "error_log10_max": math.log10(max(max(checked.errors, default=0.0), np.finfo(float).eps)),
        "wall": {"setup_s": statistics.median(setups), "ops_per_s": checked.ops * rounds / elapsed,
                 "call_ms_p50": statistics.median(latencies) * 1e3},
        "calibration_ms": [min(cals) * 1e3, max(cals) * 1e3],
    }
    if args.trace:
        traced_round_s = elapsed / rounds
        report["traced_round_s"] = traced_round_s
        report["spans"] = len(tracer.spans)
        report["regauge_per_step_by_class"] = {
            label: regauge / steps for label, (steps, regauge) in regauges.items() if steps}
        metrics = layer_metrics(tracer, rounds, sum(scaled) / rounds / reference_scaled, probe)
    else:
        metrics = {
            "setup_s": (statistics.median(scaled_setups), "s"),
            "ops_per_s": (checked.ops * rounds / sum(scaled), "1/s"),
            "call_ms_p50": (statistics.median(scaled) * 1e3, "ms"),
            "accuracy_decades": (accuracy_decades(checked.errors), "decades"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": bool(correct),
        "attempted": checked.attempted * executed,
        "failed": checked.failed * executed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Smoke test of the benchmark: every workload at tiny sizes, both modes.

    python3 perfbench/smoke.py

Checks the last stdout line of each run against the schema and the metric
names and units in BENCHMARK.json, and that a repeated seed reproduces the
input and output digests while another seed changes the inputs. Exits 1 on
the first mismatch. Takes about half a minute.
"""

import math
import sys

from collect import SPEC, run


def tiny(workload: str, seed: int, trace: int):
    """(report, result) of a one-second run at smoke-test sizes."""
    out = run(workload, seed, trace, seconds=1, extra=["--tiny"])
    return out["report"], out["result"]


def check_result(result: dict, trace: int):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int) and 0 <= result["failed"] <= result["attempted"]
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}, \
        set(result["metrics"]) ^ {m["name"] for m in spec}
    for m in spec:
        got = result["metrics"][m["name"]]
        assert set(got) == {"value", "unit"} and got["unit"] == m["unit"], (m["name"], got)
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"]), m["name"]


def main() -> int:
    try:
        for workload in (w["name"] for w in SPEC["workloads"]):
            for trace in (0, 1):
                _, result = tiny(workload, 1, trace)
                check_result(result, trace)
                print(f"ok  {workload} trace={trace}")
        first, again, other = (tiny("orbit", seed, 0)[0] for seed in (1, 1, 2))
        assert first["inputs_sha256"] == again["inputs_sha256"]
        assert first["output_sha256"] == again["output_sha256"]
        assert first["inputs_sha256"] != other["inputs_sha256"]
        print("ok  digests: same seed reproduces, another seed differs")
    except (AssertionError, RuntimeError) as e:
        print(f"FAIL {e}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

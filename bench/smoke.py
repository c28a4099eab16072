"""Smoke test of the benchmark itself: one op per workload.

    python3 bench/smoke.py

Checks that BENCHMARK.json is what bench/spec.py generates, that every run
prints every named metric with its unit, and that the oracle check flags a
deliberately perturbed output.  Exits non-zero on the first failure.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import inputs as I  # noqa: E402
import spec  # noqa: E402
import workloads  # noqa: E402


def check(ok, message):
    if not ok:
        raise SystemExit(f"smoke FAIL: {message}")


def check_emitted_metrics(name, trace, expected):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "1",
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=180, cwd=ROOT)
    check(out.returncode == 0, f"{name} trace={trace} exited {out.returncode}: {out.stderr[-500:]}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{name}: keys {sorted(result)}")
    check(result["correct"] is True, f"{name} trace={trace}: run reported incorrect")
    check(isinstance(result["attempted"], int) and result["attempted"] >= 1, f"{name}: attempted")
    check(result["failed"] == 0, f"{name} trace={trace}: failed {result['failed']!r}")
    metrics = result["metrics"]
    check(list(metrics) == [m["name"] for m in expected], f"{name} trace={trace}: metric names")
    for m in expected:
        got = metrics[m["name"]]
        check(got["unit"] == m["unit"], f"{name}: {m['name']} unit {got['unit']} != {m['unit']}")
        check(isinstance(got["value"], (int, float)) and math.isfinite(got["value"]),
              f"{name}: {m['name']} value {got['value']!r}")


def check_perturbation_flagged(name):
    workload = workloads.WORKLOADS[name](1, smoke=True)
    records = workload.records(workload.run())
    before = workload.deviations(records)
    workloads.perturb(records)
    after = workload.deviations(records)
    check(after[0] > max(workload.tol, I.GROSS_DEVIATION, before[0]),
          f"{name}: perturbed output not flagged (deviation {before[0]:.3g} -> {after[0]:.3g})")


def main():
    on_disk = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check(on_disk == spec.benchmark_json(), "BENCHMARK.json differs from bench/spec.py's output")
    for entry in spec.WORKLOADS:
        name = entry["name"]
        check_emitted_metrics(name, 0, spec.END_TO_END)
        check_emitted_metrics(name, 1, spec.PER_LAYER)
        check_perturbation_flagged(name)
        print(f"smoke ok: {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark runner for chemnn.

    python3 bench/run.py --workload train-xor --seed 1 --seconds 20 --trace 0

Repeats the workload's fixed pass until ``--seconds`` are spent, checks
every op of every pass against ``chemnn.oracle``, and prints one JSON
object as the last line: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  Set-up time is measured in fresh
interpreters.  End-to-end times are scaled to a reference host speed
measured by bench/hostspeed.py.  BLAS is pinned to one thread.  See
bench/README.md.
"""

import time

_START = time.perf_counter()  # set-up time counts from here, imports included

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
if not (SRC / "chemnn" / "__init__.py").is_file():
    sys.exit(f"error: no chemnn sources at {SRC}")
sys.path[:0] = [str(SRC), str(HERE)]

import chemnn  # noqa: E402
from chemnn import compiler  # noqa: E402

import inputs as I  # noqa: E402
import spec  # noqa: E402
from hostspeed import REFERENCE_S, HostSpeed  # noqa: E402
import workloads  # noqa: E402
from tracing import LayerTrace  # noqa: E402

SETUP_REPEATS = 9
SETUP_TIMEOUT_S = 60


class Tally:
    """Pass times, host-speed readings and per-op oracle deviations over a run's passes."""

    def __init__(self, workload):
        self.workload = workload
        self.host = HostSpeed()
        self.cal_s = []
        self.pass_s = []
        self.check_s = []
        self.devs = []
        self.outcome = 0

    def run_pass(self):
        self.cal_s.append(self.host.measure())
        start = time.perf_counter()
        raw = self.workload.run()
        elapsed = time.perf_counter() - start
        self.pass_s.append(elapsed)
        start = time.perf_counter()
        records = self.workload.records(raw)
        self.devs.extend(self.workload.deviations(records))
        self.check_s.append(time.perf_counter() - start)
        self.outcome = self.workload.outcome(records)
        return raw, elapsed

    def close(self):
        """Time the kernel once more, so that every pass has a reading on each side."""
        self.cal_s.append(self.host.measure())

    def scaled_pass_s(self, first=0, last=None):
        """Mean time of passes[first:last] at the reference host speed."""
        last = len(self.pass_s) if last is None else last
        host_s = statistics.fmean(self.cal_s[first : last + 1])
        return statistics.fmean(self.pass_s[first:last]) * REFERENCE_S / host_s

    @property
    def missed(self):
        """Ops beyond the repository's tolerance: the numerator of fail_frac."""
        return sum(1 for d in self.devs if not d <= self.workload.tol)

    @property
    def failed(self):
        """Ops that raised, read no result or deviate grossly: each makes the run incorrect."""
        return sum(1 for d in self.devs if not d <= I.GROSS_DEVIATION)

    def result(self, metrics):
        return {
            "correct": self.failed == 0,
            "attempted": len(self.devs),
            "failed": self.failed,
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        }


def repeat_passes(tally, seconds):
    """At least one pass; another only while it is expected to end within budget."""
    start = time.perf_counter()
    while True:
        elapsed = tally.run_pass()[1]  # drop the pass's output before the next one
        if time.perf_counter() - start + elapsed > seconds:
            return


def setup_seconds(args, host):
    """Median set-up time over fresh interpreters (import, compile, Kinetics builds),
    at the reference host speed."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)] + (["--smoke"] if args.smoke else [])
    times, host_s = [], []
    for _ in range(SETUP_REPEATS):
        host_s.append(host.measure())
        out = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=SETUP_TIMEOUT_S)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times) * REFERENCE_S / statistics.fmean(host_s)


def end_to_end(args, workload):
    tally = Tally(workload)
    setup_s = setup_seconds(args, tally.host)
    repeat_passes(tally, args.seconds)
    tally.close()
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return tally.result({
        "setup_s": (setup_s, "s"),
        "run_s": (tally.scaled_pass_s(), "s"),
        "fail_frac": (tally.missed / len(tally.devs), "frac"),
        "peak_rss_mb": (peak_mb, "MB"),
    })


def _program_sizes():
    train, _ = compiler.compile_program(workloads.NET, workloads.xor_trainspec())
    ff, _ = compiler.compile_feedforward(
        workloads.NET, workloads.trained_xor_weights(), I.GRID_POINTS[: I.GRID_CHUNK]
    )
    sizes = {}
    for label, program in (("train", train), ("ff", ff)):
        sizes[f"compiler.{label}.phases"] = len(program.phases)
        sizes[f"compiler.{label}.species"] = program.crn.n_species
        sizes[f"compiler.{label}.reactions"] = program.crn.n_reactions
    return sizes


def _layer_figures(trace, pass_s):
    rhs_calls = sum(calls for calls, _ in trace.rhs.values())
    rhs_s = sum(secs for _, secs in trace.rhs.values())
    figures = {
        "compiler.compile_s": trace.compile_s,
        "compiler.compiles": trace.compiles,
        "kinetics.build_s": trace.build_s,
        "kinetics.builds": trace.builds,
        "kinetics.rhs_calls": rhs_calls,
        "kinetics.rhs_s": rhs_s,
        "kinetics.rhs_us": 1e6 * rhs_s / rhs_calls if rhs_calls else 0.0,
        "stepper.self_s": pass_s - rhs_s - trace.compile_s - trace.build_s,
    }
    for phase in spec.PHASES:
        calls, secs = trace.rhs.get(phase, (0, 0.0))
        figures[f"kinetics.rhs_calls.{phase}"] = calls
        figures[f"kinetics.rhs_s.{phase}"] = secs
    return figures


def per_layer(args, workload):
    """Half the budget untraced (the overhead baseline), half traced, then a step replay."""
    tally = Tally(workload)
    repeat_passes(tally, args.seconds / 2)
    untraced_s = statistics.fmean(tally.pass_s)
    untraced_passes = len(tally.pass_s)
    untraced_cal_s = statistics.fmean(tally.cal_s)
    per_pass = []
    start = time.perf_counter()
    with LayerTrace() as trace:
        while True:
            trace.reset()
            raw, elapsed = tally.run_pass()
            per_pass.append(_layer_figures(trace, elapsed))
            if time.perf_counter() - start + elapsed > args.seconds / 2:
                break
    tally.close()
    figures = {name: statistics.median(f[name] for f in per_pass) for name in per_pass[0]}
    steps = workload.accepted_steps(raw)
    figures["stepper.accepted"] = sum(steps.values())
    for phase in spec.PHASES:
        figures[f"stepper.accepted.{phase}"] = steps.get(phase, 0)
    figures.update(_program_sizes())
    figures["training.round_s"] = untraced_s / workload.rounds if workload.rounds else 0.0
    figures["training.termination_round"] = tally.outcome
    figures["oscillator.cycle_s"] = untraced_s / workload.cycles if workload.cycles else 0.0
    finite = [d for d in tally.devs if d != workloads.INF]
    figures["check.max_dev"] = max(finite, default=0.0)
    figures["check.s"] = statistics.median(tally.check_s)
    figures["run.wall_s"] = untraced_s
    figures["host.cal_s"] = untraced_cal_s
    figures["trace.overhead_frac"] = (
        tally.scaled_pass_s(untraced_passes) / tally.scaled_pass_s(0, untraced_passes) - 1.0
    )
    units = {m["name"]: m["unit"] for m in spec.PER_LAYER}
    return tally.result({name: (figures[name], units[name]) for name in units})


def _parser():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="one op per pass")
    parser.add_argument("--setup-only", action="store_true",
                        help="print this interpreter's set-up time and exit")
    return parser


def main(argv=None):
    args = _parser().parse_args(argv)
    if Path(chemnn.__file__).resolve().parent != SRC / "chemnn":
        sys.exit(f"error: imported chemnn from {chemnn.__file__}, not from {SRC}")
    workload = workloads.WORKLOADS[args.workload](args.seed, smoke=args.smoke)
    if args.setup_only:
        workload.setup()
        print(time.perf_counter() - _START)
        return 0
    result = per_layer(args, workload) if args.trace else end_to_end(args, workload)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

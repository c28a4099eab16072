"""Workload and metric definitions; ``python3 bench/spec.py`` rewrites BENCHMARK.json."""

import json
from pathlib import Path

RUN_SECONDS = 30

WORKLOADS = [
    {"name": "train-xor",
     "why": "the paper's phased XOR training, 8 rounds at window 200: all 16 phases, incl. the stiff "
            "O25 judgment and the 266-reaction O27, with compile under 1% of the time"},
    {"name": "ff-grid",
     "why": "many small feedforward programs (10x10 trained-XOR grid plus seeded c04 draws): compile "
            "and Kinetics build per chunk and no O25/O27/O29, so stiff stepping should not help"},
    {"name": "osc-xor",
     "why": "oscillator-mode XOR training, 4 cycles on the CLI's default ring: one long integration "
            "of the full 300-species gated network, where phase-local tricks cannot apply"},
]

END_TO_END = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "run_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "fail_frac", "unit": "frac", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
]

# The sixteen phase tags of the compiled training program (compiler.PHASE_ORDER).
PHASES = ("O1", "O3", "O5", "O7", "O9", "O11", "O13", "O15",
          "O17", "O19", "O21", "O23", "O25", "O27", "O29", "O31")


def _layer(name, unit):
    return {"name": name, "unit": unit, "better": "lower"}


PER_LAYER = (
    [_layer("compiler.compile_s", "s"), _layer("compiler.compiles", "count"),
     _layer("kinetics.build_s", "s"), _layer("kinetics.builds", "count")]
    + [_layer(f"compiler.{prog}.{size}", "count")
       for prog in ("train", "ff") for size in ("phases", "species", "reactions")]
    + [_layer("kinetics.rhs_calls", "count"), _layer("kinetics.rhs_s", "s"),
       _layer("kinetics.rhs_us", "us")]
    + [_layer(f"kinetics.rhs_calls.{p}", "count") for p in PHASES]
    + [_layer(f"kinetics.rhs_s.{p}", "s") for p in PHASES]
    + [_layer("stepper.self_s", "s"), _layer("stepper.accepted", "count")]
    + [_layer(f"stepper.accepted.{p}", "count") for p in PHASES]
    + [_layer("training.round_s", "s"), _layer("training.termination_round", "round"),
       _layer("oscillator.cycle_s", "s"),
       _layer("check.max_dev", "abs"), _layer("check.s", "s"),
       _layer("run.wall_s", "s"), _layer("host.cal_s", "s"),
       _layer("trace.overhead_frac", "frac")]
)


def benchmark_json() -> dict:
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": WORKLOADS,
        "end_to_end": END_TO_END,
        "per_layer": PER_LAYER,
    }


if __name__ == "__main__":
    out = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
    out.write_text(json.dumps(benchmark_json(), indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out}")

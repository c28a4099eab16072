"""Frozen workload inputs for the benchmark.

Every value is copied here, not imported, so that the benchmark keeps
measuring the same inputs when the package's presets and the test suite's
fixtures move.  Each constant names the line it was copied from.
"""

import numpy as np

# tests/conftest.py: XOR_SAMPLES = [[1, 0, 1], [0, 0, 0], [1, 1, 0], [0, 1, 1]]
# (also cli._PRESETS["xor"]["samples"]); rows are (x1, x2, label).
XOR_SAMPLES = np.array([[1, 0, 1], [0, 0, 0], [1, 1, 0], [0, 1, 1]], dtype=float)

# tests/conftest.py: XOR_PLUS / XOR_MINUS (also cli._PRESETS["xor"]["plus"/"minus"]);
# stacked 3x3 rails, layer-1 weights in rows 1-2 and layer-2 in row 3.
XOR_PLUS = np.array([[3, 3, 2.5], [4, 3, 2], [2, 3, 2.5]], dtype=float)
XOR_MINUS = np.array([[4, 4, 1], [3, 2, 2.5], [1, 2, 4]], dtype=float)

# tests/conftest.py: XOR_FINAL_PLUS / XOR_FINAL_MINUS, the published trained
# XOR rails that test_c11 and `chemnn train` evaluate on the decision grid.
XOR_FINAL_PLUS = np.array(
    [[3.2948, 3.2884, 3.0536], [4.3969, 3.3891, 2.8581], [2.4997, 3.4997, 3.2926]], dtype=float
)
XOR_FINAL_MINUS = np.array(
    [[4.2736, 4.2709, 1.4894], [3.3467, 2.3475, 3.2918], [1.3883, 2.3819, 4.6351]], dtype=float
)

# tests/conftest.py: JUDGE_RATES = (8.0, 1.0, 2.0, 0.4375)
# (also the cli default for train.judge_rates).
JUDGE_RATES = (8.0, 1.0, 2.0, 0.4375)

# cli._build_config defaults: train.batch_size = 2, train.eta = 0.9,
# train.threshold = 0.5, schedule.gate_eps = 1e-3.
BATCH_SIZE = 2
ETA = 0.9
THRESHOLD = 0.5
GATE_EPS = 1e-3

# tests/test_acceptance.py: GATE_RUN_WINDOW = 200.0, the window of the
# published-run checks (c01, c02, c11).
WINDOW = 200.0

# tests/test_acceptance.py::test_c11_decision_surface_grids and cli.cmd_train:
# n = 10; axis = (np.arange(n) + 0.5) / n; points (gx, gy) for gy, for gx.
GRID_N = 10
_AXIS = (np.arange(GRID_N) + 0.5) / GRID_N
GRID_POINTS = np.array([(gx, gy) for gy in _AXIS for gx in _AXIS])

# training.evaluate_outputs(..., chunk=10): rows per compiled feedforward program.
GRID_CHUNK = 10

# tests/test_acceptance.py::test_c04_feedforward_matches_reference:
# w1 = rng.normal(0, 1.5, (2, 3)); w2 = rng.normal(0, 1.5, (1, 3));
# inputs = rng.uniform(0, 1, (2, 2)).  The benchmark keeps every draw (no
# knife-edge filter).
DRAW_SCALE = 1.5
DRAW_ROWS = 2
DRAWS = 5

# cli.ExperimentConfig: oscillator = OscillatorSpec(32, 2.0), and
# cli._build_config: oscillator.threshold = 0.1.
RING_COUNT = 32
RING_RATE = 2.0
RING_THRESHOLD = 0.1

# Tolerances the repository's checks already use.
# test_c04 and cli._VERIFY_TOLERANCES["O21"/"O29"]: 1e-4 for feedforward
# outputs and round results.
TOL_PHASED = 1e-4
# cli.cmd_verify cross-mode check (`dev < 1e-2`): oscillator against exact.
TOL_OSCILLATOR = 1e-2
# Not a repository tolerance: a deviation above a quarter of the logistic's
# range is a wrong computation rather than slow settling (the worst settling
# defect measured on these workloads is about 0.12).  Ops beyond it make the
# run incorrect instead of merely failed.
GROSS_DEVIATION = 0.25

# Fixed work per pass.
TRAIN_ROUNDS = 8
OSC_CYCLES = 4

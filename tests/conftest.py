"""Shared fixtures: the two logic-gate setups and small execution helpers.

The gate samples, rail matrices and judgment rates come from
``chemnn.presets`` and are re-exported here for the test modules.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads BLAS: the exponentials of the
# phase windows are small, and on small matrices extra threads cost more
# than they save.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np
import pytest

from chemnn import oracle
from chemnn.compiler import Fragment, NetSpec, TrainSpec, WeightSet, assemble
from chemnn.crn import State
from chemnn.integrate import IntegratorConfig, PhaseSchedule, run_phased
from chemnn.presets import (  # noqa: F401  (re-exported to the test modules)
    JUDGE_RATES,
    OR_FINAL_MINUS,
    OR_FINAL_PLUS,
    OR_MINUS,
    OR_PLUS,
    OR_SAMPLES,
    XOR_FINAL_MINUS,
    XOR_FINAL_PLUS,
    XOR_MINUS,
    XOR_PLUS,
    XOR_SAMPLES,
)

# Outputs the paper reports for the trained gates on their four samples.
Y_XOR_REPORTED = np.array([0.5129, 0.4188, 0.4503, 0.5082])
Y_OR_REPORTED = np.array([0.6654, 0.3950, 0.6358, 0.5724])


class MiniProgram:
    """Just enough program surface to drive run_phased over a fragment."""

    def __init__(self, crn):
        self.crn = crn
        self.phases = crn.phases()
        self.phase_index = {p: crn.reactions_in_phase(p) for p in self.phases}


def fragment_program(fragment: Fragment, phases) -> MiniProgram:
    return MiniProgram(assemble(fragment, phases))


def run_windows(program: MiniProgram, init: dict, windows, cfg=None, default=0.0):
    """Run (phase, duration) windows from a species dict; returns the trajectory."""
    x0 = State.from_dict(program.crn.registry, init, default=default)
    schedule = PhaseSchedule(tuple((tag, float(d)) for tag, d in windows))
    return run_phased(program, x0, schedule, cfg or IntegratorConfig(), record="boundaries")


@pytest.fixture
def xor_weights() -> WeightSet:
    return WeightSet.from_stacked(XOR_PLUS, XOR_MINUS)


@pytest.fixture
def xor_trainspec(xor_weights) -> TrainSpec:
    return TrainSpec(
        samples=XOR_SAMPLES,
        batch_size=2,
        eta=0.9,
        threshold=0.5,
        judge_rates=JUDGE_RATES,
        init_weights=xor_weights,
    )


@pytest.fixture
def or_trainspec() -> TrainSpec:
    return TrainSpec(
        samples=OR_SAMPLES,
        batch_size=2,
        eta=0.9,
        threshold=0.5,
        judge_rates=JUDGE_RATES,
        init_weights=WeightSet.from_stacked(OR_PLUS, OR_MINUS),
    )


@pytest.fixture
def net221() -> NetSpec:
    return NetSpec(2, 2, 1)


def exact_replay_deviations(run, spec: TrainSpec) -> np.ndarray:
    """Per round of a chemical training run, the worst deviation of its
    outputs, errors and decoded weights from an exact replay of that round.

    Each round is replayed in floating point on the block it was fed, from
    the weights the chemistry started it with; the replay applies the
    gradient step unless every exact error is below the threshold.
    """
    blocks = oracle.batches_of(spec.samples, spec.batch_size)
    w1, w2 = spec.init_weights.decoded()
    worst = []
    for rec in run.rounds:
        batch = blocks[(rec.round_index - 1) % len(blocks)]
        outputs = oracle.forward(w1, w2, batch).outputs
        errors = np.abs(batch.labels - outputs)
        if np.all(errors < spec.threshold):
            ref_w1, ref_w2 = w1, w2
        else:
            ref_w1, ref_w2 = oracle.mbgd_step(w1, w2, batch, spec.eta)
        worst.append(max(
            np.abs(rec.outputs - outputs).max(), np.abs(rec.errors - errors).max(),
            np.abs(rec.w1 - ref_w1).max(), np.abs(rec.w2 - ref_w2).max(),
        ))
        w1, w2 = rec.w1, rec.w2
    return np.array(worst)


def finite_difference_gradients(w1, w2, batch, h=1e-5):
    """Central-difference negative loss gradient, the independent check."""

    def loss_of(v):
        trace = oracle.forward(v[:6].reshape(2, 3), v[6:].reshape(1, 3), batch)
        return oracle.loss(trace.outputs, batch.labels)

    v0 = np.concatenate([np.asarray(w1, float).ravel(), np.asarray(w2, float).ravel()])
    grad = np.zeros(9)
    for i in range(9):
        up, down = v0.copy(), v0.copy()
        up[i] += h
        down[i] -= h
        grad[i] = (loss_of(up) - loss_of(down)) / (2 * h)
    return -grad[:6].reshape(2, 3), -grad[6:].reshape(1, 3)

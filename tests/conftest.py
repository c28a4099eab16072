"""Shared fixtures: the two logic-gate setups and small execution helpers."""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads BLAS: the exponentials of the
# phase windows are small, and on small matrices extra threads cost more
# than they save.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np
import pytest

from chemnn.compiler import Fragment, NetSpec, TrainSpec, WeightSet, assemble
from chemnn.crn import State
from chemnn.integrate import IntegratorConfig, PhaseSchedule, run_phased

XOR_SAMPLES = np.array([[1, 0, 1], [0, 0, 0], [1, 1, 0], [0, 1, 1]], dtype=float)
OR_SAMPLES = np.array([[1, 0, 1], [0, 0, 0], [1, 1, 1], [0, 1, 1]], dtype=float)

XOR_PLUS = np.array([[3, 3, 2.5], [4, 3, 2], [2, 3, 2.5]], dtype=float)
XOR_MINUS = np.array([[4, 4, 1], [3, 2, 2.5], [1, 2, 4]], dtype=float)
OR_PLUS = np.array(
    [[4.1968, 1.8964, 2.8458], [1.4442, 1.2924, 3.0160], [7.4030, 8.3528, 2.5640]], dtype=float
)
OR_MINUS = np.array([[2, 6, 6], [2, 2, 2], [6, 10, 2]], dtype=float)

# Final rail matrices reported for the two trained gates.
XOR_FINAL_PLUS = np.array(
    [[3.2948, 3.2884, 3.0536], [4.3969, 3.3891, 2.8581], [2.4997, 3.4997, 3.2926]], dtype=float
)
XOR_FINAL_MINUS = np.array(
    [[4.2736, 4.2709, 1.4894], [3.3467, 2.3475, 3.2918], [1.3883, 2.3819, 4.6351]], dtype=float
)
OR_FINAL_PLUS = np.array(
    [[4.6620, 1.9115, 3.4033], [2.5240, 2.2642, 5.3571], [7.4863, 8.7303, 3.3334]], dtype=float
)
OR_FINAL_MINUS = np.array(
    [[2.3766, 6.0094, 6.4861], [3.2772, 3.2779, 4.5249], [6.0113, 10.2436, 2.3547]], dtype=float
)

Y_XOR_REPORTED = np.array([0.5129, 0.4188, 0.4503, 0.5082])
Y_OR_REPORTED = np.array([0.6654, 0.3950, 0.6358, 0.5724])

JUDGE_RATES = (8.0, 1.0, 2.0, 0.4375)


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


def finite_difference_gradients(w1, w2, batch, h=1e-5):
    """Central-difference negative loss gradient, the independent check."""
    from chemnn import oracle

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

"""Shared fixtures: the two logic-gate setups and small execution helpers.

The gate samples, rail matrices and judgment rates come from
``chemnn.presets`` and are re-exported here for the test modules.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads BLAS: the reference exponentials
# of the closed-form tests are small, and on small matrices extra threads
# cost more than they save.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np
import pytest

from chemnn import oracle
from chemnn.cli import load_config
from chemnn.compiler import (
    Fragment,
    NetSpec,
    TrainSpec,
    WeightSet,
    assemble,
    compile_feedforward,
    compile_program,
)
from chemnn.crn import State
from chemnn.integrate import IntegratorConfig, PhaseSchedule, run_phased
from chemnn.oscillator import clock_species
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

# A 3-3-1 network: samples hold three inputs and the label, and the stacked
# 4 x 4 rails hold layer 1 in rows 1-3 and layer 2 in row 4.
WIDE_CFG = """
net.input_width = 3
net.hidden_width = 3
train.samples = 1,0,1,1; 0,1,0,0; 1,1,0,1; 0,0,1,0
weights.plus = 0.5,0,0.3,0; 0,0.4,0,0.2; 0.3,0,0,0; 0.6,0,0.5,0
weights.minus = 0,0.2,0,0.1; 0.3,0,0.2,0; 0,0.5,0,0.3; 0,0.4,0,0.2
"""

# Programs that several test modules check, by name: the training programs
# of three command-line configs, and a 10-row feedforward program.
PROGRAM_CONFIGS = {
    "xor": "problem = xor\n",
    "or-batch-4": "problem = or\ntrain.batch_size = 4\ntrain.eta = 1.0\n",
    "3-3-1": WIDE_CFG,
}

# A three-reaction adder, the reaction list of the workflow's ``chemnn
# simulate`` check: c settles at a + b.
ADDER = "a -> a + c ; k=1.0\nb -> b + c ; k=1.0\nc -> 0 ; k=1.0\n"


def compiled_program(name: str, tmp_path):
    """``(program, x0)`` of a ``PROGRAM_CONFIGS`` config, compiled as
    ``chemnn compile`` does, or of ``"feedforward-10"``: the XOR weights on
    ten input rows from (0, 1) to (1, 0)."""
    if name == "feedforward-10":
        inputs = np.column_stack([np.linspace(0.0, 1.0, 10), np.linspace(1.0, 0.0, 10)])
        return compile_feedforward(NetSpec(2, 2, 1), WeightSet.from_stacked(XOR_PLUS, XOR_MINUS), inputs)
    path = tmp_path / f"{name}.cfg"
    path.write_text(PROGRAM_CONFIGS[name], encoding="utf-8")
    config = load_config(path)
    return compile_program(config.net, config.train)


class MiniProgram:
    """Just enough program surface to drive run_phased over a fragment."""

    def __init__(self, crn):
        self.crn = crn
        self.phases = crn.phases()
        self.phase_index = {p: crn.reactions_in_phase(p) for p in self.phases}


def fragment_program(fragment: Fragment, phases) -> MiniProgram:
    return MiniProgram(assemble(fragment, phases))


def judgment_of(kin, rates, slots: int = 1) -> tuple:
    """``run_window``'s ``judgment`` for a window of ``build_judgment``'s
    reactions over ``slots`` sample slots: the places of the errors, the
    companions and the gate among ``kin.species``, and the rates."""
    names = [f"e_{l}" for l in range(1, slots + 1)] + [f"ja_{l}" for l in range(1, slots + 1)]
    place = np.searchsorted(kin.species, [kin.registry.index(n) for n in names + ["gate"]])
    return (place[:slots], place[slots:-1], place[-1]), tuple(rates)


def clock_rises(traj, spec):
    """``(clocks, steps)`` of every rise of a clock through
    ``spec.on_threshold`` in time order, clock 0 being o1 and step k + 1
    the first recorded step above it.  Asserts first that at any recorded
    step at most two clocks, neighbours on the ring, are above it."""
    above = np.stack([traj.series(name) for name in clock_species(spec)]) > spec.on_threshold
    for step in np.flatnonzero(above.sum(axis=0) > 1):
        on = np.flatnonzero(above[:, step])
        assert len(on) == 2 and on[1] - on[0] in (1, spec.count - 1), traj.times[step]
    steps, clocks = np.nonzero((above[:, 1:] & ~above[:, :-1]).T)
    return clocks, steps + 1


def run_windows(program: MiniProgram, init: dict, windows, cfg=None, default=0.0):
    """Run (phase, duration) windows from a species dict; returns the trajectory."""
    x0 = State.from_dict(program.crn.registry, init, default=default)
    schedule = PhaseSchedule(tuple((tag, float(d)) for tag, d in windows))
    return run_phased(program, x0, schedule, cfg or IntegratorConfig())


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


def exact_rounds(run, spec: TrainSpec):
    """Each round of a chemical training run with its exact replay: the
    ``oracle.exact_round`` of the block it was fed, from the weights the
    chemistry started it with."""
    blocks = oracle.batches_of(spec.samples, spec.batch_size)
    w1, w2 = spec.init_weights.decoded()
    for rec in run.rounds:
        batch = blocks[(rec.round_index - 1) % len(blocks)]
        yield rec, oracle.exact_round(w1, w2, batch, spec.eta, spec.threshold)
        w1, w2 = rec.w1, rec.w2


def exact_replay_deviations(run, spec: TrainSpec) -> np.ndarray:
    """Per round of a chemical training run, the worst deviation of its
    outputs, errors and decoded weights from its exact replay."""
    return np.array([
        max(np.abs(rec.outputs - ref.trace.outputs).max(), np.abs(rec.errors - np.abs(ref.errors)).max(),
            np.abs(rec.w1 - ref.w1).max(), np.abs(rec.w2 - ref.w2).max())
        for rec, ref in exact_rounds(run, spec)
    ])


def finite_difference_gradients(w1, w2, batch, h=1e-5):
    """Central-difference negative loss gradient, the independent check, for
    weight matrices of any shape."""
    w1 = np.atleast_2d(np.asarray(w1, float))
    w2 = np.atleast_2d(np.asarray(w2, float))
    split = w1.size

    def loss_of(v):
        trace = oracle.forward(v[:split].reshape(w1.shape), v[split:].reshape(w2.shape), batch)
        return oracle.loss(trace.outputs, batch.labels)

    v0 = np.concatenate([w1.ravel(), w2.ravel()])
    grad = np.zeros(v0.size)
    for i in range(v0.size):
        up, down = v0.copy(), v0.copy()
        up[i] += h
        down[i] -= h
        grad[i] = (loss_of(up) - loss_of(down)) / (2 * h)
    return -grad[:split].reshape(w1.shape), -grad[split:].reshape(w2.shape)

"""Drive a compiled program through training rounds and decode the results.

One round is one cycle of an executor from :mod:`chemnn.integrate`: a
pass through every phase of the program, under idealized windows
(``PhasedExecutor``) or a gating clock ring (``OscillatorExecutor``).
``run_training`` is the one loop for both modes and decodes every round
the same way from the cycle's phase-boundary states.  The judgment gate is
read after its phase each round; training has genuinely halted only once
the gate stays closed for a full block rotation (``p / batch_size``
consecutive rounds), because a gate closed on one block reopens if the
next block still fails under the frozen weights.

``evaluate_outputs`` runs every row of a call through one feedforward
program.  The program and its ``PhasedExecutor`` depend only on the
network, the row count, the window and the integrator settings, so they are
compiled once per such shape and reused; a later call of the same shape
builds only its initial state from its weights and inputs.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from . import compiler
from .analysis import decode_dual_rail
from .crn import State
from .integrate import IntegratorConfig, OscillatorExecutor, PhasedExecutor
from .oscillator import OscillatorSpec

__all__ = ["RoundRecord", "TrainingRun", "run_training", "decode_weights", "evaluate_outputs"]


@dataclass
class RoundRecord:
    """Decoded observables of one training round."""

    round_index: int
    block: int
    outputs: np.ndarray
    errors: np.ndarray
    gate: float
    w1: np.ndarray
    w2: np.ndarray
    gate_open: bool = True


@dataclass
class TrainingRun:
    """Full decoded log of a chemical training run.

    ``termination_round`` is the first round of the gate's final closed
    streak (the judgment that shut the gate for good);
    ``confirmed_round`` is the round that completed the full-rotation
    confirmation and stopped the loop.
    """

    rounds: List[RoundRecord] = field(default_factory=list)
    terminated: bool = False
    termination_round: Optional[int] = None
    confirmed_round: Optional[int] = None

    @property
    def final_weights(self) -> Tuple[np.ndarray, np.ndarray]:
        last = self.rounds[-1]
        return last.w1, last.w2

    @property
    def update_decisions(self) -> List[bool]:
        """Per round: did the judgment leave the gate open (update applied)?"""
        return [rec.gate_open for rec in self.rounds]


def decode_weights(state: State, probes) -> Tuple[np.ndarray, np.ndarray]:
    """Dual-rail decode of the layer-1 and layer-2 weight matrices."""
    rows1 = max(i for i, _ in probes.weights1)
    cols1 = max(j for _, j in probes.weights1)
    rows2 = max(o for o, _ in probes.weights2)
    cols2 = max(a for _, a in probes.weights2)
    w1 = np.array(
        [[decode_dual_rail(state, probes.weights1[(i, j)]) for j in range(1, cols1 + 1)]
         for i in range(1, rows1 + 1)]
    )
    w2 = np.array(
        [[decode_dual_rail(state, probes.weights2[(o, a)]) for a in range(1, cols2 + 1)]
         for o in range(1, rows2 + 1)]
    )
    return w1, w2


def run_training(
    program,
    x0: State,
    window: float = 50.0,
    cfg: Optional[IntegratorConfig] = None,
    max_rounds: int = 60,
    gate_eps: float = 1e-3,
    oscillator: Optional[OscillatorSpec] = None,
) -> TrainingRun:
    """Run training rounds until the gate halts the loop or ``max_rounds`` pass.

    Rounds run under phase windows of length ``window``, or, given an
    ``oscillator``, under that clock ring (``window`` is then unused).
    Termination requires the gate to read below ``gate_eps`` for a full
    block rotation.  The reported termination round is the first round of
    the closing streak, i.e. the round whose judgment first shut the gate
    for good.
    """
    train = program.train
    if train is None:
        raise ValueError("program was compiled without a training specification")
    if oscillator is None:
        executor = PhasedExecutor(program, [(tag, window) for tag in program.phases], cfg)
    else:
        executor = OscillatorExecutor(program, oscillator, cfg)
    blocks = train.block_count
    slots = sorted(program.probes.error)
    run = TrainingRun()
    y, t = executor.initial_values(x0), 0.0
    streak = 0
    for m in range(1, max_rounds + 1):
        y, t, boundaries = executor.run_cycle(y, t)
        after_error = boundaries["O23"]
        outputs = np.array([after_error.get(f"ystore_{l}") for l in slots])
        errors = np.array([after_error.get(program.probes.error[l]) for l in slots])
        gate = boundaries["O25"].get(program.probes.gate)
        w1, w2 = decode_weights(boundaries["O29"], program.probes)
        closed = gate < gate_eps
        run.rounds.append(
            RoundRecord(m, (m - 1) % blocks + 1, outputs, errors, gate, w1, w2,
                        gate_open=not closed)
        )
        streak = streak + 1 if closed else 0
        if streak >= blocks:
            run.terminated = True
            run.termination_round = m - blocks + 1
            run.confirmed_round = m
            break
    return run


# Feedforward programs and executors kept for reuse, one per shape.
_CACHED_PROGRAMS = 8


@functools.lru_cache(maxsize=_CACHED_PROGRAMS)
def _feedforward(compile_feedforward, net, rows: int, window: float, cfg: IntegratorConfig):
    """A feedforward program of ``rows`` sample slots and its executor.

    The cache is keyed on the compile function too, so a replaced compiler
    (a profiler's wrapper, a test double) never gets programs and
    ``Kinetics`` made before it.  The program is compiled with zero
    weights and inputs; callers load their own with ``feedforward_state``.
    ``run_window`` takes the constants from the state at every window start,
    so the shared executor carries nothing from one call to the next.
    """
    zeros = compiler.WeightSet.from_real(
        np.zeros((net.hidden_width, net.input_width + 1)),
        np.zeros((net.output_width, net.hidden_width + 1)),
    )
    program, _ = compile_feedforward(net, zeros, np.zeros((rows, net.input_width)))
    return program, PhasedExecutor(program, [(tag, window) for tag in program.phases], cfg)


def evaluate_outputs(
    net,
    weights,
    inputs: np.ndarray,
    window: float = 50.0,
    cfg: Optional[IntegratorConfig] = None,
) -> np.ndarray:
    """Chemical feedforward evaluation of ``inputs`` (m, input_width) rows.

    Runs the phases of one feedforward program with m sample slots once and
    reads the first output carrier of every slot.  The program and its
    executor are compiled once per (network, m, window, integrator
    settings) and reused by later calls of the same shape, which load only
    their weights and inputs, so calls of one shape must not run in
    parallel threads.  Used for the final output vector and for
    decision-surface grids.
    """
    inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
    rows = inputs.shape[0]
    if rows == 0:
        return np.empty(0)
    program, executor = _feedforward(
        compiler.compile_feedforward, net, rows, float(window), cfg or IntegratorConfig()
    )
    x0 = compiler.feedforward_state(program, weights, inputs)
    _, _, boundaries = executor.run_cycle(executor.initial_values(x0), 0.0)
    final = boundaries[program.phases[-1]]
    return np.array([final.get(program.probes.outputs[(1, l)]) for l in range(1, rows + 1)])

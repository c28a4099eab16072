"""The benchmark's workloads: inputs from a seed, one pass of fixed work, oracle check.

A pass is the fixed work that one run repeats.  Every op of a pass (a
training round, a feedforward input row, an oscillator cycle) is compared
with the exact reference in ``chemnn.oracle``; ``deviations`` returns one
figure per op, ``inf`` where the op raised or produced no readable result.

The layers are called through their public entry points, by module
attribute, so that :mod:`tracing` can wrap them from outside.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List

import numpy as np

from chemnn import compiler, oracle, training
from chemnn.integrate import IntegrationError, Kinetics, PhaseSchedule, run_oscillator, run_phased
from chemnn.oscillator import OscillatorSpec, build_oscillator

import inputs as I

NET = compiler.NetSpec(2, 2, 1)
INF = float("inf")


def xor_trainspec() -> compiler.TrainSpec:
    return compiler.TrainSpec(
        samples=I.XOR_SAMPLES,
        batch_size=I.BATCH_SIZE,
        eta=I.ETA,
        threshold=I.THRESHOLD,
        judge_rates=I.JUDGE_RATES,
        init_weights=compiler.WeightSet.from_stacked(I.XOR_PLUS, I.XOR_MINUS),
    )


def trained_xor_weights() -> compiler.WeightSet:
    return compiler.WeightSet.from_stacked(I.XOR_FINAL_PLUS, I.XOR_FINAL_MINUS)


def ring() -> OscillatorSpec:
    return OscillatorSpec(I.RING_COUNT, I.RING_RATE, on_threshold=I.RING_THRESHOLD)


def round_deviations(records, rounds: int, spec: compiler.TrainSpec) -> List[float]:
    """Per round, the worst deviation from the exact loop.

    Each round is replayed exactly from the weights the chemistry started
    it with.  The expected update decision is the threshold rule applied to
    the chemistry's own error readout, so a judgment that ignores its input
    shows up as a weight deviation, while knife-edge outputs show up once,
    as output deviations.
    """
    w1, w2 = spec.init_weights.decoded()
    blocks = oracle.batches_of(spec.samples, spec.batch_size)
    devs = []
    for rec in records[:rounds]:
        batch = blocks[(rec.round_index - 1) % len(blocks)]
        ref_y = oracle.forward(w1, w2, batch).outputs
        if np.all(rec.errors < spec.threshold):
            ref_w1, ref_w2 = w1, w2
        else:
            ref_w1, ref_w2 = oracle.mbgd_step(w1, w2, batch, spec.eta)
        dev = max(
            np.abs(rec.outputs - ref_y).max(),
            np.abs(rec.errors - np.abs(batch.labels - ref_y)).max(),
            np.abs(rec.w1 - ref_w1).max(),
            np.abs(rec.w2 - ref_w2).max(),
        )
        devs.append(float(dev) if np.isfinite(dev) else INF)
        w1, w2 = rec.w1, rec.w2
    return devs + [INF] * (rounds - len(devs))


def termination_round(records, blocks: int) -> int:
    """First round of the gate's closed streak that lasts a block rotation; 0 if none."""
    streak = 0
    for rec in records:
        streak = streak + 1 if rec.gate < I.GATE_EPS else 0
        if streak >= blocks:
            return rec.round_index - blocks + 1
    return 0


def steps_per_phase(traj) -> Dict[str, int]:
    """Accepted steps inside each marked phase window of a trajectory."""
    counts: Counter = Counter()
    starts = [t for t, _ in traj.phase_marks] + [INF]
    for (start, tag), end in zip(traj.phase_marks, starts[1:]):
        counts[tag] += int(
            np.searchsorted(traj.times, end, side="right")
            - np.searchsorted(traj.times, start, side="right")
        )
    return dict(counts)


class TrainXor:
    """Phased XOR training, a fixed number of rounds; one op is one round."""

    name = "train-xor"
    tol = I.TOL_PHASED
    cycles = 0

    def __init__(self, seed: int, smoke: bool = False):
        # The training inputs are the paper's and do not depend on the seed.
        self.spec = xor_trainspec()
        self.rounds = 1 if smoke else I.TRAIN_ROUNDS

    def setup(self) -> None:
        program, _ = compiler.compile_program(NET, self.spec)
        for tag in program.phases:
            Kinetics(program.crn, program.phase_index[tag])

    def run(self):
        program, x0 = compiler.compile_program(NET, self.spec)
        # gate_eps = 0 never stops early, so the work stays fixed when the
        # termination round moves; the gate itself is read in `outcome`.
        try:
            run = training.run_training(
                program, x0, window=I.WINDOW, max_rounds=self.rounds, gate_eps=0.0
            )
        except IntegrationError:
            run = None
        return program, x0, run

    def records(self, raw):
        run = raw[2]
        return [] if run is None else run.rounds

    def deviations(self, records) -> List[float]:
        return round_deviations(records, self.rounds, self.spec)

    def outcome(self, records) -> int:
        return termination_round(records, self.spec.block_count)

    def accepted_steps(self, raw) -> Dict[str, int]:
        program, x0, _ = raw
        schedule = PhaseSchedule.uniform(program.phases, I.WINDOW, cycles=self.rounds)
        return steps_per_phase(run_phased(program, x0, schedule, record="all"))


class FfGrid:
    """Feedforward rows at the decision-grid window; one op is one input row."""

    name = "ff-grid"
    tol = I.TOL_PHASED
    rounds = cycles = 0

    def __init__(self, seed: int, smoke: bool = False):
        grid = trained_xor_weights()
        if smoke:
            self.jobs = [(grid, I.GRID_POINTS[:1])]
            return
        self.jobs = [
            (grid, I.GRID_POINTS[i : i + I.GRID_CHUNK])
            for i in range(0, len(I.GRID_POINTS), I.GRID_CHUNK)
        ]
        rng = np.random.default_rng(seed)
        for _ in range(I.DRAWS):
            w1 = rng.normal(0, I.DRAW_SCALE, (2, 3))
            w2 = rng.normal(0, I.DRAW_SCALE, (1, 3))
            rows = rng.uniform(0, 1, (I.DRAW_ROWS, 2))
            self.jobs.append((compiler.WeightSet.from_real(w1, w2), rows))

    def setup(self) -> None:
        weights, rows = self.jobs[0]
        program, _ = compiler.compile_feedforward(NET, weights, rows)
        for tag in program.phases:
            Kinetics(program.crn, program.phase_index[tag])

    def run(self):
        outputs = []
        for weights, rows in self.jobs:
            try:
                outputs.append(training.evaluate_outputs(NET, weights, rows, window=I.WINDOW))
            except IntegrationError:
                outputs.append(np.full(len(rows), np.nan))
        return outputs

    def records(self, raw):
        return [np.array(out, dtype=float) for out in raw]

    def deviations(self, records) -> List[float]:
        devs = []
        for (weights, rows), out in zip(self.jobs, records):
            batch = oracle.Batch.from_samples(np.column_stack([rows, np.zeros(len(rows))]))
            ref = oracle.forward(*weights.decoded(), batch).outputs
            dev = np.abs(out - ref)
            devs.extend(float(d) if np.isfinite(d) else INF for d in dev)
        return devs

    def outcome(self, records) -> int:
        return 0

    def accepted_steps(self, raw) -> Dict[str, int]:
        counts: Counter = Counter()
        for weights, rows in self.jobs:  # every job fits one evaluate_outputs chunk
            program, x0 = compiler.compile_feedforward(NET, weights, rows)
            schedule = PhaseSchedule.uniform(program.phases, I.WINDOW, cycles=1)
            counts.update(steps_per_phase(run_phased(program, x0, schedule, record="all")))
        return dict(counts)


class OscXor:
    """Clock-gated XOR training, a fixed number of cycles; one op is one cycle."""

    name = "osc-xor"
    tol = I.TOL_OSCILLATOR
    rounds = 0  # its cycles are training rounds, timed as oscillator cycles

    def __init__(self, seed: int, smoke: bool = False):
        # The ring is the command line's default and does not depend on the seed.
        self.spec = xor_trainspec()
        self.osc = ring()
        self.cycles = 1 if smoke else I.OSC_CYCLES

    def setup(self) -> None:
        program, _ = compiler.compile_program(NET, self.spec)
        Kinetics(program.crn)
        build_oscillator(self.osc)

    def run(self):
        program, x0 = compiler.compile_program(NET, self.spec)
        try:
            traj = run_oscillator(program, x0, self.osc, self.cycles, record="all")
        except IntegrationError:
            traj = None
        return program, traj

    def records(self, raw):
        """Decode each cycle's round readouts from its phase-window end states."""
        program, traj = raw
        if traj is None:
            return []
        phases = program.phases
        ends = traj.boundary_states()
        slots = sorted(program.probes.error)
        blocks = self.spec.block_count
        out = []
        for m in range(1, len(ends) // len(phases) + 1):
            cycle = dict(ends[(m - 1) * len(phases) : m * len(phases)])
            if tuple(cycle) != phases:
                break
            after_error, after_update = cycle["O23"], cycle["O29"]
            w1, w2 = training.decode_weights(after_update, program.probes)
            out.append(training.RoundRecord(
                m, (m - 1) % blocks + 1,
                np.array([after_error.get(f"ystore_{l}") for l in slots]),
                np.array([after_error.get(program.probes.error[l]) for l in slots]),
                cycle["O25"].get(program.probes.gate), w1, w2,
            ))
        return out

    def deviations(self, records) -> List[float]:
        return round_deviations(records, self.cycles, self.spec)

    def outcome(self, records) -> int:
        return termination_round(records, self.spec.block_count)

    def accepted_steps(self, raw) -> Dict[str, int]:
        _, traj = raw
        return {} if traj is None else steps_per_phase(traj)


WORKLOADS = {cls.name: cls for cls in (TrainXor, FfGrid, OscXor)}


def perturb(records) -> None:
    """Shift the first op's first output by half the logistic's range, in place."""
    first = records[0]
    target = first if isinstance(first, np.ndarray) else first.outputs
    target[0] += 0.5

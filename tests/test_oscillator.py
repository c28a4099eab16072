"""Clock ring construction, phase assignment, and pulse-window analysis."""

import numpy as np
import pytest

from chemnn.compiler import PHASE_ORDER, compile_program
from chemnn.crn import CrnError, State
from chemnn.integrate import IntegratorConfig, OscillatorExecutor, integrate
from chemnn.oscillator import (
    OscillatorSpec,
    assign_phases,
    build_oscillator,
    clock_species,
    initial_concentrations,
    phase_windows,
    threshold_value,
)
from chemnn.training import run_training

from conftest import exact_replay_deviations


class FakeProgram:
    def __init__(self, n):
        self.phases = tuple(f"P{i}" for i in range(n))


def _simulate(spec, duration, tol=1e-10):
    crn = build_oscillator(spec)
    x0 = State(crn.registry, initial_concentrations(spec))
    cfg = IntegratorConfig(rel_tol=tol, abs_tol=1e-14)
    return integrate(crn, x0, duration, cfg)


class TestBuild:
    def test_four_species_ring(self):
        crn = build_oscillator(OscillatorSpec(4, 1.0))
        assert crn.n_reactions == 4
        assert crn.registry.names == ("o1", "o2", "o3", "o4")
        for rxn in crn.reactions:
            assert sum(rxn.net().values()) == 0  # each handoff conserves mass

    def test_two_species_flip(self):
        crn = build_oscillator(OscillatorSpec(2, 1.0))
        assert crn.n_reactions == 2
        assert all(sum(r.net().values()) == 0 for r in crn.reactions)

    def test_reference_ring_dimensions(self):
        crn = build_oscillator(OscillatorSpec(32, 2.0))
        assert crn.n_reactions == 32
        assert all(r.rate == 2.0 for r in crn.reactions)

    def test_too_small(self):
        with pytest.raises(CrnError):
            OscillatorSpec(1, 1.0)


class TestAssignPhases:
    def test_sixteen_on_thirty_two(self):
        mapping = assign_phases(FakeProgram(16), OscillatorSpec(32, 2.0))
        assert [mapping[f"P{i}"] for i in range(16)] == [f"o{2 * i + 1}" for i in range(16)]

    def test_single_phase_on_two(self):
        assert assign_phases(FakeProgram(1), OscillatorSpec(2, 1.0)) == {"P0": "o1"}

    def test_buffering_requires_two_slots_each(self):
        with pytest.raises(CrnError):
            assign_phases(FakeProgram(16), OscillatorSpec(16, 1.0))


class TestPhaseWindows:
    def test_four_species_disjoint_cyclic(self):
        spec = OscillatorSpec(4, 1.0)
        traj = _simulate(spec, 140.0)
        windows = phase_windows(traj, spec)
        assert len(windows) >= 5  # more than one full revolution
        for (_, _, end), (_, start, _) in zip(windows, windows[1:]):
            assert end <= start + 1e-9  # disjoint
        order = [int(name[1:]) for name, _, _ in windows]
        for a, b in zip(order, order[1:]):
            assert b == a % 4 + 1  # cyclic species order

    def test_constant_state_single_window(self):
        spec = OscillatorSpec(4, 1.0)
        crn = build_oscillator(spec)
        # only one species present: an equilibrium of the ring
        x0 = State.from_dict(crn.registry, {"o2": 1.0})
        traj = integrate(crn, x0, 10.0)
        windows = phase_windows(traj, spec)
        assert len(windows) == 1
        name, start, end = windows[0]
        assert name == "o2" and start == 0.0 and end == pytest.approx(traj.times[-1])

    def test_pathological_initialization_rejected(self):
        spec = OscillatorSpec(4, 1.0, init=(0.5, 1e-6, 0.5, 1e-6))
        traj = _simulate(spec, 5.0)
        with pytest.raises(CrnError, match="non-adjacent"):
            phase_windows(traj, spec)

    def test_reference_ring_one_period(self):
        spec = OscillatorSpec(32, 2.0)
        traj = _simulate(spec, 250.0, tol=1e-8)
        windows = phase_windows(traj, spec)
        assert len(windows) >= 32
        first_cycle = windows[:32]
        assert [name for name, _, _ in first_cycle] == [f"o{i}" for i in range(1, 33)]
        for (_, _, end), (_, start, _) in zip(first_cycle, first_cycle[1:]):
            assert end <= start + 1e-9

    def test_off_phase_suppression(self):
        # after the first full revolution a species sits near its
        # initialization floor while the opposite side of the ring is
        # active; a 1e-8 floor keeps it under the 1e-6 leak bound
        floor = 1e-8
        spec = OscillatorSpec(4, 1.0, init=(1.0 - 3 * floor, floor, floor, floor))
        traj = _simulate(spec, 160.0)
        windows = phase_windows(traj, spec)
        by_species = {}
        for name, start, end in windows:
            by_species.setdefault(name, []).append((start, end))
        # o1's second window ends the first full revolution; check o1 during o3's second window
        o3_second = by_species["o3"][1]
        mid = 0.5 * (o3_second[0] + o3_second[1])
        idx = int(np.searchsorted(traj.times, mid))
        assert traj.series("o1")[idx] < 1e-6

    def test_threshold_value_scales_with_mass(self):
        spec = OscillatorSpec(4, 1.0, init=(2.0, 0.0, 0.0, 0.0), on_threshold=0.25)
        assert threshold_value(spec) == pytest.approx(0.5)


class TestOscillatorTraining:
    def test_rounds_match_exact_replay(self, net221, xor_trainspec, monkeypatch):
        """Clock-driven training rounds, each replayed exactly from the weights
        the chemistry started it with; every cycle ends every phase of the program."""
        program, x0 = compile_program(net221, xor_trainspec)
        seen = []
        run_cycle = OscillatorExecutor.run_cycle

        def spy(self, y, t, on_step=None):
            y, t, boundaries = run_cycle(self, y, t, on_step)
            seen.append(set(boundaries))
            return y, t, boundaries

        monkeypatch.setattr(OscillatorExecutor, "run_cycle", spy)
        floor = 1e-8
        init = tuple([1.0 - 31 * floor] + [floor] * 31)
        osc = OscillatorSpec(32, 0.5, init=init)
        run = run_training(program, x0, oscillator=osc, max_rounds=2)

        assert len(run.rounds) == 2
        assert seen == [set(program.phases)] * 2 and len(program.phases) == len(PHASE_ORDER)
        deviations = exact_replay_deviations(run, xor_trainspec)
        assert deviations.max() < 1e-3, deviations

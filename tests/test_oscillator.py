"""Clock ring construction, phase assignment, and the ring's pulses."""

import numpy as np
import pytest

from chemnn.compiler import PHASE_ORDER, compile_program
from chemnn.crn import Complex, Crn, CrnError, Reaction, SpeciesRegistry, State
from chemnn.crn import rhs as reference_rhs
from chemnn.integrate import (
    IntegratorConfig,
    Kinetics,
    OscillatorExecutor,
    _combine_with_clock,
    _LogClockKinetics,
    integrate,
    run_oscillator,
)
from chemnn.oscillator import (
    OscillatorSpec,
    assign_phases,
    build_oscillator,
    clock_species,
    initial_concentrations,
    ring_for,
)
from chemnn.training import RoundRecord, TrainingRun, decode_weights, run_training

from conftest import clock_rises, exact_replay_deviations


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

    @pytest.mark.parametrize("rate", [0.0, -1.0, float("nan"), float("inf")])
    def test_rate_must_be_positive_and_finite(self, rate):
        with pytest.raises(CrnError, match="rate"):
            OscillatorSpec(32, rate)

    @pytest.mark.parametrize("floor", [0.0, -1e-6, float("nan"), float("inf"), 0.03])
    def test_floor_must_leave_a_pulse(self, floor):
        """A clock at 0 never rises, a non-finite floor gives a NaN time budget,
        and at 0.03 the 32-clock pulse head starts under the 0.1 threshold:
        each is a config error up front."""
        with pytest.raises(CrnError, match="clock floor"):
            OscillatorSpec(32, 2.0, floor=floor)

    def test_threshold_must_sit_under_the_pulse_head(self):
        """At on_threshold 0.99999999 the 32-clock pulse head, 1 - 31e-6,
        starts under the threshold."""
        with pytest.raises(CrnError, match="clock floor"):
            OscillatorSpec(32, 2.0, on_threshold=0.99999999)


class TestAssignPhases:
    def test_sixteen_on_thirty_two(self):
        mapping = assign_phases(FakeProgram(16), OscillatorSpec(32, 2.0))
        assert [mapping[f"P{i}"] for i in range(16)] == [f"o{2 * i + 1}" for i in range(16)]

    def test_single_phase_on_two(self):
        assert assign_phases(FakeProgram(1), OscillatorSpec(2, 1.0)) == {"P0": "o1"}

    def test_buffering_requires_two_slots_each(self):
        with pytest.raises(CrnError):
            assign_phases(FakeProgram(16), OscillatorSpec(16, 1.0))


class TestRingFor:
    def test_each_phase_does_a_window_of_work(self):
        """Two clocks per phase, and a pulse whose integral over its cycle,
        the work a gated phase does, is the window."""
        window = 50.0
        spec = ring_for(FakeProgram(8), window)
        assert (spec.count, spec.floor) == (16, 1e-20)
        crn = build_oscillator(spec)
        x0 = State(crn.registry, initial_concentrations(spec))
        traj = integrate(crn, x0, 2.5 * 16 * window, IntegratorConfig(rel_tol=1e-10, abs_tol=1e-30))
        t, o3 = traj.times, traj.series("o3")
        peak = t[np.argmax(np.where(t > 16 * window, o3, 0.0))]  # o3's second pulse
        cycle = np.abs(t - peak) <= 8 * window
        work = np.sum(0.5 * (o3[cycle][1:] + o3[cycle][:-1]) * np.diff(t[cycle]))
        assert work == pytest.approx(window, rel=1e-4)


class TestPhaseWindows:
    """Pulses of the free ring, read from its clock columns."""

    def test_four_species_disjoint_cyclic(self):
        spec = OscillatorSpec(4, 1.0)
        clocks, _ = clock_rises(_simulate(spec, 140.0), spec)
        assert len(clocks) >= 5  # more than one full revolution
        for a, b in zip(clocks, clocks[1:]):
            assert b == (a + 1) % 4  # cyclic species order

    def test_constant_state_single_window(self):
        spec = OscillatorSpec(4, 1.0)
        crn = build_oscillator(spec)
        # only one species present: an equilibrium of the ring
        x0 = State.from_dict(crn.registry, {"o2": 1.0})
        traj = integrate(crn, x0, 10.0)
        clocks, _ = clock_rises(traj, spec)
        assert len(clocks) == 0 and np.all(traj.states == x0.values)

    def test_reference_ring_one_period(self):
        spec = OscillatorSpec(32, 2.0)
        clocks, _ = clock_rises(_simulate(spec, 250.0, tol=1e-8), spec)
        assert clocks[:32].tolist() == list(range(1, 32)) + [0]

    def test_off_phase_suppression(self):
        # after the first full revolution a species sits near its
        # initialization floor while the opposite side of the ring is
        # active; a 1e-8 floor keeps it under the 1e-6 leak bound
        spec = OscillatorSpec(4, 1.0, floor=1e-8)
        traj = _simulate(spec, 160.0)
        clocks, steps = clock_rises(traj, spec)
        # o1's rise back through the threshold ends the first full revolution; check o1 from o3's second rise on
        assert traj.series("o1")[steps[clocks == 2][1]:].max() < 1e-6

    def test_threshold_value_scales_with_mass(self):
        spec = OscillatorSpec(4, 1.0, floor=0.05, on_threshold=0.25)
        assert initial_concentrations(spec).tolist() == pytest.approx([0.85, 0.05, 0.05, 0.05])


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
        osc = OscillatorSpec(32, 0.5, floor=1e-8)
        run = run_training(program, x0, oscillator=osc, max_rounds=2)

        assert len(run.rounds) == 2
        assert seen == [set(program.phases)] * 2 and len(program.phases) == len(PHASE_ORDER)
        deviations = exact_replay_deviations(run, xor_trainspec)
        assert deviations.max() < 1e-3, deviations

    def test_recorded_window_ends_are_the_training_rounds(self, net221, xor_trainspec):
        """On osc-xor's ring (32 clocks, rate 2), four XOR rounds decoded from
        ``run_oscillator``'s window ends equal ``run_training``'s bit for bit
        and stay within 1e-2 of the exact replay: the trajectory reads each
        window on the step where the executor ended it, before the next
        phase moves it."""
        program, x0 = compile_program(net221, xor_trainspec)
        osc = OscillatorSpec(32, 2.0)
        run = run_training(program, x0, oscillator=osc, max_rounds=4, gate_eps=0.0)
        ends = run_oscillator(program, x0, osc, 4).boundary_states()
        phases, probes = program.phases, program.probes
        assert [tag for tag, _ in ends] == list(phases) * 4
        slots = sorted(probes.error)
        decoded = TrainingRun()
        for m in range(1, 5):
            cycle = dict(ends[(m - 1) * len(phases) : m * len(phases)])
            after_error = cycle["O23"]
            decoded.rounds.append(RoundRecord(
                m, (m - 1) % xor_trainspec.block_count + 1,
                np.array([after_error.get(probes.stored_outputs[l]) for l in slots]),
                np.array([after_error.get(probes.error[l]) for l in slots]),
                cycle["O25"].get(probes.gate), *decode_weights(cycle["O29"], probes),
            ))
        for got, want in zip(decoded.rounds, run.rounds, strict=True):
            for name in ("outputs", "errors", "gate", "w1", "w2"):
                np.testing.assert_array_equal(getattr(got, name), getattr(want, name), err_msg=name)
        deviations = exact_replay_deviations(decoded, xor_trainspec)
        assert deviations.max() < 1e-2, deviations

    @pytest.mark.parametrize("floor", [1e-40, 0.05])
    def test_cycle_budget_follows_the_floor(self, net221, xor_trainspec, floor):
        """A handoff takes about ln(1/floor) / rate, so the 16-clock ring's
        cycle is about 1,564 time units at floor 1e-40 and 109 at 0.05; the
        budget covers both (a cycle that misses a phase's window raises)."""
        program, x0 = compile_program(net221, xor_trainspec)
        osc = OscillatorSpec(16, 1.0, floor=floor)
        run = run_training(program, x0, oscillator=osc, max_rounds=1)
        assert len(run.rounds) == 1


class TestLogClocks:
    """The oscillator executor steps each clock as z = ln o and hands out o."""

    def test_log_rhs_is_linear_rhs_over_clock(self, net221, xor_trainspec):
        """Clock rows are the linear RHS divided by o, program rows the linear
        RHS.  The one-frame log-clock derivative equals ``Kinetics``' own
        after the exponential of the clock slots, bit for bit."""
        program, _ = compile_program(net221, xor_trainspec)
        osc = OscillatorSpec(32, 2.0)
        crn, _ = _combine_with_clock(program, osc)
        kin = _LogClockKinetics(crn, clock_species(osc))
        clocks = [crn.registry.index(name) for name in clock_species(osc)]
        assert kin.species[kin.log].tolist() == clocks
        rng = np.random.default_rng(11)
        for _ in range(3):
            values = rng.uniform(0.05, 2.0, size=crn.n_species)
            linear = reference_rhs(crn, State(crn.registry, values))[kin.species]
            kin.hold(values)
            z = values[kin.species]
            z[kin.log] = np.log(z[kin.log])
            f = kin(z)
            np.testing.assert_allclose(f[kin.linear], linear[kin.linear], rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(f[kin.log], linear[kin.log] / values[clocks], rtol=1e-12)
            kin.stage[:] = z
            np.exp(kin.stage[kin.log], out=kin.stage[kin.log])
            np.testing.assert_array_equal(f, Kinetics._derivative(kin))

    def test_log_species_need_their_own_factor(self):
        registry = SpeciesRegistry(("a", "o1", "o2"))
        ring = [
            Reaction(Complex({"o1": 1, "o2": 1}), Complex({"o2": 2}), 1.0),
            Reaction(Complex({"o2": 1, "o1": 1}), Complex({"o1": 2}), 1.0),
        ]
        _LogClockKinetics(Crn(registry, ring), ("o1", "o2"))
        feed = Reaction(Complex({"a": 1}), Complex({"o1": 1}), 1.0)  # o1's row lacks o1
        with pytest.raises(CrnError, match="'o1'"):
            _LogClockKinetics(Crn(registry, ring + [feed]), ("o1", "o2"))
        with pytest.raises(CrnError, match="last species"):
            _LogClockKinetics(Crn(registry, ring + [feed]), ("a", "o1"))

    def test_every_rhs_evaluation_is_accounted_for(self, net221, xor_trainspec, monkeypatch):
        """One cycle of the XOR program on osc-xor's ring: every RHS
        evaluation goes through ``Kinetics.__call__``, which the benchmark's
        tracer counts.  The stepper makes 1 call to start, 12 per accepted
        step (11 stages and the next first stage) and 11 per rejected
        attempt, so calls - 1 - 12 accepted is a nonnegative multiple of 11."""
        program, x0 = compile_program(net221, xor_trainspec)
        executor = OscillatorExecutor(program, OscillatorSpec(32, 2.0))
        calls, accepted = [], []
        call = Kinetics.__call__

        def counted(kin, z):
            calls.append(1)
            return call(kin, z)

        monkeypatch.setattr(Kinetics, "__call__", counted)
        executor.run_cycle(executor.initial_values(x0), 0.0, lambda t, y: accepted.append(t))
        rejected, rest = divmod(len(calls) - 1 - 12 * len(accepted), 11)
        assert len(accepted) > 0 and rejected >= 0 and rest == 0, (len(calls), len(accepted))

    def test_ring_invariants_over_four_cycles(self, net221, xor_trainspec):
        """On osc-xor's ring the stepper keeps sum(ln o) to rounding and no
        clock reaches 0; every state handed out holds concentrations, whose
        clock mass stays near 1 (log steps keep sum(ln o), not sum(o))."""
        program, x0 = compile_program(net221, xor_trainspec)
        executor = OscillatorExecutor(program, OscillatorSpec(32, 2.0))
        y = executor.initial_values(x0)
        ring = slice(y.size - 32, None)
        start = np.log(y[ring]).sum()
        drift, lowest, handed = 0.0, np.inf, []

        def watch(t, y_now):
            nonlocal drift, lowest
            drift = max(drift, abs(np.log(y_now[ring]).sum() - start))
            lowest = min(lowest, y_now[ring].min())

        t = 0.0
        for _ in range(4):
            y, t, boundaries = executor.run_cycle(y, t, watch)
            assert list(boundaries) == list(program.phases)
            handed += [s.values for s in boundaries.values()] + [y]
        assert drift < 1e-9
        assert lowest > 0.0
        for state in handed:
            clocks = state[ring]
            assert np.all((clocks > 0.0) & (clocks <= 1.0))
            assert abs(clocks.sum() - 1.0) < 1e-6

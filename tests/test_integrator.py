"""Stepper accuracy, clamping, equilibrium detection and phased execution."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chemnn.analysis import bistable_equilibria
from chemnn.compiler import build_judgment, build_logistic, assemble, NetSpec
from chemnn.crn import Complex, Crn, CrnError, Reaction, SpeciesRegistry, State, crn_from_text
from chemnn.integrate import (
    IntegrationError,
    IntegratorConfig,
    Kinetics,
    OscillatorExecutor,
    PhaseSchedule,
    PhasedExecutor,
    integrate,
    _DOP_A,
    _DOP_B,
    _DOP_E3,
    _DOP_E5,
    _DOP_TABLE,
    _MIN_STEP_FRACTION,
    _advance,
    _basin,
    _initial_step,
    run_phased,
    run_window,
)
from chemnn.crn import rhs as reference_rhs

from conftest import (
    ADDER, JUDGE_RATES, XOR_MINUS, XOR_PLUS, XOR_SAMPLES, MiniProgram, compiled_program, exact_replay_deviations,
    exact_rounds, fragment_program, judgment_of, run_windows,
)

TIGHT = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-15)


def _tight_reference(crn, idx, y0, duration):
    """A window's end by full-network steps at the tight tolerances."""
    sub = Crn(crn.registry, [crn.reactions[j] for j in idx])
    return integrate(sub, State(crn.registry, y0), duration, TIGHT).final_state().values


def _decay_crn():
    return Crn(
        SpeciesRegistry(("c",)),
        [Reaction(Complex({"c": 1}), Complex({}), 1.0)],
    )


def _reversible_crn():
    """a <-> b at rates 1 and 0.5: each row reads the other."""
    return Crn(
        SpeciesRegistry(("a", "b")),
        [
            Reaction(Complex({"a": 1}), Complex({"b": 1}), 1.0),
            Reaction(Complex({"b": 1}), Complex({"a": 1}), 0.5),
        ],
    )


class TestIntegrate:
    def test_pure_decay_closed_form(self):
        traj = integrate(_decay_crn(), State(_decay_crn().registry, np.array([1.0])), 1.0)
        assert traj.times[-1] == pytest.approx(1.0)
        assert traj.final_state().get("c") == pytest.approx(math.exp(-1.0), abs=1e-8)

    def test_addition_gadget_settles_at_sum(self):
        crn = crn_from_text(ADDER)
        x0 = State.from_dict(crn.registry, {"a": 1.0, "b": 2.0, "c": 0.0})
        traj = integrate(crn, x0, 20.0)
        assert traj.final_state().get("c") == pytest.approx(3.0, abs=1e-6)

    def test_sigmoid_rail_limit(self):
        # with the pair preset at one half, the activation settles at 1/(1+e^-n)
        frag = build_logistic("hidden", NetSpec(), p_tilde=1)
        program = fragment_program(frag, ("O13",))
        init = {"n1_1_1p": 1.0, "h1_1": 0.5, "h1_1b": 0.5}
        traj = run_windows(program, init, [("O13", 30.0)])
        assert traj.final_state().get("h1_1") == pytest.approx(0.7310585786300049, abs=1e-6)
        assert traj.final_state().get("h1_1b") == pytest.approx(0.2689414213699951, abs=1e-6)

    def test_nonpositive_duration_rejected(self):
        x0 = State(_decay_crn().registry, np.array([1.0]))
        for duration in (0.0, np.nan, np.inf):
            with pytest.raises(IntegrationError):
                integrate(_decay_crn(), x0, duration)

    @pytest.mark.parametrize("duration", [np.nan, np.inf])
    def test_nonfinite_schedule_rejected(self, duration):
        program = fragment_program(build_judgment(JUDGE_RATES, p_tilde=1), ("O23", "O25"))
        with pytest.raises(IntegrationError, match="'O25'"):
            PhasedExecutor(program, [("O25", duration)])

    @pytest.mark.parametrize("duration, untagged, message", [
        pytest.param(np.nan, False, "phase 'O25' duration", id="nan"),
        pytest.param(np.inf, False, "phase 'O25' duration", id="inf"),
        pytest.param(np.inf, True, "^window duration", id="untagged"),
    ])
    def test_nonfinite_window_rejected(self, duration, untagged, message):
        """The error names the phase, or says "window" for untagged reactions."""
        if untagged:
            crn = _decay_crn()
            kin = Kinetics(crn)
        else:
            program = fragment_program(build_judgment(JUDGE_RATES, p_tilde=1), ("O23", "O25"))
            crn = program.crn
            kin = Kinetics(crn, program.phase_index["O25"])
        with pytest.raises(IntegrationError, match=message):
            run_window(kin, np.zeros(crn.n_species), 0.0, duration, IntegratorConfig())

    def test_fast_kinetics_matches_reference_rhs(self, tmp_path):
        """Every phase and the whole network of four programs, against ``crn.rhs``."""
        rng = np.random.default_rng(7)
        for name in ("xor", "or-batch-4", "3-3-1", "feedforward-10"):
            program, _ = compiled_program(name, tmp_path)
            crn = program.crn
            subsets = [(None, crn)] + [
                (idx, Crn(crn.registry, [crn.reactions[j] for j in idx]))
                for idx in program.phase_index.values()
            ]
            for idx, sub in subsets:
                kin = Kinetics(crn, idx)
                outside = np.setdiff1d(np.arange(crn.n_species), kin.species)
                for _ in range(3):
                    values = rng.uniform(0.0, 2.0, size=crn.n_species)
                    expected = reference_rhs(sub, State(crn.registry, values))
                    # constants held, changed species passed
                    kin.hold(values)
                    f = kin(values[kin.species])
                    np.testing.assert_allclose(f, expected[kin.species], rtol=1e-12, atol=1e-12,
                                               err_msg=f"{name} {kin.phases}")
                    assert np.all(expected[outside] == 0.0)
                    # bit for bit the factor loop that the one-product term table replaced
                    gathered = kin._buffer.take(kin._factors)
                    terms = gathered[0] * kin._coeff
                    for row in gathered[1:]:
                        terms *= row
                    np.testing.assert_array_equal(f, np.bincount(kin._rows, terms, f.size))

    def test_full_network_callers_step_changed_species(self, monkeypatch):
        """``integrate``, a whole-network ``run_window`` and an oscillator cycle
        step the changed species alone: a catalyst ``k`` and an inert ``idle``
        stay bit-identical, every state they hand out is full-length, and the
        stepper's ``f`` is exactly ``kin(z)`` at every accepted step."""
        from chemnn import integrate as integrate_mod
        from chemnn.oscillator import OscillatorSpec

        advance = integrate_mod._advance
        seen = []

        def spy(kin, z, t0, duration, cfg, on_step=None, *, full):
            def check(t, z_now, f):
                seen.append(z_now.size)
                np.testing.assert_array_equal(f, kin(z_now))
                return on_step is not None and on_step(t, z_now, f)

            assert z.size == kin.species.size < full.size
            return advance(kin, z, t0, duration, cfg, check, full=full)

        monkeypatch.setattr(integrate_mod, "_advance", spy)
        registry = SpeciesRegistry(("a", "b", "k", "idle"))
        reactions = [
            Reaction(Complex({"a": 1, "k": 1}), Complex({"b": 1, "k": 1}), 1.0, "P1"),
            Reaction(Complex({"b": 1}), Complex({"a": 1}), 0.5, "P2"),
        ]
        crn = Crn(registry, reactions)
        x0 = State.from_dict(registry, {"a": 1.0, "b": 0.2, "k": 0.7, "idle": 0.3})
        still = [registry.index("k"), registry.index("idle")]

        traj = integrate(crn, x0, 5.0)
        assert traj.states.shape == (len(traj), 4) and len(traj) > 2
        assert np.all(traj.states[:, still] == x0.values[still])
        settled, _ = run_window(Kinetics(crn), x0.values, 0.0, 100.0, IntegratorConfig())
        assert settled.size == 4 and np.abs(reference_rhs(crn, State(registry, settled))).max() < 1e-9
        assert np.all(settled[still] == x0.values[still])

        executor = OscillatorExecutor(MiniProgram(crn), OscillatorSpec(4, 1.0))
        y0 = executor.initial_values(x0)
        states = []
        y, _, boundaries = executor.run_cycle(y0, 0.0, lambda t, y_now: states.append(y_now.copy()))
        states += [s.values for s in boundaries.values()] + [y]
        assert set(boundaries) == {"P1", "P2"} and len(states) > 3
        for s in states:
            assert s.size == y0.size and np.all(s[still] == y0[still])
        assert set(seen) == {2, 2 + 4}  # a and b, then also the four clocks

    def test_stiffness_diagnostic_names_species(self):
        # second-order self-amplification blows up in finite time
        crn = Crn(
            SpeciesRegistry(("a",)),
            [Reaction(Complex({"a": 2}), Complex({"a": 3}), 1.0)],
        )
        with pytest.raises(IntegrationError, match="'a'"):
            integrate(crn, State(crn.registry, np.array([2.0])), 1.0)

    def test_phase_local_stiffness_diagnostic_names_species(self):
        # only 'a' changes, so the window steps a one-entry vector; the
        # diagnostic must map its index back through the kinetics' species
        crn = Crn(
            SpeciesRegistry(("x", "a")),
            [Reaction(Complex({"a": 2, "x": 1}), Complex({"a": 3, "x": 1}), 1.0)],
        )
        kin = Kinetics(crn)
        assert list(kin.species) == [1] and not kin.first_order
        with pytest.raises(IntegrationError, match="'a'"):
            run_window(kin, np.array([1.0, 2.0]), 0.0, 1.0, IntegratorConfig())


class TestDop853:
    """The copied DOP853 coefficients, as the stepper reads them from
    ``_DOP_TABLE``, against the order conditions they meet, so that a
    mistyped digit or a mis-stacked row fails here instead of silently
    costing steps."""

    # The nodes in closed form (Hairer, Norsett and Wanner, Sec. II.10).
    C = np.array([
        0.0, (6 - math.sqrt(6)) * 2 / 135, (6 - math.sqrt(6)) / 45, (6 - math.sqrt(6)) / 30,
        (6 + math.sqrt(6)) / 30, 1 / 3, 1 / 4, 4 / 13, 127 / 195, 3 / 5, 6 / 7, 1.0,
    ])
    # The stage weights of the table's rows: A, then B, E5 and E3.
    A, (B, E5, E3) = _DOP_TABLE[:12, 1:], _DOP_TABLE[12:, 1:]

    def test_table_stacks_the_tableau(self):
        """Each stage input and the new state take y once; the error
        estimates, which are differences of two solutions, take no y."""
        assert _DOP_TABLE.shape == (15, 13)
        np.testing.assert_array_equal(self.A, _DOP_A)
        np.testing.assert_array_equal(_DOP_TABLE[12:, 1:], [_DOP_B, _DOP_E5, _DOP_E3])
        np.testing.assert_array_equal(_DOP_TABLE[:13, 0], np.ones(13))
        np.testing.assert_array_equal(_DOP_TABLE[13:, 0], [0.0, 0.0])

    def test_explicit_with_nodes_as_row_sums(self):
        assert np.all(np.triu(self.A) == 0.0)
        np.testing.assert_allclose(self.A.sum(axis=1), self.C, rtol=0.0, atol=1e-14)

    def test_quadrature_orders(self):
        """B integrates polynomials up to degree 7; the embedded fifth- and
        third-order weights B - E5 and B - E3 up to degrees 4 and 2."""
        for weights, order in ((self.B, 8), (self.B - self.E5, 5), (self.B - self.E3, 3)):
            for k in range(1, order + 1):
                assert weights @ self.C ** (k - 1) == pytest.approx(1 / k, abs=1e-14), (order, k)
        assert abs(self.E5.sum()) < 1e-14 and abs(self.E3.sum()) < 1e-14

    @pytest.mark.parametrize("rel_tol", [1e-6, 1e-8, 1e-10])
    def test_decay_error_follows_tolerance(self, rel_tol):
        """On y' = -y over five time units the end error stays below ten
        times the relative tolerance."""
        x0 = State(_decay_crn().registry, np.array([1.0]))
        cfg = IntegratorConfig(rel_tol=rel_tol, abs_tol=rel_tol * 1e-2)
        end = integrate(_decay_crn(), x0, 5.0, cfg).final_state().get("c")
        assert abs(end / math.exp(-5.0) - 1.0) < 10 * rel_tol


class TestConservationAlongTrajectories:
    def test_annihilation_difference_constant(self):
        crn = Crn(
            SpeciesRegistry(("np", "nm")),
            [Reaction(Complex({"np": 1, "nm": 1}), Complex({}), 1.0)],
        )
        cfg = IntegratorConfig()
        traj = integrate(crn, State.from_dict(crn.registry, {"np": 3.0, "nm": 1.0}), 10.0, cfg)
        diff = traj.series("np") - traj.series("nm")
        assert np.max(np.abs(diff - 2.0)) <= 10 * cfg.abs_tol

    def test_clock_mass_constant(self):
        from chemnn.oscillator import OscillatorSpec, build_oscillator, initial_concentrations

        spec = OscillatorSpec(4, 1.0)
        crn = build_oscillator(spec)
        x0 = State(crn.registry, initial_concentrations(spec))
        cfg = IntegratorConfig()
        traj = integrate(crn, x0, 60.0, cfg)
        mass = traj.states.sum(axis=1)
        assert np.max(np.abs(mass - mass[0])) <= 10 * cfg.abs_tol


class TestEquilibrium:
    """A whole network settles as the window of ``Kinetics(crn)``."""

    @staticmethod
    def _settle(crn, x0, duration):
        y, t = run_window(Kinetics(crn), x0.values, 0.0, duration, IntegratorConfig())
        assert t == duration
        return State(crn.registry, y)

    def test_annihilation_boundary_point(self):
        crn = Crn(
            SpeciesRegistry(("np", "nm")),
            [Reaction(Complex({"np": 1, "nm": 1}), Complex({}), 1.0)],
        )
        x0 = State.from_dict(crn.registry, {"np": 3.0, "nm": 1.0})
        state = self._settle(crn, x0, 100.0)
        assert np.abs(reference_rhs(crn, state)).max() < 1e-8
        assert state.get("np") == pytest.approx(2.0, abs=1e-5)
        assert state.get("nm") == pytest.approx(0.0, abs=1e-5)

    def test_idempotent_restart(self):
        # residual tolerances at or above 1e-6 stay inside the integrator's
        # own noise floor (per-step error ~ rel_tol * |y|), so the read is
        # reliable and a restart at the returned point stays there.
        crn = crn_from_text(ADDER)
        x0 = State.from_dict(crn.registry, {"a": 1.0, "b": 2.0, "c": 0.0})
        state = self._settle(crn, x0, 100.0)
        again = self._settle(crn, state, 100.0)
        assert np.abs(reference_rhs(crn, state)).max() < 1e-6
        assert np.abs(reference_rhs(crn, again)).max() < 1e-6
        np.testing.assert_allclose(again.values, state.values)
        np.testing.assert_allclose([state.get(name) for name in "abc"], [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("e0, target", [(0.9, 3.5), (0.3, 0.0)])
    def test_residual_floor_certified_by_the_basin(self, e0, target):
        """The O25 judgment alone: its steps jitter near a stable point at a
        residual of about 1e-7, far above 1e-12.  Its basin plan certifies
        the point, and the window ends there, settled."""
        from chemnn.compiler import Fragment

        frag = build_judgment(JUDGE_RATES, p_tilde=1)
        crn = assemble(Fragment([r for r in frag.reactions if r.phase == "O25"], frag.roles), ("O25",))
        x0 = State.from_dict(crn.registry, {"e_1": e0, "ja_1": (1 / 8) * e0 * e0})
        times = []
        kin = Kinetics(crn)
        y, _ = run_window(kin, x0.values, 0.0, 500.0, IntegratorConfig(),
                          lambda t, y_now: times.append(t), judgment=judgment_of(kin, JUDGE_RATES))
        state = State(crn.registry, y)
        assert kin.settled
        assert np.abs(reference_rhs(crn, state)).max() < 1e-12
        assert state.get("e_1") == pytest.approx(target, abs=1e-9)
        # the last report is the plan's, at the end
        assert times[-1] == 500.0

    def test_judgment_basins(self):
        frag = build_judgment(JUDGE_RATES, p_tilde=1)
        crn = assemble(frag, ("O23", "O25"))
        k1, k2 = JUDGE_RATES[0], JUDGE_RATES[1]
        program = MiniProgram(crn)
        for e0, target in ((0.6, 3.5), (0.4, 0.0)):
            init = {"e_1": e0, "ja_1": (k2 / k1) * e0 * e0}
            traj = run_windows(program, init, [("O25", 400.0)])
            assert traj.final_state().get("e_1") == pytest.approx(target, abs=1e-4)


class TestClamping:
    def test_trajectories_stay_nonnegative(self):
        crn = Crn(
            SpeciesRegistry(("a", "b")),
            [
                Reaction(Complex({"a": 1}), Complex({"b": 1}), 5.0),
                Reaction(Complex({"b": 1}), Complex({}), 1.0),
            ],
        )
        traj = integrate(crn, State.from_dict(crn.registry, {"a": 1.0}), 5.0)
        assert traj.states.min() >= 0.0

    @settings(max_examples=25, deadline=None)
    @given(st.floats(0.1, 5.0), st.floats(0.0, 5.0), st.floats(0.0, 5.0))
    def test_nonnegativity_random_inits(self, k, a0, b0):
        crn = Crn(
            SpeciesRegistry(("a", "b")),
            [
                Reaction(Complex({"a": 1, "b": 1}), Complex({}), k),
                Reaction(Complex({"a": 1}), Complex({}), 1.0),
            ],
        )
        traj = integrate(crn, State.from_dict(crn.registry, {"a": a0, "b": b0}), 5.0)
        assert traj.states.min() >= 0.0


class TestPhasedExecution:
    def test_empty_schedule_returns_start(self, net221, xor_trainspec):
        from chemnn.compiler import compile_program

        program, x0 = compile_program(net221, xor_trainspec)
        traj = run_phased(program, x0, PhaseSchedule((), cycle_count=1))
        assert len(traj) == 1
        np.testing.assert_allclose(traj.states[0], x0.values)

    def test_unknown_phase_rejected(self, net221, xor_trainspec):
        from chemnn.compiler import compile_program

        program, x0 = compile_program(net221, xor_trainspec)
        with pytest.raises(CrnError):
            run_phased(program, x0, PhaseSchedule.uniform(("O99",), 1.0))

    def test_only_active_phase_reacts(self):
        frag = build_logistic("hidden", NetSpec(), p_tilde=1)
        program = fragment_program(frag, ("O13",))
        # schedule a window for O13 only after holding: state untouched by other phases
        init = {"n1_1_1p": 1.0, "h1_1": 0.5, "h1_1b": 0.5}
        traj = run_windows(program, init, [("O13", 1e-3)])
        assert traj.final_state().get("h1_1") != pytest.approx(0.5, abs=1e-9)

    def test_phase_marks_and_boundaries(self, net221, xor_trainspec):
        from chemnn.compiler import compile_program

        program, x0 = compile_program(net221, xor_trainspec)
        schedule = PhaseSchedule.uniform(program.phases[:3], 2.0, cycles=2)
        traj = run_phased(program, x0, schedule, record="all")
        assert [p for _, p in traj.phase_marks] == list(program.phases[:3]) * 2
        boundaries = traj.boundary_states()
        assert len(boundaries) == 6

    @pytest.mark.parametrize("case", ["xor", "assignment"])
    def test_boundaries_are_the_executors_window_ends(self, net221, xor_trainspec, monkeypatch, case):
        """Window by window, ``boundary_states`` holds the state on which
        ``PhasedExecutor`` ended the window, and each window is marked from
        the end of the one before it: over two XOR rounds at window 50,
        where the judgment windows are stepped, and over c08's loading,
        store and rotation windows, whose tags repeat within one cycle."""
        from chemnn import integrate as integrate_mod
        from chemnn.compiler import build_assignment, compile_program

        if case == "xor":
            program, x0 = compile_program(net221, xor_trainspec)
            schedule = PhaseSchedule.uniform(program.phases, 50.0, cycles=2)
        else:
            program = fragment_program(build_assignment(4, 2), ("O7", "O15", "O29"))
            init = {f"{name}_{i}": XOR_SAMPLES[i - 1, c]
                    for i in range(1, 5) for c, name in enumerate(("x1", "x2", "d"))}
            x0 = State.from_dict(program.crn.registry, {**init, "c1_1": 1.0, "c2_2": 1.0})
            schedule = PhaseSchedule((("O29", 50.0), ("O7", 50.0), ("O15", 50.0)) * 4)
        ended = []
        window = integrate_mod.run_window

        def spy(kin, *args, **kwargs):
            y, t = window(kin, *args, **kwargs)
            ended.append(("/".join(kin.phases), t, y.copy()))
            return y, t

        monkeypatch.setattr(integrate_mod, "run_window", spy)
        traj = run_phased(program, x0, schedule)
        assert len(ended) == len(schedule.phases) * schedule.cycle_count
        starts = [0.0] + [t for _, t, _ in ended[:-1]]
        assert traj.phase_marks == [(start, tag) for start, (tag, _, _) in zip(starts, ended)]
        assert [tag for tag, _ in traj.boundary_states()] == [tag for tag, _, _ in ended]
        for (_, state), (_, t, y) in zip(traj.boundary_states(), ended):
            np.testing.assert_array_equal(state.values, y)
            np.testing.assert_array_equal(traj.states[traj.times == t][-1], y)

    def test_record_mode_must_be_all(self, net221, xor_trainspec):
        from chemnn.compiler import compile_program
        from chemnn.integrate import run_oscillator
        from chemnn.oscillator import OscillatorSpec

        program, x0 = compile_program(net221, xor_trainspec)
        with pytest.raises(ValueError, match="'boundaries'"):
            run_phased(program, x0, PhaseSchedule.uniform(program.phases, 50.0), record="boundaries")
        with pytest.raises(ValueError, match="'boundaries'"):
            run_oscillator(program, x0, OscillatorSpec(16, 1.0), 1, record="boundaries")


class CountingKinetics(Kinetics):
    """Kinetics that counts its right-hand-side evaluations."""

    def __init__(self, crn, reaction_indices=None):
        super().__init__(crn, reaction_indices)
        self.calls = 0

    def __call__(self, x):
        self.calls += 1
        return super().__call__(x)


class OverflowCountingKinetics(Kinetics):
    """Kinetics that counts the evaluations whose derivative is not finite."""

    def __init__(self, crn, reaction_indices=None):
        super().__init__(crn, reaction_indices)
        self.overflows = 0

    def __call__(self, x):
        f = super().__call__(x)
        self.overflows += not np.all(np.isfinite(f))
        return f


TRAIN_FIRST_ORDER = ("O7", "O15", "O29")
FF_FIRST_ORDER = ("O7", "O15")
# The logistic windows: a conserved pair per activation, driven by decaying rails.
PAIR_WINDOWS = ("O13", "O21")
# The error readout and the gradient phase: catalytic products in levels.
CASCADES = ("O23", "O27")
# Reaction groups checked on their own, under the tags they ran as before they
# joined the weighted sums: id -> phase that now runs them.  O3 and O5 are the
# selector store and the block rotation, O11 and O19 the activation pair presets.
SUBSET_WINDOWS = {"O3": "O7", "O5": "O15", "O11": "O7", "O19": "O15"}
# The former O1 group, the sample loading and the store drains that now run in
# O29, checked on its own from the state round 2 brings to O29.
ROUND2_O1 = "O1-round2"


def _subset_reactions(program, tag):
    """The reactions of the ``SUBSET_WINDOWS`` group ``tag``, or of the
    ``ROUND2_O1`` group, as their builders make them."""
    from chemnn.compiler import build_assignment, build_logistic_preset, build_pair_precalc

    train = program.train
    if tag == ROUND2_O1:
        frags = (build_assignment(train.sample_count, train.batch_size),
                 build_pair_precalc(program.net, train.batch_size))
        return [r for frag in frags for r in frag.reactions if r.phase == "O29"]
    phase = SUBSET_WINDOWS[tag]
    if tag in ("O3", "O5"):
        moves = build_assignment(train.sample_count, train.batch_size).reactions
        return [r for r in moves if r.phase == phase]
    layer = "hidden" if phase == "O7" else "output"
    return build_logistic_preset(layer, program.net, train.batch_size).reactions


@pytest.fixture(scope="module")
def xor_round():
    """The compiled XOR training program and the state entering each phase of
    its first round, plus the state entering round 2's O29 under ``ROUND2_O1``."""
    from chemnn.compiler import TrainSpec, WeightSet, compile_program

    spec = TrainSpec(
        samples=XOR_SAMPLES, batch_size=2, eta=0.9, threshold=0.5,
        judge_rates=JUDGE_RATES, init_weights=WeightSet.from_stacked(XOR_PLUS, XOR_MINUS),
    )
    program, x0 = compile_program(NetSpec(2, 2, 1), spec)
    executor = PhasedExecutor(program, [(tag, 200.0) for tag in program.phases])
    y, t, ends = executor.run_cycle(x0.values, 0.0)
    entering = [x0.values] + [ends[tag].values for tag in program.phases[:-1]]
    entering = dict(zip(program.phases, entering))
    _, _, ends = executor.run_cycle(y, t)
    entering[ROUND2_O1] = ends[program.phases[program.phases.index("O29") - 1]].values
    return program, entering


# The reference for the closed forms of first-order and pair windows: the
# matrix exponential by scaling and squaring with a degree-13 Padé
# approximant (Higham, SIAM J. Matrix Anal. Appl. 2005).  The package itself
# takes no matrix exponential.  _PADE13 holds the numerator coefficients and
# _THETA13 the 1-norm below which degree 13 needs no scaling (Higham 2005,
# Table 2.3).  Squaring s times raises the Padé result to the power 2^s,
# which multiplies its relative rounding error, the unit roundoff 2^-53, by
# about 2^s; past _MAX_SQUARINGS = 52 nothing is left.
_PADE13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0, 1187353796428800.0,
    129060195264000.0, 10559470521600.0, 670442572800.0, 33522128640.0,
    1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0,
)
_THETA13 = 5.371920351148152
_MAX_SQUARINGS = 52


def _squarings(norm):
    """The squarings that scale a finite 1-norm ``norm`` down to ``_THETA13``."""
    return max(0, int(np.ceil(np.log2(norm / _THETA13)))) if norm > 0 else 0


def _expm(a):
    """The reference exponential of one matrix or a stack ``(..., k, k)``,
    scaled by the largest 1-norm; a non-finite stack, or one that needs
    more than ``_MAX_SQUARINGS`` squarings, gets all NaN."""
    norm = float(np.abs(a).sum(axis=-2).max(initial=0.0))
    ident = np.eye(a.shape[-1])
    if norm == 0.0:
        return np.broadcast_to(ident, a.shape).copy()
    if not np.isfinite(norm) or norm > _THETA13 * 2.0**_MAX_SQUARINGS:
        return np.full(a.shape, np.nan)
    s = _squarings(norm)
    a = a / 2.0**s
    b = _PADE13
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2) + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
    v = a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2) + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident
    r = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        r = r @ r
    return r


class TestClosedFormWindows:
    """Closed-form windows, and the reference exponential they are checked against."""

    def test_expm_of_zero_is_identity(self):
        np.testing.assert_array_equal(_expm(np.zeros((4, 4))), np.eye(4))

    @pytest.mark.parametrize("lam, t", [(-0.7, 3.0), (0.25, 1.5), (-2.0, 50.0)])
    def test_expm_of_jordan_block(self, lam, t):
        jordan = np.array([[lam, 1.0, 0.0], [0.0, lam, 1.0], [0.0, 0.0, lam]])
        expected = math.exp(lam * t) * np.array(
            [[1.0, t, t * t / 2], [0.0, 1.0, t], [0.0, 0.0, 1.0]]
        )
        np.testing.assert_allclose(_expm(jordan * t), expected, rtol=1e-12, atol=1e-300)

    def test_expm_of_jordan_block_stack(self):
        """The three Jordan cases in one stack, under one common scaling."""
        pairs = [(-0.7, 3.0), (0.25, 1.5), (-2.0, 50.0)]
        stack = np.array([[[lam, 1.0, 0.0], [0.0, lam, 1.0], [0.0, 0.0, lam]] for lam, _ in pairs])
        stack *= np.array([t for _, t in pairs])[:, None, None]
        expected = np.array([
            math.exp(lam * t) * np.array([[1.0, t, t * t / 2], [0.0, 1.0, t], [0.0, 0.0, 1.0]])
            for lam, t in pairs
        ])
        np.testing.assert_allclose(_expm(stack), expected, rtol=1e-12, atol=1e-300)

    def test_expm_of_non_finite_is_nan(self):
        for bad in (np.inf, np.nan):
            assert np.all(np.isnan(_expm(np.array([[0.0, 1.0], [bad, 0.0]]))))

    def test_expm_past_the_squaring_limit_is_nan(self):
        """An augmented [[-x, x], [0, 0]] whose scaling needs 52 squarings
        still gets a finite result; one that needs 53 or more gets all NaN.
        Squared that often, the exact unit corner would read 0."""
        limit = _THETA13 * 2.0**_MAX_SQUARINGS  # the 1-norm that takes s = 52
        assert _MAX_SQUARINGS == 52
        for x, finite in ((limit, True), (limit * 1.01, False), (1e18, False)):
            aug = np.array([[[-x, x], [0.0, 0.0]], [[-1.0, 1.0], [0.0, 0.0]]])
            expo = _expm(aug)
            assert np.all(np.isfinite(expo)) if finite else np.all(np.isnan(expo)), x

    @pytest.mark.parametrize("window", [1e16, 1e18])
    def test_long_closed_form_ends_where_window_200_ends(self, xor_round, window):
        """O15 over 1e16 or 1e18 time units, where its augmented exponential
        would need 54 or 58 squarings, is solved species by species: it ends
        where window 200 ends, up to the e^-200 that window leaves to decay,
        and the selector species ``c1_3`` keeps exactly 1."""
        program, entering = xor_round
        kin = Kinetics(program.crn, program.phase_index["O15"])
        short, _ = run_window(kin, entering["O15"], 0.0, 200.0, IntegratorConfig())
        long, _ = run_window(kin, entering["O15"], 0.0, window, IntegratorConfig())
        np.testing.assert_allclose(long, short, rtol=0.0, atol=1e-80)
        assert long[program.crn.registry.index("c1_3")] == 1.0

    def test_unplanned_reversible_window_is_stepped(self):
        """A reversible a <-> b has no plan, so its window is stepped for its
        whole length and reports that it did not settle: windows of 5 and
        100 end within 1e-9 of tight steps.  Over 1e15 time units the
        smallest allowed step, 1e-14 of the window, is too long for the
        steps to stay stable: the window is an error."""
        crn = _reversible_crn()
        kin = Kinetics(crn)
        assert kin.plan is None
        y0 = np.array([1.0, 0.2])
        for window in (5.0, 100.0):
            y, _ = run_window(kin, y0, 0.0, window, IntegratorConfig())
            ref = _tight_reference(crn, range(crn.n_reactions), y0, window)
            np.testing.assert_allclose(y, ref, rtol=0.0, atol=1e-9, err_msg=str(window))
            assert kin.settled is False, window
        with pytest.raises(IntegrationError):
            run_window(kin, y0, 0.0, 1e15, IntegratorConfig())

    def test_first_order_rule_picks_linear_phases(self, xor_round, net221, xor_weights):
        from chemnn.compiler import compile_feedforward

        program, _ = xor_round
        ff, _ = compile_feedforward(net221, xor_weights, np.array([[0.0, 1.0]]))
        for prog, first_order in ((program, TRAIN_FIRST_ORDER), (ff, FF_FIRST_ORDER)):
            kinetics = [(t, Kinetics(prog.crn, prog.phase_index[t])) for t in prog.phases]
            assert tuple(t for t, kin in kinetics if kin.first_order) == first_order
            assert tuple(t for t, kin in kinetics if kin.pairs is not None) == PAIR_WINDOWS

    @pytest.mark.parametrize(
        "tag", TRAIN_FIRST_ORDER + tuple(SUBSET_WINDOWS) + PAIR_WINDOWS + CASCADES + (ROUND2_O1,)
    )
    def test_closed_form_matches_tight_dp45(self, xor_round, tag):
        """The closed form matches tight full-network steps at window 200, and
        at window 2 where the logistic's rails are still far from zero, so
        that the pair windows check the rail integral too, and the cascades
        their products mid-approach.  Round 1's O29 also drains the output
        store and loads the next block, and the loading and drains alone do
        so again entering round 2's O29."""
        program, entering = xor_round
        crn = program.crn
        if tag in SUBSET_WINDOWS or tag == ROUND2_O1:
            phase, group = SUBSET_WINDOWS.get(tag, "O29"), _subset_reactions(program, tag)
            idx = tuple(j for j in program.phase_index[phase] if crn.reactions[j] in group)
            assert len(idx) == len(group) > 0
            y0 = entering[tag if tag == ROUND2_O1 else phase]
        else:
            idx = program.phase_index[tag]
            y0 = entering[tag]
        if tag in ("O29", ROUND2_O1):
            assert min(y0[crn.registry.index(f"ystore_{l}")] for l in (1, 2)) > 0.1
        kin = CountingKinetics(crn, idx)
        sub = Crn(crn.registry, [crn.reactions[j] for j in idx])
        tight = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-15)
        for window in (200.0, 2.0):
            y, t = run_window(kin, y0, 0.0, window, IntegratorConfig())
            assert t == window and kin.calls == 0
            ref = integrate(sub, State(crn.registry, y0), window, tight).final_state().values
            np.testing.assert_allclose(y, ref, rtol=0.0, atol=1e-9, err_msg=str(window))

    def test_window_leaves_other_species_untouched(self, xor_round):
        program, entering = xor_round
        for tag in program.phases:
            kin = Kinetics(program.crn, program.phase_index[tag])
            y0 = entering[tag]
            y, _ = run_window(kin, y0, 0.0, 200.0, IntegratorConfig())
            outside = np.setdiff1d(np.arange(y0.size), kin.species)
            assert np.array_equal(y[outside], y0[outside]), tag

    def test_decay_window_is_exact(self):
        kin = CountingKinetics(_decay_crn())
        y, _ = run_window(kin, np.array([1.0]), 0.0, 1.0, IntegratorConfig())
        assert kin.calls == 0
        assert y[0] == pytest.approx(math.exp(-1.0), rel=1e-14)

    def test_window_without_changed_species(self):
        kin = Kinetics(_decay_crn(), [])
        y, t = run_window(kin, np.array([0.5]), 1.0, 2.0, IntegratorConfig())
        assert y[0] == 0.5 and t == pytest.approx(3.0)

    def test_negative_end_state_rejected_or_clipped(self):
        kin = Kinetics(_decay_crn())
        cfg = IntegratorConfig()
        with pytest.raises(IntegrationError, match="'c'"):
            run_window(kin, np.array([-1e-3]), 0.0, 0.1, cfg)
        y, _ = run_window(kin, np.array([-1e-11]), 0.0, 0.1, cfg)
        assert y[0] == 0.0


def _conversion_crn(catalysts, held=(), members=("a", "b")):
    """b -> a catalysed by ``catalysts``, each of which decays, and by the
    constants ``held``; the conversion reads the pair members ``members``."""
    names = ("a", "b") + tuple(catalysts) + tuple(held)
    reactant = dict.fromkeys(tuple(members) + tuple(catalysts) + tuple(held), 1)
    product = {**reactant, "a": reactant.get("a", 0) + 1}
    del product["b"]
    reactions = [Reaction(Complex(reactant), Complex(product), 0.7)]
    reactions += [Reaction(Complex({c: 1}), Complex({}), 1.0) for c in catalysts]
    return Crn(SpeciesRegistry(names), reactions)


class TestPairWindows:
    """Driven conserved-pair windows are solved through the pair's logit; any
    subset that breaks the pair rules is stepped."""

    TIGHT = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-15)

    def _run(self, crn, idx, y0, duration):
        """The window's end under the default settings, and under tight steps."""
        kin = CountingKinetics(crn, idx)
        y, _ = run_window(kin, y0, 0.0, duration, IntegratorConfig())
        sub = Crn(crn.registry, [crn.reactions[j] for j in idx])
        ref = integrate(sub, State(crn.registry, y0), duration, self.TIGHT).final_state().values
        return kin, y, ref

    def test_decay_on_a_member_steps(self):
        frag = build_logistic("hidden", NetSpec(), p_tilde=1)
        frag.add({"h1_1": 1}, {}, 0.5, "O13")
        crn = assemble(frag, ("O13",))
        init = {"n1_1_1p": 1.0, "n1_1_1m": 0.3, "h1_1": 0.5, "h1_1b": 0.5, "h2_1": 0.5, "h2_1b": 0.5}
        y0 = State.from_dict(crn.registry, init).values
        idx = crn.reactions_in_phase("O13")
        assert Kinetics(crn, idx).pairs is None
        kin, y, ref = self._run(crn, idx, y0, 20.0)
        assert kin.calls > 0
        np.testing.assert_allclose(y, ref, rtol=0.0, atol=1e-8)

    @pytest.mark.parametrize("catalysts, members", [(("c", "d"), ("a", "b")), (("c",), ("b",))],
                             ids=["two-drivers", "member-not-read"])
    def test_broken_conversion_steps(self, catalysts, members):
        crn = _conversion_crn(catalysts, members=members)
        init = {"a": 0.3, "b": 0.9, "c": 1.5, "d": 2.0}
        y0 = State.from_dict(crn.registry, {n: init[n] for n in crn.registry.names}).values
        idx = range(crn.n_reactions)
        assert Kinetics(crn, idx).pairs is None
        kin, y, ref = self._run(crn, idx, y0, 20.0)
        assert kin.calls > 0
        np.testing.assert_allclose(y, ref, rtol=0.0, atol=1e-8)

    def test_one_driver_catalyst_is_closed_form(self):
        crn = _conversion_crn(("c",), held=("k",))
        y0 = State.from_dict(crn.registry, {"a": 0.3, "b": 0.9, "c": 1.5, "k": 0.5}).values
        kin, y, ref = self._run(crn, range(crn.n_reactions), y0, 3.0)
        assert kin.calls == 0
        np.testing.assert_allclose(y, ref, rtol=0.0, atol=1e-9)

    def test_held_catalyst_only_is_exact(self):
        """With no changed catalyst the logit grows linearly: L = L0 + s k K t."""
        crn = _conversion_crn((), held=("k",))
        y0 = State.from_dict(crn.registry, {"a": 0.3, "b": 0.9, "k": 0.5}).values
        kin, y, ref = self._run(crn, range(crn.n_reactions), y0, 3.0)
        assert kin.calls == 0
        logit = math.log(0.3 / 0.9) + 1.2 * 0.7 * 0.5 * 3.0
        assert y[0] == pytest.approx(1.2 / (1.0 + math.exp(-logit)), rel=1e-14)
        assert y[1] == pytest.approx(1.2 / (1.0 + math.exp(logit)), rel=1e-14)
        np.testing.assert_allclose(y, ref, rtol=0.0, atol=1e-9)

    def test_member_at_zero_stays(self):
        """A pair with a member at exactly 0 does not move, and the other pair
        of the same window is still solved; no warning is raised."""
        frag = build_logistic("hidden", NetSpec(), p_tilde=1)
        crn = assemble(frag, ("O13",))
        init = {"n1_1_1p": 1.0, "n1_1_1m": 0.3, "h1_1": 0.0, "h1_1b": 1.0,
                "n1_2_1p": 0.4, "h2_1": 0.5, "h2_1b": 0.7}
        y0 = State.from_dict(crn.registry, init).values
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            kin, y, ref = self._run(crn, crn.reactions_in_phase("O13"), y0, 5.0)
        assert kin.calls == 0
        for name in ("h1_1", "h1_1b"):
            i = crn.registry.index(name)
            assert y[i] == y0[i]
        np.testing.assert_allclose(y, ref, rtol=0.0, atol=1e-9)


def _pade_end(a, f, z, tau):
    """End of z' = A z + f after ``tau`` by the augmented exponential, and
    the squarings of its scaling.  The constant column enters as tau f / c
    and leaves times c, a power of two that keeps that column, which sums
    |f| over every species, from setting the scaling."""
    m = z.size
    norm = tau * np.abs(a).sum(axis=0).max(initial=0.0)
    column = tau * np.abs(f).sum()
    c = 2.0 ** math.ceil(math.log2(column / norm)) if column > norm > 0 else 1.0
    aug = np.zeros((m + 1, m + 1))
    aug[:m, :m] = a * tau
    aug[:m, m] = f * tau / c
    expo = _expm(aug)
    return expo[:m, :m] @ z + c * expo[:m, m], _squarings(max(norm, column / c))


def _pade_window(kin, y0, tau):
    """End of ``kin``'s closed-form window from the full state ``y0`` by the
    augmented exponential of its affine system (``_pade_end``), through the
    logits of a pair window, and that exponential's relative rounding: the
    Padé result's u = 2^-53 doubled by each of its s squarings, 2^s u.
    f is the derivative at z = 0 and column k of A the derivative at the
    unit vector e_k less f, exact for the first-order terms.  A pair
    window's conversions vanish at z = 0 and at every e_k, which leaves each
    ``num`` row free to carry its logit: each conversion adds its term, with
    the changed factors at 1, times the pair sum, per unit of its catalyst
    or as a constant."""
    kin.hold(y0)
    m, pairs = kin.species.size, kin.pairs
    f = kin(np.zeros(m))
    a = np.column_stack([kin(unit) - f for unit in np.eye(m)]) if m else np.zeros((0, 0))
    z = y0[kin.species]
    if pairs is not None:
        z, sums, members = pairs.logits(z)
        held = np.where(kin._factors < m, kin._buffer.size - 1, kin._factors)[:, pairs.term]
        rate = sums[pairs.pair] * kin._coeff[pairs.term] * kin._buffer.take(held).prod(axis=0)
        row, driven = pairs.num[pairs.pair], pairs.catalyst < m
        np.add.at(a, (row[driven], pairs.catalyst[driven]), rate[driven])
        np.add.at(f, row[~driven], rate[~driven])
    end, s = _pade_end(a, f, z, tau)
    if pairs is not None:
        pairs.members(end, sums, members)
    y = y0.copy()
    y[kin.species] = end
    return y, 2.0 ** (s - 53)


def _small_crn(reactions):
    """A CRN of ((reactants, products), rate) entries, species in order of appearance."""
    names = {}
    for (reactant, product), _ in reactions:
        names.update(dict.fromkeys(list(reactant) + list(product)))
    return Crn(
        SpeciesRegistry(tuple(names)),
        [Reaction(Complex(r), Complex(p), k) for (r, p), k in reactions],
    )


def _planned_window(kin, y0, tau):
    """``run_window``'s end, which must come from the plan, settled."""
    y, _ = run_window(kin, y0, 0.0, tau, IntegratorConfig())
    assert kin.plan is not None and kin.settled
    return y


class TestElementwiseClosedForm:
    """Own rows (z' = d z + f) and integrator rows (no rate term, reading own
    rows without a constant term), classified from the subset's structure,
    are solved species by species by the window's plan; any other
    first-order window without a cascade plan is stepped."""

    @staticmethod
    def _check(reactions, init, tau):
        crn = _small_crn(reactions)
        y0 = State.from_dict(crn.registry, init).values
        kin = CountingKinetics(crn)
        end = _planned_window(kin, y0, tau)
        assert kin.calls == 0
        np.testing.assert_allclose(end, _pade_window(kin, y0, tau)[0], rtol=0.0, atol=1e-13)
        return dict(zip(crn.registry.names, end))

    def test_pure_decay(self):
        """One species per rate, among them a fast and a long decay."""
        rates = {"c1": 0.7, "c2": 1.0, "c3": 2.0, "c4": 0.25}
        reactions = [(({c: 1}, {}), k) for c, k in rates.items()]
        end = self._check(reactions, dict.fromkeys(rates, 1.3), 3.0)
        for c, k in rates.items():
            assert end[c] == pytest.approx(1.3 * math.exp(-3.0 * k), rel=1e-15)

    def test_constant_production_at_zero_diagonal(self):
        """z' = f with no rate term (phi1(0) = 1), beside production with decay."""
        reactions = [(({}, {"a": 1}), 0.4), (({}, {"b": 1}), 0.5), (({"b": 1}, {}), 1.0)]
        end = self._check(reactions, {"a": 0.2, "b": 0.1}, 2.5)
        assert end["a"] == pytest.approx(0.2 + 0.4 * 2.5, rel=1e-15)
        assert end["b"] == pytest.approx(0.5 + (0.1 - 0.5) * math.exp(-2.5), rel=1e-15)

    def test_integrator_row_with_own_constant(self):
        """A transfer target reading one decay, and one reading two decays
        plus a constant term of its own (the opposite-sign case, which no
        first-order mass-action term makes, is the logit's below)."""
        reactions = [
            (({"c": 1}, {"ct": 1}), 0.3), (({"c": 1}, {}), 0.4), (({}, {"ct": 1}), 0.2),
            (({"u": 1}, {}), 1.0), (({"v": 1}, {}), 0.5),
            (({"u": 1}, {"u": 1, "w": 2}), 1.0), (({"v": 1}, {"v": 1, "w": 1}), 1.0),
            (({}, {"w": 1}), 0.1),
        ]
        init = {"c": 1.5, "ct": 0.4, "u": 0.8, "v": 1.2, "w": 0.3}
        end = self._check(reactions, init, 4.0)
        expected = 0.4 + 0.2 * 4.0 + 0.3 * 1.5 * -math.expm1(-0.7 * 4.0) / 0.7
        assert end["ct"] == pytest.approx(expected, rel=1e-15)

    def test_logit_pair_window(self):
        """The logit of a driven pair is an integrator row reading its
        decaying driver, and, in a second window, two drivers of opposite
        sign plus a constant term from a held catalyst; the other member's
        row stays put until the members are read back."""
        crn = _conversion_crn(("c",), held=("k",))
        y0 = State.from_dict(crn.registry, {"a": 0.3, "b": 0.9, "c": 1.5, "k": 0.5}).values
        kin = Kinetics(crn)
        assert kin.pairs is not None
        end = _planned_window(kin, y0, 3.0)
        np.testing.assert_allclose(end, _pade_window(kin, y0, 3.0)[0], rtol=0.0, atol=1e-13)
        reactions = [
            (({"a": 1, "b": 1, "u": 1}, {"a": 2, "u": 1}), 0.7),
            (({"a": 1, "b": 1, "v": 1}, {"b": 2, "v": 1}), 0.4),
            (({"a": 1, "b": 1, "k": 1}, {"a": 2, "k": 1}), 0.5),
            (({"u": 1}, {}), 1.0), (({"v": 1}, {}), 0.5),
        ]
        init = {"a": 0.3, "b": 0.9, "u": 1.5, "v": 2.0, "k": 0.5}
        end = self._check(reactions, init, 3.0)
        logit = math.log(0.3 / 0.9) + 1.2 * (
            0.7 * 1.5 * -math.expm1(-3.0) - 0.4 * 2.0 * -math.expm1(-1.5) / 0.5 + 0.5 * 0.5 * 3.0)
        assert end["a"] == pytest.approx(1.2 / (1.0 + math.exp(-logit)), rel=1e-14)

    @pytest.mark.parametrize("reactions", [
        # each row reads the other
        [(({"a": 1}, {"b": 1}), 1.0), (({"b": 1}, {"a": 1}), 0.5)],
        # a ring of three transfers
        [(({"a": 1}, {"b": 1}), 1.0), (({"b": 1}, {"c": 1}), 0.5), (({"c": 1}, {"a": 1}), 0.25)],
    ], ids=["reversible", "ring"])
    def test_other_windows_are_stepped(self, reactions, monkeypatch):
        """Two first-order windows whose rows read each other in a cycle, so
        neither plan applies: at windows of 5 and 100 the window takes RHS
        calls and no closed form, is stepped to its end and reports that it
        did not settle; its steps match tight DOP853 steps."""
        from chemnn import integrate as integrate_mod

        closed = []
        closed_form = integrate_mod._closed_form
        monkeypatch.setattr(integrate_mod, "_closed_form", lambda *a: closed.append(1) or closed_form(*a))
        crn = _small_crn(reactions)
        kin = CountingKinetics(crn)
        assert kin.first_order and kin.plan is None
        y0 = np.linspace(1.2, 0.3, crn.n_species)
        for window in (5.0, 100.0):
            kin.calls = 0
            y, t = run_window(kin, y0, 0.0, window, IntegratorConfig())
            assert t == window and kin.calls > 0 and not closed and kin.settled is False
            ref = _tight_reference(crn, range(crn.n_reactions), y0, window)
            np.testing.assert_allclose(y, ref, rtol=0.0, atol=1e-9, err_msg=str(window))

    @pytest.mark.parametrize("k", [0.0, 0.5])
    def test_rows_are_classified_by_structure(self, k):
        """``k -> k + c``, ``c -> ct`` and ``c -> 0`` with the held catalyst k:
        c has a constant term by structure, so ``ct``, which reads c, is not
        an integrator row even when k is 0 and that term is 0 in value.  At
        either k the window has no one-level plan but a cascade plan, with c
        on the first level and ct on the second; it ends with no RHS call
        and no exponential, and matches tight DOP853 steps."""
        from chemnn.integrate import _one_level

        crn = _small_crn([
            (({"k": 1}, {"k": 1, "c": 1}), 0.8), (({"c": 1}, {"ct": 1}), 1.0), (({"c": 1}, {}), 0.5),
        ])
        y0 = State.from_dict(crn.registry, {"k": k, "c": 1.2, "ct": 0.3}).values
        kin = CountingKinetics(crn)
        assert kin.first_order and _one_level(kin) is None and len(kin.plan.levels) == 2
        y = _planned_window(kin, y0, 5.0)
        assert kin.calls == 0
        tight = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-15)
        ref = integrate(crn, State(crn.registry, y0), 5.0, tight)
        np.testing.assert_allclose(y, ref.final_state().values, rtol=0.0, atol=1e-10)

    def test_compiled_programs_take_no_rhs_call(self, xor_round, net221, xor_weights, monkeypatch):
        """One XOR training cycle and one ``evaluate_outputs`` call, once the
        judgment's basin is built: every window but the judgment, the error
        readout O23 and the gradient cascade O27 among them, is solved by
        its plan, the judgment by its basin plan from its start, and no
        window makes an RHS call or ends unsettled."""
        from chemnn import integrate as integrate_mod
        from chemnn.training import evaluate_outputs

        program, entering = xor_round
        assert _basin(program.judgment.rates) is not None
        calls, windows, closed = [0], [], []
        call, window, closed_form = Kinetics.__call__, integrate_mod.run_window, integrate_mod._closed_form

        def counted(kin, z):
            calls[0] += 1
            return call(kin, z)

        def spy(kin, *args, **kwargs):
            end = window(kin, *args, **kwargs)
            windows.append(kin.settled)
            return end

        monkeypatch.setattr(Kinetics, "__call__", counted)
        monkeypatch.setattr(integrate_mod, "run_window", spy)
        monkeypatch.setattr(integrate_mod, "_closed_form", lambda *a: closed.append(1) or closed_form(*a))
        executor = PhasedExecutor(program, [(tag, 200.0) for tag in program.phases])
        executor.run_cycle(entering[program.phases[0]], 0.0)
        assert len(windows) == 8 and len(closed) == 7  # every window but O25
        rows = np.random.default_rng(3).uniform(0.0, 1.0, (10, 2))
        evaluate_outputs(net221, xor_weights, rows, window=200.0)
        assert len(windows) == len(closed) + 1 == 12  # and O7, O13, O15, O21
        assert all(windows) and calls[0] == 0

    def test_every_closed_form_window_has_a_plan(self, xor_trainspec, or_trainspec):
        """The XOR and OR training programs (OR also as one block of four),
        the 3-3-1 network's, and feedforward programs of 1, 2 and 10 rows:
        every window has a plan and ends by it, settled, from the state a
        window-200 cycle brings it, except the judgment, whose rates have a
        basin plan.  At windows 200 and 1e6 a first-order or pair window's
        end matches the reference exponential's within 1e-13, relative above
        1, or within twice the exponential's own rounding 2^s u where that
        is larger.  The reference's 9 or 10 squarings leave it 1.1e-13 off
        at window 200 (OR's weighted sum 14.0 reads 14 - 1.6e-12 there), and
        its 21 or 22 squarings up to 4.7e-10 at 1e6 (a 1.0 reads 1 - 2^-31).
        The cascades O23 and O27 are not first order, so their reference at
        window 200 is tight DOP853 steps (rel_tol 1e-12, abs_tol 1e-15),
        within 1e-10.  The planned end at 1e6 matches its end at 200 within
        1e-13: every module has settled, up to the e^-200 that window 200
        leaves."""
        from dataclasses import replace

        from chemnn.compiler import TrainSpec, WeightSet, compile_feedforward, compile_program

        wide = TrainSpec(
            samples=np.array([[1, 0, 1, 1], [0, 1, 0, 0], [1, 1, 0, 1], [0, 0, 1, 0]], dtype=float),
            batch_size=2, eta=0.9, threshold=0.5, judge_rates=JUDGE_RATES,
            init_weights=WeightSet.from_stacked(
                [[0.5, 0, 0.3, 0], [0, 0.4, 0, 0.2], [0.3, 0, 0, 0], [0.6, 0, 0.5, 0]],
                [[0, 0.2, 0, 0.1], [0.3, 0, 0.2, 0], [0, 0.5, 0, 0.3], [0, 0.4, 0, 0.2]]),
        )
        programs = [
            compile_program(NetSpec(2, 2, 1), xor_trainspec),
            compile_program(NetSpec(2, 2, 1), or_trainspec),
            compile_program(NetSpec(2, 2, 1), replace(or_trainspec, batch_size=4, eta=1.0)),
            compile_program(NetSpec(3, 3, 1), wide),
        ]
        rng = np.random.default_rng(17)
        for rows in (1, 2, 10):
            programs.append(compile_feedforward(
                NetSpec(2, 2, 1), xor_trainspec.init_weights, rng.uniform(0.0, 1.0, (rows, 2))))
        planned = 0
        for program, x0 in programs:
            executor = PhasedExecutor(program, [(tag, 200.0) for tag in program.phases])
            _, _, ends = executor.run_cycle(x0.values, 0.0)
            entering = [x0.values] + [ends[tag].values for tag in program.phases[:-1]]
            for tag, y0 in zip(program.phases, entering):
                kin = Kinetics(program.crn, program.phase_index[tag])
                if program.judgment is not None and tag == program.judgment.tag:
                    assert kin.plan is None and _basin(program.judgment.rates) is not None
                    continue
                planned += 1
                ends = {}
                for window in (200.0, 1e6):
                    ends[window] = _planned_window(kin, y0, window)
                    if tag in CASCADES:
                        if window == 200.0:
                            idx = program.phase_index[tag]
                            ref = _tight_reference(program.crn, idx, y0, window)
                            np.testing.assert_allclose(ends[window], ref, rtol=0.0, atol=1e-10, err_msg=tag)
                        continue
                    ref, rounding = _pade_window(kin, y0, window)
                    tol = max(1e-13, 2 * rounding)
                    np.testing.assert_allclose(ends[window], ref, rtol=tol, atol=tol, err_msg=tag)
                np.testing.assert_allclose(ends[1e6], ends[200.0], rtol=0.0, atol=1e-13, err_msg=tag)
        assert planned == 4 * 7 + 3 * 4


class TestCascadePlan:
    """Windows whose rows order into levels, each row decaying at its own
    held rate and driven by held constants and by products of at most two
    species on earlier levels, are solved by a cascade plan: no RHS call and
    no exponential, and ends within 1e-10 of tight DOP853 steps (rel_tol
    1e-12, abs_tol 1e-15), relative above 1."""

    TIGHT = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-15)

    def _check(self, reactions, init, tau, levels):
        crn = _small_crn(reactions)
        y0 = State.from_dict(crn.registry, init).values
        kin = CountingKinetics(crn)
        end = _planned_window(kin, y0, tau)
        assert kin.calls == 0 and len(kin.plan.levels) == levels
        ref = integrate(crn, State(crn.registry, y0), tau, self.TIGHT).final_state().values
        np.testing.assert_allclose(end, ref, rtol=1e-10, atol=1e-10)
        return dict(zip(crn.registry.names, end))

    @pytest.mark.parametrize("reactions", [
        # the decay the transfer target reads has a constant source
        [(({}, {"c": 1}), 0.5), (({"c": 1}, {"ct": 1}), 1.0)],
        # the transfer target decays
        [(({"c": 1}, {"ct": 1}), 1.0), (({"ct": 1}, {}), 0.5)],
    ], ids=["read-column-with-source", "reader-decays"])
    def test_chain_windows(self, reactions):
        """Two first-order windows with no one-level plan: c is the first
        level and ct, which reads it, the second."""
        self._check(reactions, {"c": 1.2, "ct": 0.3}, 5.0, levels=2)

    @pytest.mark.parametrize("tau", [0.5, 3.0, 40.0])
    def test_resonant_chain(self, tau):
        """a -> b -> c -> 0, every rate 1: b ends at a0 tau e^-tau and c at
        a0 tau^2 / 2 e^-tau, where partial fractions would divide by 0."""
        reactions = [(({"a": 1}, {"b": 1}), 1.0), (({"b": 1}, {"c": 1}), 1.0), (({"c": 1}, {}), 1.0)]
        end = self._check(reactions, {"a": 1.3, "b": 0.0, "c": 0.0}, tau, levels=3)
        assert end["b"] == pytest.approx(1.3 * tau * math.exp(-tau), rel=1e-14)
        assert end["c"] == pytest.approx(1.3 * tau * tau / 2 * math.exp(-tau), rel=1e-14)

    @pytest.mark.parametrize("tau", [0.5, 3.0, 40.0])
    def test_near_resonant_rates(self, tau):
        """a decays at 1 into b, which decays at 1 + 1e-9 and drives c, which
        decays at 1 - 1e-9: b ends at a0 e^-tau (1 - e^(-1e-9 tau)) / 1e-9,
        whose two exponentials agree to nine digits."""
        delta = 1e-9
        reactions = [
            (({"a": 1}, {"b": 1}), 1.0), (({"b": 1}, {}), 1.0 + delta),
            (({"b": 1}, {"b": 1, "c": 1}), 0.6), (({"c": 1}, {}), 1.0 - delta),
        ]
        end = self._check(reactions, {"a": 1.3, "b": 0.0, "c": 0.2}, tau, levels=3)
        expected = 1.3 * math.exp(-tau) * -math.expm1(-delta * tau) / delta
        assert end["b"] == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("tau", [0.5, 3.0, 40.0, 1e6, 1e12])
    def test_product_of_two_species(self, tau):
        """c is made from a * b, two decaying species (b also from a
        constant), and e from c * a, a product across levels; at windows of
        1e6 and 1e12 every species has settled."""
        reactions = [
            (({"a": 1}, {}), 1.0), (({"b": 1}, {}), 0.5), (({}, {"b": 1}), 0.3),
            (({"a": 1, "b": 1}, {"a": 1, "b": 1, "c": 1}), 0.7), (({"c": 1}, {}), 2.0),
            (({"a": 1, "c": 1}, {"a": 1, "c": 1, "e": 1}), 1.1), (({"e": 1}, {}), 0.25),
        ]
        init = {"a": 1.5, "b": 0.4, "c": 0.1, "e": 0.05}
        end = self._check(reactions, init, tau, levels=3)
        if tau >= 1e6:
            assert end["a"] == end["c"] == end["e"] == 0.0
            assert end["b"] == pytest.approx(0.6, rel=1e-15)

    def test_square_of_one_species(self):
        """``2 a -> 2 a + c``: c is driven by a^2, which decays at 2, c's own
        rate, so c ends at c0 e^(-2 tau) + k a0^2 tau e^(-2 tau)."""
        reactions = [(({"a": 1}, {}), 1.0), (({"a": 2}, {"a": 2, "c": 1}), 0.9), (({"c": 1}, {}), 2.0)]
        end = self._check(reactions, {"a": 1.5, "c": 0.3}, 3.0, levels=2)
        expected = (0.3 + 0.9 * 1.5**2 * 3.0) * math.exp(-6.0)
        assert end["c"] == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("k, tau", [(0.0, 2.0), (0.0, 1e6), (1e-12, 1e6)])
    def test_zero_held_rate(self, k, tau):
        """a and b decay at the held rate k, which may be 0: a is fed a
        constant 0.4 and drives b, so at k = 0 a ends at a0 + 0.4 tau and b
        at b0 + a0 tau + 0.2 tau^2, all of whose nodes are 0."""
        reactions = [
            (({"k": 1, "a": 1}, {"k": 1}), 1.0), (({}, {"a": 1}), 0.4),
            (({"a": 1}, {"a": 1, "b": 1}), 1.0), (({"k": 1, "b": 1}, {"k": 1}), 1.0),
        ]
        end = self._check(reactions, {"k": k, "a": 0.7, "b": 0.2}, tau, levels=2)
        if k == 0.0:
            assert end["a"] == pytest.approx(0.7 + 0.4 * tau, rel=1e-15)
            assert end["b"] == pytest.approx(0.2 + 0.7 * tau + 0.2 * tau * tau, rel=1e-15)

    @pytest.mark.parametrize("reactions", [
        # each row reads the other
        [(({"a": 1}, {"b": 1}), 1.0), (({"b": 1}, {"a": 1}), 0.5)],
        # a's consumption reads b
        [(({"a": 1, "b": 1}, {"c": 1}), 1.0), (({"b": 1}, {}), 0.5)],
        # a product of three changed species
        [(({"a": 1, "b": 1, "c": 1}, {"a": 1, "b": 1, "c": 1, "e": 1}), 1.0),
         (({"a": 1}, {}), 1.0), (({"b": 1}, {}), 1.0), (({"c": 1}, {}), 1.0)],
        # a second-order decay
        [(({"a": 2}, {"a": 1}), 1.0)],
    ], ids=["cycle", "consumption", "three-factors", "second-order-decay"])
    def test_other_windows_have_no_cascade(self, reactions):
        from chemnn.integrate import _cascade

        assert _cascade(Kinetics(_small_crn(reactions))) is None

    def test_growth_is_a_non_finite_end(self):
        """a grows at rate 1 and drives b; over 1000 time units a overflows."""
        crn = _small_crn([(({"a": 1}, {"a": 2}), 1.0), (({"a": 1}, {"a": 1, "b": 1}), 1.0),
                          (({"b": 1}, {}), 1.0)])
        kin = Kinetics(crn)
        assert kin.plan.levels
        y, _ = run_window(kin, np.array([0.5, 0.1]), 0.0, 10.0, IntegratorConfig())
        assert y[0] == pytest.approx(0.5 * math.exp(10.0), rel=1e-14)
        with pytest.raises(IntegrationError, match="non-finite"):
            run_window(kin, np.array([0.5, 0.1]), 0.0, 1000.0, IntegratorConfig())

    def test_negative_end_state_rejected_or_clipped(self):
        crn = _small_crn([(({"a": 1}, {"b": 1}), 1.0), (({"b": 1}, {}), 1.0)])
        kin = Kinetics(crn)
        assert kin.plan.levels
        with pytest.raises(IntegrationError, match="'b'"):
            run_window(kin, np.array([0.0, -1e-3]), 0.0, 0.1, IntegratorConfig())
        y, _ = run_window(kin, np.array([0.0, -1e-11]), 0.0, 0.1, IntegratorConfig())
        assert y[1] == 0.0

    @pytest.mark.parametrize("window", [1e6, 1e12])
    def test_long_windows_end_where_window_200_ends(self, xor_round, window):
        """The XOR program's O27 at windows of 1e6 and 1e12 ends exactly
        where window 200 ends: every species has settled, and the basis
        functions of the settled state are those of window 200."""
        program, entering = xor_round
        kin = Kinetics(program.crn, program.phase_index["O27"])
        short, _ = run_window(kin, entering["O27"], 0.0, 200.0, IntegratorConfig())
        long, _ = run_window(kin, entering["O27"], 0.0, window, IntegratorConfig())
        np.testing.assert_allclose(long, short, rtol=0.0, atol=1e-13)

    @pytest.mark.parametrize("window", [114.0, 200.0, 1e4, 1e6, 1e12])
    def test_training_matches_the_exact_loop(self, xor_trainspec, or_trainspec, window):
        """XOR and OR, twelve rounds run past termination with ``gate_eps =
        0``: at every window the gate reads at least 1e-3 exactly when the
        exact round updates, and every round is within 1e-12 of its exact
        replay, since the closed-form windows are solved species by species."""
        from chemnn.compiler import compile_program
        from chemnn.training import run_training

        for spec in (xor_trainspec, or_trainspec):
            program, x0 = compile_program(NetSpec(2, 2, 1), spec)
            run = run_training(program, x0, window=window, max_rounds=12, gate_eps=0.0)
            for rec, ref in exact_rounds(run, spec):
                assert (rec.gate >= 1e-3) == ref.update, rec.round_index
            assert any(rec.gate >= 1e-3 for rec in run.rounds)
            assert not all(rec.gate >= 1e-3 for rec in run.rounds)
            assert exact_replay_deviations(run, spec).max() < 1e-12

    @pytest.mark.parametrize("window", [114.0, 200.0, 1e4, 1e12])
    def test_termination_does_not_depend_on_the_window(self, xor_trainspec, or_trainspec, window):
        """At the default ``gate_eps``, XOR terminates at round 8, OR at round
        3 and OR as one block of four at round 2, at every window, every
        round within 1e-12 of its exact replay."""
        from dataclasses import replace

        from chemnn.compiler import compile_program
        from chemnn.training import run_training

        one_block = replace(or_trainspec, batch_size=4, eta=1.0)
        for spec, round_ in ((xor_trainspec, 8), (or_trainspec, 3), (one_block, 2)):
            program, x0 = compile_program(NetSpec(2, 2, 1), spec)
            run = run_training(program, x0, window=window, max_rounds=20)
            assert run.terminated and run.termination_round == round_, (spec.batch_size, window)
            assert exact_replay_deviations(run, spec).max() < 1e-12


def _judgment_start(xor_round, e1, kinetics=Kinetics, e2=0.3):
    """O25 of the XOR program and a state with e_1 and e_2 on the judgment parabola."""
    program, entering = xor_round
    registry = program.crn.registry
    kin = kinetics(program.crn, program.phase_index["O25"])
    parabola = JUDGE_RATES[1] / JUDGE_RATES[0]  # ja = (k2 / k1) e^2
    y0 = entering[program.phases[0]].copy()
    start = {"e_1": e1, "ja_1": parabola * e1**2, "e_2": e2, "ja_2": parabola * e2**2, "gate": 0.0}
    for name, value in start.items():
        y0[registry.index(name)] = value
    kin.hold(y0)
    return kin, y0


def _xor_training(trainspec, window):
    """Eight XOR rounds at ``window``."""
    from chemnn.compiler import compile_program
    from chemnn.training import run_training

    program, x0 = compile_program(NetSpec(2, 2, 1), trainspec)
    return run_training(program, x0, window=window, max_rounds=8)


class TestSteppedWindows:
    """What the DOP853 steps of a window that is stepped spend and guard."""

    def test_rhs_budget_and_in_place_stages(self, xor_round, monkeypatch):
        """One XOR round at window 200, counted by a ``Kinetics`` subclass
        that overrides ``__call__``.  The cascades O23 and O27 make no RHS
        call.  On O25's steps the subclass sees every RHS evaluation: 11
        stages per trial step, each written into ``kin.stage`` and evaluated
        there, and 1 per accepted step (plus the first).  An evaluation at
        the in-place stage equals one at a copy of it, bit for bit."""

        class StageCountingKinetics(CountingKinetics):
            stages = 0

            def __call__(self, x):
                self.stages += x is self.stage
                return super().__call__(x)

        evaluations = []
        derivative = Kinetics._derivative

        def counted(kin):
            evaluations.append(1)
            return derivative(kin)

        monkeypatch.setattr(Kinetics, "_derivative", counted)
        program, entering = xor_round
        cfg = IntegratorConfig()
        for tag in CASCADES:
            kin = StageCountingKinetics(program.crn, program.phase_index[tag])
            run_window(kin, entering[tag], 0.0, 200.0, cfg)
            assert (kin.calls, kin.stages) == (0, 0), tag
        kin = StageCountingKinetics(program.crn, program.phase_index["O25"])
        y0 = entering["O25"]
        kin.hold(y0)
        accepted = []
        evaluations.clear()
        _advance(kin, y0[kin.species], 0.0, 200.0, cfg, lambda t, z, f: accepted.append(t), full=y0)
        trials, rest = divmod(kin.stages, 11)
        assert rest == 0 and trials >= len(accepted) > 0
        assert kin.calls == len(evaluations) == 1 + len(accepted) + 11 * trials
        kin.stage[:] = np.linspace(0.1, 3.0, kin.stage.size)
        np.testing.assert_array_equal(kin(kin.stage), kin(kin.stage.copy()))

    def test_error_state_does_not_leak(self):
        """``_advance`` ignores overflow and invalid results for the whole
        call, ``on_step`` included, and hands the caller's numpy error state
        back on every exit: at the end of its duration, on an ``on_step``
        stop and on a step-size underflow (a <-> b over 1e15 time units).
        Tier-1 turns warnings into errors, so a leaked ``ignore`` would
        weaken every later test."""
        kin = Kinetics(_reversible_crn())
        y0 = np.array([1.0, 0.0])
        kin.hold(y0)
        cfg = IntegratorConfig()
        inside = []

        def stop(t, z, f):
            inside.append(np.geterr())
            return True

        with np.errstate(over="raise", invalid="raise"):
            caller = np.geterr()
            _, t, stopped = _advance(kin, y0, 0.0, 10.0, cfg, full=y0)
            assert (t, stopped) == (10.0, False) and np.geterr() == caller
            _, t, stopped = _advance(kin, y0, 0.0, 10.0, cfg, stop, full=y0)
            assert stopped and t < 10.0 and np.geterr() == caller
            with pytest.raises(IntegrationError, match="step size underflow"):
                _advance(kin, y0, 0.0, 1e15, cfg, full=y0)
            assert np.geterr() == caller
        assert inside == [{**caller, "over": "ignore", "invalid": "ignore"}]

    def test_overflowing_trial_steps_are_rejected(self, xor_round):
        """Tight steps that continue a nearly settled O25 window from t = 50
        to 200 first try the whole rest as one step.  For some e_1 the stages
        of that step overflow and its error norm is NaN, which must not pass
        for a small one.  Which e_1 overflow depends on the size of the state
        and on the rounding of the stage sums, so the sweep walks a fine grid
        of (0.5, 1] until it meets one.  Every run ends finite and without a
        warning, and the first whose trial step overflowed ends within 1e-9
        of one tight run over [0, 200]."""
        for e1 in np.linspace(0.5, 1.0, 101)[1:]:
            kin, y0 = _judgment_start(xor_round, e1, OverflowCountingKinetics)
            idx = kin.species
            mid, _, _ = _advance(kin, y0[idx], 0.0, 50.0, TIGHT, full=y0)
            full = y0.copy()
            full[idx] = mid
            kin.overflows = 0
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                end, t, _ = _advance(kin, mid, 50.0, 150.0, TIGHT, full=full)
            assert t == 200.0 and np.all(np.isfinite(end)), e1
            if kin.overflows:
                ref, _, _ = _advance(kin, y0[idx], 0.0, 200.0, TIGHT, full=y0)
                np.testing.assert_allclose(end, ref, rtol=0.0, atol=1e-9, err_msg=f"e_1 = {e1}")
                return
        pytest.fail("no e_1 in (0.5, 1] overflows a trial step: the sweep misses its case")


class TestLooseTransient:
    """The judgment's transient: no window steps it loosely.  A judgment
    window ends by its basin plan at ``cfg``'s tolerance, or is stepped at
    ``cfg`` and says whether it settled."""

    @staticmethod
    def _run(trainspec, window, rounds=8):
        """A training run of ``rounds`` rounds with ``gate_eps = 0``."""
        from chemnn.compiler import compile_program
        from chemnn.training import run_training

        program, x0 = compile_program(NetSpec(2, 2, 1), trainspec)
        return run_training(program, x0, window=window, max_rounds=rounds, gate_eps=0.0)

    @staticmethod
    def _spy_windows(monkeypatch):
        """Record (phases, judgment, (t0, start), end, settled, RHS calls) of
        every ``run_window`` call; the RHS calls are those of the window's
        phase."""
        from chemnn import integrate as integrate_mod

        calls = []
        window = integrate_mod.run_window
        call = Kinetics.__call__

        def counted(kin, z):
            if calls and kin.phases == calls[-1][0]:
                calls[-1][5] += 1
            return call(kin, z)

        def spy(kin, y, t0, *args, judgment=None, **kwargs):
            calls.append([kin.phases, judgment, (t0, y.copy()), None, None, 0])
            end = window(kin, y, t0, *args, judgment=judgment, **kwargs)
            calls[-1][3:5] = end[0], kin.settled
            return end

        monkeypatch.setattr(Kinetics, "__call__", counted)
        monkeypatch.setattr(integrate_mod, "run_window", spy)
        return calls

    def test_compiled_judgment_record(self, xor_round):
        program, _ = xor_round
        judgment = program.judgment
        assert judgment.tag == "O25" and judgment.errors == ("e_1", "e_2")
        assert judgment.companions == ("ja_1", "ja_2") and judgment.gate == program.probes.gate
        assert judgment.rates == JUDGE_RATES
        assert bistable_equilibria(*judgment.rates)[1].e == pytest.approx(program.train.threshold, abs=1e-12)

    @pytest.mark.parametrize("offset", [-1e-6, 1e-6, -1e-2, 1e-2])
    def test_basin_guard(self, xor_round, offset, monkeypatch):
        """O25 of the XOR program with e_1 on the parabola at e* + offset, run
        by a ``PhasedExecutor`` at window 200: the basin plan ends it from its
        start, with no RHS call and settled, within 1e-10 of tight steps and
        moving nothing else; e_1 ends on its start's side of e*, as tight
        steps do."""
        program, _ = xor_round
        saddle = bistable_equilibria(*program.judgment.rates)[1].e
        kin, y0 = _judgment_start(xor_round, saddle + offset)
        ref, _, _ = _advance(kin, y0[kin.species], 0.0, 200.0, TIGHT, full=y0)
        calls = self._spy_windows(monkeypatch)
        y, _, _ = PhasedExecutor(program, [("O25", 200.0)]).run_cycle(y0, 0.0)
        (phases, judgment, _, _, settled, rhs), = calls
        assert phases == ("O25",) and judgment is not None and settled and rhs == 0
        outside = np.setdiff1d(np.arange(y0.size), kin.species)
        np.testing.assert_array_equal(y[outside], y0[outside])
        np.testing.assert_allclose(y[kin.species], ref, rtol=0.0, atol=1e-10)
        e1 = program.crn.registry.index("e_1")
        end = ref[np.searchsorted(kin.species, e1)]
        assert (y[e1] > saddle) == (end > saddle) == (offset > 0)

    @pytest.mark.parametrize("window", [114.0, 200.0, 1e4])
    def test_gates_are_the_exact_basins(self, xor_trainspec, or_trainspec, window, monkeypatch):
        """XOR and OR, eight rounds: every judgment window ends by its plan,
        settled, with no RHS call, and each round's gate is within 1e-15 of
        the one the exact loop's errors pick: each error at or above e* adds
        the high stable point, and the gate the round started with decays
        by e^-T.  Both decisions occur."""
        for spec in (xor_trainspec, or_trainspec):
            high = bistable_equilibria(*spec.judge_rates)[2].e
            calls = self._spy_windows(monkeypatch)
            run = self._run(spec, window)
            judged = [(settled, rhs) for phases, judgment, *_, settled, rhs in calls if judgment is not None]
            assert len(judged) == 8 and set(judged) == {(True, 0)}
            assert {phases for phases, judgment, *_ in calls if judgment is not None} == {("O25",)}
            monkeypatch.undo()
            gate = 0.0
            for rec, ref in exact_rounds(run, spec):
                total = high * np.count_nonzero(np.abs(ref.errors) >= spec.threshold)
                expected = total + (gate - total) * math.exp(-window)
                assert rec.gate == pytest.approx(expected, rel=0.0, abs=1e-15), rec.round_index
                gate = rec.gate
            decisions = [rec.gate >= 1e-3 for rec in run.rounds]
            assert True in decisions and False in decisions

    def test_unsettled_windows_are_stepped_again(self, xor_trainspec, monkeypatch):
        """At window 50 no XOR judgment window settles by its plan, so each is
        stepped at ``cfg`` to its end and reports that it did not settle:
        eight rounds end every judgment window bit for bit where plain
        DOP853 steps at ``cfg`` from its start end."""
        calls = self._spy_windows(monkeypatch)
        self._run(xor_trainspec, 50.0)
        monkeypatch.undo()
        judged = [call for call in calls if call[1] is not None]
        assert len(judged) == 8
        from chemnn.compiler import compile_program

        program, _ = compile_program(NetSpec(2, 2, 1), xor_trainspec)
        kin = Kinetics(program.crn, program.phase_index["O25"])
        for _, _, (t0, y0), y, settled, rhs in judged:
            kin.hold(y0)
            ref, _, _ = _advance(kin, y0[kin.species], t0, 50.0, IntegratorConfig(), full=y0)
            assert not settled and rhs > 0
            np.testing.assert_array_equal(y[kin.species], ref)

    @pytest.mark.parametrize("window", [50.0, 200.0])
    def test_recorders_see_one_path(self, xor_trainspec, window):
        """``run_phased(record="all")`` over two XOR rounds is a valid
        trajectory whose times increase within every window.  At window 50,
        where the judgment windows are stepped to their ends, it records
        their steps; at 200 each judgment window records only its planned
        end."""
        from chemnn.compiler import compile_program

        program, x0 = compile_program(NetSpec(2, 2, 1), xor_trainspec)
        schedule = PhaseSchedule.uniform(program.phases, window, cycles=2)
        traj = run_phased(program, x0, schedule, record="all")
        starts = [t for t, _ in traj.phase_marks]
        for (lo, tag), hi in zip(traj.phase_marks, starts[1:] + [traj.times[-1]]):
            inside = traj.times[(traj.times > lo) & (traj.times <= hi)]
            assert np.all(np.diff(inside) > 0) and inside[-1] == hi
            if tag == "O25":
                assert (inside.size > 1) == (window == 50.0), (lo, window)

    def test_oscillator_and_feedforward_never_step_loosely(self, xor_round, xor_weights, monkeypatch):
        """The clock-gated network and the feedforward windows step, if at
        all, only at ``cfg``'s tolerance, and no feedforward window has a
        judgment plan."""
        from chemnn import integrate as integrate_mod
        from chemnn.oscillator import OscillatorSpec
        from chemnn.training import evaluate_outputs

        tolerances = []
        advance = integrate_mod._advance

        def spy(kin, z, t0, duration, step_cfg, *args, **kwargs):
            tolerances.append((step_cfg.rel_tol, step_cfg.abs_tol))
            return advance(kin, z, t0, duration, step_cfg, *args, **kwargs)

        monkeypatch.setattr(integrate_mod, "_advance", spy)
        calls = self._spy_windows(monkeypatch)
        evaluate_outputs(NetSpec(2, 2, 1), xor_weights, XOR_SAMPLES[:, :2], window=200.0)
        assert calls and all(judgment is None for _, judgment, *_ in calls)
        program, entering = xor_round
        executor = OscillatorExecutor(program, OscillatorSpec(32, 2.0))
        executor.run_cycle(executor.initial_values(State(program.crn.registry, entering["O7"])), 0.0)
        assert tolerances and set(tolerances) == {(1e-8, 1e-10)}


class TestBasinPlan:
    """The judgment's basin plan at its edges: knife-edge and crafted starts
    near the saddle e*, tight steps as the reference, and very long windows."""

    @staticmethod
    def _copies(n):
        """``Kinetics`` of n independent O25 systems (e_i, a_i, g_i), the
        gate of each reading only its own error, as ``build_judgment`` makes
        one slot."""
        k1, k2, k3, k4 = JUDGE_RATES
        names, reactions = [], []
        for i in range(n):
            e, a, g = f"e{i}", f"a{i}", f"g{i}"
            names += [e, a, g]
            for reactants, products, k in (
                ({a: 1}, {e: 2}, k1), ({e: 2}, {e: 1, a: 1}, k2), ({e: 1, a: 1}, {a: 1}, k3),
                ({e: 1}, {}, k4), ({e: 1}, {e: 1, g: 1}, 1.0), ({g: 1}, {}, 1.0),
            ):
                reactions.append(Reaction(Complex(reactants), Complex(products), k))
        return Kinetics(Crn(SpeciesRegistry(tuple(names)), reactions))

    @staticmethod
    def _judge(program, window):
        """A ``PhasedExecutor`` of the judgment window alone, and its ``Kinetics``."""
        executor = PhasedExecutor(program, [("O25", window)])
        return executor, executor._windows[0][2]

    @staticmethod
    def _start(program, x0, errors, gate=0.7):
        """``x0`` with each slot's error and companion on the parabola a = (k2 / k1) e^2."""
        registry, y0 = program.crn.registry, x0.values.copy()
        parabola = program.judgment.rates[1] / program.judgment.rates[0]
        for l, e in enumerate(errors, start=1):
            y0[registry.index(f"e_{l}")] = e
            y0[registry.index(f"ja_{l}")] = parabola * e * e
        y0[registry.index("gate")] = gate
        return y0

    def test_knife_edge_round(self, xor_trainspec, monkeypatch):
        """XOR at the default window: round 7 reads |error| 0.5037, 3.7e-3
        above e*, and its judgment window, like every other, ends by the plan
        with no RHS call and makes the exact loop's decision."""
        from chemnn.training import DEFAULT_WINDOW

        calls = TestLooseTransient._spy_windows(monkeypatch)
        run = _xor_training(xor_trainspec, DEFAULT_WINDOW)
        judged = [(settled, rhs) for _, judgment, *_, settled, rhs in calls if judgment is not None]
        assert len(judged) == 8 and set(judged) == {(True, 0)}
        assert abs(run.rounds[6].errors.max() - 0.5037) < 5e-5
        for rec, ref in exact_rounds(run, xor_trainspec):
            assert (rec.gate >= 1e-3) == ref.update, rec.round_index
        assert run.rounds[6].gate >= 1e-3

    @pytest.mark.parametrize("offset", [1e-6, 1e-9])
    def test_crafted_starts_end_in_their_basins(self, xor_round, offset):
        """Two-slot XOR judgment windows from e* + offset and e* - offset, in
        both slot orders: at windows 114 and 200 each slot ends on its own
        side of e*.  From 1e-6, past the chains' start, both windows end by
        the plan at the stable points exactly, with the gate at their sum;
        from 1e-9 the window of 200 does too, after steps that carry the
        slots past the chains."""
        from chemnn.compiler import compile_program

        program, entering = xor_round
        registry = program.crn.registry
        saddle = bistable_equilibria(*program.judgment.rates)[1].e
        for window in (114.0, 200.0):
            executor, kin = self._judge(program, window)
            for sign in (1.0, -1.0):
                y0 = self._start(program, State(registry, entering["O25"]), (saddle + sign * offset, saddle - sign * offset))
                y, _, _ = executor.run_cycle(y0, 0.0)
                e1, e2 = y[registry.index("e_1")], y[registry.index("e_2")]
                assert (e1 > saddle) == (sign > 0) and (e2 > saddle) == (sign < 0), (window, sign)
                if offset == 1e-6 or window == 200.0:
                    assert kin.settled and sorted([e1, e2]) == [0.0, 3.5], (window, sign)
                    assert y[registry.index("gate")] == pytest.approx(3.5, rel=1e-15, abs=0.0)

    def test_repeated_eigenvalue_rates_end_by_the_basin(self, xor_trainspec):
        """Judgment rates (1, 5, 1, 1) give the stable point 0 the repeated
        eigenvalue -1, whose scaled Jordan basis still gives it a ball: a
        judgment window from 0.1 above and below e* ends by the basin plan,
        settled, each slot on its side, within 1e-8 of tight steps.  XOR
        training at those rates, eight rounds at windows 114 and 1e12, stays
        within 1e-12 of its exact replay."""
        from dataclasses import replace

        from chemnn.compiler import compile_program
        from chemnn.training import DEFAULT_WINDOW, run_training

        rates = (1.0, 5.0, 1.0, 1.0)
        low, saddle, high = bistable_equilibria(*rates)
        spec = replace(xor_trainspec, judge_rates=rates, threshold=saddle.e)
        program, x0 = compile_program(NetSpec(2, 2, 1), spec)
        assert _basin(rates) is not None
        executor, kin = self._judge(program, 200.0)
        y0 = self._start(program, x0, (saddle.e + 0.1, saddle.e - 0.1))
        y, _, _ = executor.run_cycle(y0, 0.0)
        kin.hold(y0)
        ref, _, _ = _advance(kin, y0[kin.species], 0.0, 200.0, TIGHT, full=y0)
        assert kin.settled
        np.testing.assert_allclose(y[kin.species], ref, rtol=0.0, atol=1e-8)
        registry = program.crn.registry
        np.testing.assert_allclose([y[registry.index("e_1")], y[registry.index("e_2")]], [high.e, low.e],
                                   rtol=0.0, atol=1e-8)
        for window in (DEFAULT_WINDOW, 1e12):
            program, x0 = compile_program(NetSpec(2, 2, 1), spec)
            run = run_training(program, x0, window=window, max_rounds=8, gate_eps=0.0)
            assert exact_replay_deviations(run, spec).max() < 1e-12, window

    def test_rates_without_a_basin_are_an_error(self, xor_round, monkeypatch):
        """A judgment whose rates get no basin plan is an error naming the
        rates, not a window stepped in silence."""
        from chemnn import integrate as integrate_mod

        program, entering = xor_round
        monkeypatch.setattr(integrate_mod, "_basin", lambda rates: None)
        executor, _ = self._judge(program, 200.0)
        with pytest.raises(IntegrationError, match="no basin plan"):
            executor.run_cycle(entering["O25"], 0.0)

    @pytest.mark.parametrize("e0, gate_open", [(0.499, False), (0.501, True)])
    def test_judgment_knife_edge(self, e0, gate_open):
        """A bare O25 window started 1e-3 off its unstable point, given its
        judgment: the basin plan must not end it on the wrong side, within
        1e-8 of tight steps, and no overflow warning leaks."""
        frag = build_judgment(JUDGE_RATES, p_tilde=1)
        crn = assemble(frag, ("O23", "O25"))
        k1, k2 = JUDGE_RATES[0], JUDGE_RATES[1]
        y0 = State.from_dict(crn.registry, {"e_1": e0, "ja_1": (k2 / k1) * e0 * e0}).values
        idx = crn.reactions_in_phase("O25")
        kin = Kinetics(crn, idx)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            y, _ = run_window(kin, y0, 0.0, 200.0, IntegratorConfig(), judgment=judgment_of(kin, JUDGE_RATES))
        assert kin.settled
        ref = _tight_reference(crn, idx, y0, 200.0)
        np.testing.assert_allclose(y, ref, rtol=0.0, atol=1e-8)
        gate = crn.registry.index("gate")
        assert (y[gate] >= 1e-3) == (ref[gate] >= 1e-3) == gate_open

    @staticmethod
    def _rhs_calls(program, entering, errors, window, monkeypatch):
        """RHS calls, settling and end of one XOR judgment window from
        ``errors``, with the gate at 0 as a round starts it."""
        calls = [0]
        call = Kinetics.__call__

        def counted(kin, z):
            calls[0] += 1
            return call(kin, z)

        executor, kin = TestBasinPlan._judge(program, window)
        y0 = TestBasinPlan._start(program, State(program.crn.registry, entering["O25"]), errors, gate=0.0)
        monkeypatch.setattr(Kinetics, "__call__", counted)
        y, _, _ = executor.run_cycle(y0, 0.0)
        monkeypatch.undo()
        return calls[0], kin.settled, y

    def test_long_window_costs_what_window_200_costs(self, xor_round, monkeypatch):
        """Judgment windows from e* +- 1e-9, which step before a try ends
        them: at window 1e4 they take the RHS calls of window 200, and end
        at the same stable points, because the first try after the start
        comes 6.25 time units in, not 1/32 of the window."""
        program, entering = xor_round
        _basin(program.judgment.rates)  # built before counting
        saddle = bistable_equilibria(*program.judgment.rates)[1].e
        errors = (saddle + 1e-9, saddle - 1e-9)
        cost, ends = {}, {}
        for window in (200.0, 1e4):
            cost[window], settled, ends[window] = self._rhs_calls(program, entering, errors, window, monkeypatch)
            assert settled, window
        assert 0 < cost[1e4] <= cost[200.0]
        slots = [program.crn.registry.index(name) for name in ("e_1", "e_2", "ja_1", "ja_2")]
        np.testing.assert_array_equal(ends[1e4][slots], ends[200.0][slots])

    def test_first_step_of_a_very_long_window(self, xor_round, monkeypatch):
        """At window 1e12 the smallest allowed step is 0.01, while the first
        step guessed from the state and its derivative entering O25, with
        its gate at 0, is below 1e-3.  A judgment window from e* + 1e-9, which steps before a try
        ends it, starts from the smallest allowed step instead of failing
        before any step is tried, and ends at the stable points of window
        200."""
        program, entering = xor_round
        saddle = bistable_equilibria(*program.judgment.rates)[1].e
        errors = (saddle + 1e-9, 0.3)
        y0 = self._start(program, State(program.crn.registry, entering["O25"]), errors, gate=0.0)
        kin = Kinetics(program.crn, program.phase_index["O25"])
        kin.hold(y0)
        z = y0[kin.species]
        assert _initial_step(y0, z, kin(z), 1e12, IntegratorConfig()) < 1e12 * _MIN_STEP_FRACTION
        ends = {}
        for window in (200.0, 1e12):
            calls, settled, ends[window] = self._rhs_calls(program, entering, errors, window, monkeypatch)
            assert calls > 0 and settled, window
        slots = [program.crn.registry.index(name) for name in ("e_1", "e_2", "ja_1", "ja_2")]
        np.testing.assert_array_equal(ends[1e12][slots], ends[200.0][slots])

    def test_start_too_near_the_saddle_is_unsettled(self, xor_round):
        """A slot 1e-12 above e* needs about 90 time units to leave it, so a
        window of 50 cannot carry it to its ball: the window is stepped at
        ``cfg`` to its end, and reports that it did not settle."""
        program, entering = xor_round
        saddle = bistable_equilibria(*program.judgment.rates)[1].e
        executor, kin = self._judge(program, 50.0)
        y0 = self._start(program, State(program.crn.registry, entering["O25"]), (saddle + 1e-12, 0.0))
        y, _, _ = executor.run_cycle(y0, 0.0)
        stepped = Kinetics(program.crn, program.phase_index["O25"])
        stepped.hold(y0)
        ref, _, _ = _advance(stepped, y0[stepped.species], 0.0, 50.0, IntegratorConfig(), full=y0)
        assert kin.settled is False
        np.testing.assert_array_equal(y[kin.species], ref)

    def test_plan_ends_match_tight_steps(self, xor_trainspec):
        """One-slot judgment windows (XOR at batch 1) from e_0 in (0, 6] in
        steps of 0.25 and from e* +- 1e-3, ..., 1e-9, gate 0.7: every window
        of 50, 114, 200, 1e3 and 1e4 that ends settled is within 1e-10 of
        tight DOP853 steps (rel 1e-12) over the same window.  The tight steps
        run every start at once, each with its own gate; the reference at
        1e4 is theirs at 1e3, where every slot that settles and its gate
        are at their equilibria to rounding (what is left decays like
        e^-400).  Some windows of 50 settle, every start at least 1e-6 from
        e* settles at 114, and at 1e4 only e_0 = e* itself, an equilibrium,
        is unsettled; every other end at window 1e12 equals its end at 1e4."""
        from dataclasses import replace

        from chemnn.compiler import compile_program

        program, x0 = compile_program(NetSpec(2, 2, 1), replace(xor_trainspec, batch_size=1))
        registry = program.crn.registry
        saddle = bistable_equilibria(*program.judgment.rates)[1].e
        near = [saddle + sign * 10.0**-k for k in range(3, 10) for sign in (-1.0, 1.0)]
        starts = np.concatenate([np.linspace(0.0, 6.0, 25)[1:], near])
        copies = self._copies(starts.size)
        z0 = np.column_stack([starts, JUDGE_RATES[1] / JUDGE_RATES[0] * starts**2,
                              np.full(starts.size, 0.7)]).ravel()
        copies.hold(z0)
        slot = [registry.index(name) for name in ("e_1", "ja_1", "gate")]
        ends, settled = {}, {}
        for window in (50.0, 114.0, 200.0, 1e3, 1e4, 1e12):
            executor, kin = self._judge(program, window)
            ends[window], settled[window] = [], []
            for i, e0 in enumerate(starts):
                if window == 1e12 and not settled[1e4][i]:
                    ends[window].append(None)  # the saddle would be stepped for 1e12 time units
                    continue
                y, _, _ = executor.run_cycle(self._start(program, x0, (e0,)), 0.0)
                ends[window].append(y[slot])
                settled[window].append(kin.settled)
            if window <= 1e3:
                ref, _, _ = _advance(copies, z0, 0.0, window, TIGHT, full=z0)
                ref = ref.reshape(-1, 3)
            if window <= 1e4:
                for i, e0 in enumerate(starts):
                    if settled[window][i]:
                        np.testing.assert_allclose(ends[window][i], ref[i], rtol=0.0, atol=1e-10,
                                                   err_msg=f"e_0 = {e0!r}, window {window}")
        assert [e0 for e0, done in zip(starts, settled[1e4]) if not done] == [saddle]
        far = np.abs(starts - saddle) >= 1e-6
        assert sum(settled[50.0]) > 0 and all(np.array(settled[114.0])[far])
        for i, e0 in enumerate(starts):
            if settled[1e4][i]:
                np.testing.assert_array_equal(ends[1e12][i], ends[1e4][i], err_msg=f"e_0 = {e0!r}")

    def test_closed_gate_ends_at_zero_at_window_1e12(self, xor_trainspec, or_trainspec):
        """XOR and OR, twelve rounds with ``gate_eps = 0`` at window 1e12: the
        gate decisions of window 200, every closed gate exactly 0 and the
        weights of its round unmoved, and every round's outputs, error
        readouts and weights within 1e-12 of its exact replay."""
        from chemnn.compiler import compile_program
        from chemnn.training import run_training

        for spec in (xor_trainspec, or_trainspec):
            runs = {}
            for window in (200.0, 1e12):
                program, x0 = compile_program(NetSpec(2, 2, 1), spec)
                runs[window] = run_training(program, x0, window=window, max_rounds=12, gate_eps=0.0)
            decisions = {window: [rec.gate >= 1e-3 for rec in run.rounds] for window, run in runs.items()}
            assert decisions[1e12] == decisions[200.0] and False in decisions[1e12]
            for (rec, ref), open_ in zip(exact_rounds(runs[1e12], spec), decisions[1e12]):
                assert open_ == ref.update, rec.round_index
                if not open_:
                    assert rec.gate == 0.0 and np.all(np.abs(ref.errors) < spec.threshold), rec.round_index
                    np.testing.assert_array_equal(rec.w1, ref.w1)
                    np.testing.assert_array_equal(rec.w2, ref.w2)
            assert exact_replay_deviations(runs[1e12], spec).max() < 1e-12

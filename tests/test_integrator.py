"""Stepper accuracy, clamping, equilibrium detection and phased execution."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chemnn.compiler import build_addition_gadget, build_judgment, build_logistic, assemble, NetSpec
from chemnn.crn import Complex, Crn, CrnError, Reaction, SpeciesRegistry, State
from chemnn.integrate import (
    IntegrationError,
    IntegratorConfig,
    Kinetics,
    PhaseSchedule,
    PhasedExecutor,
    Trajectory,
    integrate,
    _DOP_A,
    _DOP_B,
    _DOP_E3,
    _DOP_E5,
    _expm,
    integrate_to_equilibrium,
    run_phased,
    run_window,
)
from chemnn.crn import rhs as reference_rhs

from conftest import (
    JUDGE_RATES, XOR_MINUS, XOR_PLUS, XOR_SAMPLES, MiniProgram, fragment_program, run_windows,
)


def _decay_crn():
    return Crn(
        SpeciesRegistry(("c",)),
        [Reaction(Complex({"c": 1}), Complex({}), 1.0)],
    )


class TestIntegrate:
    def test_pure_decay_closed_form(self):
        traj = integrate(_decay_crn(), State(_decay_crn().registry, np.array([1.0])), 1.0)
        assert traj.times[-1] == pytest.approx(1.0)
        assert traj.final_state().get("c") == pytest.approx(math.exp(-1.0), abs=1e-8)

    def test_addition_gadget_settles_at_sum(self):
        crn = build_addition_gadget()
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

    def test_fast_kinetics_matches_reference_rhs(self, net221, xor_trainspec):
        from chemnn.compiler import compile_program

        program, x0 = compile_program(net221, xor_trainspec)
        crn = program.crn
        subsets = [(None, crn)] + [
            (idx, Crn(crn.registry, [crn.reactions[j] for j in idx]))
            for idx in program.phase_index.values()
        ]
        rng = np.random.default_rng(7)
        for idx, sub in subsets:
            kin = Kinetics(crn, idx)
            outside = np.setdiff1d(np.arange(crn.n_species), kin.species)
            for _ in range(3):
                values = rng.uniform(0.0, 2.0, size=crn.n_species)
                expected = reference_rhs(sub, State(crn.registry, values))
                # full-state convention: the whole derivative
                np.testing.assert_allclose(kin(values), expected, rtol=1e-12, atol=1e-12)
                # phase-local convention: constants held, changed species passed
                kin.hold(values)
                np.testing.assert_allclose(
                    kin(values[kin.species]), expected[kin.species], rtol=1e-12, atol=1e-12
                )
                assert np.all(expected[outside] == 0.0)

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
    """The copied DOP853 coefficients against the order conditions they meet,
    so that a mistyped digit fails here instead of silently costing steps."""

    # The nodes in closed form (Hairer, Norsett and Wanner, Sec. II.10).
    C = np.array([
        0.0, (6 - math.sqrt(6)) * 2 / 135, (6 - math.sqrt(6)) / 45, (6 - math.sqrt(6)) / 30,
        (6 + math.sqrt(6)) / 30, 1 / 3, 1 / 4, 4 / 13, 127 / 195, 3 / 5, 6 / 7, 1.0,
    ])

    def test_explicit_with_nodes_as_row_sums(self):
        assert _DOP_A.shape == (12, 12) and np.all(np.triu(_DOP_A) == 0.0)
        np.testing.assert_allclose(_DOP_A.sum(axis=1), self.C, rtol=0.0, atol=1e-14)

    def test_quadrature_orders(self):
        """B integrates polynomials up to degree 7; the embedded fifth- and
        third-order weights B - E5 and B - E3 up to degrees 4 and 2."""
        for weights, order in ((_DOP_B, 8), (_DOP_B - _DOP_E5, 5), (_DOP_B - _DOP_E3, 3)):
            for k in range(1, order + 1):
                assert weights @ self.C ** (k - 1) == pytest.approx(1 / k, abs=1e-14), (order, k)
        assert abs(_DOP_E5.sum()) < 1e-14 and abs(_DOP_E3.sum()) < 1e-14

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
    def test_annihilation_boundary_point(self):
        crn = Crn(
            SpeciesRegistry(("np", "nm")),
            [Reaction(Complex({"np": 1, "nm": 1}), Complex({}), 1.0)],
        )
        x0 = State.from_dict(crn.registry, {"np": 3.0, "nm": 1.0})
        state, converged, elapsed = integrate_to_equilibrium(crn, x0, 1e-8, 100.0)
        assert converged and elapsed < 100.0
        assert state.get("np") == pytest.approx(2.0, abs=1e-5)
        assert state.get("nm") == pytest.approx(0.0, abs=1e-5)

    def test_idempotent_restart(self):
        # residual tolerances at or above 1e-6 stay inside the integrator's
        # own noise floor (per-step error ~ rel_tol * |y|), so the read is
        # reliable and a restart at the returned point is a no-op.
        crn = build_addition_gadget()
        x0 = State.from_dict(crn.registry, {"a": 1.0, "b": 2.0, "c": 0.0})
        state, converged, _ = integrate_to_equilibrium(crn, x0, 1e-6, 100.0)
        again, converged2, elapsed2 = integrate_to_equilibrium(crn, state, 1e-6, 100.0)
        assert converged and converged2
        assert elapsed2 == 0.0
        np.testing.assert_allclose(again.values, state.values)

    @pytest.mark.parametrize("e0, target", [(0.9, 3.5), (0.3, 0.0)])
    def test_residual_floor_certified_by_jump(self, e0, target):
        """The O25 judgment alone: its steps jitter near a stable point at a
        residual of about 1e-7, far above 1e-12.  A settle jump over the rest
        of ``max_time`` certifies the point, and ``elapsed`` is the time the
        jump started from."""
        from chemnn.analysis import equilibrium_residual
        from chemnn.compiler import Fragment

        frag = build_judgment(JUDGE_RATES, p_tilde=1)
        crn = assemble(Fragment([r for r in frag.reactions if r.phase == "O25"], frag.roles), ("O25",))
        x0 = State.from_dict(crn.registry, {"e_1": e0, "ja_1": (1 / 8) * e0 * e0})
        state, converged, elapsed = integrate_to_equilibrium(crn, x0, 1e-12, 500.0)
        assert converged and 0.0 < elapsed < 500.0
        assert equilibrium_residual(crn, state) < 1e-12
        assert state.get("e_1") == pytest.approx(target, abs=1e-9)

    @pytest.mark.parametrize("residual_tol, max_time, name", [
        (1e-6, math.inf, "max_time"),
        (1e-6, math.nan, "max_time"),
        (1e-6, -1.0, "max_time"),
        (1e-6, 0.0, "max_time"),
        (math.nan, 100.0, "residual_tol"),
    ])
    def test_bad_limits_rejected(self, residual_tol, max_time, name):
        """A run that cannot end or has nothing to run says so up front
        instead of failing mid-run or returning an unconverged start."""
        crn = build_addition_gadget()
        x0 = State.from_dict(crn.registry, {"a": 1.0, "b": 2.0, "c": 0.0})
        with pytest.raises(IntegrationError, match=name):
            integrate_to_equilibrium(crn, x0, residual_tol, max_time)

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
        traj = run_phased(program, x0, schedule, record="boundaries")
        assert [p for _, p in traj.phase_marks] == list(program.phases[:3]) * 2
        boundaries = traj.boundary_states()
        assert len(boundaries) == 6
        assert traj.phase_at(1.0) == program.phases[0]

    def test_boundary_record_keeps_every_window_end(self, net221, xor_trainspec):
        """Stepped windows included, each window end is recorded once, at the
        next window's mark, with the state the every-step record ends it on."""
        from chemnn.compiler import compile_program

        program, x0 = compile_program(net221, xor_trainspec)
        schedule = PhaseSchedule.uniform(program.phases[:5], 0.7, cycles=2)
        ends = run_phased(program, x0, schedule, record="boundaries")
        full = run_phased(program, x0, schedule, record="all")
        assert len(ends) == 1 + 10 and ends.phase_marks == full.phase_marks
        np.testing.assert_array_equal(
            ends.times[1:], [t for t, _ in full.phase_marks[1:]] + [full.times[-1]]
        )
        for (_, a), (_, b) in zip(ends.boundary_states(), full.boundary_states()):
            np.testing.assert_array_equal(a.values, b.values)


class TestTrajectoryExport:
    def test_csv_round_trip(self, tmp_path):
        crn = build_addition_gadget()
        x0 = State.from_dict(crn.registry, {"a": 1.0, "b": 2.0, "c": 0.0})
        traj = integrate(crn, x0, 5.0)
        path = tmp_path / "traj.csv"
        traj.to_csv(path, stride=3)
        lines = path.read_text().splitlines()
        assert lines[0] == "time,phase," + ",".join(crn.registry.names)
        last = lines[-1].split(",")
        assert float(last[0]) == pytest.approx(traj.times[-1])
        assert float(last[-1]) == pytest.approx(traj.final_state().get("c"))


class CountingKinetics(Kinetics):
    """Kinetics that counts its right-hand-side evaluations."""

    def __init__(self, crn, reaction_indices=None):
        super().__init__(crn, reaction_indices)
        self.calls = 0

    def __call__(self, x):
        self.calls += 1
        return super().__call__(x)


TRAIN_FIRST_ORDER = ("O1", "O3", "O5", "O7", "O15", "O29")
FF_FIRST_ORDER = ("O7", "O15")
# The logistic windows: a conserved pair per activation, driven by decaying rails.
PAIR_WINDOWS = ("O13", "O21")
# The activation pair presets checked on their own, under the tags they ran as
# before they joined the weighted sums: id -> (layer, phase that now runs them).
PRESET_WINDOWS = {"O11": ("hidden", "O7"), "O19": ("output", "O15")}
# The O1 window entering round 2, the first one with an output store to drain.
ROUND2_O1 = "O1-round2"


@pytest.fixture(scope="module")
def xor_round():
    """The compiled XOR training program and the state entering each phase of
    its first round, plus the state entering round 2 under ``ROUND2_O1``."""
    from chemnn.compiler import TrainSpec, WeightSet, compile_program

    spec = TrainSpec(
        samples=XOR_SAMPLES, batch_size=2, eta=0.9, threshold=0.5,
        judge_rates=JUDGE_RATES, init_weights=WeightSet.from_stacked(XOR_PLUS, XOR_MINUS),
    )
    program, x0 = compile_program(NetSpec(2, 2, 1), spec)
    executor = PhasedExecutor(program, [(tag, 200.0) for tag in program.phases])
    _, _, ends = executor.run_cycle(x0.values, 0.0)
    entering = [x0.values] + [ends[tag].values for tag in program.phases[:-1]]
    entering = dict(zip(program.phases, entering))
    entering[ROUND2_O1] = ends[program.phases[-1]].values
    return program, entering


class TestClosedFormWindows:
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

    def test_first_order_rule_picks_linear_phases(self, xor_round, net221, xor_weights):
        from chemnn.compiler import compile_feedforward

        program, _ = xor_round
        ff, _ = compile_feedforward(net221, xor_weights, np.array([[0.0, 1.0]]))
        for prog, first_order in ((program, TRAIN_FIRST_ORDER), (ff, FF_FIRST_ORDER)):
            kinetics = [(t, Kinetics(prog.crn, prog.phase_index[t])) for t in prog.phases]
            assert tuple(t for t, kin in kinetics if kin.first_order) == first_order
            assert tuple(t for t, kin in kinetics if kin.pairs is not None) == PAIR_WINDOWS

    @pytest.mark.parametrize(
        "tag", TRAIN_FIRST_ORDER + tuple(PRESET_WINDOWS) + PAIR_WINDOWS + (ROUND2_O1,)
    )
    def test_closed_form_matches_tight_dp45(self, xor_round, tag):
        """The closed form matches tight full-network steps at window 200, and
        at window 2 where the logistic's rails are still far from zero, so
        that the pair windows check the rail integral too.  Round 2's O1 also
        drains the output store that round 1 left."""
        from chemnn.compiler import build_logistic_preset

        program, entering = xor_round
        crn = program.crn
        if tag in PRESET_WINDOWS:
            layer, phase = PRESET_WINDOWS[tag]
            preset = build_logistic_preset(layer, program.net, program.train.batch_size).reactions
            idx = tuple(j for j in program.phase_index[phase] if crn.reactions[j] in preset)
            assert len(idx) == len(preset)
            y0 = entering[phase]
        else:
            idx = program.phase_index["O1" if tag == ROUND2_O1 else tag]
            y0 = entering[tag]
        if tag == ROUND2_O1:
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


def test_jacobian_matches_central_differences(xor_round):
    """Every phase of the XOR training program and of a 10-row feedforward
    program: the block table covers each changed species once, the Jacobian
    has no entry outside its blocks, and the blocks match central differences."""
    from chemnn.compiler import WeightSet, compile_feedforward

    program, _ = xor_round
    rows = np.random.default_rng(5).uniform(0, 1, (10, 2))
    ff, _ = compile_feedforward(NetSpec(2, 2, 1), WeightSet.from_stacked(XOR_PLUS, XOR_MINUS), rows)
    rng = np.random.default_rng(11)
    h = 1e-5
    for prog in (program, ff):
        for tag in prog.phases:
            kin = Kinetics(prog.crn, prog.phase_index[tag])
            m = kin.species.size
            table = kin.blocks
            assert np.array_equal(np.sort(table[table < m]), np.arange(m)), tag
            inside = np.zeros((m + 1, m + 1), dtype=bool)
            inside[table[:, :, None], table[:, None, :]] = True
            for _ in range(2):
                values = rng.uniform(0.1, 2.0, size=kin.n)
                kin.hold(values)
                z = values[kin.species]
                jac = kin.jacobian(z)
                fd = np.zeros((m + 1, m + 1))
                for k in range(m):
                    step = np.zeros(m)
                    step[k] = h
                    fd[:m, k] = (kin(z + step) - kin(z - step)) / (2 * h)
                assert np.all(fd[~inside] == 0.0), tag
                blocks = fd[table[:, :, None], table[:, None, :]]
                scale = max(1.0, np.max(np.abs(jac), initial=0.0))
                assert np.max(np.abs(jac - blocks), initial=0.0) < 1e-7 * scale, tag


class TestSettleJump:
    TIGHT = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-15)

    @staticmethod
    def _tight_reference(crn, idx, y0, duration):
        """The window's end by full-network steps at the tight tolerances."""
        sub = Crn(crn.registry, [crn.reactions[j] for j in idx])
        return integrate(sub, State(crn.registry, y0), duration, TestSettleJump.TIGHT).final_state().values

    def test_jumped_windows_match_tight_dp45(self, xor_round, monkeypatch):
        """Eight chained XOR rounds at window 200: every window that is not
        first order (the closed-form pair windows O13/O21 included) ends within
        1e-8 of tight full-network steps, and at least 48 in 56 of the windows
        that take steps end by a jump."""
        from chemnn import integrate as integrate_mod

        accepted = []
        jump = integrate_mod._settle_jump

        def spy(*args):
            end = jump(*args)
            accepted.append(end is not None)
            return end

        monkeypatch.setattr(integrate_mod, "_settle_jump", spy)
        program, entering = xor_round
        crn = program.crn
        kinetics = {tag: Kinetics(crn, program.phase_index[tag]) for tag in program.phases}
        cfg = IntegratorConfig()
        y = entering[program.phases[0]]
        stepped = 0
        for _ in range(8):
            for tag in program.phases:
                kin = kinetics[tag]
                y0 = y
                y, t = run_window(kin, y0, 0.0, 200.0, cfg)
                assert t == 200.0
                if kin.first_order:
                    continue
                stepped += kin.pairs is None
                outside = np.setdiff1d(np.arange(y0.size), kin.species)
                assert np.array_equal(y[outside], y0[outside]), tag
                ref = self._tight_reference(crn, program.phase_index[tag], y0, 200.0)
                np.testing.assert_allclose(y, ref, rtol=0.0, atol=1e-8, err_msg=tag)
        assert stepped > 0 and 56 * sum(accepted) >= 48 * stepped

    @pytest.mark.parametrize("e0, gate_open", [(0.499, False), (0.501, True)])
    def test_judgment_knife_edge(self, e0, gate_open):
        """O25 started 1e-3 off its unstable point: the jump must not land on
        the wrong side, and refused jumps must not leak overflow warnings."""
        frag = build_judgment(JUDGE_RATES, p_tilde=1)
        crn = assemble(frag, ("O23", "O25"))
        k1, k2 = JUDGE_RATES[0], JUDGE_RATES[1]
        y0 = State.from_dict(crn.registry, {"e_1": e0, "ja_1": (k2 / k1) * e0 * e0}).values
        idx = crn.reactions_in_phase("O25")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            y, _ = run_window(Kinetics(crn, idx), y0, 0.0, 200.0, IntegratorConfig())
        ref = self._tight_reference(crn, idx, y0, 200.0)
        np.testing.assert_allclose(y, ref, rtol=0.0, atol=1e-8)
        gate = crn.registry.index("gate")
        assert (y[gate] >= 1e-3) == (ref[gate] >= 1e-3) == gate_open

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
    Trajectory,
    integrate,
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
        with pytest.raises(IntegrationError):
            integrate(_decay_crn(), State(_decay_crn().registry, np.array([1.0])), 0.0)

    def test_rk4_fourth_order_scaling(self):
        crn = _decay_crn()
        x0 = State(crn.registry, np.array([1.0]))
        errors = []
        for step in (0.1, 0.05):
            cfg = IntegratorConfig(method="rk4", step=step, clamp_negative=False)
            end = integrate(crn, x0, 1.0, cfg).final_state().get("c")
            errors.append(abs(end - math.exp(-1.0)))
        ratio = errors[0] / errors[1]
        assert 13.0 < ratio < 19.0

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
        cfg = IntegratorConfig(method="rk4", step=0.5)
        traj = integrate(crn, State.from_dict(crn.registry, {"a": 1.0}), 5.0, cfg)
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


TRAIN_FIRST_ORDER = ("O1", "O3", "O5", "O7", "O11", "O15", "O19", "O29", "O31")
FF_FIRST_ORDER = ("O7", "O11", "O15", "O19")


@pytest.fixture(scope="module")
def xor_round():
    """The compiled XOR training program and the state entering each phase of its first round."""
    from chemnn.compiler import TrainSpec, WeightSet, compile_program
    from chemnn.training import PhasedRunner

    spec = TrainSpec(
        samples=XOR_SAMPLES, batch_size=2, eta=0.9, threshold=0.5,
        judge_rates=JUDGE_RATES, init_weights=WeightSet.from_stacked(XOR_PLUS, XOR_MINUS),
    )
    program, x0 = compile_program(NetSpec(2, 2, 1), spec)
    _, ends = PhasedRunner(program, 200.0).run_cycle(x0)
    entering = [x0.values] + [ends[tag].values for tag in program.phases[:-1]]
    return program, dict(zip(program.phases, entering))


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

    def test_expm_of_non_finite_is_nan(self):
        for bad in (np.inf, np.nan):
            assert np.all(np.isnan(_expm(np.array([[0.0, 1.0], [bad, 0.0]]))))

    def test_first_order_rule_picks_linear_phases(self, xor_round, net221, xor_weights):
        from chemnn.compiler import compile_feedforward

        program, _ = xor_round
        picked = [t for t in program.phases
                  if Kinetics(program.crn, program.phase_index[t]).first_order]
        assert tuple(picked) == TRAIN_FIRST_ORDER
        ff, _ = compile_feedforward(net221, xor_weights, np.array([[0.0, 1.0]]))
        picked = [t for t in ff.phases if Kinetics(ff.crn, ff.phase_index[t]).first_order]
        assert tuple(picked) == FF_FIRST_ORDER

    @pytest.mark.parametrize("tag", TRAIN_FIRST_ORDER)
    def test_closed_form_matches_tight_dp45(self, xor_round, tag):
        program, entering = xor_round
        crn = program.crn
        idx = program.phase_index[tag]
        kin = CountingKinetics(crn, idx)
        y0 = entering[tag]
        y, t = run_window(kin, y0, 0.0, 200.0, IntegratorConfig())
        assert t == 200.0 and kin.calls == 0
        sub = Crn(crn.registry, [crn.reactions[j] for j in idx])
        tight = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-15)
        ref = integrate(sub, State(crn.registry, y0), 200.0, tight).final_state().values
        np.testing.assert_allclose(y, ref, rtol=0.0, atol=1e-9)

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
        for cfg in (IntegratorConfig(), IntegratorConfig(method="rk4")):
            y, t = run_window(kin, np.array([0.5]), 1.0, 2.0, cfg)
            assert y[0] == 0.5 and t == pytest.approx(3.0)

    def test_rk4_steps_first_order_windows(self):
        kin = CountingKinetics(_decay_crn())
        y, _ = run_window(kin, np.array([1.0]), 0.0, 1.0, IntegratorConfig(method="rk4", step=0.1))
        assert kin.calls == 40
        assert y[0] == pytest.approx(math.exp(-1.0), abs=1e-6)

    def test_negative_end_state_rejected_or_clipped(self):
        kin = Kinetics(_decay_crn())
        cfg = IntegratorConfig()
        with pytest.raises(IntegrationError, match="'c'"):
            run_window(kin, np.array([-1e-3]), 0.0, 0.1, cfg)
        y, _ = run_window(kin, np.array([-1e-11]), 0.0, 0.1, cfg)
        assert y[0] == 0.0


def test_jacobian_matches_central_differences(xor_round):
    program, _ = xor_round
    rng = np.random.default_rng(11)
    h = 1e-5
    for tag in program.phases:
        kin = Kinetics(program.crn, program.phase_index[tag])
        m = kin.species.size
        for _ in range(2):
            values = rng.uniform(0.1, 2.0, size=kin.n)
            kin.hold(values)
            z = values[kin.species]
            jac = kin.jacobian(z)
            fd = np.empty((m, m))
            for k in range(m):
                step = np.zeros(m)
                step[k] = h
                fd[:, k] = (kin(z + step) - kin(z - step)) / (2 * h)
            scale = max(1.0, np.max(np.abs(jac), initial=0.0))
            assert np.max(np.abs(jac - fd), initial=0.0) < 1e-7 * scale, tag


class TestSettleJump:
    TIGHT = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-15)

    @staticmethod
    def _tight_dp45(crn, idx, y0, duration):
        sub = Crn(crn.registry, [crn.reactions[j] for j in idx])
        return integrate(sub, State(crn.registry, y0), duration, TestSettleJump.TIGHT).final_state().values

    def test_jumped_windows_match_tight_dp45(self, xor_round, monkeypatch):
        """Eight chained XOR rounds at window 200: every DP45-phase window ends
        within 1e-8 of tight DP45, most of them by a jump."""
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
        for _ in range(8):
            for tag in program.phases:
                kin = kinetics[tag]
                y0 = y
                y, t = run_window(kin, y0, 0.0, 200.0, cfg)
                assert t == 200.0
                if kin.first_order:
                    continue
                outside = np.setdiff1d(np.arange(y0.size), kin.species)
                assert np.array_equal(y[outside], y0[outside]), tag
                ref = self._tight_dp45(crn, program.phase_index[tag], y0, 200.0)
                np.testing.assert_allclose(y, ref, rtol=0.0, atol=1e-8, err_msg=tag)
        assert sum(accepted) >= 48

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
        ref = self._tight_dp45(crn, idx, y0, 200.0)
        np.testing.assert_allclose(y, ref, rtol=0.0, atol=1e-8)
        gate = crn.registry.index("gate")
        assert (y[gate] >= 1e-3) == (ref[gate] >= 1e-3) == gate_open

    def test_rk4_never_jumps(self, monkeypatch):
        from chemnn import integrate as integrate_mod

        def refuse(*args):
            raise AssertionError("rk4 window tried a jump")

        monkeypatch.setattr(integrate_mod, "_settle_jump", refuse)
        frag = build_judgment(JUDGE_RATES, p_tilde=1)
        crn = assemble(frag, ("O23", "O25"))
        y0 = State.from_dict(crn.registry, {"e_1": 0.6, "ja_1": 0.045}).values
        kin = Kinetics(crn, crn.reactions_in_phase("O25"))
        run_window(kin, y0, 0.0, 20.0, IntegratorConfig(method="rk4", step=0.05))

"""Decoders, bistability arithmetic, equilibrium residuals and verification."""

import numpy as np
import pytest

from chemnn.analysis import (
    bistable_equilibria,
    contraction_ball,
    decode_dual_rail,
    verify_against_oracle,
)
from chemnn.compiler import build_judgment, assemble
from chemnn.crn import Complex, Crn, Reaction, SpeciesRegistry, State, rhs
from chemnn.integrate import IntegratorConfig, Kinetics, integrate, run_window
from chemnn import oracle

from conftest import JUDGE_RATES, XOR_SAMPLES, judgment_of


class TestDecode:
    def test_plus_dominant(self):
        registry = SpeciesRegistry(("ap", "am"))
        state = State.from_dict(registry, {"ap": 2.5, "am": 1.0})
        assert decode_dual_rail(state, ("ap", "am")) == pytest.approx(1.5)

    def test_minus_dominant(self):
        registry = SpeciesRegistry(("ap", "am"))
        state = State.from_dict(registry, {"am": 3.0})
        assert decode_dual_rail(state, ("ap", "am")) == pytest.approx(-3.0)


class TestBistableEquilibria:
    def test_reference_rates_closed_form(self):
        points = bistable_equilibria(*JUDGE_RATES)
        assert [p.e for p in points] == pytest.approx([0.0, 0.5, 3.5])
        assert [p.stable for p in points] == [True, False, True]
        k1, k2 = JUDGE_RATES[:2]
        for p in points:
            assert p.a == pytest.approx((k2 / k1) * p.e ** 2)

    def test_no_positive_equilibria_without_bistability(self):
        points = bistable_equilibria(1.0, 1.0, 1.0, 1.0)
        assert len(points) == 1 and points[0].e == 0.0 and points[0].stable

    def test_saddle_node_at_zero_discriminant(self):
        # k1*k2 == 4*k3*k4: the two positive points merge into a marginal one
        points = bistable_equilibria(8.0, 1.0, 2.0, 1.0)
        assert len(points) == 2
        assert points[1].e == pytest.approx(2.0)
        assert points[1].stable is None

    def test_invalid_rates(self):
        with pytest.raises(ValueError):
            bistable_equilibria(0.0, 1.0, 1.0, 1.0)

    def test_repeated_eigenvalue_has_a_ball(self):
        """Rates (1, 5, 1, 1) give the stable point 0 the Jacobian [[-1, 2],
        [0, -1]], a repeated eigenvalue -1.  Its scaled Jordan basis reads it
        as [[-1, 1], [0, -1]], whose log-norm is -1/2, so the ball contracts
        at rate 1/2; the point 3.5 of the preset rates keeps its eigenbasis."""
        low = bistable_equilibria(1.0, 5.0, 1.0, 1.0)[0]
        inverse, gain, reach, rate, slope = contraction_ball(low, 1.0, 5.0, 1.0, 1.0)
        assert low.e == 0.0 and rate == pytest.approx(0.5, rel=1e-12) and slope > 0.0
        basis = np.linalg.inv(inverse)
        local = inverse @ np.array([[-1.0, 2.0], [0.0, -1.0]]) @ basis
        np.testing.assert_allclose(local, [[-1.0, 1.0], [0.0, -1.0]], rtol=0.0, atol=1e-15)
        assert gain >= 1.0 / reach
        high = bistable_equilibria(*JUDGE_RATES)[2]
        assert contraction_ball(high, *JUDGE_RATES)[3] == pytest.approx(1.21, abs=5e-3)


class TestEquilibriumResidual:
    def test_analytic_points_are_equilibria(self):
        frag = build_judgment(JUDGE_RATES, 1)
        crn = assemble(frag, ("O23", "O25"))
        for point in bistable_equilibria(*JUDGE_RATES):
            state = State.from_dict(
                crn.registry, {"e_1": point.e, "ja_1": point.a, "gate": point.e}
            )
            assert np.abs(rhs(crn, state)).max() < 1e-12

    def test_generic_state_is_not(self):
        frag = build_judgment(JUDGE_RATES, 1)
        crn = assemble(frag, ("O23", "O25"))
        state = State.from_dict(crn.registry, {"e_1": 1.0, "ja_1": 1.0, "gate": 0.1})
        assert np.abs(rhs(crn, state)).max() > 1e-3

    def test_converged_run_has_small_residual(self):
        from chemnn.compiler import Fragment

        frag = build_judgment(JUDGE_RATES, 1)
        only_judge = Fragment([r for r in frag.reactions if r.phase == "O25"], frag.roles)
        crn = assemble(only_judge, ("O25",))
        x0 = State.from_dict(crn.registry, {"e_1": 0.9, "ja_1": (1 / 8) * 0.81})
        kin = Kinetics(crn)
        y, _ = run_window(kin, x0.values, 0.0, 500.0, IntegratorConfig(),
                          judgment=judgment_of(kin, JUDGE_RATES))
        assert kin.settled
        assert np.abs(rhs(crn, State(crn.registry, y))).max() < 1e-7


class TestSplitSubnetworkStability:
    """The four-species split-and-subtract block settles at the predicted
    boundary point from anywhere in its compatibility class."""

    def _network(self):
        return Crn(
            SpeciesRegistry(("y1", "y2", "y3", "yt2")),
            [
                Reaction(Complex({"y1": 1}), Complex({"y2": 1, "y3": 1}), 1.0),
                Reaction(Complex({"y2": 1, "yt2": 1}), Complex({}), 1.0),
            ],
        )

    def test_twenty_random_inits_one_class(self):
        crn = self._network()
        rng = np.random.default_rng(17)
        d1, d2 = 1.3, 0.4  # conserved: y1 + y3 and y1 + y2 - yt2
        for _ in range(20):
            y1 = rng.uniform(0, d1)
            y2 = rng.uniform(0, 2.0)
            yt2 = y1 + y2 - d2
            if yt2 < 0:
                continue
            x0 = State.from_dict(crn.registry, {"y1": y1, "y2": y2, "y3": d1 - y1, "yt2": yt2})
            y, _ = run_window(Kinetics(crn), x0.values, 0.0, 5000.0, IntegratorConfig())
            state = State(crn.registry, y)
            assert np.abs(rhs(crn, state)).max() < 1e-7
            expected = (0.0, d2, d1, 0.0) if d2 > 0 else (0.0, 0.0, d1, -d2)
            for name, value in zip(("y1", "y2", "y3", "yt2"), expected):
                assert state.get(name) == pytest.approx(value, abs=5e-3)

    def test_finite_time_exponential_windows(self):
        """Log-residual decay is at least linear on regions bounded away from
        the equilibrium; the certified rate may shrink with epsilon."""
        crn = self._network()
        x0 = State.from_dict(crn.registry, {"y1": 1.0, "y2": 0.1, "y3": 0.3, "yt2": 0.7})
        d1, d2 = 1.3, 0.4
        target = {"y1": 0.0, "y2": d2, "y3": d1, "yt2": 0.0}
        traj = integrate(crn, x0, 400.0, IntegratorConfig(rel_tol=1e-11, abs_tol=1e-14))
        residual = np.max(
            np.abs(np.stack([traj.series(n) for n in target]) -
                   np.array(list(target.values()))[:, None]),
            axis=0,
        )
        gammas = []
        for eps in (1e-2, 1e-4):
            inside = residual >= eps
            t, logr = traj.times[inside], np.log(residual[inside])
            slope = np.polyfit(t, logr, 1)[0]
            assert slope < 0
            gammas.append(-slope)
        assert gammas[1] <= gammas[0] * 1.5  # rate does not improve as eps shrinks


class TestVerifyAgainstOracle:
    def test_degenerate_zero_weights_reference_column(self, net221):
        """With zero decoded weights the reference column is one half
        everywhere; the chemical side reports its documented degenerate
        value and the deviation is what the report exists to expose."""
        from chemnn.compiler import TrainSpec, WeightSet, compile_program
        from chemnn.integrate import PhasedExecutor

        ws = WeightSet.from_real(np.zeros((2, 3)), np.zeros((1, 3)))
        spec = TrainSpec(
            samples=np.array([[1, 0, 1], [0, 1, 0]], dtype=float),
            batch_size=2, eta=0.9, threshold=0.5, judge_rates=JUDGE_RATES,
            init_weights=ws,
        )
        program, x0 = compile_program(net221, spec)
        executor = PhasedExecutor(program, [(tag, 20.0) for tag in program.phases])
        _, _, boundaries = executor.run_cycle(x0.values, 0.0)
        batch = oracle.Batch.from_samples(spec.samples)
        rows = verify_against_oracle(boundaries, program, batch, *ws.decoded())
        hidden = [ref for phase, *_, ref in rows if phase == "O13"]
        assert hidden and all(ref == pytest.approx(0.5) for ref in hidden)

    def test_feedforward_program_verifies_its_forward_phases(self, net221, xor_weights):
        """A program compiled without training reports its O7-O21 boundaries."""
        from chemnn.compiler import compile_feedforward
        from chemnn.integrate import PhasedExecutor

        program, x0 = compile_feedforward(net221, xor_weights, XOR_SAMPLES[:2, :2])
        executor = PhasedExecutor(program, [(tag, 50.0) for tag in program.phases])
        _, _, boundaries = executor.run_cycle(x0.values, 0.0)
        w1, w2 = xor_weights.decoded()
        batch = oracle.Batch.from_samples(XOR_SAMPLES[:2])
        rows = verify_against_oracle(boundaries, program, batch, w1, w2)
        assert list(dict.fromkeys(phase for phase, *_ in rows)) == ["O7", "O13", "O15", "O21"]
        assert [ref for phase, *_, ref in rows if phase == "O21"] == list(oracle.forward(w1, w2, batch).outputs)
        assert max(abs(chem - ref) for *_, chem, ref in rows) < 1e-6

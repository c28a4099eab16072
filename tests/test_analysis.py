"""Decoders, rate-fit certificates, bistability arithmetic and verification."""

import csv

import numpy as np
import pytest

from chemnn.analysis import (
    BistablePoint,
    FitError,
    bistable_equilibria,
    decode_dual_rail,
    equilibrium_residual,
    fit_exponential_rate,
    verify_against_oracle,
)
from chemnn.compiler import NetSpec, build_judgment, assemble
from chemnn.crn import Complex, Crn, Reaction, SpeciesRegistry, State
from chemnn.integrate import IntegratorConfig, integrate, integrate_to_equilibrium
from chemnn import oracle

from conftest import JUDGE_RATES, MiniProgram, fragment_program, run_windows


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


def _decay_trajectory():
    crn = Crn(SpeciesRegistry(("c",)), [Reaction(Complex({"c": 1}), Complex({}), 1.0)])
    x0 = State.from_dict(crn.registry, {"c": 1.0})
    return integrate(crn, x0, 30.0, IntegratorConfig(rel_tol=1e-10, abs_tol=1e-13))


class TestRateFit:
    def test_pure_decay_rate_one(self):
        fit = fit_exponential_rate(_decay_trajectory(), {"c": 0.0})
        assert fit.gamma == pytest.approx(1.0, abs=0.01)
        assert fit.prefactor > 0

    def test_majorization_is_pointwise(self):
        traj = _decay_trajectory()
        fit = fit_exponential_rate(traj, {"c": 0.0})
        residual = np.abs(traj.series("c"))
        t0, t1 = fit.window
        inside = (traj.times >= t0) & (traj.times <= t1)
        envelope = fit.prefactor * np.exp(-fit.gamma * traj.times[inside])
        assert np.all(residual[inside] <= envelope * (1 + 1e-12))

    def test_annihilation_rate_bounded_by_gap(self):
        # rails (3, 1): the surviving gap is 2 and the tail decays at that rate
        crn = Crn(
            SpeciesRegistry(("np", "nm")),
            [Reaction(Complex({"np": 1, "nm": 1}), Complex({}), 1.0)],
        )
        x0 = State.from_dict(crn.registry, {"np": 3.0, "nm": 1.0})
        traj = integrate(crn, x0, 20.0, IntegratorConfig(rel_tol=1e-10, abs_tol=1e-14))
        fit = fit_exponential_rate(traj, {"np": 2.0, "nm": 0.0})
        assert 0.0 < fit.gamma <= 2.0 * 1.05

    def test_type_one_copy_inherits_decay(self):
        # a carrier fed by a decaying source keeps an exponential envelope
        crn = Crn(
            SpeciesRegistry(("s", "h")),
            [
                Reaction(Complex({"s": 1}), Complex({}), 1.0),
                Reaction(Complex({"s": 1}), Complex({"s": 1, "h": 1}), 1.0),
                Reaction(Complex({"h": 1}), Complex({}), 1.0),
            ],
        )
        x0 = State.from_dict(crn.registry, {"s": 1.0, "h": 0.5})
        traj = integrate(crn, x0, 40.0, IntegratorConfig(rel_tol=1e-10, abs_tol=1e-14))
        fit = fit_exponential_rate(traj, {"s": 0.0, "h": 0.0})
        assert fit.gamma > 0.5

    def test_type_two_product_inherits_rate(self):
        # two catalytically held levels multiply into a carrier species
        crn = Crn(
            SpeciesRegistry(("a", "b", "s1", "s2", "h")),
            [
                Reaction(Complex({"a": 1}), Complex({"a": 1, "s1": 1}), 1.0),
                Reaction(Complex({"s1": 1}), Complex({}), 1.0),
                Reaction(Complex({"b": 1}), Complex({"b": 1, "s2": 1}), 1.0),
                Reaction(Complex({"s2": 1}), Complex({}), 1.0),
                Reaction(Complex({"s1": 1, "s2": 1}), Complex({"s1": 1, "s2": 1, "h": 1}), 1.0),
                Reaction(Complex({"h": 1}), Complex({}), 1.0),
            ],
        )
        x0 = State.from_dict(crn.registry, {"a": 1.5, "b": 0.8})
        # tolerances well below the fit window's floor (1e-10 of the initial
        # residual) keep the deep tail monotone
        traj = integrate(crn, x0, 50.0, IntegratorConfig(rel_tol=1e-12, abs_tol=1e-15))
        fit = fit_exponential_rate(traj, {"s1": 1.5, "s2": 0.8, "h": 1.2}, species=["h"])
        assert fit.gamma > 0.3
        assert traj.final_state().get("h") == pytest.approx(1.2, abs=1e-6)

    def test_non_decaying_rejected(self):
        crn = Crn(
            SpeciesRegistry(("a",)),
            [Reaction(Complex({"a": 1}), Complex({"a": 2}), 1.0)],
        )
        x0 = State.from_dict(crn.registry, {"a": 0.5})
        traj = integrate(crn, x0, 2.0)
        with pytest.raises(FitError):
            fit_exponential_rate(traj, {"a": 0.0})


class TestEquilibriumResidual:
    def test_analytic_points_are_equilibria(self):
        frag = build_judgment(JUDGE_RATES, 1)
        crn = assemble(frag, ("O23", "O25"))
        for point in bistable_equilibria(*JUDGE_RATES):
            state = State.from_dict(
                crn.registry, {"e_1": point.e, "ja_1": point.a, "gate": point.e}
            )
            assert equilibrium_residual(crn, state) < 1e-12

    def test_generic_state_is_not(self):
        frag = build_judgment(JUDGE_RATES, 1)
        crn = assemble(frag, ("O23", "O25"))
        state = State.from_dict(crn.registry, {"e_1": 1.0, "ja_1": 1.0, "gate": 0.1})
        assert equilibrium_residual(crn, state) > 1e-3

    def test_converged_run_has_small_residual(self):
        from chemnn.compiler import Fragment

        frag = build_judgment(JUDGE_RATES, 1)
        only_judge = Fragment([r for r in frag.reactions if r.phase == "O25"], frag.roles)
        crn = assemble(only_judge, ("O25",))
        x0 = State.from_dict(crn.registry, {"e_1": 0.9, "ja_1": (1 / 8) * 0.81})
        state, converged, _ = integrate_to_equilibrium(crn, x0, 1e-7, 500.0)
        assert converged
        assert equilibrium_residual(crn, state) < 1e-7


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
            state, converged, _ = integrate_to_equilibrium(crn, x0, 1e-7, 5000.0)
            assert converged
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
        reports = verify_against_oracle(boundaries, program, batch, *ws.decoded())
        hidden = next(r for r in reports if r.phase == "O13")
        assert all(ref == pytest.approx(0.5) for _, _, ref in hidden.quantities)

    def test_csv_export(self, tmp_path, net221, xor_trainspec):
        from chemnn.analysis import reports_to_csv
        from chemnn.compiler import compile_program
        from chemnn.integrate import PhasedExecutor

        program, x0 = compile_program(net221, xor_trainspec)
        through_o23 = program.phases[: program.phases.index("O23") + 1]
        executor = PhasedExecutor(program, [(tag, 50.0) for tag in through_o23])
        _, _, boundaries = executor.run_cycle(x0.values, 0.0)
        batch = oracle.Batch.from_samples(xor_trainspec.samples[:2])
        reports = verify_against_oracle(
            boundaries, program, batch, *xor_trainspec.init_weights.decoded()
        )
        path = tmp_path / "reports.csv"
        reports_to_csv(reports, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "phase,quantity,chemical,oracle,abs_dev"
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        expected = [(r.phase, label, chem, orc) for r in reports for label, chem, orc in r.quantities]
        assert len(rows) == len(expected) > 8
        assert any("," in label for _, label, _, _ in expected)
        for row, (phase, label, chem, orc) in zip(rows, expected):
            assert None not in row  # no row has more fields than the header
            assert (row["phase"], row["quantity"]) == (phase, label)
            assert float(row["chemical"]) == chem and float(row["oracle"]) == orc
            assert float(row["abs_dev"]) == abs(chem - orc)

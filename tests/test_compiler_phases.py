"""Per-phase equilibrium tests: each builder's window is checked against
closed forms or the floating-point reference."""

import numpy as np
import pytest

from chemnn import oracle
from chemnn.analysis import decode_dual_rail
from chemnn.compiler import (
    NetSpec,
    build_assignment,
    build_judgment,
    build_logistic,
    build_logistic_preset,
    build_lws,
    build_neggrad,
    build_pair_precalc,
    build_update,
    Fragment,
)
from chemnn.crn import Crn, CrnError, Reaction, State, crn_from_text, rhs
from chemnn.integrate import IntegratorConfig, Kinetics, run_window

from conftest import (
    ADDER,
    JUDGE_RATES,
    XOR_MINUS,
    XOR_PLUS,
    XOR_SAMPLES,
    fragment_program,
    run_windows,
)

NET = NetSpec(2, 2, 1)


class TestAdditionGadget:
    @pytest.mark.parametrize("a,b", [(1.0, 2.0), (0.0, 0.0), (0.25, 0.5)])
    def test_settles_at_sum(self, a, b):
        crn = crn_from_text(ADDER)
        x0 = State.from_dict(crn.registry, {"a": a, "b": b})
        y, _ = run_window(Kinetics(crn), x0.values, 0.0, 200.0, IntegratorConfig())
        state = State(crn.registry, y)
        assert np.abs(rhs(crn, state)).max() < 1e-7
        assert state.get("c") == pytest.approx(a + b, abs=1e-6)


def _assignment_init(p=4, p_tilde=2, samples=XOR_SAMPLES):
    init = {}
    for i in range(1, p + 1):
        init[f"x1_{i}"] = samples[i - 1, 0]
        init[f"x2_{i}"] = samples[i - 1, 1]
        init[f"d_{i}"] = samples[i - 1, 2]
    for l in range(1, p_tilde + 1):
        init[f"c{l}_{l}"] = 1.0
    return init


# The phases that store the selectors (O7), rotate them (O15) and load the
# block they pick (O29), in program order.
ASSIGNMENT_PHASES = ("O7", "O15", "O29")


class TestAssignment:
    def test_first_block_loaded(self):
        program = fragment_program(build_assignment(4, 2), ASSIGNMENT_PHASES)
        traj = run_windows(program, _assignment_init(), [("O29", 50.0)])
        final = traj.final_state()
        for l in (1, 2):
            assert final.get(f"s1_{l}") == pytest.approx(XOR_SAMPLES[l - 1, 0], abs=1e-8)
            assert final.get(f"s2_{l}") == pytest.approx(XOR_SAMPLES[l - 1, 1], abs=1e-8)
            assert final.get(f"s3_{l}") == pytest.approx(XOR_SAMPLES[l - 1, 2], abs=1e-8)

    def test_store_clears_selectors(self):
        program = fragment_program(build_assignment(4, 2), ASSIGNMENT_PHASES)
        traj = run_windows(program, _assignment_init(), [("O29", 50.0), ("O7", 50.0)])
        final = traj.final_state()
        assert final.get("c1_1") == pytest.approx(0.0, abs=1e-10)
        assert final.get("ct1_1") == pytest.approx(1.0, abs=1e-8)
        assert final.get("ct2_2") == pytest.approx(1.0, abs=1e-8)

    def test_rotation_presents_next_block_then_wraps(self):
        program = fragment_program(build_assignment(4, 2), ASSIGNMENT_PHASES)
        cycle = [(tag, 50.0) for tag in ASSIGNMENT_PHASES]
        traj = run_windows(program, _assignment_init(), cycle * 2)
        boundaries = traj.boundary_states()
        # the first cycle's O29 boundary holds the second block
        first_o29 = boundaries[2][1]
        for l in (1, 2):
            assert first_o29.get(f"s1_{l}") == pytest.approx(XOR_SAMPLES[l + 1, 0], abs=1e-7)
            assert first_o29.get(f"s3_{l}") == pytest.approx(XOR_SAMPLES[l + 1, 2], abs=1e-7)
        # after the second full cycle the selectors are back at block one
        final = traj.final_state()
        assert final.get("c1_1") == pytest.approx(1.0, abs=1e-7)
        assert final.get("c2_2") == pytest.approx(1.0, abs=1e-7)
        for l in (1, 2):
            assert final.get(f"s1_{l}") == pytest.approx(XOR_SAMPLES[l - 1, 0], abs=1e-7)

    @pytest.mark.parametrize("p,p_tilde", [(4, 2), (6, 2), (6, 3), (8, 2), (2, 2), (4, 4)])
    def test_rotation_is_permutation_of_block_order(self, p, p_tilde):
        # pure index check, no integration
        frag = build_assignment(p, p_tilde)
        for l in range(1, p_tilde + 1):
            mapping = {}
            for rxn in frag.reactions:
                # the rotation is the move of each stored selector ct back to a c
                source = next(iter(rxn.reactant.species()))
                target = next(iter(rxn.product.species()), "")
                if source.startswith(f"ct{l}_") and target.startswith(f"c{l}_"):
                    mapping[int(source.split("_")[1])] = int(target.split("_")[1])
            assert sorted(mapping) == sorted(mapping.values())  # permutation
            # one block leaves every selector in place, with no store or rotation
            assert bool(mapping) == (p > p_tilde)
            order = 1
            pos = l
            while True:
                pos = mapping.get(pos, pos)
                if pos == l:
                    break
                order += 1
            assert order == p // p_tilde

    def test_bad_batch_size(self):
        with pytest.raises(CrnError):
            build_assignment(4, 3)


def _load_weights_init(plus=XOR_PLUS, minus=XOR_MINUS):
    init = {}
    for i in (1, 2):
        for j in (1, 2):
            init[f"w1_{i}_{j}p"] = plus[i - 1, j - 1]
            init[f"w1_{i}_{j}m"] = minus[i - 1, j - 1]
        init[f"b1_{i}p"] = plus[i - 1, 2]
        init[f"b1_{i}m"] = minus[i - 1, 2]
    for a in (1, 2):
        init[f"w2_1_{a}p"] = plus[2, a - 1]
        init[f"w2_1_{a}m"] = minus[2, a - 1]
    init["b2_1p"] = plus[2, 2]
    init["b2_1m"] = minus[2, 2]
    return init


class TestLinearWeightedSum:
    def test_single_weight_dot_product(self):
        program = fragment_program(build_lws("hidden", NET, 1), ("O7",))
        init = {"w1_1_1p": 1.0, "s1_1": 0.7}
        traj = run_windows(program, init, [("O7", 50.0)])
        assert traj.final_state().get("n1_1_1p") == pytest.approx(0.7, abs=1e-8)
        assert traj.final_state().get("n1_1_1m") == pytest.approx(0.0, abs=1e-10)

    def test_zero_weights_leave_bias_only(self):
        program = fragment_program(build_lws("hidden", NET, 1), ("O7",))
        init = {"b1_1p": 0.4, "s1_1": 1.0, "s2_1": 1.0}
        traj = run_windows(program, init, [("O7", 50.0)])
        assert traj.final_state().get("n1_1_1p") == pytest.approx(0.4, abs=1e-8)

    def test_rails_match_reference_columns(self):
        program = fragment_program(build_lws("hidden", NET, 2), ("O7",))
        init = {k: v for k, v in _load_weights_init().items() if k.startswith(("w1", "b1"))}
        for l in (1, 2):
            init[f"s1_{l}"] = XOR_SAMPLES[l - 1, 0]
            init[f"s2_{l}"] = XOR_SAMPLES[l - 1, 1]
        traj = run_windows(program, init, [("O7", 50.0)])
        final = traj.final_state()
        batch = oracle.Batch.from_samples(XOR_SAMPLES[:2])
        plus_ref = XOR_PLUS[:2] @ batch.inputs
        minus_ref = XOR_MINUS[:2] @ batch.inputs
        for i in (1, 2):
            for l in (1, 2):
                assert final.get(f"n1_{i}_{l}p") == pytest.approx(plus_ref[i - 1, l - 1], abs=1e-6)
                assert final.get(f"n1_{i}_{l}m") == pytest.approx(minus_ref[i - 1, l - 1], abs=1e-6)


def _activation_program():
    """Hidden preset (O7) and logistic (O13) of one unit and sample slot."""
    frag = Fragment()
    frag.merge(build_logistic_preset("hidden", NET, 1))
    frag.merge(build_logistic("hidden", NET, 1))
    return fragment_program(frag, ("O7", "O13"))


class TestPresetHalf:
    """The activation pair preset (O7): h = hb = 1/2 at rate 1, whatever the
    net input, with the net-input rails left for the logistic."""

    def test_surviving_rail_preset(self):
        program = _activation_program()
        init = {"n1_1_1p": 2.0, "half": 0.5}
        final = run_windows(program, init, [("O7", 50.0)]).final_state()
        assert final.get("h1_1") == pytest.approx(0.5, abs=1e-8)
        assert final.get("h1_1b") == pytest.approx(0.5, abs=1e-8)
        assert final.get("n1_1_1p") == 2.0

    def test_zero_net_input_leaves_rails(self):
        # no net input is needed to preset the pair, and none is made
        program = _activation_program()
        final = run_windows(program, {"half": 0.5}, [("O7", 50.0)]).final_state()
        assert final.get("h1_1") == pytest.approx(0.5, abs=1e-8)
        assert final.get("h1_1b") == pytest.approx(0.5, abs=1e-8)
        assert final.get("n1_1_1p") == 0.0
        assert final.get("n1_1_1m") == 0.0

    def test_negative_rail_preset_rate(self):
        program = _activation_program()
        init = {"n1_1_1m": 1.7, "half": 0.5}
        final = run_windows(program, init, [("O7", 50.0)]).final_state()
        assert final.get("h1_1") == pytest.approx(0.5, abs=1e-8)
        assert final.get("h1_1b") == pytest.approx(0.5, abs=1e-8)

    def test_preset_resets_previous_round(self):
        program = _activation_program()
        init = {"half": 0.5, "h1_1": 0.97, "h1_1b": 0.03}
        final = run_windows(program, init, [("O7", 50.0)]).final_state()
        assert final.get("h1_1") == pytest.approx(0.5, abs=1e-8)
        assert final.get("h1_1b") == pytest.approx(0.5, abs=1e-8)


class TestSigmoidPhase:
    def _pipeline(self, n):
        """Run preset and activation for a signed net input."""
        program = _activation_program()
        init = {"half": 0.5}
        if n >= 0:
            init["n1_1_1p"] = n
        else:
            init["n1_1_1m"] = -n
        windows = [("O7", 50.0), ("O13", 50.0)]
        return run_windows(program, init, windows).final_state()

    def test_positive_input(self):
        final = self._pipeline(1.0)
        assert final.get("h1_1") == pytest.approx(1 / (1 + np.exp(-1.0)), abs=1e-6)
        assert final.get("h1_1b") == pytest.approx(1 / (1 + np.exp(1.0)), abs=1e-6)

    def test_negative_input(self):
        final = self._pipeline(-2.0)
        assert final.get("h1_1") == pytest.approx(1 / (1 + np.exp(2.0)), abs=1e-6)
        assert final.get("h1_1b") == pytest.approx(1 / (1 + np.exp(-2.0)), abs=1e-6)

    def test_zero_input_with_forced_preset(self):
        frag = build_logistic("hidden", NET, 1)
        program = fragment_program(frag, ("O13",))
        traj = run_windows(program, {"h1_1": 0.5, "h1_1b": 0.5}, [("O13", 50.0)])
        assert traj.final_state().get("h1_1") == pytest.approx(0.5, abs=1e-8)
        assert traj.final_state().get("h1_1b") == pytest.approx(0.5, abs=1e-8)

    def test_net_input_consumed(self):
        final = self._pipeline(1.0)
        assert final.get("n1_1_1p") < 1e-8
        assert final.get("n1_1_1m") < 1e-8


def _precalc_program():
    """The error stage (O23) and the drains of its stores (O29) for one slot."""
    return fragment_program(build_pair_precalc(NET, 1), ("O23", "O29"))


def _precalc_init(y, d):
    """The settled output pair, the label and its complement."""
    return {"y1_1": y, "y1_1b": 1.0 - y, "s3_1": d, "lb_1": 1.0 - d}


class TestPrecalc:
    def test_positive_error_branch(self):
        program = _precalc_program()
        traj = run_windows(program, _precalc_init(0.3, 1.0), [("O23", 60.0)])
        final = traj.final_state()
        assert final.get("ep_1") == pytest.approx(0.7, abs=1e-6)
        assert final.get("em_1") == pytest.approx(0.0, abs=1e-6)
        assert final.get("e_1") == pytest.approx(0.7, abs=1e-6)
        assert final.get("s3_1") == 1.0  # the label is only read

    def test_zero_error(self):
        """A binary label matched by its output leaves both rails and the
        error at 0; the window is a cascade, ended by its plan."""
        program = _precalc_program()
        crn = Crn(program.crn.registry, [program.crn.reactions[j] for j in program.phase_index["O23"]])
        for y in (0.0, 1.0):
            x0 = State.from_dict(crn.registry, _precalc_init(y, y))
            kin = Kinetics(crn)
            y_end, _ = run_window(kin, x0.values, 0.0, 5000.0, IntegratorConfig())
            state = State(crn.registry, y_end)
            assert kin.plan is not None and kin.settled
            assert np.abs(rhs(crn, state)).max() < 1e-6
            assert state.get("e_1") == pytest.approx(0.0, abs=3e-3)

    def test_negative_error_branch(self):
        program = _precalc_program()
        traj = run_windows(program, _precalc_init(0.8, 0.0), [("O23", 60.0)])
        final = traj.final_state()
        assert final.get("ep_1") == pytest.approx(0.0, abs=1e-6)
        assert final.get("em_1") == pytest.approx(0.8, abs=1e-6)
        assert final.get("e_1") == pytest.approx(0.8, abs=1e-6)

    @pytest.mark.parametrize("y, d", [(0.3, 0.4), (0.9, 0.25)])
    def test_rail_difference_for_any_label(self, y, d):
        """The rails settle at d(1 - y) and (1 - d) y, so their difference is
        d - y for a label between 0 and 1 too, while their sum, the error,
        is |d - y| only for a binary label (``TrainSpec`` asks for one)."""
        program = _precalc_program()
        final = run_windows(program, _precalc_init(y, d), [("O23", 60.0)]).final_state()
        rails = final.get("ep_1"), final.get("em_1")
        assert rails[0] - rails[1] == pytest.approx(d - y, abs=1e-12)
        assert final.get("e_1") == pytest.approx(d * (1 - y) + (1 - d) * y, abs=1e-12)
        assert final.get("e_1") > abs(d - y) + 0.01

    def test_complements_and_copies(self):
        # the complements stay in the activation pairs, which O23 reads but never changes
        program = _precalc_program()
        changed = {name for rxn in program.crn.reactions for name in rxn.net()}
        assert not [n for n in changed if n.startswith("h") or n.endswith("b")]
        traj = run_windows(program, _precalc_init(0.3, 1.0), [("O23", 60.0), ("O29", 60.0)])
        (_, after_error), (_, after_update) = traj.boundary_states()
        assert after_error.get("ystore_1") == pytest.approx(0.3, abs=1e-6)
        # the update's window drains the store, the rails and the error
        assert max(after_update.get(name) for name in ("ystore_1", "ep_1", "em_1", "e_1")) < 1e-12


class TestJudgment:
    def test_companion_preset_parabola(self):
        frag = build_judgment(JUDGE_RATES, 1)
        program = fragment_program(frag, ("O23", "O25"))
        traj = run_windows(program, {"e_1": 0.4, "ja_1": 12.25}, [("O23", 50.0)])
        k1, k2 = JUDGE_RATES[:2]
        assert traj.final_state().get("ja_1") == pytest.approx((k2 / k1) * 0.16, abs=1e-8)

    def test_gate_accumulates_error_sum(self):
        frag = build_judgment(JUDGE_RATES, 2)
        program = fragment_program(frag, ("O23", "O25"))
        init = {"e_1": 0.9, "ja_1": (1 / 8) * 0.81, "e_2": 0.2, "ja_2": (1 / 8) * 0.04}
        traj = run_windows(program, init, [("O25", 80.0)])
        final = traj.final_state()
        # above-threshold error reaches the high point; the other drains
        assert final.get("e_1") == pytest.approx(3.5, abs=1e-4)
        assert final.get("e_2") == pytest.approx(0.0, abs=1e-6)
        assert final.get("gate") == pytest.approx(3.5, abs=1e-3)

    def test_no_bistability_rejected(self):
        with pytest.raises(CrnError):
            build_judgment((1.0, 1.0, 1.0, 1.0), 1)


class TestNegGrad:
    def test_single_sample_seven_factor_product(self):
        # e=0.5 on the plus rail d(1 - y), y=0.5, h1=0.5,
        # w2_11 = 1 (plus rail), x1=1: plus gradient
        # 0.5 * 1 * 0.25 * 0.25 * 1 = 0.03125, minus gradient 0
        program = fragment_program(build_neggrad(NET, 1), ("O27",))
        init = {
            "gate": 1.0,
            "ep_1": 0.5,
            "ystore_1": 0.5,
            "y1_1b": 0.5,
            "h1_1": 0.5,
            "h1_1b": 0.5,
            "w2_1_1p": 1.0,
            "s1_1": 1.0,
        }
        traj = run_windows(program, init, [("O27", 80.0)])
        final = traj.final_state()
        assert final.get("pw1_1_1p") == pytest.approx(0.03125, abs=1e-7)
        assert final.get("pw1_1_1m") == pytest.approx(0.0, abs=1e-9)

    def test_zero_errors_zero_gradients(self):
        program = fragment_program(build_neggrad(NET, 1), ("O27",))
        init = {"gate": 1.0, "ystore_1": 0.5, "y1_1b": 0.5, "h1_1": 0.5, "h1_1b": 0.5,
                "w2_1_1p": 1.0, "s1_1": 1.0, "pw1_1_1p": 0.3}
        traj = run_windows(program, init, [("O27", 80.0)])
        final = traj.final_state()
        grad_names = [f"pw1_{i}_{j}" for i in (1, 2) for j in (1, 2)]
        grad_names += ["pb1_1", "pb1_2", "pw2_1_1", "pw2_1_2", "pb2_1"]
        for name in grad_names:
            assert abs(final.get(name + "p")) < 1e-9
            assert abs(final.get(name + "m")) < 1e-9

    @staticmethod
    def _random_state(rng, consistent=False):
        """Random factors of O27 for two sample slots; ``consistent`` makes
        each complement one minus its activation, as the pairs hold them.
        The gate is open: it catalyses every reaction of O27."""
        init = {"gate": 1.0}
        for l in (1, 2):
            init[f"ep_{l}"] = rng.uniform(0, 1)  # the error rails
            init[f"em_{l}"] = rng.uniform(0, 1)
            init[f"ystore_{l}"] = rng.uniform(0.2, 0.8)
            init[f"y1_{l}b"] = 1 - init[f"ystore_{l}"] if consistent else rng.uniform(0.2, 0.8)
            for i in (1, 2):
                init[f"h{i}_{l}"] = rng.uniform(0.2, 0.8)
                init[f"h{i}_{l}b"] = 1 - init[f"h{i}_{l}"] if consistent else rng.uniform(0.2, 0.8)
            init[f"s1_{l}"] = rng.uniform(0, 1)
            init[f"s2_{l}"] = rng.uniform(0, 1)
        for a in (1, 2):
            init[f"w2_1_{a}p"] = rng.uniform(0, 2)
            init[f"w2_1_{a}m"] = rng.uniform(0, 2)
        return init

    def test_deltas_match_backpropagation(self):
        """From a random state, the output delta decodes to eta e y (1 - y),
        each hidden delta to that times w2_a h_a (1 - h_a), and each gradient
        rail to its delta times its input."""
        eta = 0.9
        program = fragment_program(build_neggrad(NET, 2, eta), ("O27",))
        init = self._random_state(np.random.default_rng(17), consistent=True)
        final = run_windows(program, init, [("O27", 120.0)]).final_state()
        gradients = ["pb2_1", "pw2_1_1", "pw2_1_2", "pb1_1", "pb1_2"]
        gradients += [f"pw1_{a}_{b}" for a in (1, 2) for b in (1, 2)]
        expected = dict.fromkeys(gradients, 0.0)
        for l in (1, 2):
            y = init[f"ystore_{l}"]
            delta_out = eta * (init[f"ep_{l}"] - init[f"em_{l}"]) * y * (1 - y)
            assert decode_dual_rail(final, (f"dop_{l}", f"dom_{l}")) == pytest.approx(
                delta_out, abs=1e-9)
            expected["pb2_1"] += delta_out
            for a in (1, 2):
                h = init[f"h{a}_{l}"]
                delta = delta_out * (init[f"w2_1_{a}p"] - init[f"w2_1_{a}m"]) * h * (1 - h)
                assert decode_dual_rail(final, (f"dl{a}p_{l}", f"dl{a}m_{l}")) == pytest.approx(
                    delta, abs=1e-9)
                expected[f"pw2_1_{a}"] += delta_out * h
                expected[f"pb1_{a}"] += delta
                for b in (1, 2):
                    expected[f"pw1_{a}_{b}"] += delta * init[f"s{b}_{l}"]
        for name, value in expected.items():
            assert decode_dual_rail(final, (name + "p", name + "m")) == pytest.approx(
                value, abs=1e-9), name

    def test_staged_levels_match_merged_window(self):
        """The root products (my, hh), the output delta and the hidden
        factor (do, mhw), the hidden deltas (dl) and the gradient sums reach
        the same gradients whether they run together in one window or staged
        one level at a time."""
        frag = build_neggrad(NET, 2, 0.9)
        program = fragment_program(frag, ("O27",))
        init = self._random_state(np.random.default_rng(5))
        merged = run_windows(program, init, [("O27", 120.0)]).final_state()

        def level(name: str) -> int:
            for stage, prefixes in enumerate((("my", "hh"), ("do", "mhw"), ("dl",))):
                if name.startswith(prefixes):
                    return stage
            return 3

        staged = Fragment()
        for rxn in frag.reactions:
            produced = [s for s, d in rxn.net().items() if d > 0]
            consumed = [s for s, d in rxn.net().items() if d < 0]
            stage = level(produced[0]) if produced else level(consumed[0])
            staged.reactions.append(Reaction(rxn.reactant, rxn.product, rxn.rate, f"L{stage}"))
        staged_program = fragment_program(staged, ("L0", "L1", "L2", "L3"))
        windows = [(f"L{k}", 120.0) for k in range(4)]
        split = run_windows(staged_program, init, windows).final_state()
        grad_names = [f"pw1_{i}_{j}" for i in (1, 2) for j in (1, 2)]
        grad_names += ["pb1_1", "pb1_2", "pw2_1_1", "pw2_1_2", "pb2_1"]
        for name in grad_names:
            for s in ("p", "m"):
                assert merged.get(name + s) == pytest.approx(split.get(name + s), abs=1e-7)


class TestUpdate:
    def test_affine_fixed_point(self):
        """Each weight rail ends at w + p, and the gradient rail ends empty."""
        program = fragment_program(build_update(NET), ("O29",))
        init = {"gate": 1.0, "pw1_1_1p": 1.0, "w1_1_1p": 7.0, "pb2_1m": 0.4, "b2_1m": 0.0}
        final = run_windows(program, init, [("O29", 80.0)]).final_state()
        assert final.get("w1_1_1p") == pytest.approx(8.0, abs=1e-12)
        assert final.get("b2_1m") == pytest.approx(0.4, abs=1e-12)
        # the gradient rails end empty, so the next round starts from zero
        assert final.get("pw1_1_1p") == pytest.approx(0.0, abs=1e-12)

    def test_zero_gradient_leaves_weights(self):
        program = fragment_program(build_update(NET), ("O29",))
        init = {"gate": 1.0, "b2_1m": 1.3, "w1_2_1p": 0.25}
        final = run_windows(program, init, [("O29", 80.0)]).final_state()
        assert final.get("b2_1m") == pytest.approx(1.3, abs=1e-12)
        assert final.get("w1_2_1p") == pytest.approx(0.25, abs=1e-12)

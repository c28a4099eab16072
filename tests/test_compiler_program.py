"""Whole-program tests: compilation shape, determinism, static closure, and
one full round checked phase by phase against the reference."""

import numpy as np
import pytest

from chemnn import analysis, oracle
from chemnn.compiler import (
    FEEDFORWARD_PHASES,
    GATED_PHASES,
    PHASE_ORDER,
    NetSpec,
    TrainSpec,
    WeightSet,
    compile_feedforward,
    compile_program,
)
from chemnn.crn import CrnError, crn_from_text, crn_to_text
from chemnn.integrate import PhasedExecutor
from chemnn.training import _feedforward, evaluate_outputs

from conftest import JUDGE_RATES, XOR_MINUS, XOR_PLUS, XOR_SAMPLES

# Batch 2 on the 2-2-1 shape: 4 hidden and 2 output activation pairs.
SLOTS = 2
HIDDEN_PAIRS, OUTPUT_PAIRS = 2 * SLOTS, 1 * SLOTS
# Per activation pair: O7/O15 preset both members from ``half`` and decay
# them (4), beside the layer's weighted sums; O13/O21 convert the pair in
# each direction and decay both net-input rails (4).  Per sample slot, O23
# runs the output split (1), the error rails (8) and the judgment's
# companion preset (2), and O1 drains the previous round's output store and
# its working copy (2).  O27 decays its 18 gradient rails and, per sample
# slot, makes and decays 21 products (my; meh, teh and mwh per hidden unit
# and sign; twx per hidden unit, input and sign) and feeds 30 sums (16
# layer-1 weight, 8 layer-1 bias, 4 layer-2 weight and 2 layer-2 bias
# monomials): 162.
EXPECTED_PHASE_SIZES = {
    "O1": 30 + SLOTS * 2, "O3": 8, "O5": 8, "O7": 68 + 4 * HIDDEN_PAIRS,
    "O13": 4 * HIDDEN_PAIRS, "O15": 16 + 4 * OUTPUT_PAIRS,
    "O21": 4 * OUTPUT_PAIRS, "O23": SLOTS * (1 + 8 + 2), "O25": 11,
    "O27": 18 + SLOTS * (2 * 21 + 30), "O29": 72,
}


class TestCompile:
    def test_program_dimensions_golden(self, net221, xor_trainspec):
        program, x0 = compile_program(net221, xor_trainspec)
        assert program.crn.n_species == 187
        assert program.crn.n_reactions == 449 == sum(EXPECTED_PHASE_SIZES.values())
        assert {p: len(ix) for p, ix in program.phase_index.items()} == EXPECTED_PHASE_SIZES
        assert len(x0.values) == 187

    def test_deterministic(self, net221, xor_trainspec):
        a, xa = compile_program(net221, xor_trainspec)
        b, xb = compile_program(net221, xor_trainspec)
        assert crn_to_text(a.crn) == crn_to_text(b.crn)
        np.testing.assert_array_equal(xa.values, xb.values)

    def test_round_trip_serialization(self, net221, xor_trainspec):
        program, _ = compile_program(net221, xor_trainspec)
        text = crn_to_text(program.crn)
        assert crn_to_text(crn_from_text(text)) == text

    def test_phase_lists_match_compiled_programs(self, net221, xor_trainspec, xor_weights):
        """A listed tag with no reactions is dropped silently, so a stale
        list would only show here."""
        program, _ = compile_program(net221, xor_trainspec)
        assert program.phases == PHASE_ORDER
        ff, _ = compile_feedforward(net221, xor_weights, np.array([[0.0, 1.0]]))
        assert ff.phases == FEEDFORWARD_PHASES

    def test_every_reaction_has_one_phase(self, net221, xor_trainspec):
        program, _ = compile_program(net221, xor_trainspec)
        assert all(r.phase in program.phases for r in program.crn.reactions)
        assert all(program.phase_index[p] for p in program.phases)  # no empty phase

    def test_roles_cover_registry(self, net221, xor_trainspec):
        program, _ = compile_program(net221, xor_trainspec)
        roles = program.crn.registry.roles
        missing = [n for n in program.crn.registry.names if n not in roles]
        assert missing == []

    def test_learning_phases_gated(self, net221, xor_trainspec):
        program, _ = compile_program(net221, xor_trainspec)
        for phase in GATED_PHASES:
            for j in program.phase_index[phase]:
                rxn = program.crn.reactions[j]
                assert rxn.reactant.coeff("gate") == 1
                assert rxn.product.coeff("gate") == 1

    def test_learning_reactions_bimolecular(self, net221, xor_trainspec):
        """The paper's learning reactions read at most two molecules besides the gate."""
        program, _ = compile_program(net221, xor_trainspec)
        for phase in ("O23", "O27", "O29"):
            for j in program.phase_index[phase]:
                rxn = program.crn.reactions[j]
                assert rxn.reactant.size() - rxn.reactant.coeff("gate") <= 2, str(rxn)

    def test_initial_state_contents(self, net221, xor_trainspec):
        program, x0 = compile_program(net221, xor_trainspec)
        assert x0.get("half") == 0.5
        assert x0.get("lr") == 0.9
        assert x0.get("c1_1") == 1.0 and x0.get("c2_2") == 1.0
        assert x0.get("c1_2") == 0.0
        assert x0.get("x1_1") == 1.0 and x0.get("d_3") == 0.0
        assert x0.get("w1_1_1p") == 3.0 and x0.get("b2_1m") == 4.0
        assert x0.get("gate") == 0.0
        # no background fill: every species the compiler does not load is zero
        loaded = {"half", "lr", "c1_1", "c2_2"}
        loaded |= {f"x{q}_{i}" for q in (1, 2) for i in range(1, 5)}
        loaded |= {f"d_{i}" for i in range(1, 5)}
        for pairs in (program.probes.weights1, program.probes.weights2):
            loaded |= {name for pair in pairs.values() for name in pair}
        assert len(loaded) == 34
        rest = [name for name in program.crn.registry.names if name not in loaded]
        assert len(rest) == 187 - 34
        assert all(x0.get(name) == 0.0 for name in rest)

    def test_non_bistable_rates_rejected(self, net221, xor_weights):
        with pytest.raises(CrnError, match="bistab"):
            TrainSpec(
                samples=XOR_SAMPLES, batch_size=2, eta=0.9, threshold=0.5,
                judge_rates=(1.0, 1.0, 1.0, 1.0), init_weights=xor_weights,
            )

    def test_threshold_must_match_unstable_point(self, net221, xor_weights):
        with pytest.raises(CrnError, match="threshold"):
            TrainSpec(
                samples=XOR_SAMPLES, batch_size=2, eta=0.9, threshold=0.4,
                judge_rates=JUDGE_RATES, init_weights=xor_weights,
            )

    def test_negative_samples_rejected(self, xor_weights):
        bad = XOR_SAMPLES.copy()
        bad[0, 0] = -0.5
        with pytest.raises(CrnError, match="nonneg"):
            TrainSpec(samples=bad, batch_size=2, eta=0.9, threshold=0.5,
                      init_weights=xor_weights)

    def test_batch_must_divide_samples(self, xor_weights):
        with pytest.raises(CrnError):
            TrainSpec(samples=XOR_SAMPLES, batch_size=3, eta=0.9, threshold=0.5,
                      init_weights=xor_weights)


class TestWeightSet:
    def test_split_recombine_round_trip(self):
        rng = np.random.default_rng(11)
        w1 = rng.normal(0, 2, (2, 3))
        w2 = rng.normal(0, 2, (1, 3))
        ws = WeightSet.from_real(w1, w2)
        d1, d2 = ws.decoded()
        np.testing.assert_array_equal(d1, w1)
        np.testing.assert_array_equal(d2, w2)
        assert np.all(ws.w1_plus >= 0) and np.all(ws.w1_minus >= 0)

    def test_stacked_round_trip(self):
        ws = WeightSet.from_stacked(XOR_PLUS, XOR_MINUS)
        plus, minus = ws.stacked()
        np.testing.assert_array_equal(plus, XOR_PLUS)
        np.testing.assert_array_equal(minus, XOR_MINUS)

    def test_negative_rail_rejected(self):
        with pytest.raises(CrnError):
            WeightSet.from_stacked(XOR_PLUS, -XOR_MINUS)


def _is_pure_decay(rxn, name):
    return rxn.reactant.terms == {name: 1} and not rxn.product


class TestPhaseClosure:
    def test_no_intermediate_phase_destroys_pending_values(self, net221, xor_trainspec):
        """A species produced in one phase and read later must not have a
        pure-decay reaction in any phase between producer and reader."""
        program, _ = compile_program(net221, xor_trainspec)
        order = {p: i for i, p in enumerate(program.phases)}
        producers = {}
        readers = {}
        decayers = {}
        for rxn in program.crn.reactions:
            k = order[rxn.phase]
            for name, delta in rxn.net().items():
                if delta > 0:
                    producers.setdefault(name, set()).add(k)
            for name in rxn.reactant.species():
                if name != "gate":
                    readers.setdefault(name, set()).add(k)
                if _is_pure_decay(rxn, name):
                    decayers.setdefault(name, set()).add(k)
        violations = []
        n = len(program.phases)
        for name, reads in readers.items():
            produced = producers.get(name)
            if not produced:
                continue  # loaded by the initial state, never rewritten
            for read_at in reads:
                # nearest producer at or before the read, cyclically
                gap = min((read_at - p) % n for p in produced)
                start = (read_at - gap) % n
                between = {(start + offset) % n for offset in range(1, gap)}
                bad = between & decayers.get(name, set())
                if bad:
                    violations.append((name, program.phases[start], program.phases[read_at],
                                       [program.phases[b] for b in sorted(bad)]))
        assert violations == []


class TestFullRound:
    def test_phase_boundaries_match_reference(self, net221, xor_trainspec):
        program, x0 = compile_program(net221, xor_trainspec)
        executor = PhasedExecutor(program, [(tag, 50.0) for tag in program.phases])
        _, _, boundaries = executor.run_cycle(x0.values, 0.0)
        w1, w2 = xor_trainspec.init_weights.decoded()
        batch = oracle.Batch.from_samples(XOR_SAMPLES[:2])
        reports = analysis.verify_against_oracle(boundaries, program, batch, w1, w2)
        assert {r.phase for r in reports} == {"O7", "O13", "O15", "O21", "O23", "O27", "O29"}
        for report in reports:
            assert report.max_abs_dev < 1e-4, f"{report.phase}: {report.max_abs_dev}"

    def test_second_round_feedforward_still_clean(self, net221, xor_trainspec):
        """Clear-out and the activation presets leave the next round valid."""
        program, x0 = compile_program(net221, xor_trainspec)
        executor = PhasedExecutor(program, [(tag, 50.0) for tag in program.phases])
        y, t, first = executor.run_cycle(x0.values, 0.0)
        w1, w2 = first["O29"], None
        dec_w1, dec_w2 = (
            np.array([[analysis.decode_dual_rail(first["O29"], program.probes.weights1[(i, j)])
                       for j in (1, 2, 3)] for i in (1, 2)]),
            np.array([[analysis.decode_dual_rail(first["O29"], program.probes.weights2[(1, a)])
                       for a in (1, 2, 3)]]),
        )
        y, t, second = executor.run_cycle(y, t)
        batch = oracle.Batch.from_samples(XOR_SAMPLES[2:4])
        trace = oracle.forward(dec_w1, dec_w2, batch)
        after = second["O21"]
        for (o, l), name in sorted(program.probes.outputs.items()):
            assert after.get(name) == pytest.approx(float(trace.outputs[l - 1]), abs=1e-3)


class TestFeedforwardGeneralization:
    def test_wider_network_matches_direct_computation(self):
        net = NetSpec(input_width=3, hidden_width=4, output_width=2)

        def direct(w1, w2, x):
            h = 1.0 / (1.0 + np.exp(-(w1[:, :3] @ x + w1[:, 3])))
            return 1.0 / (1.0 + np.exp(-(w2[:, :4] @ h + w2[:, 4])))

        # draw a configuration whose net inputs stay away from zero; the
        # logistic settles at rate 1 there too, so the filter only keeps the
        # draw the test was written with
        for seed in range(100):
            rng = np.random.default_rng(seed)
            w1 = rng.normal(0, 1.5, (4, 4))
            w2 = rng.normal(0, 1.5, (2, 5))
            inputs = rng.uniform(0.2, 1.0, (2, 3))
            nets_hidden = np.stack([w1[:, :3] @ row + w1[:, 3] for row in inputs])
            nets_out = np.stack(
                [w2[:, :4] @ (1 / (1 + np.exp(-(w1[:, :3] @ row + w1[:, 3])))) + w2[:, 4]
                 for row in inputs]
            )
            if min(np.abs(nets_hidden).min(), np.abs(nets_out).min()) > 0.25:
                break
        else:
            pytest.fail("no well-separated draw found")
        expected = np.stack([direct(w1, w2, row) for row in inputs], axis=1)

        program, x0 = compile_feedforward(net, WeightSet.from_real(w1, w2), inputs)
        executor = PhasedExecutor(program, [(tag, 60.0) for tag in program.phases])
        _, _, boundaries = executor.run_cycle(x0.values, 0.0)
        final = boundaries["O21"]
        for o in (1, 2):
            for l in (1, 2):
                assert final.get(f"y{o}_{l}") == pytest.approx(
                    expected[o - 1, l - 1], abs=1e-6
                )

    def test_input_shape_validated(self):
        net = NetSpec()
        ws = WeightSet.from_stacked(XOR_PLUS, XOR_MINUS)
        with pytest.raises(CrnError):
            compile_feedforward(net, ws, np.ones((2, 3)))


class TestEvaluateOutputs:
    """``training.evaluate_outputs`` reuses one program and executor per shape."""

    @staticmethod
    def _fresh(net, weights, rows, window=50.0):
        program, x0 = compile_feedforward(net, weights, rows)
        executor = PhasedExecutor(program, [(tag, window) for tag in program.phases])
        _, _, ends = executor.run_cycle(executor.initial_values(x0), 0.0)
        return np.array([ends["O21"].get(f"y1_{l}") for l in range(1, len(rows) + 1)])

    def test_reused_program_matches_fresh_compiles(self, net221):
        rng = np.random.default_rng(3)
        draws = [
            (WeightSet.from_real(rng.normal(0, 1.5, (2, 3)), rng.normal(0, 1.5, (1, 3))),
             rng.uniform(0, 1, (3, 2)))
            for _ in range(2)
        ]
        hits = _feedforward.cache_info().hits
        for weights, rows in (draws[0], draws[1], draws[0]):
            got = evaluate_outputs(net221, weights, rows)
            assert np.array_equal(got, self._fresh(net221, weights, rows))
        assert _feedforward.cache_info().hits >= hits + 2

    def test_reused_program_still_checks_its_inputs(self, net221, xor_weights):
        rows = np.array([[0.0, 1.0], [1.0, 0.0]])
        evaluate_outputs(net221, xor_weights, rows)
        with pytest.raises(CrnError):
            evaluate_outputs(net221, xor_weights, -rows)
        wrong = WeightSet.from_real(np.ones((3, 3)), np.ones((1, 4)))
        with pytest.raises(CrnError):
            evaluate_outputs(net221, wrong, rows)

    def test_one_program_for_all_rows_matches_ten(self, net221, xor_weights):
        rows = np.random.default_rng(8).uniform(0, 1, (100, 2))
        whole = evaluate_outputs(net221, xor_weights, rows, window=200.0)
        parts = np.concatenate([
            evaluate_outputs(net221, xor_weights, rows[i : i + 10], window=200.0)
            for i in range(0, 100, 10)
        ])
        np.testing.assert_allclose(whole, parts, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("window", [50.0, 200.0])
    def test_row_output_does_not_depend_on_row_count(self, net221, xor_weights, window):
        """No feedforward window steps, so nothing couples a row to the others."""
        rows = np.random.default_rng(9).uniform(0, 1, (100, 2))
        whole = evaluate_outputs(net221, xor_weights, rows, window=window)
        single = np.concatenate([
            evaluate_outputs(net221, xor_weights, rows[i : i + 1], window=window) for i in range(100)
        ])
        np.testing.assert_allclose(whole, single, rtol=0.0, atol=1e-12)

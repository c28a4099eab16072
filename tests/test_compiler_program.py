"""Whole-program tests: compilation shape, determinism, static closure, and
one full round checked phase by phase against the reference."""

import hashlib

import numpy as np
import pytest

from chemnn import analysis, oracle
from chemnn.compiler import (
    FEEDFORWARD_PHASES,
    PHASE_ORDER,
    NetSpec,
    TrainSpec,
    WeightSet,
    build_neggrad,
    build_update,
    compile_feedforward,
    compile_program,
)
from chemnn.crn import CrnError, crn_from_text, crn_to_text
from chemnn.integrate import (
    IntegratorConfig,
    Kinetics,
    OscillatorExecutor,
    PhasedExecutor,
    _combine_with_clock,
    run_window,
)
from chemnn.oscillator import ring_for
from chemnn.training import DEFAULT_WINDOW, _feedforward, decode_weights, evaluate_outputs, run_training

from conftest import (
    JUDGE_RATES,
    XOR_MINUS,
    XOR_PLUS,
    XOR_SAMPLES,
    compiled_program,
    exact_replay_deviations,
    exact_rounds,
)

# Batch 2 of 4 samples on the 2-2-1 shape: 4 hidden and 2 output activation
# pairs, and one block selector per sample, since each sample slot only ever
# holds the samples of its own residue class.
SLOTS, SAMPLES = 2, 4
HIDDEN_PAIRS, OUTPUT_PAIRS = 2 * SLOTS, 1 * SLOTS
SELECTORS = SAMPLES
# O7 and O15 feed each net-input rail from its weight row and decay it (32 and
# 16), preset both members of each activation pair from ``half`` and decay
# them (4 per pair), and move each block selector (1): O7 stores it and O15
# rotates it; with two blocks every selector moves.  O13/O21 convert the pair
# in each direction and decay both net-input rails (4).  Per sample slot, O23
# moves the output into its store (1), makes the two error rails, each with
# the error (2), decays the rails and the error (3) and runs the judgment's
# companion preset (2).  O27 decays its 18 gradient rails and, per sample slot, makes and
# decays 9 products (my; do per sign, made at rate eta; hh per hidden unit; mhw
# per hidden unit and sign), feeds 4 hidden deltas dl from 2 do * mhw sums each
# and decays them (12), and feeds 18 gradient sums (do alone for the layer-2
# bias and do * h for its weights, dl alone for the layer-1 biases and dl * x
# for their weights): 114.  O29 converts each of the 18 gradient rails into its
# weight rail (1 each, at any eta); it also loads the next block (per slot, its
# 2 samples times 3 columns and the label complement, and drains the 3 input
# species and the complement: 24) and drains the output store, the error
# rails and the error (4 per slot).
EXPECTED_PHASE_SIZES = {
    "O7": 32 + 4 * HIDDEN_PAIRS + SELECTORS,
    "O13": 4 * HIDDEN_PAIRS, "O15": 16 + 4 * OUTPUT_PAIRS + SELECTORS,
    "O21": 4 * OUTPUT_PAIRS, "O23": SLOTS * (1 + 2 + 3 + 2), "O25": 11,
    "O27": 18 + SLOTS * (2 * 9 + 3 * 4 + 18), "O29": 18 + 24 + SLOTS * 4,
}


# sha256 of crn_to_text, of the registry's "name,role" lines and of the
# initial state's bytes, taken before the per-reaction index tables: the
# compiled chemistry and its initial state must not move.
PINNED = {
    "xor": ("d90a966d4874d7118f509d1a4840ed71175a42a47269c8ea7eab55f456f6975f",
            "f3a15848d9ddbe0f6b3b089049e463569363730c5f54fe9a868c4a6d1d485a63",
            "056dbb8874d072ba725fd7f2eaa41db7b2e3efd2a89b188125f2e9f6702e88d0"),
    "or-batch-4": ("f518dd25edab3c180ad9a3765c4534abefab2851255131a13a3ab5470d0e7ecb",
                   "d4ba5c226e9a0f2feb762a80d42563f1704948d6932b2054331fde47c33a7697",
                   "d331ebf5b197ea19d9bec5dd3345d6bedee5881f02beeb1330ef9fe608cc2d14"),
    "3-3-1": ("956925db35e1e6ac6fb7c0571d7ceb8e373b5a80f894bc15ce274c4161481226",
              "3dcb361a991236369fee6c8f5a483d5790a652c5f3a5979e7c8a597c5bad8e80",
              "47ed81790e77bdda0d28bea103c00c54746ae0b45dda7121e568add473398d93"),
    "feedforward-10": ("96c9fff16b02fd0c5895c9bae6efe31e040923ee5e48772bf037b4cb62607335",
                       "6fd1e6513bcdf9754cdf3a55613b181d2f81221c4222aa6ac6636c4ddf2b8c47",
                       "ca0ccc07b890fdc377bdc693b0239e93ea4d72d7d7f7e6580148450012b9b0d9"),
    # the XOR program gated by ring_for(program, 114), with the ring's start
    "oscillator": ("9a24f6dad7a8583483cbf027f604137083e74e5b1bc7b2dbebb7a585c00fd7ca",
                   "85f741318ed96bad51e808144c8da5e773da0f15a0093a01c7c8e6479f4d7f23",
                   "e7cb13353aab16e73a6ff7e5267e0a5b7c84e1f2216bd50e154882ea665502b9"),
}


def _digests(crn, values) -> tuple:
    registry = crn.registry
    roles = "\n".join(f"{name},{registry.role(name) or ''}" for name in registry.names)
    return tuple(hashlib.sha256(data).hexdigest() for data in (
        crn_to_text(crn).encode(), roles.encode(), np.asarray(values, dtype=float).tobytes()))


@pytest.mark.parametrize("name", sorted(PINNED))
def test_compiled_chemistry_is_pinned(name, tmp_path):
    if name == "oscillator":
        program, x0 = compiled_program("xor", tmp_path)
        ring = ring_for(program, 114)
        crn, _ = _combine_with_clock(program, ring)
        values = OscillatorExecutor(program, ring).initial_values(x0)
    else:
        program, x0 = compiled_program(name, tmp_path)
        crn, values = program.crn, x0.values
    assert _digests(crn, values) == PINNED[name]


class TestCompile:
    def test_program_dimensions_golden(self, net221, xor_trainspec):
        program, x0 = compile_program(net221, xor_trainspec)
        assert program.crn.n_species == 130
        assert program.crn.n_reactions == 295 == sum(EXPECTED_PHASE_SIZES.values())
        assert {p: len(ix) for p, ix in program.phase_index.items()} == EXPECTED_PHASE_SIZES
        assert len(x0.values) == 130
        # the error rails d(1 - y) and (1 - d) y, which O23 makes
        assert program.probes.error_pairs == {l: (f"ep_{l}", f"em_{l}") for l in (1, 2)}

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

    def test_gate_catalyses_exactly_the_learning_builders(self, net221, xor_trainspec):
        """Every gradient and update reaction carries the gate once on each
        side, and no other reaction does: O29's loading and drains run ungated."""
        program, _ = compile_program(net221, xor_trainspec)
        learning = build_neggrad(net221, xor_trainspec.batch_size, xor_trainspec.eta).reactions
        learning += build_update(net221).reactions
        gated = [r for r in program.crn.reactions if r.reactant.coeff("gate") == 1 == r.product.coeff("gate")]
        assert gated == learning

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
        assert x0.get("c1_1") == 1.0 and x0.get("c2_2") == 1.0
        # slot 1 only ever holds samples 1 and 3, so it has no selector for sample 2
        assert "c1_2" not in program.crn.registry
        assert x0.get("x1_1") == 1.0 and x0.get("d_3") == 0.0
        assert x0.get("w1_1_1p") == 3.0 and x0.get("b2_1m") == 4.0
        assert x0.get("gate") == 0.0
        # no background fill: every species the compiler does not load is zero
        # the first block is preloaded into the input species
        for l in (1, 2):
            for q in (1, 2, 3):
                assert x0.get(f"s{q}_{l}") == XOR_SAMPLES[l - 1, q - 1]
        loaded = {"half", "c1_1", "c2_2"}
        loaded |= {f"x{q}_{i}" for q in (1, 2) for i in range(1, 5)}
        loaded |= {f"d_{i}" for i in range(1, 5)} | {f"db_{i}" for i in range(1, 5)}
        loaded |= {f"s{q}_{l}" for q in (1, 2, 3) for l in (1, 2)} | {"lb_1", "lb_2"}
        for pairs in (program.probes.weights1, program.probes.weights2):
            loaded |= {name for pair in pairs.values() for name in pair}
        assert len(loaded) == 45
        # each label complement is one minus its label, so one of the two is 0
        for i in range(1, 5):
            assert x0.get(f"db_{i}") == 1.0 - x0.get(f"d_{i}")
        assert [x0.get(f"lb_{l}") for l in (1, 2)] == [1.0 - XOR_SAMPLES[l - 1, 2] for l in (1, 2)]
        rest = [name for name in program.crn.registry.names if name not in loaded]
        assert len(rest) == 130 - 45
        assert all(x0.get(name) == 0.0 for name in rest)

    def test_update_is_one_reaction_per_rail_at_any_eta(self, net221, xor_trainspec):
        """O29 turns each gradient rail into its weight rail in one rate-1
        reaction and nothing else; the learning rate is only the rate at
        which O27 makes the output deltas."""
        for eta in (0.25, 0.9, 1.0):
            spec = TrainSpec(
                samples=XOR_SAMPLES, batch_size=2, eta=eta, threshold=0.5,
                judge_rates=JUDGE_RATES, init_weights=xor_trainspec.init_weights,
            )
            program, _ = compile_program(net221, spec)
            assert {p: len(ix) for p, ix in program.phase_index.items()} == EXPECTED_PHASE_SIZES
            crn, probes = program.crn, program.probes
            for table, weights in ((probes.gradients1, probes.weights1),
                                   (probes.gradients2, probes.weights2)):
                for key, rails in table.items():
                    for rail, weight in zip(rails, weights[key]):
                        spent = [crn.reactions[j] for j in program.phase_index["O29"]
                                 if crn.reactions[j].reactant.coeff(rail)]
                        assert len(spent) == 1 and spent[0].rate == 1.0, (eta, rail)
                        assert spent[0].net() == {rail: -1, weight: 1}, (eta, rail)
            made_at_eta = [crn.reactions[j] for j in program.phase_index["O27"]
                           if crn.reactions[j].rate != 1.0]
            made = sorted(name for r in made_at_eta for name, d in r.net().items() if d > 0)
            assert made == ([] if eta == 1.0 else ["dom_1", "dom_2", "dop_1", "dop_2"]), eta
            assert all(r.rate == eta for r in made_at_eta)

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

    @pytest.mark.parametrize("label", [0.5, 2.0, 1e-12])
    def test_non_binary_label_rejected(self, xor_weights, label):
        """The error the judgment reads, d(1 - y) + (1 - d) y, is |d - y|
        only for a label of 0 or 1."""
        bad = XOR_SAMPLES.copy()
        bad[1, 2] = label
        with pytest.raises(CrnError, match="labels must be 0 or 1"):
            TrainSpec(samples=bad, batch_size=2, eta=0.9, threshold=0.5,
                      init_weights=xor_weights)

    def test_batch_must_divide_samples(self, xor_weights):
        with pytest.raises(CrnError):
            TrainSpec(samples=XOR_SAMPLES, batch_size=3, eta=0.9, threshold=0.5,
                      init_weights=xor_weights)

    @pytest.mark.parametrize(
        "override",
        [
            {"threshold": np.inf},
            {"threshold": np.nan},
            {"judge_rates": (np.nan, 1.0, 1.0, 1.0)},
            {"samples": np.where(XOR_SAMPLES == 0, np.nan, XOR_SAMPLES)},
        ],
        ids=["threshold-inf", "threshold-nan", "judge-rate-nan", "samples-nan"],
    )
    def test_non_finite_input_rejected(self, xor_weights, override):
        spec = dict(samples=XOR_SAMPLES, batch_size=2, eta=0.9, threshold=0.5,
                    init_weights=xor_weights)
        with pytest.raises(CrnError, match="finite"):
            TrainSpec(**{**spec, **override})

    def test_compile_needs_one_output_and_matching_columns(self, xor_trainspec):
        with pytest.raises(CrnError, match="one output"):
            compile_program(NetSpec(2, 2, 2), xor_trainspec)
        with pytest.raises(CrnError, match="sample columns"):
            compile_program(NetSpec(3, 2, 1), xor_trainspec)


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
        np.testing.assert_array_equal(np.vstack([ws.w1_plus, ws.w2_plus]), XOR_PLUS)
        np.testing.assert_array_equal(np.vstack([ws.w1_minus, ws.w2_minus]), XOR_MINUS)

    def test_negative_rail_rejected(self):
        with pytest.raises(CrnError):
            WeightSet.from_stacked(XOR_PLUS, -XOR_MINUS)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_rail_rejected(self, value):
        bad = XOR_MINUS.copy()
        bad[2, 1] = value
        with pytest.raises(CrnError, match="finite"):
            WeightSet.from_stacked(XOR_PLUS, bad)

    def test_stacked_rails_of_a_wider_network(self):
        """(h+1) x (h+1) rails hold an h-h-1 network, layer 2 in the last row."""
        plus = np.arange(16.0).reshape(4, 4)
        ws = WeightSet.from_stacked(plus, np.zeros((4, 4)))
        assert ws.shapes_match(NetSpec(3, 3, 1))
        np.testing.assert_array_equal(ws.w2_plus, plus[3:])
        with pytest.raises(CrnError, match="square"):
            WeightSet.from_stacked(plus[:3], np.zeros((3, 4)))


def _is_pure_decay(rxn, name):
    return dict(rxn.reactant.items()) == {name: 1} and not rxn.product


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

    @pytest.mark.parametrize(
        "n, h, p, batch",
        [(2, 2, 4, 1), (2, 2, 4, 2), (2, 2, 4, 4), (3, 3, 6, 2), (2, 3, 6, 3)],
    )
    def test_every_species_can_become_nonzero(self, n, h, p, batch):
        """From a start with every loaded species positive (samples, labels
        and their complements, and weight rails), the species that some
        reaction can produce once all its reactants are nonzero cover the
        whole registry: no species is dead chemistry, always zero, with
        reactions that never fire.  A binary label leaves one of d_i and its
        complement db_i at 0 in the compiled start, so both are set here."""
        weights = WeightSet(np.full((h, n + 1), 0.5), np.full((h, n + 1), 0.25),
                            np.full((1, h + 1), 0.5), np.full((1, h + 1), 0.25))
        spec = TrainSpec(samples=np.ones((p, n + 1)), batch_size=batch, eta=0.9,
                         threshold=0.5, init_weights=weights)
        program, x0 = compile_program(NetSpec(n, h, 1), spec)
        start = dict(zip(program.crn.registry.names, x0.values.tolist()))
        start.update({f"db_{i}": 1.0 for i in range(1, p + 1)})
        start.update({f"lb_{l}": 1.0 for l in range(1, batch + 1)})
        live = {name for name, value in start.items() if value > 0}
        grown = True
        while grown:
            grown = False
            for rxn in program.crn.reactions:
                if live.issuperset(rxn.reactant.species()):
                    fresh = set(rxn.product.species()) - live
                    live |= fresh
                    grown = grown or bool(fresh)
        assert sorted(set(program.crn.registry.names) - live) == []


class TestFullRound:
    def test_phase_boundaries_match_reference(self, net221, xor_trainspec):
        program, x0 = compile_program(net221, xor_trainspec)
        executor = PhasedExecutor(program, [(tag, 50.0) for tag in program.phases])
        _, _, boundaries = executor.run_cycle(x0.values, 0.0)
        w1, w2 = xor_trainspec.init_weights.decoded()
        batch = oracle.Batch.from_samples(XOR_SAMPLES[:2])
        rows = analysis.verify_against_oracle(boundaries, program, batch, w1, w2)
        assert {phase for phase, *_ in rows} == {"O7", "O13", "O15", "O21", "O23", "O27", "O29"}
        for phase, label, chem, orc in rows:
            assert abs(chem - orc) < 1e-4, f"{phase} {label}: {chem} against {orc}"

    def test_update_empties_gradient_rails(self, net221, xor_trainspec):
        """The weights move by what the rails held after O27, eta times the
        gradient, and the rails end empty, so the next round's gate reads no
        stale step."""
        program, x0 = compile_program(net221, xor_trainspec)
        executor = PhasedExecutor(program, [(tag, 50.0) for tag in program.phases])
        _, _, boundaries = executor.run_cycle(x0.values, 0.0)
        after_grad, after_update = boundaries["O27"], boundaries["O29"]
        probes = program.probes
        for weights, gradients in ((probes.weights1, probes.gradients1),
                                   (probes.weights2, probes.gradients2)):
            for key, rails in gradients.items():
                step = analysis.decode_dual_rail(after_grad, rails)
                before = analysis.decode_dual_rail(after_grad, weights[key])
                after = analysis.decode_dual_rail(after_update, weights[key])
                assert after == pytest.approx(before + step, abs=1e-12)
                assert max(after_update.get(name) for name in rails) < 1e-12

    def test_closed_gate_still_loads_and_drains(self, net221, xor_trainspec):
        """One O29 window with the gate at zero, entered with full gradient
        rails: it still loads the next block into the input species and the
        label complement, and drains the output store, the error rails and
        the error, and it leaves the weight and gradient rails where they
        are."""
        program, x0 = compile_program(net221, xor_trainspec)
        executor = PhasedExecutor(program, [(tag, 50.0) for tag in program.phases])
        _, _, ends = executor.run_cycle(x0.values, 0.0)
        index, probes = program.crn.registry.index, program.probes
        y0 = ends["O27"].values.copy()
        y0[index("gate")] = 0.0
        for table in (probes.gradients1, probes.gradients2):
            for pair in table.values():
                y0[[index(name) for name in pair]] = 0.3  # an open gate would spend these
        stores = [index(f"{name}_{l}") for l in (1, 2) for name in ("ystore", "ep", "em", "e")]
        assert y0[stores].max() > 0.1
        y, _ = run_window(Kinetics(program.crn, program.phase_index["O29"]), y0, 0.0, 50.0,
                          IntegratorConfig())
        for l in (1, 2):
            for q in (1, 2, 3):
                assert y[index(f"s{q}_{l}")] == pytest.approx(XOR_SAMPLES[l + 1, q - 1], abs=1e-12)
            assert y[index(f"lb_{l}")] == pytest.approx(1.0 - XOR_SAMPLES[l + 1, 2], abs=1e-12)
        assert y[stores].max() < 1e-12
        rails = [index(name) for table in (probes.weights1, probes.weights2, probes.gradients1,
                                           probes.gradients2)
                 for pair in table.values() for name in pair]
        np.testing.assert_allclose(y[rails], y0[rails], rtol=0.0, atol=1e-12)

    def test_second_round_feedforward_still_clean(self, net221, xor_trainspec):
        """Clear-out and the activation presets leave the next round valid."""
        program, x0 = compile_program(net221, xor_trainspec)
        executor = PhasedExecutor(program, [(tag, 50.0) for tag in program.phases])
        y, t, first = executor.run_cycle(x0.values, 0.0)
        y, t, second = executor.run_cycle(y, t)
        batch = oracle.Batch.from_samples(XOR_SAMPLES[2:4])
        trace = oracle.forward(*decode_weights(first["O29"], program.probes), batch)
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
    def _fresh(net, weights, rows, window=DEFAULT_WINDOW):
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


def _random_draw(n, h, seed):
    """Weights and four binary samples of an n-h-1 network, drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    w1 = rng.normal(0, 1.5, (h, n + 1))
    w2 = rng.normal(0, 1.5, (1, h + 1))
    inputs = rng.integers(0, 2, (4, n))
    labels = rng.integers(0, 2, (4, 1))
    return np.hstack([inputs, labels]).astype(float), WeightSet.from_real(w1, w2)


class TestWiderTraining:
    """The learning chemistry is written once over the input and hidden widths."""

    @pytest.mark.parametrize("n, h, seed", [(3, 3, 1), (2, 3, 0)])
    def test_training_matches_exact_replay(self, n, h, seed):
        """Six rounds at the default window land within 1e-9 of the exact
        per-round replay, on draws whose rounds both open and close the gate."""
        samples, weights = _random_draw(n, h, seed)
        spec = TrainSpec(samples=samples, batch_size=2, eta=0.9, threshold=0.5,
                         init_weights=weights)
        program, x0 = compile_program(NetSpec(n, h, 1), spec)
        assert len(program.probes.gradients1) == h * (n + 1)
        assert len(program.probes.gradients2) == h + 1
        run = run_training(program, x0, window=DEFAULT_WINDOW, max_rounds=6)
        assert len(run.rounds) == 6
        decisions = [rec.gate_open for rec in run.rounds]
        assert any(decisions) and not all(decisions)
        worst = float(exact_replay_deviations(run, spec).max())
        assert worst < 1e-9, worst


def test_random_draws_match_the_exact_loop():
    """A standing sweep of ``_random_draw`` seeds 0-80, none skipped: every
    n-h-1 shape with n, h <= 3, at batch sizes 1, 2 and 4, windows 114, 1e3
    and 1e6, and a learning rate drawn from (0, 1] per seed.  Every round of
    six is within 1e-9 of its exact replay and makes the exact loop's gate
    decision, read at the default ``gate_eps``; the sweep sees both gate
    states."""
    from inspect import signature
    from itertools import product

    gate_eps = signature(run_training).parameters["gate_eps"].default
    combos = product((1, 2, 3), (1, 2, 3), (1, 2, 4), (DEFAULT_WINDOW, 1e3, 1e6))
    states = set()
    for seed, (n, h, batch, window) in enumerate(combos):
        samples, weights = _random_draw(n, h, seed)
        eta = 1.0 - np.random.default_rng([seed, 1]).uniform(0.0, 1.0)
        spec = TrainSpec(samples=samples, batch_size=batch, eta=eta, threshold=0.5,
                         init_weights=weights)
        program, x0 = compile_program(NetSpec(n, h, 1), spec)
        run = run_training(program, x0, window=window, max_rounds=6, gate_eps=0.0)
        where = f"seed {seed}: {n}-{h}-1, batch {batch}, eta {eta:.3f}, window {window:g}"
        assert len(run.rounds) == 6, where
        worst = exact_replay_deviations(run, spec)
        assert worst.max() < 1e-9, (where, worst)
        for rec, ref in exact_rounds(run, spec):
            opened = rec.gate >= gate_eps
            assert opened == ref.update, (where, rec.round_index)
            states.add(opened)
    assert seed == 80 and states == {True, False}


def test_negative_gate_eps_rejected(net221, xor_trainspec):
    """The gate never reads below a negative threshold, so such a run could
    never terminate; 0 stays valid."""
    program, x0 = compile_program(net221, xor_trainspec)
    with pytest.raises(ValueError, match="gate_eps"):
        run_training(program, x0, max_rounds=1, gate_eps=-1e-3)

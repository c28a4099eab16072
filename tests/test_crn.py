"""Data-model and kinetics-algebra tests for the reaction network core."""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chemnn.crn import (
    Complex,
    Crn,
    CrnError,
    Reaction,
    SpeciesRegistry,
    State,
    add_catalyst,
    crn_from_text,
    crn_to_text,
    format_reaction,
    parse_reaction,
    reaction_rate,
    rhs,
)
from chemnn.compiler import Fragment, assemble
from chemnn.analysis import bistable_equilibria
from chemnn.oscillator import OscillatorSpec, build_oscillator

from conftest import ADDER, JUDGE_RATES


def _crn(reactions, names=None):
    if names is None:
        seen = {}
        for r in reactions:
            for n in r.species():
                seen.setdefault(n)
        names = tuple(seen)
    return Crn(SpeciesRegistry(names), reactions)


def _state(crn, **conc):
    return State.from_dict(crn.registry, conc)


class TestReactionRate:
    def test_bimolecular_product(self):
        crn = _crn([Reaction(Complex({"a": 1, "b": 1}), Complex({"c": 1}), 2.0)])
        assert reaction_rate(crn, _state(crn, a=3.0, b=0.5), 0) == pytest.approx(3.0)

    def test_zero_reactant_gives_zero(self):
        crn = _crn([Reaction(Complex({"a": 1}), Complex({"a": 2}), 1.0)])
        assert reaction_rate(crn, _state(crn, a=0.0), 0) == 0.0

    def test_square_law(self):
        # rate k * e^2 for a doubled reactant, by hand: 3.5**2 = 12.25
        crn = _crn([Reaction(Complex({"e": 2}), Complex({"e": 1, "a": 1}), 1.0)])
        assert reaction_rate(crn, _state(crn, e=3.5), 0) == pytest.approx(12.25)

    def test_index_out_of_range(self):
        crn = _crn([Reaction(Complex({"a": 1}), Complex({}), 1.0)])
        with pytest.raises(CrnError):
            reaction_rate(crn, _state(crn, a=1.0), 5)


class TestRhs:
    def test_addition_gadget(self):
        crn = crn_from_text(ADDER)
        dx = rhs(crn, State.from_dict(crn.registry, {"a": 1, "b": 2, "c": 0}))
        expected = {"a": 0.0, "b": 0.0, "c": 3.0}
        for name, value in expected.items():
            assert dx[crn.registry.index(name)] == pytest.approx(value)

    def test_zero_at_judgment_equilibria(self):
        from chemnn.compiler import build_judgment
        from chemnn.compiler import assemble

        frag = build_judgment(JUDGE_RATES, p_tilde=1)
        crn = assemble(frag, ("O23", "O25"))
        for point in bistable_equilibria(*JUDGE_RATES):
            state = State.from_dict(
                crn.registry, {"e_1": point.e, "ja_1": point.a, "gate": point.e}
            )
            assert np.max(np.abs(rhs(crn, state))) < 1e-12

    def test_annihilation(self):
        crn = _crn([Reaction(Complex({"np": 1, "nm": 1}), Complex({}), 1.0)])
        dx = rhs(crn, _state(crn, np=3.0, nm=1.0))
        np.testing.assert_allclose(dx, [-3.0, -3.0])


def _conserves(crn, weights) -> bool:
    """Whether every reaction's net column leaves sum(weights[s] * s) unchanged."""
    return all(sum(weights.get(name, 0) * delta for name, delta in rxn.net().items()) == 0
               for rxn in crn.reactions)


class TestStoichiometricMatrix:
    """A reaction's column of the stoichiometric matrix is ``Reaction.net()``."""

    def test_autocatalytic_column(self):
        assert Reaction(Complex({"a": 1}), Complex({"a": 2}), 1.0).net() == {"a": 1}

    def test_bimolecular_column(self):
        rxn = Reaction(Complex({"a": 1, "b": 1}), Complex({"c": 1}), 1.0)
        assert rxn.net() == {"a": -1, "b": -1, "c": 1}

    def test_catalysts_cancel(self):
        rxn = Reaction(Complex({"w": 1, "s": 1}), Complex({"w": 1, "s": 1, "n": 1}), 1.0)
        assert rxn.net() == {"n": 1}


class TestConservationLaws:
    def test_annihilation_difference(self):
        crn = _crn([Reaction(Complex({"np": 1, "nm": 1}), Complex({}), 1.0)])
        # the rail difference is conserved, the rail sum is not
        assert _conserves(crn, {"np": 1, "nm": -1})
        assert not _conserves(crn, {"np": 1, "nm": 1})

    def test_addition_gadget_catalysts_conserved(self):
        crn = crn_from_text(ADDER)
        assert _conserves(crn, {"a": 1}) and _conserves(crn, {"b": 1})
        assert not _conserves(crn, {"c": 1})

    def test_clock_ring_total_mass(self):
        crn = build_oscillator(OscillatorSpec(6, 1.0))
        assert _conserves(crn, dict.fromkeys(crn.registry.names, 1))
        assert not _conserves(crn, {"o1": 1})


class TestAddCatalyst:
    def test_net_column_unchanged(self):
        base = Reaction(Complex({"a": 1}), Complex({"b": 1}), 1.0, phase="O1")
        gated = add_catalyst(base, "o1")
        assert gated.net() == base.net()
        assert gated.reactant.coeff("o1") == 1 and gated.product.coeff("o1") == 1
        assert gated.phase == "O1" and gated.rate == base.rate

    def test_double_gating_idempotent_in_net(self):
        base = Reaction(Complex({"a": 1}), Complex({"b": 1}), 1.0)
        twice = add_catalyst(add_catalyst(base, "o1"), "o1")
        assert twice.net() == base.net()
        assert twice.reactant.coeff("o1") == 2

    def test_gated_rate_vanishes_without_catalyst(self):
        gated = add_catalyst(Reaction(Complex({"a": 1}), Complex({"b": 1}), 1.0), "o1")
        crn = _crn([gated], names=("a", "b", "o1"))
        assert np.all(rhs(crn, _state(crn, a=2.0)) == 0.0)


class TestValidation:
    def test_duplicate_species(self):
        with pytest.raises(CrnError):
            SpeciesRegistry(("a", "a"))

    def test_role_for_unknown_species(self):
        with pytest.raises(CrnError):
            SpeciesRegistry(("a",), {"b": "input"})

    def test_negative_coefficient(self):
        with pytest.raises(CrnError):
            Complex({"a": -1})

    def test_non_integer_coefficient(self):
        with pytest.raises(CrnError, match="coefficient of 'a' must be a nonnegative integer, got 2.5"):
            Complex({"a": 2.5})
        # an integral float or a bool is taken as its int
        assert Complex({"a": 2.0, "b": True}).items() == {"a": 2, "b": 1}.items()

    # a trailing newline would be written into a reaction list that crn_from_text cannot read back
    @pytest.mark.parametrize("name", ["1a", "a-b", "", "a\n"])
    def test_invalid_names(self, name):
        message = re.escape(f"invalid species identifier {name!r}")
        with pytest.raises(CrnError, match=message):
            Complex({name: 1})
        with pytest.raises(CrnError, match=message):
            SpeciesRegistry(("a", name))
        with pytest.raises(CrnError, match=message):
            Complex({"a": 1}).adding(name)
        with pytest.raises(CrnError, match=message):
            add_catalyst(Reaction(Complex({"a": 1}), Complex({}), 1.0), name)

    def test_bad_builder_name_fails_by_assemble(self):
        """A builder's bad name fails no later than ``assemble``, which registers it."""
        with pytest.raises(CrnError, match="invalid species identifier 'a-b'"):
            frag = Fragment()
            frag.add({"a": 1}, {"a-b": 1}, 1.0, "O7")
            assemble(frag, ("O7",))
        with pytest.raises(CrnError, match="coefficient of 'a' must be a nonnegative integer, got -1"):
            Fragment().add({"a": -1}, {}, 1.0, "O7")

    def test_phase_tags_round_trip_or_are_refused(self):
        """A tag that ``crn_to_text`` would write and ``crn_from_text`` not
        read back as it was is refused by name; every accepted tag round-trips."""
        def crn(tags):
            return Crn(SpeciesRegistry(("a",)), [Reaction(Complex({"a": 1}), Complex({}), 1.0, t) for t in tags])

        for tag in ("x;y", "x\ny", " x", "x\t", "x\x85y", "\n"):
            with pytest.raises(CrnError, match=re.escape(f"phase tag {tag!r}")):
                crn(["O7", tag, tag])
        accepted = ["O7", "", "a b", "k=2", "phase=x", "x#y", "x->y", None]
        assert [r.phase for r in crn_from_text(crn_to_text(crn(accepted))).reactions] == accepted

    def test_nonpositive_rate(self):
        with pytest.raises(CrnError):
            Reaction(Complex({"a": 1}), Complex({}), 0.0)
        for rate in (np.nan, np.inf):
            with pytest.raises(CrnError):
                Reaction(Complex({"a": 1}), Complex({}), rate)
        with pytest.raises(CrnError):
            crn_from_text("a -> 0 ; k=inf\n")

    def test_identical_complexes(self):
        with pytest.raises(CrnError):
            Reaction(Complex({"a": 1}), Complex({"a": 1}), 1.0)

    def test_unregistered_reaction_species(self):
        with pytest.raises(CrnError):
            Crn(SpeciesRegistry(("a",)), [Reaction(Complex({"a": 1}), Complex({"b": 1}), 1.0)])
        # the message names the reaction's index and its first unregistered species
        reactions = [Reaction(Complex({"a": 1}), Complex({}), 1.0),
                     Reaction(Complex({"a": 1, "c": 1}), Complex({"a": 1, "b": 1}), 1.0)]
        with pytest.raises(CrnError, match="^reaction 1 uses unregistered species 'c'$"):
            Crn(SpeciesRegistry(("a",)), reactions)
        with pytest.raises(CrnError, match="^reaction 1 uses unregistered species 'b'$"):
            Crn(SpeciesRegistry(("a", "c")), reactions)

    def test_negative_state(self):
        registry = SpeciesRegistry(("a", "b"))
        for bad in (-0.5, np.nan, np.inf, -np.inf):
            with pytest.raises(CrnError, match="'b'"):
                State(registry, np.array([1.0, bad]))
        # a negative zero and entries whose sum would overflow are finite and nonnegative
        for good in ([1.0, -0.0], [1e308, 1e308]):
            assert np.array_equal(State(registry, np.array(good)).values, good)
        with pytest.raises(CrnError):
            State.from_dict(registry, {"a": np.nan})


class TestSerialization:
    def test_format_examples(self):
        rxn = Reaction(Complex({"np": 1, "nm": 1}), Complex({}), 1.0, phase="O9")
        assert format_reaction(rxn) == "nm + np -> 0 ; k=1.0 ; phase=O9"
        rxn2 = Reaction(Complex({"e": 2}), Complex({"e": 1, "a": 1}), 0.4375)
        assert format_reaction(rxn2) == "2e -> a + e ; k=0.4375"

    def test_round_trip_single(self):
        line = "nm + 2p -> nm + 3p ; k=1.5 ; phase=O13"
        assert format_reaction(parse_reaction(line)) == line
        scrambled = parse_reaction("2p + nm -> 3p + nm ; k=1.5 ; phase=O13")
        assert format_reaction(scrambled) == line

    def test_round_trip_program(self, net221, xor_trainspec):
        from chemnn.compiler import compile_program

        program, _ = compile_program(net221, xor_trainspec)
        text = crn_to_text(program.crn)
        again = crn_from_text(text)
        assert crn_to_text(again) == text
        assert again.n_reactions == program.crn.n_reactions

    def test_parse_errors(self):
        with pytest.raises(CrnError):
            parse_reaction("a + b ; k=1")
        with pytest.raises(CrnError):
            parse_reaction("a -> b ; q=2")
        with pytest.raises(CrnError):
            parse_reaction("a -> 2 ; k=1")


@st.composite
def small_reactions(draw):
    names = ("a", "b", "c", "d")
    def complex_strategy():
        return st.dictionaries(st.sampled_from(names), st.integers(0, 2), max_size=3)
    reactant = draw(complex_strategy())
    product = draw(complex_strategy())
    if Complex(reactant) == Complex(product):
        product = dict(product)
        product["d"] = product.get("d", 0) + 1
    rate = draw(st.floats(0.1, 10.0))
    return Reaction(Complex(reactant), Complex(product), rate)


@settings(max_examples=60, deadline=None)
@given(st.lists(small_reactions(), min_size=1, max_size=6), st.data())
def test_rhs_matches_rate_weighted_columns(reactions, data):
    """rhs must equal the net columns weighted by per-reaction rates.

    Bitwise equality holds for an identically ordered accumulation; the
    matmul form differs only by float association.
    """
    crn = Crn(SpeciesRegistry(("a", "b", "c", "d")), reactions)
    values = np.array([data.draw(st.floats(0.0, 5.0)) for _ in range(4)])
    state = State(crn.registry, values)
    gamma = np.array([[rxn.net().get(name, 0) for rxn in crn.reactions]
                      for name in crn.registry.names], dtype=float)
    rates = np.array([reaction_rate(crn, state, j) for j in range(crn.n_reactions)])
    ordered = np.zeros(crn.n_species)
    for j in range(crn.n_reactions):
        ordered += rates[j] * gamma[:, j]
    np.testing.assert_allclose(rhs(crn, state), ordered, rtol=0, atol=0)
    np.testing.assert_allclose(rhs(crn, state), gamma @ rates, rtol=1e-12, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.lists(small_reactions(), min_size=1, max_size=6))
def test_serialization_round_trip_random(reactions):
    crn = Crn(SpeciesRegistry(("a", "b", "c", "d")), reactions)
    text = crn_to_text(crn)
    assert crn_to_text(crn_from_text(text)) == text

"""Core data model for chemical reaction networks with mass-action kinetics.

A network is a species registry plus a list of integer-stoichiometry
reactions.  Everything here is a pure function of its inputs; registries,
complexes, reactions and networks are immutable after construction and can
be shared freely.  Concentration vectors (:class:`State`) are the only
mutable objects.

The rate law is mass action throughout: reaction ``j`` with reactant
coefficients ``v_ij`` proceeds at ``k_j * prod_i x_i**v_ij``.  Other rate
laws are out of scope.

A :class:`Crn` checks its reactions' species against its registry once, and
in the same pass records per-reaction index tables: each reaction's
reactant (registry index, coefficient) pairs, its nonzero net
stoichiometry as (registry index, delta) pairs (both as
:class:`IndexPairs`, in the order of ``Complex.items`` and
``Reaction.net``), its rate constant, and the reactions of each phase.
``integrate.Kinetics`` builds its term tables by slicing them, so no
consumer walks the reactions' dictionaries again.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "CrnError",
    "Complex",
    "Reaction",
    "SpeciesRegistry",
    "State",
    "Crn",
    "reaction_rate",
    "rhs",
    "add_catalyst",
    "format_reaction",
    "parse_reaction",
    "crn_to_text",
    "crn_from_text",
]


class CrnError(ValueError):
    """Structural error in a reaction network definition."""


_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_TERM_RE = re.compile(r"^\s*(\d+)?\s*([A-Za-z_][A-Za-z0-9_]*)\s*$")


def _check_name(name: str) -> str:
    if not _IDENT_RE.fullmatch(name):
        raise CrnError(f"invalid species identifier {name!r}")
    return name


def _count(name: str, coeff) -> int:
    """``coeff`` as a nonnegative int; a plain nonnegative int passes as is."""
    if type(coeff) is int and coeff >= 0:
        return coeff
    if coeff != int(coeff) or coeff < 0:
        raise CrnError(f"coefficient of {name!r} must be a nonnegative integer, got {coeff!r}")
    return int(coeff)


class Complex:
    """Sparse linear combination of species with nonnegative integer coefficients.

    Absent species have coefficient zero.  The empty complex represents
    "nothing" (used for pure production or degradation).
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Optional[Mapping[str, int]] = None):
        clean: Dict[str, int] = {}
        for name, coeff in (terms or {}).items():
            _check_name(name)
            coeff = _count(name, coeff)
            if coeff:
                clean[name] = coeff
        self._terms = dict(sorted(clean.items()))

    @classmethod
    def _names_checked_elsewhere(cls, terms: Mapping[str, int]) -> "Complex":
        """``Complex(terms)`` with the coefficients checked and the names not:
        each is already in a complex, was checked by the caller, or is checked
        by the ``SpeciesRegistry`` that takes it in (``compiler.assemble``), so
        no ``Crn`` holds an unchecked name."""
        cplx = object.__new__(cls)
        cplx._terms = dict(sorted(terms.items())) if len(terms) > 1 else dict(terms)
        for coeff in cplx._terms.values():
            if type(coeff) is not int or coeff < 1:  # one to convert, drop or refuse
                return cls(terms)
        return cplx

    def coeff(self, name: str) -> int:
        return self._terms.get(name, 0)

    def species(self) -> Tuple[str, ...]:
        return tuple(self._terms)

    def size(self) -> int:
        """Total multiplicity (sum of coefficients)."""
        return sum(self._terms.values())

    def adding(self, name: str, count: int = 1) -> "Complex":
        """This complex with ``count`` more of ``name``; only the new term is checked."""
        _check_name(name)
        terms = dict(self._terms)
        terms[name] = terms.get(name, 0) + count
        return Complex._names_checked_elsewhere(terms)

    def items(self):
        return self._terms.items()

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, Complex) and self._terms == other._terms

    def __hash__(self) -> int:
        return hash(tuple(self._terms.items()))

    def __repr__(self) -> str:
        return f"Complex({self._terms!r})"


@dataclass(frozen=True)
class Reaction:
    """One irreversible reaction ``reactant -> product`` with a mass-action rate constant."""

    reactant: Complex
    product: Complex
    rate: float = 1.0
    phase: Optional[str] = None

    def __post_init__(self):
        if not 0 < self.rate < np.inf:
            raise CrnError(f"rate constant must be positive and finite, got {self.rate}")
        if self.reactant == self.product:
            raise CrnError(f"reactant and product complexes are identical: {format_reaction(self)}")

    def species(self) -> Tuple[str, ...]:
        seen = dict.fromkeys(self.reactant.species())
        seen.update(dict.fromkeys(self.product.species()))
        return tuple(seen)

    def net(self) -> Dict[str, int]:
        """Net stoichiometry per species (product minus reactant), zeros dropped."""
        out: Dict[str, int] = {}
        for name in self.species():
            delta = self.product.coeff(name) - self.reactant.coeff(name)
            if delta:
                out[name] = delta
        return out

    def __str__(self) -> str:
        return format_reaction(self)


class SpeciesRegistry:
    """Ordered set of unique species names with optional semantic role tags."""

    def __init__(self, names: Sequence[str], roles: Optional[Mapping[str, str]] = None):
        names = tuple(names)
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise CrnError(f"duplicate species names: {dupes}")
        for name in names:
            _check_name(name)
        self._names = names
        self._index = {name: i for i, name in enumerate(names)}
        roles = dict(roles or {})
        for name in roles:
            if name not in self._index:
                raise CrnError(f"role assigned to unregistered species {name!r}")
        self._roles = roles

    @property
    def names(self) -> Tuple[str, ...]:
        return self._names

    @property
    def roles(self) -> Dict[str, str]:
        return dict(self._roles)

    def role(self, name: str) -> Optional[str]:
        return self._roles.get(name)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise CrnError(f"unregistered species {name!r}") from None

    def __len__(self) -> int:
        return len(self._names)

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __iter__(self):
        return iter(self._names)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SpeciesRegistry)
            and self._names == other._names
            and self._roles == other._roles
        )

    def __repr__(self) -> str:
        return f"SpeciesRegistry({len(self._names)} species)"


@dataclass
class State:
    """Finite nonnegative concentration vector indexed by a species registry."""

    registry: SpeciesRegistry
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (len(self.registry),):
            raise CrnError(
                f"state has {self.values.shape} entries for {len(self.registry)} species"
            )
        # Two reductions accept a finite nonnegative state (a NaN fails both
        # comparisons); only a rejected one is scanned, to name a species.
        if self.values.min(initial=0.0) >= 0 and self.values.max(initial=0.0) < np.inf:
            return
        if not np.all(np.isfinite(self.values)):
            worst = self.registry.names[int(np.argmin(np.isfinite(self.values)))]
            raise CrnError(f"non-finite concentration for species {worst!r}")
        if np.any(self.values < 0):
            worst = self.registry.names[int(np.argmin(self.values))]
            raise CrnError(f"negative concentration for species {worst!r}")

    @classmethod
    def from_dict(
        cls,
        registry: SpeciesRegistry,
        concentrations: Mapping[str, float],
        default: float = 0.0,
    ) -> "State":
        values = np.full(len(registry), default, dtype=float)
        for name, value in concentrations.items():
            values[registry.index(name)] = value
        return cls(registry, values)

    def get(self, name: str) -> float:
        return float(self.values[self.registry.index(name)])

    def copy(self) -> "State":
        return State(self.registry, self.values.copy())


class IndexPairs(NamedTuple):
    """Per-reaction (registry index, value) pairs, stored flat: reaction j's
    are ``index`` and ``value`` from ``start[j]``, ``count[j]`` of them."""

    start: np.ndarray
    count: np.ndarray
    index: np.ndarray
    value: np.ndarray

    @classmethod
    def of(cls, count: List[int], index: List[int], value: List[int]) -> "IndexPairs":
        count, index, value = (np.array(v, dtype=np.intp) for v in (count, index, value))
        return cls(np.cumsum(count) - count, count, index, value)

    def gather(self, reactions: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The pairs of ``reactions``, in order: the place in ``reactions`` of
        each pair's reaction, its index and its value."""
        count = self.count[reactions]
        owner = np.repeat(np.arange(reactions.size), count)
        at = np.arange(owner.size) + np.repeat(self.start[reactions] - (np.cumsum(count) - count), count)
        return owner, self.index[at], self.value[at]


class Crn:
    """A species registry together with an ordered list of reactions.

    Construction checks every reaction's species against the registry and,
    in the same pass, records the per-reaction index tables (see the module
    docstring): ``reactant_pairs`` holds each reaction's (registry index,
    coefficient) pairs, ``net_pairs`` its nonzero (registry index, delta)
    pairs, ``rates`` its rate constant, and ``reactions_in_phase`` and
    ``phases`` read the reactions of each phase tag from a table.  A tag the
    reaction-list text would not give back unchanged is refused.
    """

    def __init__(self, registry: SpeciesRegistry, reactions: Sequence[Reaction]):
        self.registry = registry
        self.reactions = tuple(reactions)
        index = registry._index
        reads: Tuple[List[int], List[int], List[int]] = ([], [], [])  # counts, indices, coefficients
        nets: Tuple[List[int], List[int], List[int]] = ([], [], [])  # counts, indices, deltas
        by_phase: Dict[Optional[str], List[int]] = {}
        try:
            for j, rxn in enumerate(self.reactions):
                reactant, product = rxn.reactant._terms, rxn.product._terms
                reads[0].append(len(reactant))
                first = len(nets[1])
                for name, coeff in reactant.items():  # Reaction.net's order: reactants, then the rest
                    i = index[name]
                    reads[1].append(i)
                    reads[2].append(coeff)
                    delta = product.get(name, 0) - coeff
                    if delta:
                        nets[1].append(i)
                        nets[2].append(delta)
                for name, coeff in product.items():
                    if name not in reactant:
                        nets[1].append(index[name])
                        nets[2].append(coeff)
                nets[0].append(len(nets[1]) - first)
                by_phase.setdefault(rxn.phase, []).append(j)
        except KeyError:
            name = next(name for name in rxn.species() if name not in registry)
            raise CrnError(f"reaction {j} uses unregistered species {name!r}") from None
        self.reactant_pairs = IndexPairs.of(*reads)
        self.net_pairs = IndexPairs.of(*nets)
        self.rates = np.array([rxn.rate for rxn in self.reactions], dtype=float)
        for tag in by_phase:  # a line break, a ';' or outer blanks: crn_from_text reads it otherwise
            if tag is not None and (tag != tag.strip() or ";" in tag or len(tag.splitlines()) > 1):
                raise CrnError(f"phase tag {tag!r} does not survive the reaction-list format")
        self._by_phase = {tag: tuple(js) for tag, js in by_phase.items()}

    @property
    def n_species(self) -> int:
        return len(self.registry)

    @property
    def n_reactions(self) -> int:
        return len(self.reactions)

    def phases(self) -> Tuple[str, ...]:
        return tuple(tag for tag in self._by_phase if tag is not None)

    def reactions_in_phase(self, phase: Optional[str]) -> Tuple[int, ...]:
        return self._by_phase.get(phase, ())

    def __repr__(self) -> str:
        return f"Crn({self.n_species} species, {self.n_reactions} reactions)"


def reaction_rate(crn: Crn, state: State, j: int) -> float:
    """Mass-action rate of reaction ``j``: ``k_j * prod_i x_i**v_ij``."""
    if not 0 <= j < crn.n_reactions:
        raise CrnError(f"reaction index {j} out of range (have {crn.n_reactions})")
    if state.registry is not crn.registry and state.registry != crn.registry:
        raise CrnError("state registry does not match network registry")
    rxn = crn.reactions[j]
    rate = rxn.rate
    for name, coeff in rxn.reactant.items():
        rate *= state.values[crn.registry.index(name)] ** coeff
    return float(rate)


def rhs(crn: Crn, state: State) -> np.ndarray:
    """Time-derivative of every species concentration under mass action.

    Reference implementation: the stoichiometric columns weighted by the
    per-reaction rates.  Catalytic species (equal coefficient on both sides)
    contribute nothing.
    """
    out = np.zeros(crn.n_species)
    for j, rxn in enumerate(crn.reactions):
        rate = reaction_rate(crn, state, j)
        for name, delta in rxn.net().items():
            out[crn.registry.index(name)] += rate * delta
    return out


def add_catalyst(reaction: Reaction, species: str) -> Reaction:
    """Gate a reaction by ``species``: add it once to both sides.

    The net stoichiometry column is unchanged; the rate acquires a
    multiplicative factor equal to the catalyst concentration, so the
    reaction is silent whenever the catalyst is absent.
    """
    _check_name(species)
    return Reaction(
        reaction.reactant.adding(species),
        reaction.product.adding(species),
        reaction.rate,
        reaction.phase,
    )


def _format_complex(cplx: Complex) -> str:
    if not cplx:
        return "0"
    parts = []
    for name, coeff in cplx.items():
        parts.append(name if coeff == 1 else f"{coeff}{name}")
    return " + ".join(parts)


def format_reaction(rxn: Reaction) -> str:
    text = f"{_format_complex(rxn.reactant)} -> {_format_complex(rxn.product)} ; k={rxn.rate!r}"
    if rxn.phase is not None:
        text += f" ; phase={rxn.phase}"
    return text


def _parse_complex(text: str) -> Complex:
    text = text.strip()
    if text == "0":
        return Complex()
    terms: Dict[str, int] = {}
    for chunk in text.split("+"):
        m = _TERM_RE.match(chunk)
        if not m:
            raise CrnError(f"cannot parse complex term {chunk.strip()!r}")
        coeff = int(m.group(1)) if m.group(1) else 1
        name = m.group(2)
        terms[name] = terms.get(name, 0) + coeff
    return Complex(terms)


def parse_reaction(line: str) -> Reaction:
    """Parse one ``reactants -> products ; k=<rate> [; phase=<tag>]`` line."""
    parts = [p.strip() for p in line.split(";")]
    if "->" not in parts[0]:
        raise CrnError(f"missing '->' in reaction line {line!r}")
    lhs, rhs_text = parts[0].split("->", 1)
    rate = 1.0
    phase: Optional[str] = None
    for extra in parts[1:]:
        if not extra:
            continue
        if extra.startswith("k="):
            rate = float(extra[2:])
        elif extra.startswith("phase="):
            phase = extra[6:].strip()
        else:
            raise CrnError(f"unrecognized reaction annotation {extra!r}")
    return Reaction(_parse_complex(lhs), _parse_complex(rhs_text), rate, phase)


def crn_to_text(crn: Crn) -> str:
    """Serialize to the one-reaction-per-line text format (lossless round trip)."""
    return "\n".join(format_reaction(r) for r in crn.reactions) + "\n"


def crn_from_text(text: str, roles: Optional[Mapping[str, str]] = None) -> Crn:
    """Parse a reaction-list text; species are registered in order of first appearance."""
    reactions: List[Reaction] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        reactions.append(parse_reaction(line))
    names: Dict[str, None] = {}
    for rxn in reactions:
        for name in rxn.species():
            names.setdefault(name)
    registry = SpeciesRegistry(tuple(names), roles)
    return Crn(registry, reactions)

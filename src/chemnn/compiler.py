"""Compile a network and training specification into a phased reaction program.

The compiled program runs eleven phases per training round, in this order:

========  ====================================================================
O1        copy the selected sample block into the input species; drain the
          previous round's stored output and its working copy
O3/O5     store and rotate the block-selector species for the next round
O7        weighted sums into the hidden net-input rails; weight snapshot;
          reset each hidden unit's activation pair to h = hb = 1/2
O13       hidden logistic on the conserved pair: h -> sigma(n), hb -> 1 - h
O15/O21   the same two stages for the output layer
O23       error rails and the stored output
O25       bistable per-sample judgment feeding the learning gate
O27       gradient monomials via shared products, read from the pairs and
          summed straight into the gradient rails
O29       weight update to snapshot + rate * gradient
========  ====================================================================

Every activation is held by a conserved pair h + hb = 1, so the logistic
and its complement settle at rate 1 whatever the net input; no stage
subtracts near-equal rails to obtain 1 - h or 1 - y.  The logistic reads
only the difference of the two net-input rails, so they are never
annihilated against each other.  Tags keep their original numbering, so
O9, O11, O17, O19 and O31 are unused.

Every species the compiler does not load starts at exactly zero, so each
module approaches its target from its designed initial condition.

Every reaction carries exactly one phase tag.  All learning reactions (O27
and O29) are additionally gated by the judgment gate species, so a round
whose errors all settle below the threshold leaves the weights untouched.

Species names are systematic lowercase identifiers (for example
``w1_2_1p`` is the positive rail of the layer-1 weight from input 1 to
hidden unit 2, and ``n2_1_3m`` the negative net-input rail of output unit 1
for sample 3).  The feedforward stages generalize to arbitrary layer
widths; the learning stages are specialized to the 2-2-1 shape.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from . import presets
from .analysis import bistable_equilibria
from .crn import Complex, Crn, CrnError, Reaction, SpeciesRegistry, State, add_catalyst

__all__ = [
    "NetSpec",
    "WeightSet",
    "TrainSpec",
    "Fragment",
    "Program",
    "PHASE_ORDER",
    "FEEDFORWARD_PHASES",
    "GATED_PHASES",
    "build_addition_gadget",
    "build_assignment",
    "build_lws",
    "build_weight_snapshot",
    "build_logistic_preset",
    "build_logistic",
    "build_pair_precalc",
    "build_judgment",
    "build_neggrad",
    "build_update",
    "build_pair_clearout",
    "assemble",
    "compile_program",
    "compile_feedforward",
    "feedforward_state",
]

PHASE_ORDER = (
    "O1", "O3", "O5", "O7", "O13", "O15", "O21", "O23", "O25", "O27", "O29",
)
FEEDFORWARD_PHASES = ("O7", "O13", "O15", "O21")
GATED_PHASES = ("O27", "O29")

_SIGNS = ("p", "m")


@dataclass(frozen=True)
class NetSpec:
    """Layer widths of the fully connected network (input-hidden-output)."""

    input_width: int = 2
    hidden_width: int = 2
    output_width: int = 1

    def __post_init__(self):
        if min(self.input_width, self.hidden_width, self.output_width) < 1:
            raise CrnError("layer widths must be >= 1")

    @property
    def is_221(self) -> bool:
        return (self.input_width, self.hidden_width, self.output_width) == (2, 2, 1)


@dataclass
class WeightSet:
    """Dual-rail weight and bias matrices; decoded value is plus minus minus.

    ``w1`` matrices are hidden x (input+1), ``w2`` are output x (hidden+1);
    the final column of each holds the biases.
    """

    w1_plus: np.ndarray
    w1_minus: np.ndarray
    w2_plus: np.ndarray
    w2_minus: np.ndarray

    def __post_init__(self):
        for name in ("w1_plus", "w1_minus", "w2_plus", "w2_minus"):
            arr = np.atleast_2d(np.asarray(getattr(self, name), dtype=float))
            if np.any(arr < 0):
                raise CrnError(f"{name} must be entrywise nonnegative")
            setattr(self, name, arr)
        if self.w1_plus.shape != self.w1_minus.shape or self.w2_plus.shape != self.w2_minus.shape:
            raise CrnError("plus and minus rails must have matching shapes")

    @classmethod
    def from_real(cls, w1: np.ndarray, w2: np.ndarray) -> "WeightSet":
        """Split signed matrices into nonnegative rails (positive part / negative part)."""
        w1 = np.atleast_2d(np.asarray(w1, dtype=float))
        w2 = np.atleast_2d(np.asarray(w2, dtype=float))
        return cls(np.maximum(w1, 0), np.maximum(-w1, 0), np.maximum(w2, 0), np.maximum(-w2, 0))

    @classmethod
    def from_stacked(cls, plus: np.ndarray, minus: np.ndarray) -> "WeightSet":
        """Build from 3x3 stacked rails (rows 1-2 layer 1, row 3 layer 2)."""
        plus = np.asarray(plus, dtype=float)
        minus = np.asarray(minus, dtype=float)
        if plus.shape != (3, 3) or minus.shape != (3, 3):
            raise CrnError("stacked rails must be 3x3")
        return cls(plus[:2], minus[:2], plus[2:3], minus[2:3])

    def decoded(self) -> Tuple[np.ndarray, np.ndarray]:
        return self.w1_plus - self.w1_minus, self.w2_plus - self.w2_minus

    def stacked(self) -> Tuple[np.ndarray, np.ndarray]:
        return (
            np.vstack([self.w1_plus, self.w2_plus]),
            np.vstack([self.w1_minus, self.w2_minus]),
        )

    def shapes_match(self, net: NetSpec) -> bool:
        return self.w1_plus.shape == (net.hidden_width, net.input_width + 1) and self.w2_plus.shape == (
            net.output_width,
            net.hidden_width + 1,
        )


@dataclass
class TrainSpec:
    """Samples, batch schedule, learning rate and judgment parameters.

    There is no background fill: ``compile_program`` starts every species
    that these do not set at zero.
    """

    samples: np.ndarray
    batch_size: int
    eta: float
    threshold: float
    judge_rates: Tuple[float, float, float, float] = presets.JUDGE_RATES
    init_weights: Optional[WeightSet] = None

    def __post_init__(self):
        self.samples = np.atleast_2d(np.asarray(self.samples, dtype=float))
        if self.samples.ndim != 2 or self.samples.shape[1] != 3:
            raise CrnError(f"samples must be rows of (x1, x2, d), got shape {self.samples.shape}")
        if np.any(self.samples < 0):
            raise CrnError("samples must be nonnegative")
        p = self.samples.shape[0]
        if self.batch_size < 1 or p % self.batch_size != 0:
            raise CrnError(f"batch size {self.batch_size} must divide sample count {p}")
        if not 0 < self.eta <= 1:
            raise CrnError(f"learning rate must be in (0, 1], got {self.eta}")
        if self.threshold <= 0:
            raise CrnError("threshold must be positive")
        k1, k2, k3, k4 = self.judge_rates
        if min(k1, k2, k3, k4) <= 0:
            raise CrnError("judgment rate constants must be positive")
        points = bistable_equilibria(k1, k2, k3, k4)
        if len(points) != 3:
            raise CrnError(
                f"judgment rates {self.judge_rates} are not bistable "
                f"(k1*k2 - 4*k3*k4 = {k1 * k2 - 4 * k3 * k4:g} <= 0)"
            )
        unstable = points[1].e
        if abs(unstable - self.threshold) > 1e-6 * max(1.0, self.threshold):
            raise CrnError(
                f"unstable judgment point {unstable:.6g} does not equal threshold {self.threshold:.6g}"
            )

    @property
    def sample_count(self) -> int:
        return self.samples.shape[0]

    @property
    def block_count(self) -> int:
        return self.samples.shape[0] // self.batch_size


@dataclass
class Fragment:
    """Reactions of one builder plus role tags for the species it introduces."""

    reactions: List[Reaction] = field(default_factory=list)
    roles: Dict[str, str] = field(default_factory=dict)

    def add(self, reactants: Mapping[str, int], products: Mapping[str, int], rate: float, phase: str):
        self.reactions.append(Reaction(Complex(dict(reactants)), Complex(dict(products)), rate, phase))

    def declare(self, name: str, role: str):
        self.roles.setdefault(name, role)

    def merge(self, other: "Fragment") -> "Fragment":
        self.reactions.extend(other.reactions)
        for name, role in other.roles.items():
            self.roles.setdefault(name, role)
        return self


@dataclass
class Probes:
    """Species-name tables used for decoding and verification."""

    weights1: Dict[Tuple[int, int], Tuple[str, str]] = field(default_factory=dict)
    weights2: Dict[Tuple[int, int], Tuple[str, str]] = field(default_factory=dict)
    gradients1: Dict[Tuple[int, int], Tuple[str, str]] = field(default_factory=dict)
    gradients2: Dict[Tuple[int, int], Tuple[str, str]] = field(default_factory=dict)
    net1: Dict[Tuple[int, int], Tuple[str, str]] = field(default_factory=dict)  # (i, l)
    net2: Dict[Tuple[int, int], Tuple[str, str]] = field(default_factory=dict)  # (o, l)
    hidden: Dict[Tuple[int, int], str] = field(default_factory=dict)
    outputs: Dict[Tuple[int, int], str] = field(default_factory=dict)
    error_pairs: Dict[int, Tuple[str, str]] = field(default_factory=dict)
    error: Dict[int, str] = field(default_factory=dict)
    one_minus_y: Dict[int, str] = field(default_factory=dict)
    one_minus_h: Dict[Tuple[int, int], str] = field(default_factory=dict)
    gate: str = "gate"


@dataclass
class Program:
    """A compiled phased reaction program."""

    crn: Crn
    phases: Tuple[str, ...]
    phase_index: Dict[str, Tuple[int, ...]]
    net: NetSpec
    train: Optional[TrainSpec]
    probes: Probes


# --- species name helpers -------------------------------------------------

def _x(q, i):
    return f"x{q}_{i}"

def _d(i):
    return f"d_{i}"

def _c(l, i):
    return f"c{l}_{i}"

def _ct(l, i):
    return f"ct{l}_{i}"

def _s(q, l):
    return f"s{q}_{l}"

def _w1(i, j, s):
    return f"w1_{i}_{j}{s}"

def _b1(i, s):
    return f"b1_{i}{s}"

def _w2(o, a, s):
    return f"w2_{o}_{a}{s}"

def _b2(o, s):
    return f"b2_{o}{s}"

def _n1(i, l, s):
    return f"n1_{i}_{l}{s}"

def _n2(o, l, s):
    return f"n2_{o}_{l}{s}"

def _h(i, l, s=""):
    return f"h{i}_{l}{s}"

def _y(o, l, s=""):
    return f"y{o}_{l}{s}"

def _erail(s, l):
    return f"e{s}_{l}"


def _weight_species(net: NetSpec):
    """All (name-maker key, plus, minus) weight/bias rails plus snapshot / gradient
    / increment names, as parallel dicts keyed by layer and matrix position."""
    table = []
    for i in range(1, net.hidden_width + 1):
        for j in range(1, net.input_width + 1):
            table.append((1, i, j))
        table.append((1, i, net.input_width + 1))  # bias column
    for o in range(1, net.output_width + 1):
        for a in range(1, net.hidden_width + 1):
            table.append((2, o, a))
        table.append((2, o, net.hidden_width + 1))
    return table


def _weight_name(net: NetSpec, layer: int, row: int, col: int, s: str, prefix: str = "") -> str:
    if layer == 1:
        if col == net.input_width + 1:
            return prefix + _b1(row, s)
        return prefix + _w1(row, col, s)
    if col == net.hidden_width + 1:
        return prefix + _b2(row, s)
    return prefix + _w2(row, col, s)


# --- builders ---------------------------------------------------------------

def build_addition_gadget() -> Crn:
    """Three-reaction adder: the carrier species settles at the sum of two catalysts."""
    frag = Fragment()
    frag.add({"a": 1}, {"a": 1, "c": 1}, 1.0, "add")
    frag.add({"b": 1}, {"b": 1, "c": 1}, 1.0, "add")
    frag.add({"c": 1}, {}, 1.0, "add")
    registry = SpeciesRegistry(("a", "b", "c"))
    return Crn(registry, frag.reactions)


def build_assignment(p: int, p_tilde: int, input_width: int = 2) -> Fragment:
    """Sample loading (O1), selector storage (O3) and block rotation (O5).

    The selector species of sample slot ``l`` start as the unit vector
    picking sample ``l``; each O3+O5 pass permutes them forward by one
    block, so successive rounds present successive blocks, wrapping around
    after ``p / p_tilde`` rounds.
    """
    if p_tilde < 1 or p % p_tilde != 0:
        raise CrnError(f"batch size {p_tilde} must divide sample count {p}")
    frag = Fragment()
    label_q = input_width + 1
    for l in range(1, p_tilde + 1):
        for q in range(1, label_q + 1):
            frag.declare(_s(q, l), "input")
        for i in range(1, p + 1):
            frag.declare(_c(l, i), "order")
            frag.declare(_ct(l, i), "order-aux")
            for q in range(1, input_width + 1):
                frag.declare(_x(q, i), "sample")
                frag.add(
                    {_c(l, i): 1, _x(q, i): 1},
                    {_c(l, i): 1, _x(q, i): 1, _s(q, l): 1},
                    1.0,
                    "O1",
                )
            frag.declare(_d(i), "label")
            frag.add(
                {_c(l, i): 1, _d(i): 1},
                {_c(l, i): 1, _d(i): 1, _s(label_q, l): 1},
                1.0,
                "O1",
            )
        for q in range(1, label_q + 1):
            frag.add({_s(q, l): 1}, {}, 1.0, "O1")
    for l in range(1, p_tilde + 1):
        for i in range(1, p + 1):
            frag.add({_c(l, i): 1}, {_ct(l, i): 1}, 1.0, "O3")
    for l in range(1, p_tilde + 1):
        rotating = set(range(l, p - 2 * p_tilde + l + 1, p_tilde))
        closing = p - p_tilde + l
        for i in range(1, p + 1):
            if i in rotating:
                target = i + p_tilde
            elif i == closing:
                target = l
            else:
                target = i
            frag.add({_ct(l, i): 1}, {_c(l, target): 1}, 1.0, "O5")
    return frag


def build_lws(layer: str, net: NetSpec, p_tilde: int) -> Fragment:
    """Linear weighted sum: catalytic production onto net-input rails plus decay.

    The hidden variant (phase O7) reads the input species; the output
    variant (phase O15) reads the combined hidden activations.  Each rail
    settles at the dot product of its weight rail row with the source
    concentrations.
    """
    if layer == "hidden":
        number, phase, rows, cols, rail, source = 1, "O7", net.hidden_width, net.input_width, _n1, _s
    elif layer == "output":
        number, phase, rows, cols, rail, source = 2, "O15", net.output_width, net.hidden_width, _n2, _h
    else:
        raise CrnError(f"unknown layer {layer!r}")
    frag = Fragment()
    for row in range(1, rows + 1):
        for l in range(1, p_tilde + 1):
            for s in _SIGNS:
                net_sp = rail(row, l, s)
                frag.declare(net_sp, "net+" if s == "p" else "net-")
                for col in range(1, cols + 2):  # the last column is the bias
                    w = _weight_name(net, number, row, col, s)
                    frag.declare(w, "weight+" if s == "p" else "weight-")
                    reads = {w: 1} if col > cols else {w: 1, source(col, l): 1}
                    frag.add(reads, {**reads, net_sp: 1}, 1.0, phase)
                frag.add({net_sp: 1}, {}, 1.0, phase)
    return frag


def build_weight_snapshot(net: NetSpec) -> Fragment:
    """Catalytic copy of every weight rail into its snapshot species (phase O7).

    Snapshots carry the round's starting weights into the update phase;
    their decay makes the copy exact regardless of leftover concentration.
    """
    frag = Fragment()
    for layer, row, col in _weight_species(net):
        for s in _SIGNS:
            w = _weight_name(net, layer, row, col, s)
            g = _weight_name(net, layer, row, col, s, prefix="g")
            frag.declare(g, "snapshot+" if s == "p" else "snapshot-")
            frag.add({w: 1}, {w: 1, g: 1}, 1.0, "O7")
            frag.add({g: 1}, {}, 1.0, "O7")
    return frag


def _activation_units(
    layer: str, net: NetSpec, p_tilde: int
) -> Tuple[str, List[Tuple[str, str, str]]]:
    """The layer's role tag and its (net+ rail, net- rail, activation) per unit and sample slot."""
    if layer == "hidden":
        return "hidden", [
            (_n1(i, l, "p"), _n1(i, l, "m"), _h(i, l))
            for i in range(1, net.hidden_width + 1)
            for l in range(1, p_tilde + 1)
        ]
    if layer == "output":
        return "output", [
            (_n2(o, l, "p"), _n2(o, l, "m"), _y(o, l))
            for o in range(1, net.output_width + 1)
            for l in range(1, p_tilde + 1)
        ]
    raise CrnError(f"unknown layer {layer!r}")


def build_logistic_preset(layer: str, net: NetSpec, p_tilde: int) -> Fragment:
    """Reset every activation pair to h = hb = 1/2 (phase O7 or O15).

    ``half`` catalyzes both members of the pair while their own decay wipes
    the previous round's values, so each settles at one half at rate 1,
    whatever the net input.  The reset shares its phase with the layer's
    weighted sum: it touches none of that sum's species, and both are
    first order.
    """
    role, units = _activation_units(layer, net, p_tilde)
    phase = "O7" if layer == "hidden" else "O15"
    frag = Fragment()
    frag.declare("half", "half")
    for *_, act in units:
        for name, tag in ((act, role), (act + "b", role + "-complement")):
            frag.declare(name, tag)
            frag.add({"half": 1}, {"half": 1, name: 1}, 1.0, phase)
            frag.add({name: 1}, {}, 1.0, phase)
    return frag


def build_logistic(layer: str, net: NetSpec, p_tilde: int) -> Fragment:
    """Sign-free logistic activation on the conserved pair h + hb = 1 (phase O13 or O21).

    The positive net-input rail turns hb into h and the negative rail turns
    h into hb, both at a rate proportional to h * hb, while the rails decay
    at rate 1.  From h = hb = 1/2 this is d logit(h)/dt = n+(t) - n-(t), so h
    settles at ``1/(1+exp(-(n+ - n-)))`` and hb at its complement, at rate 1
    whatever the size of the net input; the rails need no annihilation
    against each other beforehand.  Each conversion moves h and hb by equal
    and opposite amounts and nothing else in the phase touches them, so the
    pair stays conserved and logit(h) is the preset's logit plus the
    integral of the decaying rails: ``integrate.run_window`` solves the
    window in closed form.
    """
    role, units = _activation_units(layer, net, p_tilde)
    phase = "O13" if layer == "hidden" else "O21"
    frag = Fragment()
    for plus, minus, act in units:
        bar = act + "b"
        frag.declare(act, role)
        frag.declare(bar, role + "-complement")
        frag.add({plus: 1, act: 1, bar: 1}, {plus: 1, act: 2}, 1.0, phase)
        frag.add({minus: 1, act: 1, bar: 1}, {minus: 1, bar: 2}, 1.0, phase)
        frag.add({plus: 1}, {}, 1.0, phase)
        frag.add({minus: 1}, {}, 1.0, phase)
    return frag


def build_pair_precalc(net: NetSpec, p_tilde: int) -> Fragment:
    """Error rails and the stored output (phase O23).

    The output moves into a working copy, which annihilates against the
    label into the signed error rails whose sum feeds the judgment, and
    into the store that the gradient phase and the training loop read.
    The complements 1-y and 1-h need no copies: the gradient phase reads
    the pair members yb and hb, which nothing touches between the logistic
    and the gradient, so they settle at rate 1 however close an activation
    is to one.
    """
    if not net.is_221:
        raise CrnError("learning stages are specialized to the 2-2-1 network")
    frag = Fragment()
    label_q = net.input_width + 1
    for l in range(1, p_tilde + 1):
        ye, ystore = f"ye_{l}", f"ystore_{l}"
        for name in (ye, ystore):
            frag.declare(name, "precalc")
        frag.add({_y(1, l): 1}, {ye: 1, ystore: 1}, 1.0, "O23")
        label, ep, em, e = _s(label_q, l), _erail("p", l), _erail("m", l), f"e_{l}"
        frag.declare(ep, "error+")
        frag.declare(em, "error-")
        frag.declare(e, "error")
        frag.add({ye: 1, label: 1}, {}, 1.0, "O23")
        frag.add({label: 1}, {label: 1, ep: 1}, 1.0, "O23")
        frag.add({ep: 1}, {}, 1.0, "O23")
        frag.add({ye: 1}, {ye: 1, em: 1}, 1.0, "O23")
        frag.add({em: 1}, {}, 1.0, "O23")
        frag.add({ep: 1}, {ep: 1, e: 1}, 1.0, "O23")
        frag.add({em: 1}, {em: 1, e: 1}, 1.0, "O23")
        frag.add({e: 1}, {}, 1.0, "O23")
    return frag


def build_judgment(judge_rates: Tuple[float, float, float, float], p_tilde: int) -> Fragment:
    """Per-sample bistable judgment plus gate accumulation (phase O25).

    The bistable system's unstable point sits at the error threshold; an
    error starting above it settles at the high stable point, below it at
    zero.  The gate species tracks the error sum, so it vanishes exactly
    when every sample's error settled at zero.  A companion-preset group
    runs in phase O23: it places the companion species on the equilibrium
    parabola ``a = (k2/k1) e**2`` (and clears the previous round's value),
    so the basin decision each round depends on the fresh error alone.
    """
    k1, k2, k3, k4 = judge_rates
    if k1 * k2 - 4 * k3 * k4 <= 0:
        raise CrnError(
            f"no bistability: k1*k2 - 4*k3*k4 = {k1 * k2 - 4 * k3 * k4:g} must be positive"
        )
    frag = Fragment()
    frag.declare("gate", "gate")
    for l in range(1, p_tilde + 1):
        e, a = f"e_{l}", f"ja_{l}"
        frag.declare(a, "judge")
        frag.add({e: 2}, {e: 2, a: 1}, k2 / k1, "O23")
        frag.add({a: 1}, {}, 1.0, "O23")
        frag.add({a: 1}, {e: 2}, k1, "O25")
        frag.add({e: 2}, {e: 1, a: 1}, k2, "O25")
        frag.add({e: 1, a: 1}, {a: 1}, k3, "O25")
        frag.add({e: 1}, {}, k4, "O25")
        frag.add({e: 1}, {e: 1, "gate": 1}, 1.0, "O25")
    frag.add({"gate": 1}, {}, 1.0, "O25")
    return frag


def build_neggrad(net: NetSpec, p_tilde: int) -> Fragment:
    """Gradient monomials by shared two-factor products, summed into the gradient rails (phase O27).

    Root products pair two factors (signed error times hidden activation;
    stored output times output complement; hidden complement times
    output-layer weight rail), and stem products extend them by one factor
    each.  The last product of every monomial is one reaction catalysed by
    its two factors that feeds the gradient rail itself, with the dual-rail
    sign bookkeeping (like signs feed plus, unlike signs minus); each rail
    decays, so it settles at the sum of its monomials.  Activations and
    complements are read from the conserved pairs.
    """
    if not net.is_221:
        raise CrnError("learning stages are specialized to the 2-2-1 network")
    frag = Fragment()

    def accumulate(cats: Mapping[str, int], target: str):
        frag.add(cats, {**cats, target: 1}, 1.0, "O27")

    def prod(cats: Mapping[str, int], out: str):
        frag.declare(out, "sfp")
        accumulate(cats, out)
        frag.add({out: 1}, {}, 1.0, "O27")

    grad_targets: Dict[Tuple[int, int, int, str], str] = {}
    for layer, row, col in _weight_species(net):
        for s in _SIGNS:
            par = _weight_name(net, layer, row, col, s, prefix="p")
            frag.declare(par, "gradient+" if s == "p" else "gradient-")
            frag.add({par: 1}, {}, 1.0, "O27")
            grad_targets[(layer, row, col, s)] = par

    for l in range(1, p_tilde + 1):
        my = f"my_{l}"
        prod({f"ystore_{l}": 1, _y(1, l, "b"): 1}, my)
        for a in (1, 2):
            for s in _SIGNS:
                meh = f"meh{a}{s}_{l}"
                prod({_erail(s, l): 1, _h(a, l): 1}, meh)
                teh = f"teh{a}{s}_{l}"
                prod({meh: 1, my: 1}, teh)
                mwh = f"mwh{a}{s}_{l}"
                prod({_h(a, l, "b"): 1, _w2(1, a, s): 1}, mwh)
                for b in (1, 2):
                    prod({mwh: 1, _s(b, l): 1}, f"twx{a}{b}{s}_{l}")
        for a in (1, 2):
            for s1 in _SIGNS:
                teh = {f"teh{a}{s1}_{l}": 1}
                # layer-2 weights: the stems already are the four-factor monomials
                accumulate(teh, grad_targets[(2, 1, a, s1)])
                for s2 in _SIGNS:
                    sign = "p" if s1 == s2 else "m"
                    # layer-1 weights (seven factors) and bias (six factors)
                    for b in (1, 2):
                        accumulate({**teh, f"twx{a}{b}{s2}_{l}": 1}, grad_targets[(1, a, b, sign)])
                    accumulate({**teh, f"mwh{a}{s2}_{l}": 1}, grad_targets[(1, a, 3, sign)])
        # layer-2 bias (three factors)
        for s in _SIGNS:
            accumulate({_erail(s, l): 1, my: 1}, grad_targets[(2, 1, 3, s)])
    return frag


def build_update(net: NetSpec, p_tilde: int = 1) -> Fragment:
    """Weight refresh (phase O29): every rail settles at snapshot + rate * gradient.

    The gradient rails (with the learning-rate species) feed increment
    species that convert into weight rails; snapshots re-seed the old value
    while the rail's own decay wipes whatever it held, so the fixed point is
    the updated weight regardless of the starting concentration.
    """
    if not net.is_221:
        raise CrnError("learning stages are specialized to the 2-2-1 network")
    frag = Fragment()
    frag.declare("lr", "learning-rate")
    for layer, row, col in _weight_species(net):
        for s in _SIGNS:
            w = _weight_name(net, layer, row, col, s)
            par = _weight_name(net, layer, row, col, s, prefix="p")
            g = _weight_name(net, layer, row, col, s, prefix="g")
            inc = _weight_name(net, layer, row, col, s, prefix="d")
            frag.declare(inc, "increment+" if s == "p" else "increment-")
            frag.add({par: 1, "lr": 1}, {par: 1, "lr": 1, inc: 1}, 1.0, "O29")
            frag.add({inc: 1}, {w: 1}, 1.0, "O29")
            frag.add({g: 1}, {g: 1, w: 1}, 1.0, "O29")
            frag.add({w: 1}, {}, 1.0, "O29")
    return frag


def build_pair_clearout(net: NetSpec, p_tilde: int) -> Fragment:
    """Drain the previous round's stored output and its working copy (phase O1).

    Nothing reads either before the next round's O23, so the drain shares
    the loading phase.  The activation pairs need no draining, because the
    presets reset them, and no unit species needs replenishing.
    """
    if not net.is_221:
        raise CrnError("learning stages are specialized to the 2-2-1 network")
    frag = Fragment()
    for l in range(1, p_tilde + 1):
        for name in (f"ystore_{l}", f"ye_{l}"):
            frag.add({name: 1}, {}, 1.0, "O1")
    return frag


# --- assembly ---------------------------------------------------------------

def assemble(fragment: Fragment, phases: Sequence[str]) -> Crn:
    """Build a network from one fragment, registering species by first appearance."""
    names: Dict[str, None] = {}
    for rxn in fragment.reactions:
        for name in rxn.species():
            names.setdefault(name)
    roles = {n: r for n, r in fragment.roles.items() if n in names}
    crn = Crn(SpeciesRegistry(tuple(names), roles), fragment.reactions)
    unknown = set(crn.phases()) - set(phases)
    if unknown:
        raise CrnError(f"fragment contains unknown phases {sorted(unknown)}")
    return crn


def _make_probes(net: NetSpec, p_tilde: int, learning: bool) -> Probes:
    probes = Probes()
    for l in range(1, p_tilde + 1):
        for i in range(1, net.hidden_width + 1):
            probes.net1[(i, l)] = (_n1(i, l, "p"), _n1(i, l, "m"))
            probes.hidden[(i, l)] = _h(i, l)
        for o in range(1, net.output_width + 1):
            probes.net2[(o, l)] = (_n2(o, l, "p"), _n2(o, l, "m"))
            probes.outputs[(o, l)] = _y(o, l)
    for layer, row, col in _weight_species(net):
        pair = tuple(_weight_name(net, layer, row, col, s) for s in _SIGNS)
        target = probes.weights1 if layer == 1 else probes.weights2
        target[(row, col)] = pair
        if learning:
            gpair = tuple(_weight_name(net, layer, row, col, s, prefix="p") for s in _SIGNS)
            (probes.gradients1 if layer == 1 else probes.gradients2)[(row, col)] = gpair
    if learning:
        for l in range(1, p_tilde + 1):
            probes.error_pairs[l] = (_erail("p", l), _erail("m", l))
            probes.error[l] = f"e_{l}"
            probes.one_minus_y[l] = _y(1, l, "b")
            for i in range(1, net.hidden_width + 1):
                probes.one_minus_h[(i, l)] = _h(i, l, "b")
    return probes


def _finish_program(
    net: NetSpec,
    train: Optional[TrainSpec],
    fragment: Fragment,
    phases: Sequence[str],
    p_tilde: int,
    learning: bool,
) -> Program:
    crn = assemble(fragment, phases)
    present = [tag for tag in phases if crn.reactions_in_phase(tag)]
    phase_index = {tag: crn.reactions_in_phase(tag) for tag in present}
    return Program(
        crn=crn,
        phases=tuple(present),
        phase_index=phase_index,
        net=net,
        train=train,
        probes=_make_probes(net, p_tilde, learning),
    )


def _load_weights(values: Dict[str, float], net: NetSpec, weights: WeightSet) -> None:
    if not weights.shapes_match(net):
        raise CrnError("weight matrices do not match the network shape")
    for layer, row, col in _weight_species(net):
        plus = weights.w1_plus if layer == 1 else weights.w2_plus
        minus = weights.w1_minus if layer == 1 else weights.w2_minus
        values[_weight_name(net, layer, row, col, "p")] = float(plus[row - 1, col - 1])
        values[_weight_name(net, layer, row, col, "m")] = float(minus[row - 1, col - 1])


def compile_program(net: NetSpec, train: TrainSpec) -> Tuple[Program, State]:
    """Compile the full eleven-phase training program and its initial state.

    The initial state selects the first sample block, loads samples and
    dual-rail weights, and sets the half and learning-rate references;
    every other species starts at zero.
    """
    if not net.is_221:
        raise CrnError("the full training program requires the 2-2-1 network shape")
    if train.init_weights is None:
        raise CrnError("TrainSpec.init_weights is required to compile the training program")
    p, p_tilde = train.sample_count, train.batch_size
    frag = Fragment()
    frag.merge(build_assignment(p, p_tilde, net.input_width))
    frag.merge(build_lws("hidden", net, p_tilde))
    frag.merge(build_weight_snapshot(net))
    frag.merge(build_logistic_preset("hidden", net, p_tilde))
    frag.merge(build_logistic("hidden", net, p_tilde))
    frag.merge(build_lws("output", net, p_tilde))
    frag.merge(build_logistic_preset("output", net, p_tilde))
    frag.merge(build_logistic("output", net, p_tilde))
    frag.merge(build_pair_precalc(net, p_tilde))
    frag.merge(build_judgment(train.judge_rates, p_tilde))
    frag.merge(build_neggrad(net, p_tilde))
    frag.merge(build_update(net, p_tilde))
    frag.merge(build_pair_clearout(net, p_tilde))
    # the judgment gate silences every learning reaction when it is empty
    frag.reactions = [
        add_catalyst(r, "gate") if r.phase in GATED_PHASES else r for r in frag.reactions
    ]
    program = _finish_program(net, train, frag, PHASE_ORDER, p_tilde, learning=True)

    values: Dict[str, float] = {}
    for i in range(1, p + 1):
        for q in range(1, net.input_width + 1):
            values[_x(q, i)] = float(train.samples[i - 1, q - 1])
        values[_d(i)] = float(train.samples[i - 1, net.input_width])
    for l in range(1, p_tilde + 1):
        values[_c(l, l)] = 1.0
    _load_weights(values, net, train.init_weights)
    values["half"] = 0.5
    values["lr"] = train.eta
    x0 = State.from_dict(program.crn.registry, values)
    return program, x0


def compile_feedforward(
    net: NetSpec,
    weights: WeightSet,
    inputs: np.ndarray,
) -> Tuple[Program, State]:
    """Compile only the feedforward phases, with inputs injected directly.

    ``inputs`` is (m, input_width); each row becomes one sample slot of the
    batch.  Works for any layer widths.  Used for output evaluation and
    decision-surface grids with trained weights.  The program depends only
    on ``net`` and m; ``feedforward_state`` loads the weights and inputs.
    """
    inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
    m = inputs.shape[0]
    frag = Fragment()
    frag.merge(build_lws("hidden", net, m))
    frag.merge(build_logistic_preset("hidden", net, m))
    frag.merge(build_logistic("hidden", net, m))
    frag.merge(build_lws("output", net, m))
    frag.merge(build_logistic_preset("output", net, m))
    frag.merge(build_logistic("output", net, m))
    for l in range(1, m + 1):
        for q in range(1, net.input_width + 1):
            frag.declare(_s(q, l), "input")
    program = _finish_program(net, None, frag, FEEDFORWARD_PHASES, m, learning=False)
    return program, feedforward_state(program, weights, inputs)


def feedforward_state(program: Program, weights: WeightSet, inputs: np.ndarray) -> State:
    """Initial state of a feedforward program for ``weights`` and ``inputs``.

    ``inputs`` must have one row per sample slot of ``program`` and the
    network's input width, with nonnegative entries; ``weights`` must match
    the network shape.  The inputs, the weight rails and ``half`` (one half)
    are loaded; every other species starts at zero.
    """
    net = program.net
    rows = max((l for _, l in program.probes.outputs), default=0)
    inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
    if inputs.shape != (rows, net.input_width):
        raise CrnError(f"inputs must be ({rows}, {net.input_width}), got {inputs.shape}")
    if np.any(inputs < 0):
        raise CrnError("inputs must be nonnegative")
    values: Dict[str, float] = {"half": 0.5}
    for l in range(1, rows + 1):
        for q in range(1, net.input_width + 1):
            values[_s(q, l)] = float(inputs[l - 1, q - 1])
    _load_weights(values, net, weights)
    return State.from_dict(program.crn.registry, values)

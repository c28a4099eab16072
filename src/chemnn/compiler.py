"""Compile a network and training specification into a phased reaction program.

The compiled program runs eight phases per training round, in this order:

========  ====================================================================
O7        weighted sums into the hidden net-input rails; reset each hidden
          unit's activation pair to h = hb = 1/2; store the block selectors
          that move (none when there is one block)
O13       hidden logistic on the conserved pair: h -> sigma(n), hb -> 1 - h
O15       the output layer's weighted sums and pair reset; rotate the stored
          selectors onto the next block, one selector per sample
O21       the output logistic
O23       the stored output; the error rails d(1 - y) and (1 - d) y, made
          catalytically from the label and its complement, and their sum,
          the error
O25       bistable per-sample judgment feeding the learning gate
O27       output and hidden deltas read from the pairs; each gradient rail
          sums a delta times its input
O29       the gradient rails convert into the weight rails; load the next
          sample block into the input species and drain the output stores
========  ====================================================================

Every activation is held by a conserved pair h + hb = 1, so the logistic
and its complement settle at rate 1 whatever the net input; no stage
subtracts near-equal rails to obtain 1 - h or 1 - y.  The logistic reads
only the difference of the two net-input rails, so they are never
annihilated against each other.  Tags keep their original numbering, so
O1, O3, O5, O9, O11, O17, O19 and O31 are unused.

The initial state holds the first sample block in the input species, and
every species the compiler does not load starts at exactly zero, so each
module approaches its target from its designed initial condition.

Every reaction carries exactly one phase tag.  The learning reactions (all
of O27, and O29's weight update) are additionally gated by the judgment
gate species, so a round whose errors all settle below the threshold
leaves the weights untouched; O29's loading and drains run either way.

Species names are systematic lowercase identifiers (for example
``w1_2_1p`` is the positive rail of the layer-1 weight from input 1 to
hidden unit 2, and ``n2_1_3m`` the negative net-input rail of output unit 1
for sample 3).  Every stage is written over the layer widths, and the
learning stages take a network with one output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from . import presets
from .analysis import bistable_equilibria
from .crn import Complex, Crn, CrnError, Reaction, SpeciesRegistry, State

__all__ = [
    "NetSpec",
    "WeightSet",
    "TrainSpec",
    "Fragment",
    "Judgment",
    "Program",
    "PHASE_ORDER",
    "FEEDFORWARD_PHASES",
    "build_assignment",
    "build_lws",
    "build_logistic_preset",
    "build_logistic",
    "build_pair_precalc",
    "build_judgment",
    "build_neggrad",
    "build_update",
    "assemble",
    "compile_program",
    "compile_feedforward",
    "feedforward_state",
]

PHASE_ORDER = ("O7", "O13", "O15", "O21", "O23", "O25", "O27", "O29")
FEEDFORWARD_PHASES = ("O7", "O13", "O15", "O21")

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
            if not np.all(np.isfinite(arr)) or np.any(arr < 0):
                raise CrnError(f"{name} must be entrywise finite and nonnegative")
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
        """Build from (h+1) x (h+1) stacked rails of an h-h-1 network: layer 1
        in rows 1 to h, layer 2 in the last row."""
        plus = np.atleast_2d(np.asarray(plus, dtype=float))
        minus = np.atleast_2d(np.asarray(minus, dtype=float))
        if minus.shape != plus.shape or plus.shape != (len(plus), len(plus)) or len(plus) < 2:
            raise CrnError(f"stacked rails must be square and match, got {plus.shape} and {minus.shape}")
        return cls(plus[:-1], minus[:-1], plus[-1:], minus[-1:])

    def decoded(self) -> Tuple[np.ndarray, np.ndarray]:
        return self.w1_plus - self.w1_minus, self.w2_plus - self.w2_minus

    def shapes_match(self, net: NetSpec) -> bool:
        return self.w1_plus.shape == (net.hidden_width, net.input_width + 1) and self.w2_plus.shape == (
            net.output_width,
            net.hidden_width + 1,
        )


@dataclass
class TrainSpec:
    """Samples, batch schedule, learning rate and judgment parameters.

    Each sample row holds the inputs, then the label, which must be 0 or 1.
    The error readout (``build_pair_precalc``) makes the error's rails
    d(1 - y) and (1 - d) y, whose difference is d - y for any d, but whose
    sum, the error e the judgment reads, equals |d - y| only for a binary
    label.  There is no background fill: ``compile_program`` starts every
    species that these do not set at zero.
    """

    samples: np.ndarray
    batch_size: int
    eta: float
    threshold: float
    judge_rates: Tuple[float, float, float, float] = presets.JUDGE_RATES
    init_weights: Optional[WeightSet] = None

    def __post_init__(self):
        self.samples = np.atleast_2d(np.asarray(self.samples, dtype=float))
        if self.samples.ndim != 2 or self.samples.shape[1] < 2:
            raise CrnError(f"samples must be rows of inputs then a label, got shape {self.samples.shape}")
        if not np.all(np.isfinite(self.samples)) or np.any(self.samples < 0):
            raise CrnError("samples must be finite and nonnegative")
        labels = self.samples[:, -1]
        if np.any((labels != 0) & (labels != 1)):
            raise CrnError(f"labels must be 0 or 1, got {sorted(set(labels.tolist()) - {0.0, 1.0})}")
        p = self.samples.shape[0]
        if self.batch_size < 1 or p % self.batch_size != 0:
            raise CrnError(f"batch size {self.batch_size} must divide sample count {p}")
        if not 0 < self.eta <= 1:
            raise CrnError(f"learning rate must be in (0, 1], got {self.eta}")
        if not 0 < self.threshold < np.inf:
            raise CrnError(f"threshold must be positive and finite, got {self.threshold}")
        k1, k2, k3, k4 = self.judge_rates
        if not all(0 < k < np.inf for k in self.judge_rates):
            raise CrnError("judgment rate constants must be positive and finite")
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
        """Add one reaction; its species names are checked when ``assemble`` registers them."""
        self.reactions.append(Reaction(Complex._names_checked_elsewhere(reactants),
                                       Complex._names_checked_elsewhere(products), rate, phase))

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
    stored_outputs: Dict[int, str] = field(default_factory=dict)  # read at the O23 boundary
    one_minus_y: Dict[int, str] = field(default_factory=dict)
    one_minus_h: Dict[Tuple[int, int], str] = field(default_factory=dict)
    gate: str = "gate"


@dataclass(frozen=True)
class Judgment:
    """Where a training program's bistable judgment runs and where it decides.

    ``tag`` is its phase, ``errors`` and ``companions`` each sample slot's e
    and a, with e' = 2 k1 a - k2 e^2 - k3 e a - k4 e, a' = k2 e^2 - k1 a and
    gate' = sum(e) - gate for ``rates`` (k1, k2, k3, k4).  The unstable
    equilibrium e* of ``analysis.bistable_equilibria`` lies on the parabola
    the companion starts on: an error that starts above it settles high, one
    below it settles at 0.
    """

    tag: str
    errors: Tuple[str, ...]
    companions: Tuple[str, ...]
    gate: str
    rates: Tuple[float, float, float, float]


@dataclass
class Program:
    """A compiled phased reaction program; ``judgment`` is None without training."""

    crn: Crn
    phases: Tuple[str, ...]
    phase_index: Dict[str, Tuple[int, ...]]
    net: NetSpec
    train: Optional[TrainSpec]
    probes: Probes
    judgment: Optional[Judgment] = None

    @cached_property
    def _load_slots(self) -> Tuple[int, np.ndarray, np.ndarray, int]:
        """Registry indices of what the initial states load, found once: the
        number of sample slots, the indices of each slot's inputs, of the
        plus and minus weight rails in ``_weight_species`` order, and of ``half``."""
        net, index = self.net, self.crn.registry.index
        rows = max((l for _, l in self.probes.outputs), default=0)
        inputs = [[index(_s(q, l)) for q in range(1, net.input_width + 1)] for l in range(1, rows + 1)]
        rails = [[index(_weight_name(net, *w, s)) for w in _weight_species(net)] for s in _SIGNS]
        inputs = np.array(inputs, dtype=np.intp).reshape(rows, net.input_width)
        return rows, inputs, np.array(rails, dtype=np.intp), index("half")


# --- species name helpers -------------------------------------------------

def _x(q, i):
    return f"x{q}_{i}"

def _d(i):
    return f"d_{i}"

def _db(i):
    return f"db_{i}"

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

def _lb(l):
    return f"lb_{l}"

def _error_rails(l):
    """The error's positive and negative rails, d(1 - y) and (1 - d) y, made in O23."""
    return f"ep_{l}", f"em_{l}"

def _ystore(l):
    return f"ystore_{l}"


def _weight_species(net: NetSpec):
    """The (layer, row, col) position of every weight and bias, biases in the last column."""
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

def build_assignment(p: int, p_tilde: int, input_width: int = 2) -> Fragment:
    """Selector storage (O7), block rotation (O15) and sample loading (O29).

    Sample slot ``l`` only ever holds samples ``l + k * p_tilde``, so it
    has one selector per such sample, and they start as the unit vector
    picking sample ``l``.  Each store and rotation moves them forward by
    one block, so successive rounds present successive blocks, wrapping
    around after ``p / p_tilde`` rounds; a selector is stored and rotated
    only when it moves, so a single block has neither.  Both moves are
    first order and touch nothing the weighted sums and pair resets of O7
    and O15 read, so they share those windows.  The loading copies the
    block the rotated selectors pick into the input species, the label
    ``d_i`` and its complement ``db_i`` = 1 - d_i included; nothing reads
    those between O23 and the next round, so it shares the update's
    window, and ``compile_program`` preloads the first block.
    """
    if p_tilde < 1 or p % p_tilde != 0:
        raise CrnError(f"batch size {p_tilde} must divide sample count {p}")
    frag = Fragment()
    label_q = input_width + 1
    for l in range(1, p_tilde + 1):
        for q in range(1, label_q + 1):
            frag.declare(_s(q, l), "input")
        frag.declare(_lb(l), "input")
        for i in range(l, p + 1, p_tilde):
            frag.declare(_c(l, i), "order")
            for q in range(1, input_width + 1):
                frag.declare(_x(q, i), "sample")
                frag.add(
                    {_c(l, i): 1, _x(q, i): 1},
                    {_c(l, i): 1, _x(q, i): 1, _s(q, l): 1},
                    1.0,
                    "O29",
                )
            for store, slot, role in ((_d(i), _s(label_q, l), "label"),
                                      (_db(i), _lb(l), "label-complement")):
                frag.declare(store, role)
                frag.add({_c(l, i): 1, store: 1}, {_c(l, i): 1, store: 1, slot: 1}, 1.0, "O29")
        for name in [_s(q, l) for q in range(1, label_q + 1)] + [_lb(l)]:
            frag.add({name: 1}, {}, 1.0, "O29")
    for l in range(1, p_tilde + 1):
        for i in range(l, p + 1, p_tilde):
            target = i + p_tilde if i + p_tilde <= p else l
            if target != i:
                frag.declare(_ct(l, i), "order-aux")
                frag.add({_c(l, i): 1}, {_ct(l, i): 1}, 1.0, "O7")
                frag.add({_ct(l, i): 1}, {_c(l, target): 1}, 1.0, "O15")
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
    """The stored output and the error rails (phase O23), drained in phase O29.

    The output moves into the store ``ystore`` that the gradient phase and
    the training loop read.  The error rails are catalytic products that
    decay at rate 1: the label and the output complement yb make ``ep`` =
    d(1 - y), the label complement ``lb`` and the store make ``em`` =
    (1 - d) y, and both reactions also make the error ``e`` = ep + em, which
    the judgment reads.  Their difference is d - y for any label; their sum
    is |d - y| because the label is 0 or 1 (``TrainSpec``).  So each settles
    at rate 1 from its zero start, however small the error, and the window
    is a cascade that ``integrate.run_window`` solves in closed form.  The
    complements 1-y and 1-h need no copies: the gradient phase reads the
    pair members yb and hb, which nothing touches between the logistic and
    the gradient, so they settle at rate 1 however close an activation is to
    one.  The store, the rails and the error drain in O29, after their last
    reader; the label and its complement drain with the rest of the sample
    block, and the activation pairs need no draining, because the presets
    reset them.
    """
    label_q = net.input_width + 1
    frag = Fragment()
    for l in range(1, p_tilde + 1):
        (plus, minus), ystore, e = _error_rails(l), _ystore(l), f"e_{l}"
        frag.declare(ystore, "precalc")
        frag.declare(plus, "error+")
        frag.declare(minus, "error-")
        frag.declare(e, "error")
        frag.add({_y(1, l): 1}, {ystore: 1}, 1.0, "O23")
        for reads, rail in (({_s(label_q, l): 1, _y(1, l, "b"): 1}, plus),
                            ({_lb(l): 1, ystore: 1}, minus)):
            frag.add(reads, {**reads, rail: 1, e: 1}, 1.0, "O23")
        for name in (plus, minus, e):
            frag.add({name: 1}, {}, 1.0, "O23")
        for name in (ystore, plus, minus, e):
            frag.add({name: 1}, {}, 1.0, "O29")
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


def build_neggrad(net: NetSpec, p_tilde: int, eta: float = 1.0) -> Fragment:
    """Backpropagated delta species, summed into the gradient rails (phase O27).

    Per sample slot, the root products are ``my`` = y(1 - y) and, per hidden
    unit, ``hh`` = h(1 - h); then the output delta ``do`` = eta * e * my on
    each error rail (``dop`` reads O23's ``ep`` = d(1 - y), ``dom`` its
    ``em`` = (1 - d) y, so dop - dom = eta (d - y) my), made at rate
    ``eta``, and ``mhw`` =
    hh * w2 rail; then the hidden delta ``dl`` of each unit, the sum of
    ``do`` times ``mhw`` over the rails with the dual-rail sign bookkeeping
    (like signs feed plus, unlike signs minus).  Each gradient rail reads one
    delta, times the unit's input for a weight (``do * h`` for layer 2,
    ``dl * x`` for layer 1) and alone for a bias, so the rails hold ``eta``
    times the negative gradient.  Every product and sum is one reaction
    catalysed by its factors; each product and rail decays, so it settles at
    the sum of what feeds it.  Activations and complements are read from the
    conserved pairs.  The judgment's ``gate`` catalyses every reaction, so
    all of them are silent while it is empty.  The network has one output;
    each layer's bias rails are its last column.
    """
    hidden, inputs = net.hidden_width, net.input_width
    frag, gate = Fragment(), {"gate": 1}

    def accumulate(cats: Mapping[str, int], target: str, rate: float = 1.0):
        frag.add({**cats, **gate}, {**cats, target: 1, **gate}, rate, "O27")

    def decaying(out: str):
        frag.declare(out, "sfp")
        frag.add({out: 1, **gate}, gate, 1.0, "O27")
        return out

    def prod(cats: Mapping[str, int], out: str, rate: float = 1.0):
        accumulate(cats, decaying(out), rate)

    grad_targets: Dict[Tuple[int, int, int, str], str] = {}
    for layer, row, col in _weight_species(net):
        for s in _SIGNS:
            par = _weight_name(net, layer, row, col, s, prefix="p")
            frag.declare(par, "gradient+" if s == "p" else "gradient-")
            frag.add({par: 1, **gate}, gate, 1.0, "O27")
            grad_targets[(layer, row, col, s)] = par

    for l in range(1, p_tilde + 1):
        my = f"my_{l}"
        prod({_ystore(l): 1, _y(1, l, "b"): 1}, my)
        for s, rail in zip(_SIGNS, _error_rails(l)):
            do = f"do{s}_{l}"
            prod({rail: 1, my: 1}, do, eta)
            accumulate({do: 1}, grad_targets[(2, 1, hidden + 1, s)])
            for a in range(1, hidden + 1):
                accumulate({do: 1, _h(a, l): 1}, grad_targets[(2, 1, a, s)])
        for a in range(1, hidden + 1):
            hh = f"hh{a}_{l}"
            prod({_h(a, l): 1, _h(a, l, "b"): 1}, hh)
            for s in _SIGNS:
                prod({hh: 1, _w2(1, a, s): 1}, f"mhw{a}{s}_{l}")
            for s1 in _SIGNS:
                for s2 in _SIGNS:
                    dl = f"dl{a}{'p' if s1 == s2 else 'm'}_{l}"
                    accumulate({f"do{s1}_{l}": 1, f"mhw{a}{s2}_{l}": 1}, dl)
            for sign in _SIGNS:
                dl = decaying(f"dl{a}{sign}_{l}")
                accumulate({dl: 1}, grad_targets[(1, a, inputs + 1, sign)])
                for b in range(1, inputs + 1):
                    accumulate({dl: 1, _s(b, l): 1}, grad_targets[(1, a, b, sign)])
    return frag


def build_update(net: NetSpec) -> Fragment:
    """Weight update (phase O29): every gradient rail converts into its weight rail.

    Each rail ``p`` holds ``eta`` times the negative gradient
    (``build_neggrad``) and empties at rate 1 into the weight rail ``w``, so
    w ends at w + p and the gradient rails start the next round empty; the
    ``gate`` catalyses each conversion, as in ``build_neggrad``.
    """
    frag = Fragment()
    for layer, row, col in _weight_species(net):
        for s in _SIGNS:
            w = _weight_name(net, layer, row, col, s)
            par = _weight_name(net, layer, row, col, s, prefix="p")
            frag.add({par: 1, "gate": 1}, {w: 1, "gate": 1}, 1.0, "O29")
    return frag


# --- assembly ---------------------------------------------------------------

def assemble(fragment: Fragment, phases: Sequence[str]) -> Crn:
    """Build a network from one fragment, registering species by first appearance.

    The registry checks each name once, so a bad name fails here at the latest.
    """
    names: Dict[str, int] = {}  # the keys in order of first appearance, as Reaction.species gives them
    for rxn in fragment.reactions:
        names.update(rxn.reactant.items())
        names.update(rxn.product.items())
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
            probes.error_pairs[l] = _error_rails(l)
            probes.error[l] = f"e_{l}"
            probes.stored_outputs[l] = _ystore(l)
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


def _load_weights(values: np.ndarray, program: Program, weights: WeightSet) -> None:
    """Put the weight rails into the state vector ``values`` by registry index."""
    if not weights.shapes_match(program.net):
        raise CrnError("weight matrices do not match the network shape")
    rails = program._load_slots[2]
    values[rails[0]] = np.concatenate([weights.w1_plus.ravel(), weights.w2_plus.ravel()])
    values[rails[1]] = np.concatenate([weights.w1_minus.ravel(), weights.w2_minus.ravel()])


def _feedforward_fragment(net: NetSpec, p_tilde: int) -> Fragment:
    """Both layers' weighted sums and logistics over ``p_tilde`` sample slots."""
    frag = Fragment()
    for layer in ("hidden", "output"):
        frag.merge(build_lws(layer, net, p_tilde))
        frag.merge(build_logistic_preset(layer, net, p_tilde))
        frag.merge(build_logistic(layer, net, p_tilde))
    return frag


def compile_program(net: NetSpec, train: TrainSpec) -> Tuple[Program, State]:
    """Compile the full eight-phase training program and its initial state.

    The initial state selects the first sample block and holds it in the
    input species, loads samples, label complements and dual-rail weights,
    and sets the half
    reference; every other species starts at zero.  The gate catalyses the
    reactions of ``build_neggrad`` and ``build_update`` only, so a closed
    gate stops learning but not O29's loading and drains.
    """
    if net.output_width != 1 or train.samples.shape[1] != net.input_width + 1:
        raise CrnError(f"the training program needs one output and {net.input_width + 1} sample "
                       f"columns, got {net.output_width} and {train.samples.shape[1]}")
    if train.init_weights is None:
        raise CrnError("TrainSpec.init_weights is required to compile the training program")
    p, p_tilde = train.sample_count, train.batch_size
    frag = build_assignment(p, p_tilde, net.input_width)
    frag.merge(_feedforward_fragment(net, p_tilde))
    frag.merge(build_pair_precalc(net, p_tilde))
    frag.merge(build_judgment(train.judge_rates, p_tilde))
    frag.merge(build_neggrad(net, p_tilde, train.eta)).merge(build_update(net))
    program = _finish_program(net, train, frag, PHASE_ORDER, p_tilde, learning=True)
    rates, slots = tuple(map(float, train.judge_rates)), range(1, p_tilde + 1)
    program.judgment = Judgment("O25", tuple(program.probes.error[l] for l in slots),
                                tuple(f"ja_{l}" for l in slots), program.probes.gate, rates)

    values: Dict[str, float] = {}
    for i in range(1, p + 1):
        for q in range(1, net.input_width + 1):
            values[_x(q, i)] = float(train.samples[i - 1, q - 1])
        values[_d(i)] = float(train.samples[i - 1, net.input_width])
        values[_db(i)] = 1.0 - values[_d(i)]
    for l in range(1, p_tilde + 1):
        values[_c(l, l)] = 1.0
        for q in range(1, net.input_width + 2):  # the inputs, then the label
            values[_s(q, l)] = float(train.samples[l - 1, q - 1])
        values[_lb(l)] = 1.0 - values[_s(net.input_width + 1, l)]
    values["half"] = 0.5
    y0 = State.from_dict(program.crn.registry, values).values
    _load_weights(y0, program, train.init_weights)
    return program, State(program.crn.registry, y0)


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
    frag = _feedforward_fragment(net, m)
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
    rows, slots, _, half = program._load_slots
    inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
    if inputs.shape != (rows, net.input_width):
        raise CrnError(f"inputs must be ({rows}, {net.input_width}), got {inputs.shape}")
    if np.any(inputs < 0):
        raise CrnError("inputs must be nonnegative")
    values = np.zeros(program.crn.n_species)
    values[half] = 0.5
    values[slots] = inputs
    _load_weights(values, program, weights)
    return State(program.crn.registry, values)

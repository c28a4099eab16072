"""Numerical integration of mass-action kinetics, plain and phased.

One integrator is provided: the adaptive Dormand-Prince 8(5,3) pair
(DOP853; Hairer, Norsett and Wanner, Solving Ordinary Differential
Equations I, Sec. II.10), with the closed-form and settle-jump shortcuts of
phase windows described below.  Mass-action solutions are provably
nonnegative, so tiny negative overshoots (below ``abs_tol``) are clamped
to zero; larger ones force a step rejection.

Phased execution runs each scheduled window through ``run_window``, which
integrates only the reaction subset tagged with the active phase and only
the species that subset changes; every other species is a constant for
the window.  The changed species fall apart into independent blocks, the
connected components of the phase's Jacobian pattern (one per sample slot
and unit, mostly), found once when the ``Kinetics`` is built.  A
first-order window (no reaction has more than one reactant molecule
among the changed species) is linear, z' = Az + b,
and is solved in closed form with the matrix exponential of the augmented
matrix [[A_b, b_b], [0, 0]] of every block b, taken as one stack (scaling
and squaring with a degree-13 Padé approximant; Higham, SIAM J. Matrix
Anal. Appl. 2005).  A driven pair window is solved by the same stack.
There every reaction with more than one changed reactant molecule converts
one member of a pair (a, b) into the other, reads each member once and at
most one other changed species c (a driver), and nothing else reads or
changes a pair member.  The conversions move a and b by equal and
opposite amounts, so a + b = s stays fixed, and the logit L = ln(a/b)
obeys L' = s * sum(+-k * c), linear in the first-order drivers.  The logit
takes the pair's row of the drivers' augmented matrix, and the window ends
at a = s sigma(L), b = s sigma(-L); a pair with a member at 0 does not
move.  The logistic windows O13 and O21 are of this kind.  A closed-form
end state below ``-abs_tol`` is an error; smaller negatives are clamped.
Other windows take DOP853 steps on their changed species, with the error
norm still taken over the full state.  Such a window spends most of its
length settled, so from time to time it tries to end with one exponential
Rosenbrock-Euler jump over the rest, z + tau phi1(tau J) f, using the
same stacked exponential on [[tau J_b, tau f_b], [0, 0]] with J the
phase's analytic mass-action Jacobian (Hochbruck and Ostermann, Acta
Numerica 2010).  The jump is
checked by step doubling against the steps' error scale; a refused jump
leaves the steps going.  ``integrate_to_equilibrium`` tries the same jump
to certify an equilibrium that its steps only jitter around.

A program runs cycle by cycle through one of two executors with the same
interface: ``initial_values(x0)`` gives the starting state vector and
``run_cycle(y, t, on_step=None)`` returns ``(y, t, boundaries)``, the state
and time at the end of one cycle and, per phase tag, the state at the end
of that phase's window; ``on_step(t, y)`` sees every step.
``PhasedExecutor`` runs idealized windows, one ``run_window`` per
scheduled (tag, duration) pair.  ``OscillatorExecutor`` simulates the full
network with every program reaction gated by its phase's clock species
(the clocked phases of Vasić, Soloveichik and Khurshid, CRN++, Natural
Computing 2020); a window ends when its clock falls through the
on-threshold and a cycle ends when the first phase's clock rises again.
``run_phased`` and ``run_oscillator`` loop their executor's ``run_cycle``
and record a ``Trajectory``; it, and the plain ``integrate`` calls that
step the full state, let recorders and stop callbacks see every step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .crn import Crn, CrnError, Reaction, SpeciesRegistry, State, add_catalyst

__all__ = [
    "IntegrationError",
    "IntegratorConfig",
    "Trajectory",
    "PhaseSchedule",
    "Kinetics",
    "integrate",
    "integrate_to_equilibrium",
    "run_window",
    "PhasedExecutor",
    "OscillatorExecutor",
    "run_phased",
    "run_oscillator",
]

_MIN_STEP_FRACTION = 1e-14
# A stepped window (or an equilibrium search) first tries to jump to its end
# after this fraction of its length, then each time its elapsed time has
# grown by _TRY_GROWTH.
_FIRST_TRY = 1 / 16
_TRY_GROWTH = 2.0


class IntegrationError(RuntimeError):
    """Numerical failure (step-size underflow, invalid configuration)."""


@dataclass(frozen=True)
class IntegratorConfig:
    """Error tolerances of the DOP853 steps.

    They apply to the full-network integrations, to the phase windows that
    take steps, and to the check of the jump that may end such a window.
    First-order and driven pair windows (see the module docstring) are
    solved in closed form, where ``abs_tol`` only bounds the negative end
    values that are clamped to zero.
    """

    rel_tol: float = 1e-8
    abs_tol: float = 1e-10

    def __post_init__(self):
        if not (0 < self.rel_tol < np.inf and 0 < self.abs_tol < np.inf):
            raise IntegrationError("tolerances must be positive and finite")


class Kinetics:
    """Vectorized mass-action right-hand side for a reaction subset.

    ``species`` lists, in registry order, the species whose net
    stoichiometry is nonzero somewhere in the subset: the only ones it
    changes.  Every other species acts as a constant.  The derivative is a
    scatter-add over the nonzero net stoichiometry, each term a rate
    constant times the product of its reaction's reactant factors.  The
    factors are gathered from a compact buffer that holds the changed
    species, then the constants the rates read, then a 1.0 for padding.

    Called with a full state (length ``n``) it returns the full derivative.
    Called with ``x[species]`` it returns the derivative of those species,
    reading the constants from the last ``hold``.  The two coincide when the
    subset changes every species.

    ``blocks`` is a ``(B, k)`` table of phase-local indices: the connected
    components of the Jacobian pattern, one per row in the order of their
    first species, padded with ``m = species.size`` to the largest size k.
    The derivative of a block's species reads no changed species outside the
    block, so ``jacobian`` returns the ``(B, k, k)`` stack of diagonal blocks
    (zero in the padding) and the window exponentials are taken per block.

    ``pairs`` is the ``_PairWindow`` of a subset that is a driven pair
    window (see ``_pair_window``) and None otherwise.  It is found on first
    use, so a ``Kinetics`` that no phase window reads never pays for it.
    """

    def __init__(self, crn: Crn, reaction_indices: Optional[Sequence[int]] = None):
        registry = crn.registry
        if reaction_indices is None:
            reaction_indices = range(crn.n_reactions)
        reactions = [crn.reactions[j] for j in reaction_indices]
        nets = [{registry.index(s): d for s, d in rxn.net().items()} for rxn in reactions]
        changed = sorted({idx for net in nets for idx in net})
        reads = {registry.index(s) for rxn in reactions for s, _ in rxn.reactant.items()}
        held = sorted(reads.difference(changed))
        m = len(changed)
        slot = {idx: i for i, idx in enumerate(changed + held)}
        one = m + len(held)  # the constant-1 slot
        width = max([rxn.reactant.size() for rxn in reactions] + [1])
        factors = np.full((len(reactions), width), one, dtype=np.intp)
        order = np.zeros(len(reactions), dtype=int)  # reactant molecules among `changed`
        for jj, rxn in enumerate(reactions):
            pos = 0
            for name, coeff in rxn.reactant.items():
                idx = slot[registry.index(name)]
                factors[jj, pos : pos + coeff] = idx
                pos += coeff
                if idx < m:
                    order[jj] += coeff
        rows = np.array([slot[idx] for net in nets for idx in net], dtype=np.intp)
        cols = np.array([jj for jj, net in enumerate(nets) for _ in net], dtype=np.intp)
        data = np.array([float(d) for net in nets for d in net.values()])
        k = np.array([rxn.rate for rxn in reactions], dtype=float)
        self.registry = registry
        self.n = len(registry)
        self.species = np.array(changed, dtype=np.intp)
        self.first_order = bool(np.all(order <= 1))
        self._held = np.array(held, dtype=np.intp)
        self._buffer = np.ones(one + 1)
        # One column per nonzero (species row, reaction column) of the net
        # stoichiometry: its coefficient times the rate constant, and its
        # reaction's factor slots, one row per factor.
        self._rows = rows
        self._full_rows = self.species[rows]
        self._coeff = data * k[cols]
        self._net = data
        self._reaction = cols
        self._factors = np.ascontiguousarray(factors[cols].T)
        # One Jacobian entry per factor that reads a changed species: its
        # place in the (factor row, term) table and in the flat block stack.
        pos, term = np.nonzero(self._factors < m)
        self._jac_pick = pos * rows.size + term
        i, j = rows[term], self._factors[pos, term]
        self.blocks = _components(m, i, j)
        size = self.blocks.shape[1]
        where = np.empty(m + 1, dtype=np.intp)  # flat place in the blocks table
        where[self.blocks.ravel()] = np.arange(self.blocks.size)
        self._where = where
        self._jac_index = where[i] * size + where[j] % size

    @cached_property
    def pairs(self) -> Optional["_PairWindow"]:
        return None if self.first_order else _pair_window(self)

    def hold(self, y: np.ndarray) -> None:
        """Take the constant species from the full state ``y``."""
        self._buffer[self.species.size : -1] = y[self._held]

    def _terms(self, factors: np.ndarray) -> np.ndarray:
        gathered = self._buffer.take(factors)
        out = gathered[0] * self._coeff
        for row in gathered[1:]:
            out *= row
        return out

    def __call__(self, x: np.ndarray) -> np.ndarray:
        m = self.species.size
        if x.size == self.n:
            self._buffer[:m] = x[self.species]
            self.hold(x)
            rows, size = self._full_rows, self.n
        else:
            self._buffer[:m] = x
            rows, size = self._rows, m
        return np.bincount(rows, weights=self._terms(self._factors), minlength=size)

    def jacobian(self, z: np.ndarray) -> np.ndarray:
        """Phase-local Jacobian at ``z`` as a ``(B, k, k)`` stack, constants from the last ``hold``.

        Entry (i, k) sums, over the terms of species i, the coefficient times
        every factor but one that reads species k.  Block b holds the rows
        and columns ``blocks[b]``; entries outside the blocks are zero.
        """
        m = self.species.size
        self._buffer[:m] = z
        gathered = self._buffer.take(self._factors)
        partial = np.empty_like(gathered)
        for p in range(len(gathered)):
            partial[p] = self._coeff
            for q in range(len(gathered)):
                if q != p:
                    partial[p] *= gathered[q]
        weights = partial.ravel()[self._jac_pick]
        count, size = self.blocks.shape
        stack = np.bincount(self._jac_index, weights=weights, minlength=count * size * size)
        return stack.reshape(count, size, size)

    def affine(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(A, b)`` of a first-order subset at the held constants.

        The changed species then obey z' = A z + b with A the (constant)
        Jacobian, as a block stack, and b the derivative at z = 0.
        """
        m = self.species.size
        a = self.jacobian(np.zeros(m))  # leaves z = 0 in the buffer
        return a, np.bincount(self._rows, weights=self._terms(self._factors), minlength=m)

    def to_blocks(self, v: np.ndarray) -> np.ndarray:
        """The ``(B, k)`` block layout of a phase-local vector, zero in the padding."""
        return np.append(v, 0.0)[self.blocks]

    def from_blocks(self, v: np.ndarray) -> np.ndarray:
        """The phase-local vector of a ``(B, k)`` block layout."""
        out = np.empty(self.species.size + 1)
        out[self.blocks] = v
        return out[:-1]


def _components(m: int, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Connected components of the pattern (rows, cols) on ``m`` nodes.

    Returns a ``(B, k)`` table, one row per component in the order of its
    lowest node, its nodes in increasing order, padded with ``m`` to the
    largest component's size ``k``.
    """
    root = list(range(m))

    def find(a):
        while root[a] != a:
            root[a] = root[root[a]]
            a = root[a]
        return a

    for a, b in zip(rows.tolist(), cols.tolist()):
        a, b = find(a), find(b)
        if a != b:
            root[max(a, b)] = min(a, b)
    roots = [find(a) for a in range(m)]
    _, label, counts = np.unique(roots, return_inverse=True, return_counts=True)
    table = np.full((counts.size, counts.max(initial=0)), m, dtype=np.intp)
    order = np.argsort(label, kind="stable")
    table[label[order], np.arange(m) - np.repeat(np.cumsum(counts) - counts, counts)] = order
    return table


@dataclass(frozen=True, eq=False)
class _PairWindow:
    """The conserved pairs of a driven pair window and the rows of their logits.

    Pair p is the phase-local species ``num[p]`` and ``den[p]``.  Conversion
    c between the members of pair ``pair[c]`` adds ``coeff[c]`` times its
    held factors (the buffer slots ``held[:, c]``) times the pair's sum to
    the rate of ln(num / den), in the column ``rate_at[c]`` of the flat
    ``(B, k, k)`` system, or to its constant term if ``driven[c]`` is False.
    """

    num: np.ndarray
    den: np.ndarray
    pair: np.ndarray
    coeff: np.ndarray
    held: np.ndarray
    driven: np.ndarray
    rate_at: np.ndarray

    def logit_system(self, kin: Kinetics, z: np.ndarray, a: np.ndarray, f: np.ndarray):
        """Put the logit rows into ``kin``'s affine system ``(a, f)``.

        Returns ``z`` with each pair's starting logit in its ``num`` entry,
        or 0 for a pair with a member at 0.
        """
        top, bottom = z[self.num], z[self.den]
        rate = (top + bottom)[self.pair] * self.coeff * kin._buffer.take(self.held).prod(axis=0)
        np.add.at(a.reshape(-1), self.rate_at[self.driven], rate[self.driven])
        np.add.at(f, self.num[self.pair[~self.driven]], rate[~self.driven])
        live = (top > 0) & (bottom > 0)
        z = z.copy()
        z[self.num] = 0.0
        z[self.num[live]] = np.log(top[live]) - np.log(bottom[live])
        return z

    def members(self, z: np.ndarray, start: np.ndarray) -> None:
        """Replace the end logits in ``z`` by the members s sigma(L) and s sigma(-L);
        a pair with a member at 0 in ``start`` keeps its starting values."""
        top, bottom = start[self.num], start[self.den]
        logit = z[self.num]
        tail = np.exp(-np.abs(logit))
        s = top + bottom
        near, far = s / (1.0 + tail), s * tail / (1.0 + tail)
        up = logit >= 0
        live = (top > 0) & (bottom > 0)
        z[self.num] = np.where(live, np.where(up, near, far), top)
        z[self.den] = np.where(live, np.where(up, far, near), bottom)


def _pair_window(kin: Kinetics) -> Optional[_PairWindow]:
    """The pairs of ``kin``'s subset if it is a driven pair window, else None.

    The subset is one when every reaction with two or more reactant
    molecules among the changed species is a conversion b -> a within a
    pair (a, b): net +1 on a and -1 on b, each a reactant once, catalysed
    by at most one changed species that is in no pair, and by held
    constants; and no other reaction reads or changes a pair member.  Then
    a + b = s stays fixed and d ln(a/b)/dt = s * sum(+-k * held * c), which
    is linear in the first-order drivers c.
    """
    m = kin.species.size
    factors = kin._factors
    changed = factors < m
    order = changed.sum(axis=0)
    conv = np.flatnonzero(order >= 2)
    # A reaction's terms are adjacent and share their factors, so each
    # conversion must be two adjacent terms of one reaction, +1 and -1.
    reaction = kin._reaction[conv]
    if conv.size % 2 or np.any(reaction[0::2] != reaction[1::2]):
        return None
    if np.any(np.diff(reaction[0::2]) <= 0):
        return None
    terms = conv.reshape(-1, 2)
    net = kin._net[terms]
    if np.any(np.abs(net) != 1.0) or np.any(net.sum(axis=1) != 0.0):
        return None
    rows = kin._rows[terms]
    up, down = rows[net > 0], rows[net < 0]
    own = factors[:, terms[:, 0]]
    once = ((own == up).sum(axis=0) == 1) & ((own == down).sum(axis=0) == 1)
    if not np.all(once & (order[terms[:, 0]] <= 3)):
        return None
    catalyst = np.where(changed[:, terms[:, 0]] & (own != up) & (own != down), own, m).min(axis=0)
    keys = np.minimum(up, down) * m + np.maximum(up, down)
    unique = np.unique(keys)
    num, den = unique // m, unique % m
    member = np.zeros(m + 1, dtype=bool)
    member[num] = True
    member[den] = True
    if np.count_nonzero(member) != 2 * unique.size or np.any(member[catalyst]):
        return None
    rest = order < 2
    reads = np.where(changed[:, rest], factors[:, rest], m)
    if np.any(member[kin._rows[rest]]) or np.any(member[reads]):
        return None
    pair = np.searchsorted(unique, keys)
    # each conversion's term on its pair's num member carries the logit's rate
    on_num = np.where(rows[:, 0] == num[pair], terms[:, 0], terms[:, 1])
    size = kin.blocks.shape[1]
    return _PairWindow(
        num=num,
        den=den,
        pair=pair,
        coeff=kin._coeff[on_num],
        held=np.where(changed[:, on_num], kin._buffer.size - 1, factors[:, on_num]),
        driven=catalyst < m,
        rate_at=kin._where[num[pair]] * size + kin._where[catalyst] % size,
    )


@dataclass
class Trajectory:
    """Time-stamped states with optional phase-window boundary markers."""

    registry: SpeciesRegistry
    times: np.ndarray
    states: np.ndarray
    phase_marks: List[Tuple[float, str]] = field(default_factory=list)

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.states = np.asarray(self.states, dtype=float)
        if np.any(np.diff(self.times) < 0):
            raise IntegrationError("trajectory times must be nondecreasing")

    def __len__(self) -> int:
        return len(self.times)

    def series(self, name: str) -> np.ndarray:
        return self.states[:, self.registry.index(name)]

    def state_at(self, i: int) -> State:
        return State(self.registry, self.states[i].copy())

    def final_state(self) -> State:
        return self.state_at(-1)

    def phase_at(self, t: float) -> str:
        label = ""
        for start, phase in self.phase_marks:
            if start <= t:
                label = phase
            else:
                break
        return label

    def boundary_states(self) -> List[Tuple[str, State]]:
        """State at the end of each marked phase window, in order."""
        if not self.phase_marks:
            return []
        out: List[Tuple[str, State]] = []
        starts = [t for t, _ in self.phase_marks]
        ends = starts[1:] + [float(self.times[-1])]
        for (start, phase), end in zip(self.phase_marks, ends):
            idx = int(np.searchsorted(self.times, end, side="right")) - 1
            out.append((phase, self.state_at(idx)))
        return out

    def to_csv(self, path, stride: int = 1) -> None:
        """Write ``time,phase,<species...>`` rows, one per recorded step (or per stride)."""
        if stride < 1:
            raise ValueError("stride must be >= 1")
        keep = list(range(0, len(self.times), stride))
        if keep and keep[-1] != len(self.times) - 1:
            keep.append(len(self.times) - 1)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("time,phase," + ",".join(self.registry.names) + "\n")
            for i in keep:
                t = float(self.times[i])
                row = ",".join(repr(float(v)) for v in self.states[i])
                fh.write(f"{t!r},{self.phase_at(t)},{row}\n")


@dataclass(frozen=True)
class PhaseSchedule:
    """Ordered phase windows, repeated ``cycle_count`` times."""

    phases: Tuple[Tuple[str, float], ...]
    cycle_count: int = 1

    def __post_init__(self):
        for tag, duration in self.phases:
            if duration <= 0:
                raise IntegrationError(f"phase {tag!r} has nonpositive duration {duration}")
        if self.cycle_count < 0:
            raise IntegrationError("cycle_count must be nonnegative")

    @classmethod
    def uniform(cls, tags: Sequence[str], duration: float, cycles: int = 1) -> "PhaseSchedule":
        return cls(tuple((tag, float(duration)) for tag in tags), cycles)


# Dormand-Prince 8(5,3), DOP853 (Hairer, Norsett and Wanner, Solving Ordinary
# Differential Equations I, 2nd ed., Sec. II.10), with the coefficients of
# Hairer's dop853.f as transcribed in SciPy's dop853_coefficients.py (BSD).
# Twelve stages; the eighth-order solution B is propagated, and its derivative
# at the new point is the next step's first stage.  E5 and E3 are B minus the
# embedded fifth- and third-order weights.  Mass-action kinetics does not read
# the time, so the nodes c_i (the row sums of A) are not needed.
_DOP_A = np.zeros((12, 12))
_DOP_A[1, :1] = [5.26001519587677318785587544488e-2]
_DOP_A[2, :2] = [1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2]
_DOP_A[3, [0, 2]] = [2.95875854768068491816892993775e-2, 8.87627564304205475450678981324e-2]
_DOP_A[4, [0, 2, 3]] = [
    2.41365134159266685502369798665e-1, -8.84549479328286085344864962717e-1,
    9.24834003261792003115737966543e-1,
]
_DOP_A[5, [0, 3, 4]] = [
    3.7037037037037037037037037037e-2, 1.70828608729473871279604482173e-1,
    1.25467687566822425016691814123e-1,
]
_DOP_A[6, [0, 3, 4, 5]] = [
    3.7109375e-2, 1.70252211019544039314978060272e-1, 6.02165389804559606850219397283e-2,
    -1.7578125e-2,
]
_DOP_A[7, [0, 3, 4, 5, 6]] = [
    3.70920001185047927108779319836e-2, 1.70383925712239993810214054705e-1,
    1.07262030446373284651809199168e-1, -1.53194377486244017527936158236e-2,
    8.27378916381402288758473766002e-3,
]
_DOP_A[8, [0, 3, 4, 5, 6, 7]] = [
    6.24110958716075717114429577812e-1, -3.36089262944694129406857109825,
    -8.68219346841726006818189891453e-1, 2.75920996994467083049415600797e1,
    2.01540675504778934086186788979e1, -4.34898841810699588477366255144e1,
]
_DOP_A[9, [0, 3, 4, 5, 6, 7, 8]] = [
    4.77662536438264365890433908527e-1, -2.48811461997166764192642586468,
    -5.90290826836842996371446475743e-1, 2.12300514481811942347288949897e1,
    1.52792336328824235832596922938e1, -3.32882109689848629194453265587e1,
    -2.03312017085086261358222928593e-2,
]
_DOP_A[10, [0, 3, 4, 5, 6, 7, 8, 9]] = [
    -9.3714243008598732571704021658e-1, 5.18637242884406370830023853209,
    1.09143734899672957818500254654, -8.14978701074692612513997267357,
    -1.85200656599969598641566180701e1, 2.27394870993505042818970056734e1,
    2.49360555267965238987089396762, -3.0467644718982195003823669022,
]
_DOP_A[11, [0, 3, 4, 5, 6, 7, 8, 9, 10]] = [
    2.27331014751653820792359768449, -1.05344954667372501984066689879e1,
    -2.00087205822486249909675718444, -1.79589318631187989172765950534e1,
    2.79488845294199600508499808837e1, -2.85899827713502369474065508674,
    -8.87285693353062954433549289258, 1.23605671757943030647266201528e1,
    6.43392746015763530355970484046e-1,
]
_DOP_B = np.zeros(12)
_DOP_B[[0, 5, 6, 7, 8, 9, 10, 11]] = [
    5.42937341165687622380535766363e-2, 4.45031289275240888144113950566,
    1.89151789931450038304281599044, -5.8012039600105847814672114227,
    3.1116436695781989440891606237e-1, -1.52160949662516078556178806805e-1,
    2.01365400804030348374776537501e-1, 4.47106157277725905176885569043e-2,
]
_DOP_E5 = np.zeros(12)
_DOP_E5[[0, 5, 6, 7, 8, 9, 10, 11]] = [
    0.1312004499419488073250102996e-1, -0.1225156446376204440720569753e1,
    -0.4957589496572501915214079952, 0.1664377182454986536961530415e1,
    -0.3503288487499736816886487290, 0.3341791187130174790297318841,
    0.8192320648511571246570742613e-1, -0.2235530786388629525884427845e-1,
]
_DOP_E3 = _DOP_B.copy()
_DOP_E3[[0, 8, 11]] -= [
    0.244094488188976377952755905512, 0.733846688281611857341361741547,
    0.220588235294117647058823529412e-1,
]


# Padé-13 numerator coefficients and the 1-norm bound below which degree 13
# needs no scaling (Higham 2005, Table 2.3).
_PADE13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0, 1187353796428800.0,
    129060195264000.0, 10559470521600.0, 670442572800.0, 33522128640.0,
    1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0,
)
_THETA13 = 5.371920351148152

def _expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring with a degree-13 Padé approximant.

    ``a`` is one matrix or a stack ``(..., k, k)`` of them; a stack takes
    the scaling of its largest 1-norm.  A stack with a non-finite entry gets
    an all-NaN result.
    """
    norm = float(np.abs(a).sum(axis=-2).max(initial=0.0))
    ident = np.eye(a.shape[-1])
    if norm == 0.0:
        return np.broadcast_to(ident, a.shape).copy()
    if not np.isfinite(norm):
        return np.full(a.shape, np.nan)
    s = max(0, int(np.ceil(np.log2(norm / _THETA13))))
    a = a / 2.0**s
    b = _PADE13
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2) + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
    v = a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2) + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident
    r = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        r = r @ r
    return r


def _block_expm(kin: Kinetics, a: np.ndarray, f: np.ndarray, tau: float) -> np.ndarray:
    """The stacked exponential of [[tau A_b, tau f_b], [0, 0]] over ``kin``'s blocks."""
    count, size = kin.blocks.shape
    aug = np.zeros((count, size + 1, size + 1))
    np.multiply(a, tau, out=aug[:, :size, :size])
    aug[:, :size, size] = kin.to_blocks(f) * tau
    return _expm(aug)


def _species_name(kin: Kinetics, v: np.ndarray, i: int) -> str:
    """Name of entry ``i`` of a full-length or phase-local vector ``v`` of ``kin``."""
    return kin.registry.names[i if v.size == kin.n else int(kin.species[i])]


def _underflow(kin: Kinetics, t: float, f: np.ndarray) -> IntegrationError:
    fastest = _species_name(kin, f, int(np.argmax(np.abs(f))))
    return IntegrationError(
        f"step size underflow at t={t:.6g} (stiffness); fastest-changing species {fastest!r}"
    )


def _rms(v: np.ndarray, n: int) -> float:
    """RMS over a state of ``n`` species whose other entries are zero."""
    return float(np.sqrt(np.add.reduce(v * v) / n))


def _error_norm(e5: np.ndarray, e3: np.ndarray, n: int) -> float:
    """DOP853's combined norm of the scaled error estimates over a state of ``n`` species.

    ``e5`` and ``e3`` are the fifth- and third-order estimates (step size
    included) divided by the error scale; entries outside them are zero.
    The norm is ||e5||^2 / sqrt(n (||e5||^2 + 0.01 ||e3||^2)), Hairer's form,
    which behaves like an eighth-order estimate.
    """
    sq5 = float(np.add.reduce(e5 * e5))
    if sq5 == 0.0:
        return 0.0
    return sq5 / float(np.sqrt(n * (sq5 + 0.01 * float(np.add.reduce(e3 * e3)))))


def _advance(
    kin: Kinetics,
    y: np.ndarray,
    t0: float,
    duration: float,
    cfg: IntegratorConfig,
    on_step: Optional[Callable[[float, np.ndarray, np.ndarray], bool]] = None,
    full: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, float, bool]:
    """Integrate ``y`` from ``t0`` to ``t0 + duration`` with DOP853 steps.

    ``y`` is a full state, or the part ``full[kin.species]`` of the full
    state ``full``.  The error and initial-step norms are taken over the
    full state either way, so a phase-local run takes the steps a
    full-state run takes.  Returns ``(y, t_reached, stopped_early)``;
    ``on_step(t, y, f)`` sees every accepted step and returns True to end
    the run early.  A run that is not stopped early ends exactly at
    ``t0 + duration``.
    """
    if duration <= 0:
        return y, t0, False
    n = y.size if full is None else full.size
    t_end = t0 + duration
    t = t0
    f = kin(y)
    h = _initial_step(y if full is None else full, y, f, duration, cfg)
    h_min = max(duration * _MIN_STEP_FRACTION, 1e-300)
    stages = np.empty((12, y.size))
    stages[0] = f
    while t < t_end:
        h = min(h, t_end - t)
        if h < h_min:
            raise _underflow(kin, t, stages[0])
        for i in range(1, 12):
            stages[i] = kin(y + h * (_DOP_A[i, :i] @ stages[:i]))
        y_new = y + h * (_DOP_B @ stages)
        scale = cfg.abs_tol + cfg.rel_tol * np.maximum(np.abs(y), np.abs(y_new))
        err = _error_norm(h * (_DOP_E5 @ stages) / scale, h * (_DOP_E3 @ stages) / scale, n)
        lowest = float(y_new.min(initial=0.0))
        if err > 1.0 or lowest < -cfg.abs_tol:
            h *= 0.5 if err <= 1.0 else max(0.2, 0.9 * err**-0.125)
            continue
        if lowest < 0:
            np.clip(y_new, 0.0, None, out=y_new)
        t = min(t + h, t_end)
        y = y_new
        stages[0] = kin(y)  # the next step's first stage
        if on_step is not None and on_step(t, y, stages[0]):
            return y, t, True
        h *= min(5.0, 0.9 * err**-0.125) if err > 0 else 5.0
    return y, t, False


def _initial_step(
    full: np.ndarray, y: np.ndarray, f: np.ndarray, duration: float, cfg: IntegratorConfig
) -> float:
    """Starting step from the full state ``full`` and the derivative ``f`` of its part ``y``."""
    d0 = _rms(full / (cfg.abs_tol + cfg.rel_tol * np.abs(full)), full.size)
    d1 = _rms(f / (cfg.abs_tol + cfg.rel_tol * np.abs(y)), full.size)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    return min(h0, duration)


def _closed_form(kin: Kinetics, z: np.ndarray, duration: float, cfg: IntegratorConfig) -> np.ndarray:
    """End state of a first-order or pair window from ``z``, by the blockwise augmented exponential.

    In a pair window the conversions vanish from the affine system at
    z = 0, so each pair's ``num`` row is free to carry its logit, whose
    rate is linear in the drivers; the members are read back from it.
    """
    size = kin.blocks.shape[1]
    a, f = kin.affine()
    start, pairs = z, kin.pairs
    if pairs is not None:
        z = pairs.logit_system(kin, z, a, f)
    expo = _block_expm(kin, a, f, duration)
    end = (expo[:, :size, :size] @ kin.to_blocks(z)[..., None])[..., 0] + expo[:, :size, size]
    z = kin.from_blocks(end)
    if pairs is not None:
        pairs.members(z, start)
    if not np.all(np.isfinite(z)):
        raise IntegrationError("closed-form window produced a non-finite state")
    if z.min(initial=0.0) < -cfg.abs_tol:
        lowest = int(np.argmin(z))
        raise IntegrationError(
            f"closed-form window ended negative ({z[lowest]:.3g}) on species "
            f"{_species_name(kin, z, lowest)!r}"
        )
    np.clip(z, 0.0, None, out=z)
    return z


def _exp_euler(kin: Kinetics, z: np.ndarray, f: np.ndarray, tau: float) -> np.ndarray:
    """One exponential Rosenbrock-Euler step z + tau phi1(tau J(z)) f(z), block by block."""
    size = kin.blocks.shape[1]
    return z + kin.from_blocks(_block_expm(kin, kin.jacobian(z), f, tau)[:, :size, size])


def _settle_jump(
    kin: Kinetics, z: np.ndarray, f: np.ndarray, tau: float, cfg: IntegratorConfig, n: int
) -> Optional[np.ndarray]:
    """End state of the last ``tau`` of a window in one checked jump, or None.

    One exponential Rosenbrock-Euler step of length ``tau`` from ``z``
    (derivative ``f``) is compared with two of ``tau / 2``, the second
    relinearized.  The two-step result is taken when the RMS of the
    difference, scaled by the steps' error scale over the ``n``-species
    state, is at most 1, it is finite and no entry is below ``-abs_tol``.
    A linearization with an unstable direction overflows; that is a
    refusal, not an error.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        whole = _exp_euler(kin, z, f, tau)
        half = _exp_euler(kin, z, f, tau / 2)
        end = _exp_euler(kin, half, kin(half), tau / 2)
        scale = cfg.abs_tol + cfg.rel_tol * np.maximum(np.abs(z), np.abs(end))
        err = _rms((end - whole) / scale, n)
    if not err <= 1.0 or not np.all(np.isfinite(end)) or end.min(initial=0.0) < -cfg.abs_tol:
        return None
    np.clip(end, 0.0, None, out=end)
    return end


class _SettleTries:
    """An ``on_step`` test that ends a stepped run by ``_settle_jump`` over its rest.

    The run covers ``[t0, t0 + duration]``.  The first jump is tried once
    ``_FIRST_TRY`` of it has elapsed, the next each time the elapsed time
    has grown by ``_TRY_GROWTH``.  A jump whose end also passes ``accept``
    ends the run; ``end`` then holds its end state.
    """

    def __init__(self, kin, t0, duration, cfg, n, accept=None):
        self.kin, self.t0, self.t_end, self.cfg, self.n = kin, t0, t0 + duration, cfg, n
        self.accept = accept
        self.next_try = duration * _FIRST_TRY
        self.end: Optional[np.ndarray] = None

    def __call__(self, t: float, z: np.ndarray, f: np.ndarray) -> bool:
        if t - self.t0 < self.next_try or t >= self.t_end:
            return False
        self.next_try = _TRY_GROWTH * (t - self.t0)
        end = _settle_jump(self.kin, z, f, self.t_end - t, self.cfg, self.n)
        if end is None or (self.accept is not None and not self.accept(end)):
            return False
        self.end = end
        return True


def run_window(
    kin: Kinetics,
    y: np.ndarray,
    t0: float,
    duration: float,
    cfg: IntegratorConfig,
    on_step: Optional[Callable[[float, np.ndarray], None]] = None,
) -> Tuple[np.ndarray, float]:
    """One phase window of ``kin``'s reactions from the full state ``y``.

    Returns ``(y_end, t_end)``, a new full state in which only
    ``kin.species`` have moved.  A first-order subset (no reaction has more
    than one reactant molecule among the species it changes) and a driven
    pair window (``kin.pairs``, whose conversions keep each pair's sum
    fixed) are solved in closed form.  Any other subset takes DOP853 steps
    on its changed species alone and tries to end early with
    ``_settle_jump`` on the schedule that ``_FIRST_TRY`` and ``_TRY_GROWTH``
    set.
    ``on_step(t, y)`` sees the full state after every step, once at the
    end of a closed-form window, and once for the jumped rest of a window.
    """
    y = y.copy()
    if duration <= 0:
        return y, t0
    idx = kin.species
    t_end = t0 + duration
    kin.hold(y)
    if kin.first_order or kin.pairs is not None:
        y[idx] = _closed_form(kin, y[idx], duration, cfg)
        if on_step is not None:
            on_step(t_end, y)
        return y, t_end

    tries = _SettleTries(kin, t0, duration, cfg, y.size)

    def observe(t, z, f):
        if on_step is not None:
            y[idx] = z
            on_step(t, y)
        return tries(t, z, f)

    z, t, _ = _advance(kin, y[idx], t0, duration, cfg, observe, full=y)
    if tries.end is not None:
        z, t = tries.end, t_end
        if on_step is not None:
            y[idx] = z
            on_step(t, y)
    y[idx] = z
    return y, t


def integrate(
    crn: Crn,
    x0: State,
    duration: float,
    cfg: Optional[IntegratorConfig] = None,
) -> Trajectory:
    """Integrate the full network for ``duration`` time units from ``x0``."""
    if not 0 < duration < np.inf:
        raise IntegrationError(f"duration must be positive and finite, got {duration}")
    cfg = cfg or IntegratorConfig()
    kin = Kinetics(crn)
    times = [0.0]
    states = [x0.values.copy()]

    def keep(t, y, f):
        times.append(t)
        states.append(y.copy())
        return False

    _advance(kin, x0.values.copy(), 0.0, duration, cfg, keep)
    return Trajectory(crn.registry, np.array(times), np.array(states))


def integrate_to_equilibrium(
    crn: Crn,
    x0: State,
    residual_tol: float,
    max_time: float,
    cfg: Optional[IntegratorConfig] = None,
) -> Tuple[State, bool, float]:
    """Run until the sup-norm of the derivative falls below ``residual_tol``.

    Returns ``(state, converged, elapsed)``.  The residual criterion (rather
    than a state delta) avoids false triggers on slowly drifting manifolds.
    Near a stable equilibrium the steps jitter at a residual floor of their
    own, which may lie above ``residual_tol``, so the run also tries
    ``_settle_jump`` over the rest of ``max_time`` on the schedule of a
    stepped window and stops at the first jump whose end state has a
    residual below ``residual_tol``; that end state is returned.
    ``elapsed`` is the time of the step that met the criterion or, after a
    jump, the time the jump started from.
    """
    if not residual_tol > 0:
        raise IntegrationError(f"residual_tol must be positive, got {residual_tol}")
    if not 0 < max_time < np.inf:
        raise IntegrationError(f"max_time must be positive and finite, got {max_time}")
    cfg = cfg or IntegratorConfig()
    kin = Kinetics(crn)
    y = x0.values.copy()
    idx = kin.species
    kin.hold(y)

    def residual(f):
        return float(np.max(np.abs(f), initial=0.0))

    if residual(kin(y[idx])) < residual_tol:
        return State(crn.registry, y), True, 0.0
    tries = _SettleTries(kin, 0.0, max_time, cfg, y.size, lambda end: residual(kin(end)) < residual_tol)

    def settled(t, z, f):
        return residual(f) < residual_tol or tries(t, z, f)

    z, t, stopped = _advance(kin, y[idx], 0.0, max_time, cfg, settled, full=y)
    y[idx] = z if tries.end is None else tries.end
    return State(crn.registry, y), stopped, t


class PhasedExecutor:
    """Idealized phase windows: one cycle runs ``run_window`` over each (tag, duration) pair.

    ``program`` needs a ``crn`` attribute and a ``phase_index`` mapping of
    phase tag to reaction indices.  One ``Kinetics`` is built per tag, once.
    ``boundaries`` maps each tag to the state at the end of its (last)
    window in the cycle.
    """

    def __init__(
        self, program, phases: Iterable[Tuple[str, float]], cfg: Optional[IntegratorConfig] = None
    ):
        self.cfg = cfg or IntegratorConfig()
        self.registry = program.crn.registry
        phases = PhaseSchedule(tuple(phases)).phases  # checks the durations
        kinetics: Dict[str, Kinetics] = {}
        for tag, _ in phases:
            if tag not in program.phase_index:
                raise CrnError(f"schedule names unknown phase {tag!r}")
            if tag not in kinetics:
                kinetics[tag] = Kinetics(program.crn, program.phase_index[tag])
        self._windows = [(tag, duration, kinetics[tag]) for tag, duration in phases]

    def initial_values(self, x0: State) -> np.ndarray:
        return x0.values.copy()

    def run_cycle(
        self, y: np.ndarray, t: float, on_step: Optional[Callable[[float, np.ndarray], None]] = None
    ) -> Tuple[np.ndarray, float, Dict[str, State]]:
        boundaries: Dict[str, State] = {}
        for tag, duration, kin in self._windows:
            y, t = run_window(kin, y, t, duration, self.cfg, on_step)
            boundaries[tag] = State(self.registry, y.copy())
        return y, t, boundaries


def run_phased(
    program,
    x0: State,
    schedule: PhaseSchedule,
    cfg: Optional[IntegratorConfig] = None,
    record: str = "all",
) -> Trajectory:
    """Execute a phased program: each window integrates only its phase's reactions.

    ``program`` is as for ``PhasedExecutor``.  State carries over across
    windows and a phase mark is recorded at each window start.  ``record``
    is ``"all"`` (every step, see ``run_window``) or ``"boundaries"``
    (window endpoints only).
    """
    if record not in ("all", "boundaries"):
        raise ValueError(f"unknown record mode {record!r}")
    executor = PhasedExecutor(program, schedule.phases, cfg)
    times = [0.0]
    states = [x0.values.copy()]
    marks: List[Tuple[float, str]] = []
    ends = set()

    def keep(t, y):
        if record == "all" or t in ends:
            times.append(t)
            states.append(y.copy())

    y, t = executor.initial_values(x0), 0.0
    for _ in range(schedule.cycle_count):
        # run_window ends each window exactly at its start plus its duration
        end = t
        for tag, duration in schedule.phases:
            marks.append((end, tag))
            end += duration
            ends.add(end)
        y, t, _ = executor.run_cycle(y, t, keep)
    return Trajectory(program.crn.registry, np.array(times), np.array(states), marks)


def _combine_with_clock(program, osc):
    """Union of a program and its gating clock ring.

    Returns ``(combined_crn, clock_map)``: every program reaction is gated
    by the clock species assigned to its phase, and the ring reactions are
    appended untagged.
    """
    from . import oscillator as osc_mod

    clock_map = osc_mod.assign_phases(program, osc)
    ring = osc_mod.build_oscillator(osc)
    base = program.crn
    names = tuple(base.registry.names) + tuple(ring.registry.names)
    roles = base.registry.roles
    roles.update(ring.registry.roles)
    registry = SpeciesRegistry(names, roles)
    reactions = [add_catalyst(r, clock_map[r.phase]) for r in base.reactions]
    reactions.extend(ring.reactions)
    return Crn(registry, reactions), clock_map


class OscillatorExecutor:
    """Clock-driven cycles of a program gated by its clock ring.

    The state vector is the program's species followed by the clock's.  A
    phase's window ends when its clock species falls back through the
    on-threshold; ``boundaries`` holds the state at that step.  A cycle
    ends when the first phase's clock rises through the threshold again,
    and fails if that takes longer than ``budget`` or a phase's clock never
    fell.
    """

    def __init__(self, program, osc, cfg: Optional[IntegratorConfig] = None):
        from . import oscillator as osc_mod

        self.cfg = cfg or IntegratorConfig()
        crn, clock_map = _combine_with_clock(program, osc)
        self.registry = crn.registry
        self._kinetics = Kinetics(crn)
        self.phases = tuple(program.phases)
        self.phase_of = {clock: phase for phase, clock in clock_map.items()}
        self._threshold = osc_mod.threshold_value(osc)
        self._clocks = [self.registry.index(clock_map[p]) for p in self.phases]
        self._clock_init = osc_mod.initial_concentrations(osc)
        # Each handoff takes about ln(mass/floor) / (k_o * mass) time units;
        # floors deepen over revolutions, so leave generous slack.
        mass = float(np.sum(self._clock_init))
        self.budget = osc.count * 60.0 / max(osc.rate * mass, 1e-9) + 100.0

    def initial_values(self, x0: State) -> np.ndarray:
        return np.concatenate([x0.values, self._clock_init])

    def run_cycle(
        self, y: np.ndarray, t: float, on_step: Optional[Callable[[float, np.ndarray], None]] = None
    ) -> Tuple[np.ndarray, float, Dict[str, State]]:
        clocks, thr = self._clocks, self._threshold
        first = clocks[0]
        boundaries: Dict[str, State] = {}
        prev = y  # the stepper makes a new array per step, so no copy is needed

        def watch(t_now, y_now, f):
            nonlocal prev
            if on_step is not None:
                on_step(t_now, y_now)
            # Falling edges arrive in phase order: watch only the next one.
            k = len(boundaries)
            while k < len(clocks) and prev[clocks[k]] >= thr > y_now[clocks[k]]:
                boundaries[self.phases[k]] = State(self.registry, y_now.copy())
                k += 1
            risen = prev[first] < thr <= y_now[first]
            prev = y_now
            return risen

        y, t, stopped = _advance(self._kinetics, y.copy(), t, self.budget, self.cfg, watch)
        if not stopped:
            raise IntegrationError(
                f"clock pulse did not return within time budget {self.budget:.0f}"
            )
        missing = [p for p in self.phases if p not in boundaries]
        if missing:
            raise IntegrationError(f"no clock window observed for phases {missing}")
        return y, t, boundaries


def run_oscillator(
    program,
    x0: State,
    osc,
    cycles: int,
    cfg: Optional[IntegratorConfig] = None,
    record: str = "all",
) -> Trajectory:
    """Execute a program with clock-species gating instead of idealized windows.

    Runs ``cycles`` cycles of an ``OscillatorExecutor``.  ``record`` is
    ``"all"`` (every step; phase marks are recovered from clock dominance
    windows) or ``"boundaries"`` (the end of each cycle only).
    """
    from . import oscillator as osc_mod

    if cycles < 1:
        raise IntegrationError("cycles must be >= 1")
    if record not in ("all", "boundaries"):
        raise ValueError(f"unknown record mode {record!r}")
    executor = OscillatorExecutor(program, osc, cfg)
    y, t = executor.initial_values(x0), 0.0
    times = [t]
    states = [y.copy()]

    def keep(t_now, y_now):
        times.append(t_now)
        states.append(y_now.copy())

    for _ in range(cycles):
        y, t, _ = executor.run_cycle(y, t, keep if record == "all" else None)
        if record != "all":
            keep(t, y)
    traj = Trajectory(executor.registry, np.array(times), np.array(states))
    if record == "all":
        traj.phase_marks = [
            (start, executor.phase_of[clock])
            for clock, start, _ in osc_mod.phase_windows(traj, osc)
            if clock in executor.phase_of
        ]
    return traj

"""Numerical integration of mass-action kinetics, plain and phased.

One integrator is provided: the adaptive Dormand-Prince 8(5,3) pair
(DOP853; Hairer, Norsett and Wanner, Solving Ordinary Differential
Equations I, Sec. II.10), with the closed forms of phase windows described
below.  Mass-action concentrations are provably nonnegative, so tiny
negative overshoots of a stepped concentration (below ``abs_tol``) are
clamped to zero; larger ones force a step rejection, as does a trial step
whose end state or error estimate is not finite.  The oscillator's clocks
are stepped as their logarithms, which neither rule touches (see below).

Phased execution runs each scheduled window through ``run_window``, which
integrates only the reaction subset tagged with the active phase and only
the species that subset changes; every other species is a constant for
the window.  A first-order window (no reaction has more than one reactant
molecule among the changed species) is linear, z' = Az + b.  So is a
driven pair window, in its logits.  There every reaction with more
than one changed reactant molecule converts one member of a pair (a, b)
into the other, reads each member once and at most one other changed
species c (a driver), and nothing else reads or changes a pair member.
The conversions move a and b by equal and opposite amounts, so a + b = s
stays fixed, and the logit L = ln(a/b) obeys L' = s * sum(+-k * c),
linear in the first-order drivers; the window ends at a = s sigma(L),
b = s sigma(-L), and a pair with a member at 0 does not move.  The
logistic windows O13 and O21 are of this kind.  Where the subset's
structure makes every row an own row, which reads only its own species
(z' = d z + b), or an integrator row, which has no rate term and reads
only own rows without a constant term (a logit reading decaying drivers
is one), the window has a one-level plan (``Kinetics.plan``, found on
first use, like ``pairs``) and is solved species by species: an own row
ends at e^(d tau) z + tau phi1(d tau) b, and an integrator row adds to its
start tau b plus the exact integral of each decaying row it reads.  No
rate value enters that classification, so a term whose held factor is 0
still counts.  Decays, transfers c -> ct and the logistic pairs are of
these kinds.

A window without pairs whose rows order into levels gets a cascade plan
instead (``_cascade``), first order or not: each row decays at its own
held rate d_i, and is driven by held constants and by products of at most
two species on earlier levels.  The error readout O23 is one: its rails
and the error are catalytic products of the label, its complement, the
stored output and the output complement, each decaying at rate 1, and the
judgment's companion reads the error squared.  So is the gradient phase
O27: every product and rail decays at the gate's rate, and the hidden
delta reads the product of the output delta and a weighted activation.
Each species then ends as a sum of exponential polynomials, written as
basis functions E_B(tau) = tau^n exp[tau b_0, ..., tau b_n], the divided
differences of the exponential at nodes b that are sums of the rows'
rates (phi functions: tau phi1(d tau) = E_(d, 0)); integrating a row
against e^(d_i (tau - s)) appends the node d_i, and a product of two
bases is a sum of bases.  The bases and their coefficients' structure are
found once per ``Kinetics``; a window gathers its held values and
evaluates each basis by a Taylor series where its nodes cluster and by
the divided-difference recurrence where they spread (McCurdy, Ng and
Parlett, Math. Comp. 1984), so equal, nearly equal and zero rates keep
full accuracy.  A window is solved in closed form exactly when it has a
plan; every window of the compiled programs but the judgment has one and
ends exact to rounding however long it is.  A closed-form end state below
``-abs_tol`` is an error; smaller negatives are clamped.

The bistable judgment O25 (``compiler.Judgment``) has no such plan, but
each sample slot settles at the stable point on its start's side of the
saddle e*.  Its basin plan (``_basin``) has a ball about each stable point
inside which the flow contracts, and per side a tightly stepped chain from
just off e*, which the order-keeping flow makes monotone: a slot between a
chain sample and its point enters the ball no later than the chain.  A
window ends in closed form once every slot certifies within ``abs_tol``,
from its start or at a try between steps; otherwise it is stepped to its
end and reported unsettled.

Any other window, such as a reversible a <-> b or a ring of transfers
whose rows read each other in a cycle, is stepped by DOP853 on its changed
species for its whole length, with the error norm still taken over the
full state, and is reported unsettled; so is a whole network, as the
window of ``Kinetics(crn)``.  Its cost grows with its length, so a very
long unplanned window is not a supported input.

A program runs cycle by cycle through one of two executors with the same
interface: ``initial_values(x0)`` gives the starting state vector and
``run_cycle(y, t, on_step=None)`` returns ``(y, t, boundaries)``, the state
and time at the end of one cycle and, per phase tag, the state at the end
of that phase's (last) window; ``on_step(t, y)`` sees every step of the
path the returned state took, in increasing t.  The executor alone decides
where a window ends, and keeps the (tag, time, state) of every window end
of its last cycle, in order, as ``ends``.
``PhasedExecutor`` runs idealized windows, one ``run_window`` per
scheduled (tag, duration) pair.  ``OscillatorExecutor`` simulates the full
network with every program reaction gated by its phase's clock species
(the clocked phases of Vasić, Soloveichik and Khurshid, CRN++, Natural
Computing 2020); a window ends when its clock falls through the
on-threshold and a cycle ends when the first phase's clock rises again.
A phase so gated does the work of an idealized window of about
ln(1/floor) / rate, the handoff time of its ring.  The executor steps
each clock o as z = ln o.  The ring o_i + o_{i+1} -> 2 o_{i+1}
then reads dz_i/dt = k (o_{i-1} - o_{i+1}), and sum(z) is a linear
invariant, which Runge-Kutta steps keep to rounding (Hairer, Lubich and
Wanner, Geometric Numerical Integration, Sec. IV.1); a clock in a trough
far below ``abs_tol`` keeps its relative accuracy and is never clamped to
0, where it could not rise again.  A trial step whose clocks overflow exp
is rejected like any other non-finite one, without a warning, since each
stepper call runs under one numpy error state that ignores overflow.  The
states it hands out hold o.
``run_phased`` and ``run_oscillator`` share one recorder over their
executor's ``run_cycle``: it keeps every step as a full-length state,
marks each window from the end of the one before it, and keeps the state
the executor ended each window on, so a ``Trajectory``'s windows are the
executor's own.  Every caller, a whole network included, steps only the
species that change.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from . import oscillator as osc_mod
from .analysis import bistable_equilibria, contraction_ball
from .crn import Complex, Crn, CrnError, Reaction, SpeciesRegistry, State, add_catalyst

__all__ = [
    "IntegrationError",
    "IntegratorConfig",
    "Trajectory",
    "PhaseSchedule",
    "Kinetics",
    "integrate",
    "run_window",
    "PhasedExecutor",
    "OscillatorExecutor",
    "run_phased",
    "run_oscillator",
]

_MIN_STEP_FRACTION = 1e-14
# A judgment window tries its basin plan from its start, then once this
# fraction of its length, but at most _FIRST_TRY_CAP time units, has elapsed,
# then each time the elapsed time has grown by _TRY_GROWTH.  The cap is the
# first try of a 200-unit window: a module settles on its own time scale, so
# a longer window need not step longer before its first try.
_FIRST_TRY = 1 / 32
_FIRST_TRY_CAP = 6.25
_TRY_GROWTH = 2.0


class IntegrationError(RuntimeError):
    """Numerical failure (step-size underflow, invalid configuration)."""


@dataclass(frozen=True)
class IntegratorConfig:
    """Error tolerances of the DOP853 steps.

    They apply to the full-network integrations, to the phase windows that
    take steps and, by ``abs_tol``, to a judgment's basin plan.  Windows
    with a plan (see the module docstring) are solved in closed form, where
    ``abs_tol`` only bounds the negative end values that are clamped to zero.
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
    The term tables are sliced from the network's per-reaction index tables
    (``Crn.net_pairs``, ``Crn.reactant_pairs`` and ``Crn.rates``), in
    reaction order and, within a reaction, in ``Reaction.net`` and
    ``Complex.items`` order.

    Called with ``x[species]`` it returns the derivative of those species,
    reading the constants from the last ``hold``.

    ``stage`` is a view of the buffer's changed-species slice.  A caller
    that writes its input there (the DOP853 stages do) and calls
    ``kin(kin.stage)`` saves the copy into the buffer; every evaluation
    still goes through ``__call__``.

    ``pairs`` is the ``_PairWindow`` of a subset that is a driven pair
    window (see ``_pair_window``) and None otherwise.  ``plan`` is the
    ``_Plan`` of a first-order or pair window whose rows are all own rows
    or integrator rows, or of a cascade, classified from the subset's
    structure alone (see ``_plan``), and None otherwise.  Both are found on
    first use, so a ``Kinetics`` that no phase window reads never pays for
    them.
    ``phases`` lists the phase tags of the subset's reactions, for messages.
    ``settled`` tells whether the last window ``run_window`` ran on the
    subset ended settled, by its plan or a judgment's basin plan (None
    before the first); a window that is stepped to its end is not.
    ``linear`` is the slice of the changed species that are stepped as
    concentrations, all of them here (see ``_LogClockKinetics``).
    """

    linear = slice(None)
    settled: Optional[bool] = None

    def __init__(self, crn: Crn, reaction_indices: Optional[Sequence[int]] = None):
        registry = crn.registry
        if reaction_indices is None:
            picked = np.arange(crn.n_reactions)
        else:
            picked = np.asarray(reaction_indices, dtype=np.intp).reshape(-1)
        # the subset's rows of the network's per-reaction index tables
        cols, changes, data = crn.net_pairs.gather(picked)
        owner, reads, counts = crn.reactant_pairs.gather(picked)
        is_changed, is_held = np.zeros((2, len(registry)), dtype=bool)
        is_changed[changes] = True
        is_held[reads] = True
        changed, held = np.flatnonzero(is_changed), np.flatnonzero(is_held & ~is_changed)
        m = changed.size
        one = m + held.size  # the constant-1 slot
        slot = np.empty(len(registry), dtype=np.intp)
        slot[changed] = np.arange(m)
        slot[held] = np.arange(m, one)
        # one factor per reactant molecule, in each reaction's reactant order
        molecule = np.repeat(owner, counts)
        factor = np.repeat(slot[reads], counts)
        size = np.bincount(molecule, minlength=picked.size)
        factors = np.full((picked.size, max(int(size.max(initial=0)), 1)), one, dtype=np.intp)
        factors[molecule, np.arange(molecule.size) - (np.cumsum(size) - size)[molecule]] = factor
        order = np.bincount(molecule[factor < m], minlength=picked.size)  # reactant molecules among `changed`
        rows = slot[changes]
        data = data.astype(float)
        k = crn.rates[picked]
        self.registry = registry
        reactions = crn.reactions
        self.phases = tuple(dict.fromkeys(reactions[j].phase for j in picked.tolist()
                                          if reactions[j].phase is not None))
        self.species = changed
        self.first_order = bool(np.all(order <= 1))
        self._held = held
        self._buffer = np.ones(one + 1)
        self.stage = self._buffer[:m]
        # One column per nonzero (species row, reaction column) of the net
        # stoichiometry: its coefficient times the rate constant, and its
        # reaction's factor slots, one row per factor; the term table holds
        # the coefficients, then the gathered factors.
        self._rows = rows
        self._coeff = data * k[cols]
        self._net = data
        self._reaction = cols
        self._factors = np.ascontiguousarray(factors[cols].T)
        self._table = np.empty((factors.shape[1] + 1, rows.size))
        self._table[0] = self._coeff
        self._gathered = self._table[1:]
        self._terms = np.empty(rows.size)

    @cached_property
    def pairs(self) -> Optional["_PairWindow"]:
        return None if self.first_order else _pair_window(self)

    @cached_property
    def plan(self) -> Optional["_Plan"]:
        return _plan(self)

    def hold(self, y: np.ndarray) -> None:
        """Take the constant species from the full state ``y``."""
        self._buffer[self.species.size : -1] = y[self._held]

    def _derivative(self) -> np.ndarray:
        """The phase-local derivative at the changed species in the buffer."""
        self._buffer.take(self._factors, out=self._gathered, mode="clip")
        np.multiply.reduce(self._table, axis=0, out=self._terms)
        return np.bincount(self._rows, weights=self._terms, minlength=self.species.size)

    def __call__(self, z: np.ndarray) -> np.ndarray:
        if z is not self.stage:
            self.stage[:] = z
        return self._derivative()

@dataclass(frozen=True, eq=False)
class _PairWindow:
    """The conserved pairs of a driven pair window and the rows of their logits.

    Pair p is the phase-local species ``num[p]`` and ``den[p]``.  Conversion
    c between the members of pair ``pair[c]`` adds its term ``term[c]`` on
    ``num``, with the changed factors at 1, times the pair's sum to the rate
    of ln(num / den), per unit of its changed catalyst ``catalyst[c]``, or
    as a constant term if ``catalyst[c]`` is m.
    """

    num: np.ndarray
    den: np.ndarray
    pair: np.ndarray
    term: np.ndarray
    catalyst: np.ndarray

    def logits(self, z: np.ndarray) -> Tuple[np.ndarray, np.ndarray, tuple]:
        """``z`` with each pair's starting logit in its ``num`` entry, or 0 for
        a pair with a member at 0, the pair sums s, and the starting members
        with their liveness, which ``members`` reads back."""
        top, bottom = z[self.num], z[self.den]
        live = (top > 0) & (bottom > 0)
        z = z.copy()
        z[self.num] = 0.0
        z[self.num[live]] = np.log(top[live]) - np.log(bottom[live])
        return z, top + bottom, (top, bottom, live)

    def members(self, z: np.ndarray, sums: np.ndarray, start: tuple) -> None:
        """Replace the end logits in ``z`` by the members s sigma(L) and s sigma(-L),
        from the sums and starting members ``logits`` returned; a pair with a
        member at 0 keeps its starting values."""
        top, bottom, live = start
        logit = z[self.num]
        tail = np.exp(-np.abs(logit))
        share = 1.0 + tail
        near, far = sums / share, sums * tail / share
        up = logit >= 0
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
    return _PairWindow(num=num, den=den, pair=pair, term=on_num, catalyst=catalyst)


@dataclass(frozen=True, eq=False)
class _Plan:
    """The species-by-species closed form of a window (see ``_plan``).

    ``table`` holds each planned term's coefficient, then room for its held
    factors, the buffer slots ``factors``; their product is the term's
    weight, times its pair's sum for the conversions at ``scaled`` (pairs
    ``pair``).  The first ``diag.size`` terms add to the rate d of their
    rows ``diag``, the next ``const.size`` to the constant f of their rows
    ``const``, and the rest make row ``link_rows`` read ``link_cols``.

    A cascade plan (see ``_cascade``) has ``levels``, and its table holds
    the rate terms and then one column per contribution to a coefficient.
    Each species ends as a sum of slots, a coefficient C times a basis
    function E_B(tau) of ``bases`` (see ``_basis_values``): slot s belongs
    to row ``slot_row[s]`` and reads basis ``slot_basis[s]``, and
    ``start[i]`` is the slot whose coefficient is row i's start.  Each entry
    ``((lo, hi), (first, last), target, a, b)`` of ``levels`` fills the
    slots lo..hi - 1 of one level from the contributions first..last - 1:
    each adds its weight times C[a] C[b] to slot lo + target, where a and b
    are slots of earlier levels or the constant 1 after the last slot, and
    None where all of them are that 1.
    """

    table: np.ndarray
    factors: np.ndarray
    diag: np.ndarray
    const: np.ndarray
    link_rows: np.ndarray
    link_cols: np.ndarray
    scaled: np.ndarray
    pair: np.ndarray
    levels: Tuple = ()
    start: Optional[np.ndarray] = None
    slot_row: Optional[np.ndarray] = None
    slot_basis: Optional[np.ndarray] = None
    bases: Tuple = ()

    def end(
        self, kin: Kinetics, z: np.ndarray, tau: float, sums: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """The phase-local state ``tau`` after ``z`` at ``kin``'s held constants;
        in a pair window ``z`` holds the logits and ``sums`` the pair sums."""
        kin._buffer.take(self.factors, out=self.table[1:])
        weight = np.multiply.reduce(self.table, axis=0)
        if sums is not None:
            weight[self.scaled] *= sums[self.pair]
        m, nd, nc = z.size, self.diag.size, self.const.size
        rate = np.bincount(self.diag, weights=weight[:nd], minlength=m)
        # a growing row overflows to a non-finite end, which the caller reports
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            if self.levels:
                return self._cascade_end(z, weight, rate, tau)
            x = rate * tau
            f = np.bincount(self.const, weights=weight[nd : nd + nc], minlength=m)
            span = tau * np.divide(np.expm1(x), x, out=np.ones_like(x), where=x != 0.0)
            end = np.exp(x) * z + span * f
            if self.link_rows.size:
                reads = weight[nd + nc :] * (span * z)[self.link_cols]
                end += np.bincount(self.link_rows, weights=reads, minlength=m)
        return end

    def _cascade_end(self, z, weight, rate, tau):
        size = self.slot_row.size
        coeff = np.zeros(size + 1)
        coeff[size] = 1.0
        coeff[self.start] = z
        for (lo, hi), (first, last), target, a, b in self.levels:
            terms = weight[first:last]
            if a is not None:
                terms = terms * coeff[a]
                if b is not None:
                    terms *= coeff[b]
            coeff[lo:hi] += np.bincount(target, weights=terms, minlength=hi - lo)
        terms = coeff[:size] * _basis_values(self.bases, rate, tau)[self.slot_basis]
        return np.bincount(self.slot_row, weights=terms, minlength=z.size)


def _plan(kin: Kinetics) -> Optional[_Plan]:
    """The plan of a window, or None (see the module docstring).

    A first-order or pair window whose rows are all own rows or integrator
    rows gets the one-level plan (``_one_level``).  Any other window
    without pairs whose rows form a cascade gets a cascade plan
    (``_cascade``); an own row is the cascade's first level, and a row that
    reads it the next.
    """
    if kin.first_order or kin.pairs is not None:
        plan = _one_level(kin)
        if plan is not None or kin.pairs is not None:
            return plan
    return _cascade(kin)


def _one_level(kin: Kinetics) -> Optional[_Plan]:
    """The one-level plan of a first-order or pair window, or None.

    Rows are classified from the subset's structure alone.  A term with at
    most one changed factor is a rate term when that factor is its row's
    species, a constant term when it has none, and otherwise a link to it.
    A conversion's term on its pair's ``num`` row, the logit's, is a link to
    its catalyst, or a constant term if it has none.  An own row has no
    link; an integrator row has links and no rate term, and reads only own
    rows without a constant term, each e^(d_c t) c_0, so it ends at
    L + tau f_L + sum_c w_Lc tau phi1(d_c tau) c_0.
    """
    m = kin.species.size
    factors, pairs = kin._factors, kin.pairs
    changed = factors < m
    planned = changed.sum(axis=0) <= 1
    reads = np.where(changed, factors, m).min(axis=0)
    pair = np.full(planned.size, -1)
    if pairs is not None:
        planned[pairs.term] = True
        reads[pairs.term] = pairs.catalyst
        pair[pairs.term] = pairs.pair
    terms = np.flatnonzero(planned)
    rows, reads, pair, coeff = kin._rows[terms], reads[terms], pair[terms], kin._coeff[terms]
    held = np.where(changed, kin._buffer.size - 1, factors)[:, terms]
    diag, const = reads == rows, reads == m
    link = ~(diag | const)
    reader = np.zeros(m + 1, dtype=bool)
    reader[rows[link]] = True
    source = ~reader
    source[rows[const]] = False
    if np.any(reader[rows[diag]]) or not np.all(source[reads[link]]):
        return None
    order = np.concatenate([np.flatnonzero(diag), np.flatnonzero(const), np.flatnonzero(link)])
    table = np.empty((held.shape[0] + 1, order.size))
    table[0] = coeff[order]
    scaled = np.flatnonzero(pair[order] >= 0)
    return _Plan(table, np.ascontiguousarray(held[:, order]), rows[diag], rows[const],
                 rows[link], reads[link], scaled, pair[order][scaled])


def _cascade(kin: Kinetics) -> Optional[_Plan]:
    """The cascade plan of a window, or None.

    A window is a cascade when each of its terms on row i is a rate term
    (its one changed factor is species i), a constant term (no changed
    factor) or a driver (one or two changed factors, a square counting as
    two, none of them species i), and the rows order into levels, each row
    reading only rows on earlier levels.  Then z_i' = d_i z_i + f_i + its
    drivers, with d_i and f_i held, and every species ends as a sum of
    basis functions E_B(tau) = (e^(b_0 t) * ... * e^(b_n t))(tau), the
    convolution of one exponential per node b of B (see ``_basis_values``):
    - the start z_i ends as z_i E_(d_i), and f_i adds f_i E_(d_i, 0);
    - a driver w z_j adds w C E_(B + d_i) per slot C E_B of z_j, since
      convolving with e^(d_i t) appends a node;
    - a driver w z_j z_k adds w C C' E_B E_B' per pair of slots, and the
      product of two bases is a sum of bases: the staircase triangulation
      of a product of simplices, with Hermite-Genocchi, gives E_B E_B' as
      the sum over the monotone lattice paths (0, 0) ... (n, n') of the
      basis whose nodes are b_p + b'_q along the path.
    A node is a sum of row rates, or 0.  Rows whose rate terms have the same
    coefficients and held factors share one rate symbol, so the nodes, the
    bases and every slot are found from the structure alone.  The compiled
    error readout O23 is one, and so is the gradient phase O27, where every
    species decays at the gate's rate.
    """
    m = kin.species.size
    factors, rows = kin._factors, kin._rows
    changed = factors < m
    count = changed.sum(axis=0)
    own = (changed & (factors == rows)).sum(axis=0)
    rate = (count == 1) & (own == 1)
    if np.any(count > 2) or np.any((own > 0) & ~rate):
        return None
    const = count == 0
    drive = ~(rate | const)
    terms = np.concatenate([np.flatnonzero(rate), np.flatnonzero(const), np.flatnonzero(drive)])
    nd, nc = int(rate.sum()), int(const.sum())
    # each term's changed factors, m where it has none
    first = np.where(changed, factors, m).min(axis=0)[terms]
    second = np.where(count == 2, np.where(changed, factors, -1).max(axis=0), m)[terms]
    drivers = slice(nd + nc, None)
    readers = rows[terms[drivers]]
    level = _levels(m, np.concatenate([first[drivers], second[drivers]]), np.tile(readers, 2))
    if level is None:
        return None
    order = np.argsort(level, kind="stable").tolist()
    held = np.where(changed, kin._buffer.size - 1, factors)[:, terms]
    coeff = kin._coeff[terms]
    row_of = rows[terms].tolist()
    # rate symbols; a node is a sorted tuple of them, the empty one for 0
    signature: Dict[int, list] = {}
    for j, c, h in zip(range(nd), coeff[:nd].tolist(), np.sort(held[:, :nd], axis=0).T.tolist()):
        signature.setdefault(row_of[j], []).append((c, tuple(h)))
    symbols: Dict[tuple, int] = {}
    symbol_rows: List[int] = []  # the first row of each symbol
    own_node = [()] * m
    for i, sig in sorted(signature.items()):
        key = tuple(sorted(sig))
        if key not in symbols:
            symbols[key] = len(symbol_rows)
            symbol_rows.append(i)
        own_node[i] = (symbols[key],)
    node_id, node_keys = _interner()
    basis_id, basis_keys = _interner()
    node_id(())  # node 0, the rate 0 of a constant
    sums: Dict[Tuple[int, int], int] = {}
    grown: Dict[Tuple[int, int], int] = {}
    products: Dict[Tuple[int, int], list] = {}

    def node_sum(p: int, q: int) -> int:
        if (p, q) not in sums:
            sums[(p, q)] = node_id(tuple(sorted(node_keys[p] + node_keys[q])))
        return sums[(p, q)]

    def grow(b: int, nu: int) -> int:
        """The basis b with the node nu appended."""
        if (b, nu) not in grown:
            grown[(b, nu)] = basis_id(tuple(sorted(basis_keys[b] + (nu,))))
        return grown[(b, nu)]

    def product(b1: int, b2: int) -> list:
        """The bases, with their counts, whose sum is the product of b1 and b2."""
        if (b1, b2) not in products:
            n1, n2 = basis_keys[b1], basis_keys[b2]
            found: Dict[int, int] = {}
            for path in _staircase(len(n1) - 1, len(n2) - 1):
                b = basis_id(tuple(sorted([node_sum(n1[p], n2[q]) for p, q in path])))
                found[b] = found.get(b, 0) + 1
            products[(b1, b2)] = list(found.items())
        return products[(b1, b2)]

    def template(nu: int, reads: tuple) -> Tuple[List[int], np.ndarray]:
        """The slot bases of a row with own node ``nu`` whose k-th driver
        reads slots with the bases ``reads[k]`` (None for no factor), and its
        contributions (slot, k, a, b, count), numbered within the row and
        within each driver factor's slots; a missing factor reads the
        constant 1."""
        local: Dict[int, int] = {}

        def slot(b: int) -> int:
            return local.setdefault(b, len(local))

        slot(basis_id((nu,)))
        found = []
        for k, (bases1, bases2) in enumerate(reads):
            if bases1 is None:
                found.append((slot(basis_id((0, nu))), k, 0, 0, 1))
            elif bases2 is None:
                found.extend((slot(grow(b, nu)), k, p, 0, 1) for p, b in enumerate(bases1))
            else:
                for p, b1 in enumerate(bases1):
                    for q, b2 in enumerate(bases2):
                        found.extend((slot(grow(b, nu)), k, p, q, c) for b, c in product(b1, b2))
        return list(local), np.array(found, dtype=np.intp).reshape(-1, 5)

    # Each row's slots are consecutive from start[i], the row's template's
    # bases; start[m] is the constant 1.
    by_row: List[List[int]] = [[] for _ in range(m)]
    for j in range(nd, terms.size):
        by_row[row_of[j]].append(j)
    first_of, second_of = first.tolist(), second.tolist()
    templates: Dict[tuple, int] = {}
    shapes: List[Tuple[List[int], np.ndarray]] = []
    row_template = [-1] * (m + 1)
    starts = [0] * (m + 1)
    slot_basis: List[int] = []
    for i in order:
        reads = tuple((row_template[first_of[j]], row_template[second_of[j]]) for j in by_row[i])
        key = (node_id(own_node[i]), reads)
        t = templates.get(key)
        if t is None:
            t = templates[key] = len(shapes)
            shapes.append(template(key[0], tuple(tuple(shapes[r][0] if r >= 0 else None for r in pair)
                                                 for pair in reads)))
            longest = max(len(basis_keys[b]) for b in shapes[t][0])
            if len(basis_keys) > _MAX_BASES or longest + _SERIES_TERMS > _INVERSE_FACTORIAL.size:
                return None
        row_template[i] = t
        starts[i] = len(slot_basis)
        slot_basis.extend(shapes[t][0])
    size = starts[m] = len(slot_basis)
    start = np.array(starts, dtype=np.intp)
    # every row's contributions at once, from its template's, in the rows' level order
    shape = np.concatenate([shapes[row_template[i]][1] for i in order])
    row = np.repeat(order, [len(shapes[row_template[i]][1]) for i in order])
    row_at = np.cumsum([0] + [len(by_row[i]) for i in range(m)])  # each row's first driver in flat
    flat = np.array([j for i in range(m) for j in by_row[i]], dtype=np.intp)
    term = flat[row_at[row] + shape[:, 1]]
    parts = (start[row] + shape[:, 0], start[first[term]] + shape[:, 2], start[second[term]] + shape[:, 3])
    depth = int(level.max(initial=-1)) + 1
    cuts = np.searchsorted(level[row], np.arange(depth + 1)).tolist()
    firsts = np.searchsorted(level[order], np.arange(depth)).tolist()
    bounds = [starts[order[k]] for k in firsts] + [size]
    levels = []
    for lvl in range(depth):
        lo, hi, cut = bounds[lvl], bounds[lvl + 1], slice(cuts[lvl], cuts[lvl + 1])
        target, a, b = (part[cut] for part in parts)
        a, b = (None if factor.min(initial=size) == size else factor for factor in (a, b))
        levels.append(((lo, hi), (nd + cut.start, nd + cut.stop), target - lo, a, b))
    slot_row = np.repeat(order, [len(shapes[row_template[i]][0]) for i in order])
    # the rate terms, then one column per contribution: its count times its term's coefficient
    picked = np.concatenate([np.arange(nd), term])
    table = np.empty((held.shape[0] + 1, picked.size))
    table[0] = coeff[picked]
    table[0, nd:] *= shape[:, 4]
    rate_of = np.zeros((len(node_keys), len(symbols)))  # each node's sum of rate symbols
    for k, key in enumerate(node_keys):
        np.add.at(rate_of[k], list(key), 1.0)
    renumber, structure = _basis_table(basis_keys)
    none = np.zeros(0, dtype=np.intp)
    return _Plan(
        table, np.ascontiguousarray(held[:, picked]), rows[terms[:nd]], none, none, none, none, none,
        levels=tuple(levels), start=start[:m], slot_row=slot_row,
        slot_basis=renumber[np.array(slot_basis, dtype=np.intp)],
        bases=(np.array(symbol_rows, dtype=np.intp), rate_of) + structure,
    )


def _interner():
    """``(intern, keys)``: ``intern(key)`` numbers each new key in turn, and ``keys`` lists them."""
    ids: Dict[tuple, int] = {}
    keys: List[tuple] = []

    def intern(key: tuple) -> int:
        if key not in ids:
            ids[key] = len(keys)
            keys.append(key)
        return ids[key]

    return intern, keys


def _levels(m: int, sources: np.ndarray, readers: np.ndarray) -> Optional[np.ndarray]:
    """The level of each of ``m`` rows, where row ``readers[e]`` reads row
    ``sources[e]`` (m for none): 0 for a row that reads no row, otherwise one
    above the highest row it reads; None if the reads have a cycle."""
    keep = sources < m
    sources, readers = sources[keep], readers[keep]
    level = np.zeros(m, dtype=np.intp)
    for _ in range(m + 1):
        above = np.zeros(m, dtype=np.intp)
        np.maximum.at(above, readers, level[sources] + 1)
        if np.array_equal(above, level):
            return level
        level = above
    return None


@lru_cache(maxsize=None)
def _staircase(n1: int, n2: int) -> Tuple[Tuple[Tuple[int, int], ...], ...]:
    """The monotone lattice paths from (0, 0) to (n1, n2), each as its points."""
    if n1 == 0 or n2 == 0:
        return (tuple((p, q) for p in range(n1 + 1) for q in range(n2 + 1)),)
    return tuple(path + ((n1, n2),) for path in _staircase(n1 - 1, n2) + _staircase(n1, n2 - 1))


# A basis whose scaled nodes tau b span at most _CLUSTER is summed as a Taylor
# series about their midpoint, of at most _SERIES_TERMS terms; a wider one
# comes from the divided-difference recurrence over its extreme nodes.  A
# window whose cascade would need more than _MAX_BASES bases, or a basis too
# long for the factorial table, has no plan.
_CLUSTER = 2.0
_SERIES_TERMS = 24
_MAX_BASES = 4096
_INVERSE_FACTORIAL = np.array([1.0 / math.factorial(k) for k in range(171)])  # 1/171! underflows
_SHIFT = np.subtract.outer(np.arange(_SERIES_TERMS), np.arange(_SERIES_TERMS))  # [k, i] = k - i


def _binomial_rows(count: int) -> np.ndarray:
    """C(k + j - 1, j) in row k < ``count``, the series of (1 - u t)^-k, each
    row the running sum of the one before."""
    rows = [np.eye(1, _SERIES_TERMS)[0]]
    while len(rows) < count:
        rows.append(np.cumsum(rows[-1]))
    return np.array(rows)


# a row for every multiplicity a basis short enough for _INVERSE_FACTORIAL can have
_BINOMIAL = _binomial_rows(_INVERSE_FACTORIAL.size - _SERIES_TERMS + 1)


def _basis_table(keys: List[tuple]) -> Tuple[np.ndarray, tuple]:
    """The tables ``_basis_values`` reads for the bases ``keys`` (sorted node
    tuples) and every basis left by dropping nodes from them, ordered by
    size, and the new number of each of ``keys``.

    Per basis: its distinct nodes ``node`` and their multiplicities
    ``mult``, padded with its first node at multiplicity 0; ``drop``, the
    basis without one of each node; its size minus one ``n``; ``sizes``, the
    slice of each size above one; ``offset``, where each row of ``node``
    starts in its flat layout; ``inverse``, 1 / (n + k)! for the series; and
    ``_BINOMIAL``.
    """
    # per basis: its distinct nodes, their multiplicities and the bases without one of each
    runs: Dict[tuple, tuple] = {}
    todo = list(keys)
    while todo:
        key = todo.pop()
        if key in runs:
            continue
        nodes, counts, rests = [], [], []
        for i, x in enumerate(key):
            if i and x == key[i - 1]:
                counts[-1] += 1
            else:
                nodes.append(x)
                counts.append(1)
                rests.append(key[:i] + key[i + 1 :])
                if len(key) > 1 and rests[-1] not in runs:
                    todo.append(rests[-1])
        runs[key] = (nodes, counts, rests)
    order = sorted(sorted(runs), key=len)
    number = {key: b for b, key in enumerate(order)}
    width = max(len(runs[key][0]) for key in order)
    node, mult, drop = [], [], []
    for b, key in enumerate(order):
        nodes, counts, rests = runs[key]
        drops = [number.get(rest, b) for rest in rests]
        pad = width - len(nodes)
        node.append(nodes + nodes[:1] * pad)
        mult.append(counts + [0] * pad)
        drop.append(drops + drops[:1] * pad)
    node, mult, drop = (np.array(v, dtype=np.intp) for v in (node, mult, drop))
    n = mult.sum(axis=1) - 1
    bounds = np.searchsorted(n, np.arange(n[-1] + 2)).tolist()
    sizes = tuple(slice(lo, hi) for lo, hi in zip(bounds[1:], bounds[2:]))
    inverse = _INVERSE_FACTORIAL[n[:, None] + np.arange(_SERIES_TERMS)]
    renumber = np.array([number[key] for key in keys], dtype=np.intp)
    offset = np.arange(0, node.size, width)
    return renumber, (node, mult, drop, n, sizes, inverse, _BINOMIAL, offset)


def _basis_values(bases: tuple, rate: np.ndarray, tau: float) -> np.ndarray:
    """Each basis function E_B(tau) of a cascade at the row rates ``rate``.

    E_B(tau) = tau^n exp[tau b_0, ..., tau b_n], a divided difference of
    the exponential at the scaled nodes (Hermite-Genocchi), which is
    positive and needs no distinct nodes: E_(d) = e^(d tau), E_(d, 0) =
    tau phi1(d tau), and k + 1 equal nodes give tau^k e^(d tau) / k!.  A
    basis whose scaled nodes span at most ``_CLUSTER`` is summed as the
    Taylor series about their midpoint c, e^c tau^n sum_k h_k(u) / (n + k)!
    with h_k the complete homogeneous polynomial of the shifted nodes u (the
    product of each distinct node's (1 - u t)^-mult), to as many terms as
    the widest such basis needs; so equal, nearly equal and zero rates keep
    full accuracy.  A wider one takes the recurrence E_B = (E_(B - lo) -
    E_(B - hi)) / (hi - lo) over its extreme nodes, from the smaller bases
    before it, where the subtraction cannot cancel much (McCurdy, Ng and
    Parlett, Math. Comp. 1984).
    """
    symbol_rows, rate_of, node, mult, drop, n, sizes, inverse, binomial, offset = bases
    b = (rate_of @ rate[symbol_rows])[node]
    scaled = b * tau
    hi, lo = scaled.max(axis=1), scaled.min(axis=1)
    spread = hi - lo
    near = spread <= _CLUSTER
    mid = 0.5 * (hi + lo)
    values = np.exp(mid) * tau**n
    reach = 0.5 * float(spread.max(initial=0.0, where=near))  # the largest shifted node
    terms = 1
    while terms < _SERIES_TERMS and reach**terms > 1e-17 * math.factorial(terms):
        terms += 1
    if terms == 1:
        values *= inverse[:, 0]
    else:
        powers = (scaled - mid[:, None])[..., None] ** np.arange(terms)
        series = binomial[mult[:, 0], :terms] * powers[:, 0]
        shift, upper = np.maximum(_SHIFT[:terms, :terms], 0), _SHIFT[:terms, :terms] >= 0
        for p in range(1, node.shape[1]):
            factor = binomial[mult[:, p], :terms] * powers[:, p]
            series = np.matmul((factor[:, shift] * upper), series[..., None])[..., 0]
        values *= (series * inverse[:, :terms]).sum(axis=1)
    if not near.all():
        low, high = scaled.argmin(axis=1) + offset, scaled.argmax(axis=1) + offset
        gap = b.take(high) - b.take(low)
        down, up = drop.take(low), drop.take(high)  # the bases without the lowest, the highest node
        far = ~near
        for s in sizes:
            np.divide(values[down[s]] - values[up[s]], gap[s], out=values[s], where=far[s])
    return values


@dataclass
class Trajectory:
    """Time-stamped states, with the phase windows of a phased or clocked run.

    ``phase_marks`` holds each window's (start, tag), a window starting
    where the one before it ended, and ``ends`` each window's (tag, state)
    as its executor ended it.  A plain ``integrate`` run has neither.
    """

    registry: SpeciesRegistry
    times: np.ndarray
    states: np.ndarray
    phase_marks: List[Tuple[float, str]] = field(default_factory=list)
    ends: List[Tuple[str, State]] = field(default_factory=list)

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

    def boundary_states(self) -> List[Tuple[str, State]]:
        """(tag, state) at the end of each phase window, in order."""
        return list(self.ends)


@dataclass(frozen=True)
class PhaseSchedule:
    """Ordered phase windows, repeated ``cycle_count`` times."""

    phases: Tuple[Tuple[str, float], ...]
    cycle_count: int = 1

    def __post_init__(self):
        for tag, duration in self.phases:
            _check_window(tag, duration)
        if self.cycle_count < 0:
            raise IntegrationError("cycle_count must be nonnegative")

    @classmethod
    def uniform(cls, tags: Sequence[str], duration: float, cycles: int = 1) -> "PhaseSchedule":
        return cls(tuple((tag, float(duration)) for tag in tags), cycles)


def _check_window(tag: str, duration: float) -> None:
    if not 0 < duration < np.inf:
        window = f"phase {tag!r}" if tag else "window"
        raise IntegrationError(f"{window} duration must be positive and finite, got {duration}")


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
# The rows a step multiplies with [y; k_0..k_11], once it has scaled columns
# 1-12 by h: stage inputs y + h A k, the new state y + h B k, h E5 k and h E3 k.
_DOP_TABLE = np.zeros((15, 13))
_DOP_TABLE[:13, 0] = 1.0
_DOP_TABLE[:, 1:] = np.vstack([_DOP_A, _DOP_B, _DOP_E5, _DOP_E3])


def _underflow(kin: Kinetics, t: float, f: np.ndarray) -> IntegrationError:
    fastest = kin.registry.names[kin.species[np.argmax(np.abs(f))]]
    return IntegrationError(
        f"step size underflow at t={t:.6g} (stiffness); fastest-changing species {fastest!r}"
    )


def _rms(v: np.ndarray, n: int) -> float:
    """RMS over a state of ``n`` species whose other entries are zero."""
    return float(np.sqrt(np.add.reduce(v * v) / n))


def _advance(
    kin: Kinetics,
    z: np.ndarray,
    t0: float,
    duration: float,
    cfg: IntegratorConfig,
    on_step: Optional[Callable[[float, np.ndarray, np.ndarray], bool]] = None,
    *,
    full: np.ndarray,
) -> Tuple[np.ndarray, float, bool]:
    """Integrate ``z = full[kin.species]`` from ``t0`` to ``t0 + duration`` with DOP853 steps.

    ``full`` is the full state at ``t0``, whose constants ``kin`` holds.
    The error and initial-step norms are RMS over all ``full.size`` species,
    so the steps are those of the full state.  Returns ``(z, t_reached,
    stopped_early)``; ``on_step(t, z, f)`` sees every accepted step, a new
    ``z`` each time, with ``f = kin(z)``, and returns True to end the run
    early.  A run that is not stopped early ends exactly at ``t0 + duration``.
    A trial step that takes a concentration (an entry of ``kin.linear``)
    below ``-abs_tol`` is rejected, and smaller negatives are clamped to 0.
    The whole call, ``kin``'s evaluations and ``on_step`` included, runs
    with numpy's overflow and invalid warnings off, and numpy's error state
    is restored on return, on an ``on_step`` stop and on a raise.
    """
    if duration <= 0:
        return z, t0, False
    t_end = t0 + duration
    t = t0
    # a trial step that overflows is rejected below, so it does not warn
    with np.errstate(over="ignore", invalid="ignore"):
        stack = np.empty((13, z.size))  # [z; k_0..k_11]
        stack[0] = z
        f = stack[1] = kin(z)
        h_min = max(duration * _MIN_STEP_FRACTION, 1e-300)
        h = max(_initial_step(full, z, f, duration, cfg), h_min)
        # Scaling the whole table is one contiguous multiply; the weight of z
        # in each stage input and in z_new (column 0 down to row 12) is then
        # set back to 1.
        table = np.empty_like(_DOP_TABLE)
        ones, tail = table[:13, 0], table[12:]
        # stage i's input: row i of the table times the first i + 1 rows of the stack
        stage_rows = [(i + 1, table[i, : i + 1], stack[: i + 1]) for i in range(1, 12)]
        stage = kin.stage
        # the error scale abs_tol + rel_tol * max(|z|, |z_new|) and the scaled
        # errors, in place; abs_z and abs_new trade places when a step is accepted
        abs_z, abs_new, scale = np.abs(z), np.empty(z.size), np.empty(z.size)
        errors = np.empty((2, z.size))
        while t < t_end:
            h = min(h, t_end - t)
            if h < h_min:
                raise _underflow(kin, t, stack[1])
            np.multiply(_DOP_TABLE, h, out=table)
            ones.fill(1.0)
            for row, weights, head in stage_rows:
                stack[row] = kin(np.dot(weights, head, out=stage))
            # [z_new; h E5 k; h E3 k], new per attempt: on_step may keep each z
            ends = tail @ stack
            z_new = ends[0]
            np.abs(z_new, out=abs_new)
            np.maximum(abs_z, abs_new, out=scale)
            scale *= cfg.rel_tol
            scale += cfg.abs_tol
            np.divide(ends[1:], scale, out=errors)
            sq5, sq3 = np.einsum("ij,ij->i", errors, errors).tolist()
            # Hairer's combined norm, which behaves like an eighth-order estimate
            err = sq5 / math.sqrt(full.size * (sq5 + 0.01 * sq3)) if sq5 else 0.0
            if not (math.isfinite(err) and math.isfinite(np.add.reduce(z_new))):
                h *= 0.2
                continue
            conc = z_new[kin.linear]
            lowest = float(conc.min(initial=0.0))
            if err > 1.0 or lowest < -cfg.abs_tol:
                h *= 0.5 if err <= 1.0 else max(0.2, 0.9 * err**-0.125)
                continue
            if lowest < 0:
                np.clip(conc, 0.0, None, out=conc)
                np.abs(z_new, out=abs_new)
            t = min(t + h, t_end)
            z, abs_z, abs_new = z_new, abs_new, abs_z
            stack[0] = z
            f = stack[1] = kin(z)  # the next step's first stage
            if on_step is not None and on_step(t, z, f):
                return z, t, True
            h *= min(5.0, 0.9 * err**-0.125) if err > 0 else 5.0
        return z, t, False


def _initial_step(
    full: np.ndarray, y: np.ndarray, f: np.ndarray, duration: float, cfg: IntegratorConfig
) -> float:
    """Starting step from the full state ``full`` and the derivative ``f`` of its part ``y``."""
    d0 = _rms(full / (cfg.abs_tol + cfg.rel_tol * np.abs(full)), full.size)
    d1 = _rms(f / (cfg.abs_tol + cfg.rel_tol * np.abs(y)), full.size)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    return min(h0, duration)


def _closed_form(kin: Kinetics, z: np.ndarray, duration: float, cfg: IntegratorConfig) -> np.ndarray:
    """End state of a window with a plan (``Kinetics.plan``) from ``z``.

    The plan, one-level or cascade, solves the window species by species.
    A pair window's logits take the place of its ``num`` members, whose
    rates are linear in the drivers; the members are read back from them.
    """
    pairs, sums = kin.pairs, None
    if pairs is not None:
        z, sums, start = pairs.logits(z)
    z = kin.plan.end(kin, z, duration, sums)
    if pairs is not None:
        pairs.members(z, sums, start)
    if not np.isfinite(z).all():
        raise IntegrationError("closed-form window produced a non-finite state")
    if z.min(initial=0.0) < -cfg.abs_tol:
        lowest = int(np.argmin(z))
        raise IntegrationError(
            f"closed-form window ended negative ({z[lowest]:.3g}) on species "
            f"{kin.registry.names[kin.species[lowest]]!r}"
        )
    np.maximum(z, 0.0, out=z)
    return z


# A judgment's chains start _CHAIN_START e* below and above e*, on the parabola, and
# are stepped at _CHAIN_CFG to within _CHAIN_BALL of where their ball stops contracting.
_SIDES = (-1.0, 1.0)
_CHAIN_START = 1e-6
_CHAIN_BALL = 0.1
_CHAIN_CFG = IntegratorConfig(rel_tol=1e-8, abs_tol=1e-12)


@dataclass(frozen=True, eq=False)
class _Basin:
    """Per side j of e* (see ``_basin``): the stable point ``point[j]`` = (e, a),
    its ``analysis.contraction_ball`` (``inverse[j]``, ``ball[j]``), and
    ``chain[j]``: the side's sign times (e, a) of its chain's samples up to
    the first within ``radius[j]``, each row nondecreasing, and each one's time to it."""

    point: np.ndarray
    inverse: np.ndarray
    ball: np.ndarray
    radius: np.ndarray
    chain: Tuple[np.ndarray, np.ndarray]

    def end(self, z: np.ndarray, slots: tuple, tau: float, cfg: IntegratorConfig) -> Optional[np.ndarray]:
        """The phase-local state ``tau`` after ``z`` (errors, companions and gate
        at ``slots``), or None.  A slot inside a ball at |w| = rho, or between
        the point and the chain's sample before the last it is beyond (so at
        rho = ``radius`` after that sample's lag t), ends within gain rho e^(-c
        u), c = rate - slope rho, u = tau - t, and moves the gate by at most
        |e - e_eq| e^-u plus gain rho times the integral of e^(-(u - v) - c v);
        each distance, and the sum of the gate's, must be within ``abs_tol``."""
        (at_e, at_a, at_gate), e, a = slots, z[slots[0]], z[slots[1]]
        best, side = np.full(e.size, np.inf), np.zeros(e.size, dtype=np.intp)
        for j, sign in enumerate(_SIDES):
            (pe, pa), (gain, _, rate, slope) = self.point[j], self.ball[j]
            chain_e, chain_a, lag = self.chain[j]
            past = np.minimum(np.searchsorted(chain_e, sign * e, "right"),
                              np.searchsorted(chain_a, sign * a, "right")) - 2
            between = (past >= 0) & (sign * (e - pe) <= 0) & (sign * (a - pa) <= 0)
            w = np.hypot(*(self.inverse[j] @ np.array([e - pe, a - pa])))
            far = abs(pe - sign * chain_e[0])  # the farthest from e_eq a slot between chain and point gets
            for entry, rho, spread, ok in ((0.0, w, 0.0, w < rate / slope),
                                           (lag[np.maximum(past, 0)], self.radius[j], far, between)):
                u, c = np.broadcast_arrays(tau - entry, rate - slope * rho)
                with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                    left = gain * rho * np.exp(-c * u)
                    after = np.where(c == 1.0, u, -np.expm1(-np.abs(1.0 - c) * u) / np.abs(1.0 - c))
                    term = spread * np.exp(-u) + gain * rho * np.exp(-np.minimum(c, 1.0) * u) * after
                better = ok & (u >= 0) & (c > 0) & (left <= cfg.abs_tol) & (term < best)
                best[better], side[better] = term[better], j
        if not np.all(best < np.inf) or best.sum() > cfg.abs_tol:
            return None
        z = z.copy()
        z[at_e], z[at_a] = self.point[side].T
        total = z[at_e].sum()
        z[at_gate] = total + (z[at_gate] - total) * math.exp(-tau)
        return z


@lru_cache(maxsize=None)
def _basin(rates: Tuple[float, float, float, float]) -> Optional[_Basin]:
    """The ``_Basin`` of a bistable judgment rate set, or None if a chain
    fails.  Below e = 2 k1 / k3 the slot system is cooperative (de'/da,
    da'/de >= 0), so its flow keeps the componentwise order of states
    (Kamke): a chain from the parabola moves monotonically to its point, and
    a start between one of its samples and the point follows them in."""
    low, saddle, high = bistable_equilibria(*rates)
    point = np.array([[low.e, low.a], [high.e, high.a]])
    balls = [contraction_ball(p, *rates) for p in (low, high)]
    inverse, ball = np.array([b[0] for b in balls]), np.array([b[1:] for b in balls])
    radius, signs = _CHAIN_BALL * ball[:, 2] / ball[:, 3], np.array(_SIDES)
    start = saddle.e * (1.0 + _CHAIN_START * signs)
    z0 = np.concatenate([start, rates[1] / rates[0] * start**2])
    k1, k2, k3, k4 = rates  # the slot chemistry of compiler.Judgment, untagged, in e0, e1, a0, a1
    kin = Kinetics(Crn(SpeciesRegistry(("e0", "e1", "a0", "a1")), [
        Reaction(Complex(r), Complex(p), k) for e, a in (("e0", "a0"), ("e1", "a1")) for r, p, k in (
            ({a: 1}, {e: 2}, k1), ({e: 2}, {e: 1, a: 1}, k2), ({e: 1, a: 1}, {a: 1}, k3), ({e: 1}, {}, k4))]))
    kin.hold(z0)
    times, samples = [0.0], [z0]

    def record(t, z, f):
        times.append(t)
        samples.append(z)
        inside = ball[:, 1] * np.hypot(*(z.reshape(2, 2) - point.T)) <= radius
        return bool(inside.all() or np.any(signs * (z[:2] - saddle.e) <= 0))

    try:
        _advance(kin, z0, 0.0, 1e6, _CHAIN_CFG, record, full=z0)
    except IntegrationError:
        return None
    times, samples, chain = np.array(times), np.array(samples).reshape(-1, 2, 2), []
    for j, sign in enumerate(_SIDES):
        path = samples[:, :, j].T  # (e, a) per sample
        inside = ball[j, 1] * np.hypot(*(path - point[j][:, None])) <= radius[j]
        k = int(np.argmax(inside)) + 1
        path = sign * path[:, :k]
        if not inside.any() or np.any(np.diff(path, axis=1) < 0) or np.any(path[0] <= sign * saddle.e):
            return None
        chain.append(np.vstack([path, times[k - 1] - times[:k]]))
    return _Basin(point, inverse, ball, radius, tuple(chain))


def run_window(
    kin: Kinetics,
    y: np.ndarray,
    t0: float,
    duration: float,
    cfg: IntegratorConfig,
    on_step: Optional[Callable[[float, np.ndarray], None]] = None,
    *,
    judgment: Optional[tuple] = None,
) -> Tuple[np.ndarray, float]:
    """One phase window of ``kin``'s reactions from the full state ``y``.

    Returns ``(y_end, t_end)``, a new full state in which only
    ``kin.species`` have moved.  A subset with a plan (``kin.plan``: a
    first-order or driven pair window whose rows are own or integrator
    rows, or a cascade such as the error readout O23 and the gradient phase
    O27) is solved in closed form.  A program's judgment, when ``judgment``
    gives the places of its errors, companions and gate among
    ``kin.species`` and its rates, tries its basin plan (``_basin``; rates
    without one are an error) from the window start and then between
    DOP853 steps on its changed species: first once ``_FIRST_TRY`` of the
    window, capped at ``_FIRST_TRY_CAP`` time units, has elapsed, then each
    time the elapsed time has grown by ``_TRY_GROWTH``.  Any other subset,
    a whole network included, is stepped for the whole window, so its cost
    grows with the window's length: a very long unplanned window, such as a
    reversible a <-> b over 1e12 time units, is not a supported input.
    ``kin.settled`` tells whether the window ended settled: by its plan or
    by a basin try, and not by steps.

    ``on_step(t, y)`` sees the full state after every step, in increasing
    t, and once at the end of a window that a closed form or a try ends.
    A duration that is not positive and finite is an error naming the
    phase, or the window when its reactions carry no tag.
    """
    _check_window("/".join(kin.phases), duration)
    y = y.copy()
    idx = kin.species
    t_end = t0 + duration
    kin.hold(y)
    z = y[idx]
    end = basin = None
    if kin.plan is not None:
        end = _closed_form(kin, z, duration, cfg)
    else:
        if judgment is not None:
            basin = _basin(judgment[1])  # built by the first window that asks
            if basin is None:
                raise IntegrationError(f"judgment rates {judgment[1]} have no basin plan")
        first_try, next_try = min(_FIRST_TRY * duration, _FIRST_TRY_CAP), 0.0

        def step(t, z, f):
            nonlocal end, next_try
            if on_step is not None and t > t0:
                y[idx] = z
                on_step(t, y)
            elapsed = t - t0
            if basin is None or elapsed < next_try or t >= t_end:
                return False
            next_try = max(_TRY_GROWTH * elapsed, first_try)
            end = basin.end(z, judgment[0], t_end - t, cfg)
            return end is not None

        if not step(t0, z, None):
            z, _, _ = _advance(kin, z, t0, duration, cfg, step, full=y)
    kin.settled = end is not None
    y[idx] = z if end is None else end
    if end is not None and on_step is not None:
        on_step(t_end, y)
    return y, t_end


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
    y = x0.values.copy()
    idx = kin.species
    kin.hold(y)
    times, states = [0.0], [y.copy()]

    def keep(t, z, f):
        y[idx] = z
        times.append(t)
        states.append(y.copy())
        return False

    _advance(kin, y[idx], 0.0, duration, cfg, keep, full=y)
    return Trajectory(crn.registry, np.array(times), np.array(states))


class PhasedExecutor:
    """Idealized phase windows: one cycle runs ``run_window`` over each (tag, duration) pair.

    ``program`` needs a ``crn`` attribute and a ``phase_index`` mapping of
    phase tag to reaction indices.  One ``Kinetics`` is built per tag, once.
    A window ends at its start plus its duration; with a tag repeated in
    the cycle, ``boundaries`` holds the tag's last window end and ``ends``
    every one.

    A program may also carry a ``judgment`` (``compiler.Judgment``), whose
    windows try its basin plan (see ``run_window``).
    """

    def __init__(
        self, program, phases: Iterable[Tuple[str, float]], cfg: Optional[IntegratorConfig] = None
    ):
        self.cfg = cfg or IntegratorConfig()
        self.registry = program.crn.registry
        phases = tuple(phases)
        kinetics: Dict[str, Kinetics] = {}
        for tag, duration in phases:
            _check_window(tag, duration)
            if tag not in program.phase_index:
                raise CrnError(f"schedule names unknown phase {tag!r}")
            if tag not in kinetics:
                kinetics[tag] = Kinetics(program.crn, program.phase_index[tag])
        judgment, plans = getattr(program, "judgment", None), {}
        if judgment is not None and judgment.tag in kinetics:
            names, n = judgment.errors + judgment.companions + (judgment.gate,), len(judgment.errors)
            place = np.searchsorted(kinetics[judgment.tag].species, [self.registry.index(s) for s in names])
            plans[judgment.tag] = ((place[:n], place[n:-1], place[-1]), judgment.rates)
        self._windows = [(tag, d, kinetics[tag], plans.get(tag)) for tag, d in phases]
        self.ends: List[Tuple[str, float, State]] = []

    def initial_values(self, x0: State) -> np.ndarray:
        return x0.values.copy()

    def run_cycle(
        self, y: np.ndarray, t: float, on_step: Optional[Callable[[float, np.ndarray], None]] = None
    ) -> Tuple[np.ndarray, float, Dict[str, State]]:
        self.ends = []
        for tag, duration, kin, judgment in self._windows:
            y, t = run_window(kin, y, t, duration, self.cfg, on_step, judgment=judgment)
            self.ends.append((tag, t, State(self.registry, y.copy())))
        return y, t, {tag: state for tag, _, state in self.ends}


def _record(executor, x0: State, cycles: int, record: str) -> Trajectory:
    """Every step of ``cycles`` cycles of ``executor`` from ``x0``, and its windows.

    Each window is marked from the end of the one before it (the first
    from 0), and its end state is the one the executor ended it on.
    """
    if record != "all":
        raise ValueError(f"unknown record mode {record!r}")
    y, t = executor.initial_values(x0), 0.0
    times, states = [t], [y.copy()]
    marks: List[Tuple[float, str]] = []
    ends: List[Tuple[str, State]] = []
    start = t

    def keep(t_now, y_now):
        times.append(t_now)
        states.append(y_now.copy())

    for _ in range(cycles):
        y, t, _ = executor.run_cycle(y, t, keep)
        for tag, end, state in executor.ends:
            marks.append((start, tag))
            ends.append((tag, state))
            start = end
    return Trajectory(executor.registry, np.array(times), np.array(states), marks, ends)


def run_phased(
    program,
    x0: State,
    schedule: PhaseSchedule,
    cfg: Optional[IntegratorConfig] = None,
    record: str = "all",
) -> Trajectory:
    """Execute a phased program: each window integrates only its phase's reactions.

    ``program`` is as for ``PhasedExecutor``.  State carries over across
    windows.  The trajectory records every step (see ``run_window``) and
    each window as the executor ran it (see ``Trajectory``); ``record``
    must be ``"all"``.
    """
    return _record(PhasedExecutor(program, schedule.phases, cfg), x0, schedule.cycle_count, record)


def _combine_with_clock(program, osc):
    """Union of a program and its gating clock ring.

    Returns ``(combined_crn, clock_map)``: every program reaction is gated
    by the clock species assigned to its phase, and the ring reactions are
    appended untagged.
    """
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


class _LogClockKinetics(Kinetics):
    """``Kinetics`` of a whole network whose ``log_species`` are stepped as z = ln o.

    The log species must be the last changed species (the clocks, which
    follow the program's species in the oscillator's registry); ``linear``
    is the slice before them and ``log`` the slice of them.  Every term on
    a log species' row must carry that species as a reactant factor, as
    each ring handoff o_i + o_{i+1} -> 2 o_{i+1} does on both of its rows:
    dividing the row by o_i drops that one factor, so dz_i/dt = k (o_{i-1} -
    o_{i+1}) comes from the same gather, product and scatter.  Each call
    exponentiates the log slots of the buffer and then gathers, multiplies
    and scatters as ``Kinetics`` does, in one frame, so every other term,
    the gated program reactions included, reads o.  A log slot too large
    for exp gives a non-finite derivative and no warning inside
    ``_advance``, whose error state ignores overflow; that trial step is
    rejected.  Only the right-hand side is in log form; ``pairs`` is not.
    """

    def __init__(self, crn: Crn, log_species: Sequence[str]):
        super().__init__(crn)
        m = self.species.size
        lo = m - len(log_species)
        wanted = [crn.registry.index(name) for name in log_species]
        if sorted(wanted) != self.species[lo:].tolist():
            raise CrnError("log species must be the last species the network changes")
        terms = np.flatnonzero(self._rows >= lo)
        own = self._factors[:, terms] == self._rows[terms]
        missing = ~own.any(axis=0)
        if np.any(missing):
            name = self.registry.names[self.species[self._rows[terms[np.argmax(missing)]]]]
            raise CrnError(
                f"a reaction changes {name!r} without reading it, so ln {name} cannot be stepped"
            )
        self._factors[own.argmax(axis=0), terms] = self._buffer.size - 1  # the constant 1.0
        self.linear, self.log = slice(0, lo), slice(lo, m)
        self._log_slots = self._buffer[self.log]

    def _derivative(self) -> np.ndarray:
        # ``Kinetics._derivative`` with the exponential in front, in one frame:
        # the oscillator's steps spend most of their time in these calls
        np.exp(self._log_slots, out=self._log_slots)
        self._buffer.take(self._factors, out=self._gathered, mode="clip")
        np.multiply.reduce(self._table, axis=0, out=self._terms)
        return np.bincount(self._rows, weights=self._terms, minlength=self.species.size)


class OscillatorExecutor:
    """Clock-driven cycles of a program gated by its clock ring.

    The state vector is the program's species followed by the clock's.  The
    clocks are stepped as z = ln o (``_LogClockKinetics``; see the module
    docstring), but every state handed out, by ``initial_values``,
    ``on_step``, ``ends``, ``boundaries`` and the returned ``y``, holds o.  A
    phase's window ends on the step where its clock species falls back
    through the on-threshold, so ``ends`` is in phase order.  A cycle ends
    when the first phase's clock rises through the threshold again, and
    fails if that takes longer than ``budget`` or a phase's clock never
    fell.
    """

    def __init__(self, program, osc, cfg: Optional[IntegratorConfig] = None):
        self.cfg = cfg or IntegratorConfig()
        self._clock_init = osc_mod.initial_concentrations(osc)
        crn, clock_map = _combine_with_clock(program, osc)
        self.registry = crn.registry
        self._kinetics = _LogClockKinetics(crn, osc_mod.clock_species(osc))
        self.phases = tuple(program.phases)
        self._log_threshold = math.log(osc.on_threshold)
        clocks = [self.registry.index(clock_map[p]) for p in self.phases]
        self._clocks = np.searchsorted(self._kinetics.species, clocks).tolist()  # phase-local
        # Each handoff of the unit pulse takes about ln(1/floor) / rate time
        # units; double it and add slack for shallow floors.
        self.budget = osc.count * (2.0 * math.log(1.0 / osc.floor) + 4.0) / osc.rate
        self.ends: List[Tuple[str, float, State]] = []

    def initial_values(self, x0: State) -> np.ndarray:
        return np.concatenate([x0.values, self._clock_init])

    def run_cycle(
        self, y: np.ndarray, t: float, on_step: Optional[Callable[[float, np.ndarray], None]] = None
    ) -> Tuple[np.ndarray, float, Dict[str, State]]:
        kin, clocks, edge = self._kinetics, self._clocks, self._log_threshold
        first, idx, log = clocks[0], kin.species, kin.log
        ring = idx[log]
        ends = self.ends = []
        y = y.copy()
        kin.hold(y)
        z0 = y[idx]
        z0[log] = np.log(z0[log])
        prev = z0  # the stepper makes a new z per step, so no copy is needed

        def expand(z):
            y[idx] = z
            y[ring] = np.exp(z[log])
            return y

        def watch(t_now, z, f):
            nonlocal prev
            if on_step is not None:
                on_step(t_now, expand(z))
            # Falling edges arrive in phase order: watch only the next one.
            k = len(ends)
            while k < len(clocks) and prev[clocks[k]] >= edge > z[clocks[k]]:
                ends.append((self.phases[k], t_now, State(self.registry, expand(z).copy())))
                k += 1
            risen = prev[first] < edge <= z[first]
            prev = z
            return risen

        z, t, stopped = _advance(kin, z0, t, self.budget, self.cfg, watch, full=y)
        if not stopped:
            raise IntegrationError(
                f"clock pulse did not return within time budget {self.budget:.0f}"
            )
        missing = list(self.phases[len(ends):])
        if missing:
            raise IntegrationError(f"no clock window observed for phases {missing}")
        return expand(z), t, {tag: state for tag, _, state in ends}


def run_oscillator(
    program,
    x0: State,
    osc,
    cycles: int,
    cfg: Optional[IntegratorConfig] = None,
    record: str = "all",
) -> Trajectory:
    """Execute a program with clock-species gating instead of idealized windows.

    Runs ``cycles`` cycles of an ``OscillatorExecutor``.  The trajectory
    records every step and each window as the executor ran it: a window
    ends on the step where its clock fell through the on-threshold (see
    ``Trajectory``).  ``record`` must be ``"all"``.
    """
    if cycles < 1:
        raise IntegrationError("cycles must be >= 1")
    return _record(OscillatorExecutor(program, osc, cfg), x0, cycles, record)

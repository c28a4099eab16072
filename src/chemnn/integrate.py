"""Numerical integration of mass-action kinetics, plain and phased.

Two steppers are provided: a fixed-step classical RK4 and an adaptive
Dormand-Prince 4(5) embedded pair (the default).  Mass-action solutions are
provably nonnegative, so tiny negative overshoots (below ``abs_tol``) are
clamped to zero; larger ones force a step rejection.

Phased execution runs each scheduled window through ``run_window``, which
integrates only the reaction subset tagged with the active phase and only
the species that subset changes; every other species is a constant for
the window.  Under the default ``"rk45"`` method a first-order window (no
reaction has more than one reactant molecule among the changed species)
is linear, z' = Az + b, and is solved in closed form with the matrix
exponential of the augmented matrix [[A, b], [0, 0]] (scaling and squaring
with a degree-13 Padé approximant; Higham, SIAM J. Matrix Anal. Appl.
2005).  A closed-form end state below ``-abs_tol`` is an error; smaller
negatives are clamped.  Other windows take Dormand-Prince steps on their
changed species, with the error norm still taken over the full state.

Oscillator execution instead simulates the full network with every program
reaction gated by its phase's clock species; it and the plain ``integrate``
calls step the full state, so recorders and stop callbacks see every step.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
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
    "run_phased",
    "run_oscillator",
]

_MIN_STEP_FRACTION = 1e-14


class IntegrationError(RuntimeError):
    """Numerical failure (step-size underflow, invalid configuration)."""


@dataclass(frozen=True)
class IntegratorConfig:
    """Stepper selection and tolerances.

    ``method`` is ``"rk45"`` (adaptive embedded pair) or ``"rk4"``
    (fixed step of size ``step``).  Under ``"rk45"``, first-order phase
    windows are solved in closed form and the tolerances apply only to the
    windows that take Dormand-Prince steps; ``"rk4"`` steps every window.
    ``clamp_negative`` applies the overshoot policy described in the module
    docstring.
    """

    method: str = "rk45"
    step: float = 0.01
    rel_tol: float = 1e-8
    abs_tol: float = 1e-10
    clamp_negative: bool = True

    def __post_init__(self):
        if self.method not in ("rk45", "rk4"):
            raise IntegrationError(f"unknown method {self.method!r}")
        if self.step <= 0 or self.rel_tol <= 0 or self.abs_tol <= 0:
            raise IntegrationError("step and tolerances must be positive")


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
        variable = np.full(len(reactions), m, dtype=np.intp)  # that molecule's slot, or m
        for jj, rxn in enumerate(reactions):
            pos = 0
            for name, coeff in rxn.reactant.items():
                idx = slot[registry.index(name)]
                factors[jj, pos : pos + coeff] = idx
                pos += coeff
                if idx < m:
                    order[jj] += coeff
                    variable[jj] = idx
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
        self._factors = np.ascontiguousarray(factors[cols].T)
        if self.first_order:
            # Each term is constants times z[variable] (or constants alone when
            # variable == m), so the window is z' = A z + b; `_linear` places
            # each term in the augmented matrix [[A, b], [0, 0]].
            self._constant_factors = np.where(self._factors < m, one, self._factors)
            self._linear = rows * (m + 1) + variable[cols]

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

    def augmented(self) -> np.ndarray:
        """[[A, b], [0, 0]] of a first-order subset at the held constants.

        The changed species then obey z' = A z + b, so the exponential of
        this matrix times t maps (z(0), 1) to (z(t), 1).
        """
        size = self.species.size + 1
        terms = self._terms(self._constant_factors)
        return np.bincount(self._linear, weights=terms, minlength=size * size).reshape(size, size)


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

    def append(self, other: "Trajectory") -> None:
        if other.registry != self.registry:
            raise IntegrationError("cannot append trajectory over a different registry")
        self.times = np.concatenate([self.times, other.times])
        self.states = np.vstack([self.states, other.states])
        self.phase_marks.extend(other.phase_marks)


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


# Dormand-Prince 5(4) tableau; the fifth-order solution is propagated and the
# first stage of the next step reuses the last evaluation (FSAL).
_DP_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_B4 = np.array(
    [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40]
)
_DP_ERR = _DP_B5 - _DP_B4


# Padé-13 numerator coefficients and the 1-norm bound below which degree 13
# needs no scaling (Higham 2005, Table 2.3).
_PADE13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0, 1187353796428800.0,
    129060195264000.0, 10559470521600.0, 670442572800.0, 33522128640.0,
    1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0,
)
_THETA13 = 5.371920351148152

def _expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring with a degree-13 Padé approximant."""
    norm = float(np.linalg.norm(a, 1))
    if norm == 0.0:
        return np.eye(a.shape[0])
    if not np.isfinite(norm):
        raise IntegrationError("matrix exponential of a non-finite matrix")
    s = max(0, int(np.ceil(np.log2(norm / _THETA13))))
    a = a / 2.0**s
    b = _PADE13
    ident = np.eye(a.shape[0])
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2) + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
    v = a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2) + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident
    r = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        r = r @ r
    return r


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


def _advance(
    kin: Kinetics,
    y: np.ndarray,
    t0: float,
    duration: float,
    cfg: IntegratorConfig,
    on_step: Optional[Callable[[float, np.ndarray, np.ndarray], bool]] = None,
    full: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, float, bool]:
    """Integrate ``y`` from ``t0`` to ``t0 + duration``.

    ``y`` is a full state, or the part ``full[kin.species]`` of the full
    state ``full``.  The error and initial-step norms are RMS over the full
    state either way, so a phase-local run takes the steps a full-state run
    takes.  Returns ``(y, t_reached, stopped_early)``; ``on_step(t, y, f)``
    sees every accepted step and returns True to end the run early.
    """
    if duration <= 0:
        return y, t0, False
    if cfg.method == "rk4":
        return _advance_rk4(kin, y, t0, duration, cfg, on_step)

    n = y.size if full is None else full.size
    t_end = t0 + duration
    t = t0
    f = kin(y)
    h = _initial_step(y if full is None else full, y, f, duration, cfg)
    h_min = max(duration * _MIN_STEP_FRACTION, 1e-300)
    stages = np.empty((7, y.size))
    stages[0] = f
    while t < t_end:
        h = min(h, t_end - t)
        if h < h_min:
            raise _underflow(kin, t, stages[0])
        for i in range(1, 7):
            stages[i] = kin(y + h * (_DP_A[i] @ stages[:i]))
        y_new = y + h * (_DP_B5 @ stages)
        err_vec = h * (_DP_ERR @ stages)
        scale = cfg.abs_tol + cfg.rel_tol * np.maximum(np.abs(y), np.abs(y_new))
        err = _rms(err_vec / scale, n)
        lowest = float(y_new.min(initial=0.0))
        if err > 1.0 or (cfg.clamp_negative and lowest < -cfg.abs_tol):
            factor = 0.5 if err <= 1.0 else max(0.2, 0.9 * err ** -0.2)
            h *= factor
            continue
        if cfg.clamp_negative and lowest < 0:
            np.clip(y_new, 0.0, None, out=y_new)
            stages[6] = kin(y_new)
        t += h
        y = y_new
        stages[0] = stages[6]  # FSAL
        if on_step is not None and on_step(t, y, stages[0]):
            return y, t, True
        h *= min(5.0, max(0.2, 0.9 * err ** -0.2 if err > 0 else 5.0))
    return y, t, False


def _advance_rk4(kin, y, t0, duration, cfg, on_step):
    n_steps = max(1, round(duration / cfg.step))
    h = duration / n_steps
    t = t0
    for _ in range(n_steps):
        k1 = kin(y)
        k2 = kin(y + 0.5 * h * k1)
        k3 = kin(y + 0.5 * h * k2)
        k4 = kin(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        if cfg.clamp_negative:
            np.clip(y, 0.0, None, out=y)
        t += h
        if on_step is not None and on_step(t, y, k1):
            return y, t, True
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
    """End state of a first-order window from ``z``, via the augmented exponential."""
    m = z.size
    expo = _expm(kin.augmented() * duration)
    z = expo[:m, :m] @ z + expo[:m, m]
    if not np.all(np.isfinite(z)):
        raise IntegrationError("closed-form window produced a non-finite state")
    if z.min(initial=0.0) < -cfg.abs_tol:
        lowest = int(np.argmin(z))
        raise IntegrationError(
            f"closed-form window ended negative ({z[lowest]:.3g}) on species "
            f"{_species_name(kin, z, lowest)!r}"
        )
    if cfg.clamp_negative:
        np.clip(z, 0.0, None, out=z)
    return z


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
    ``kin.species`` have moved.  Under ``"rk45"`` a first-order subset (no
    reaction has more than one reactant molecule among the species it
    changes) is solved in closed form; any other subset, and every subset
    under ``"rk4"``, is stepped on its changed species alone.
    ``on_step(t, y)`` sees the full state after every step, or once at the
    end of a closed-form window.
    """
    y = y.copy()
    if duration <= 0:
        return y, t0
    idx = kin.species
    kin.hold(y)
    if cfg.method == "rk45" and kin.first_order:
        y[idx] = _closed_form(kin, y[idx], duration, cfg)
        if on_step is not None:
            on_step(t0 + duration, y)
        return y, t0 + duration

    def observe(t, z, f):
        y[idx] = z
        on_step(t, y)
        return False

    z, t, _ = _advance(kin, y[idx], t0, duration, cfg, observe if on_step else None, full=y)
    y[idx] = z
    return y, t


def integrate(
    crn: Crn,
    x0: State,
    duration: float,
    cfg: Optional[IntegratorConfig] = None,
) -> Trajectory:
    """Integrate the full network for ``duration`` time units from ``x0``."""
    if duration <= 0:
        raise IntegrationError(f"duration must be positive, got {duration}")
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
    """
    if residual_tol <= 0:
        raise IntegrationError("residual_tol must be positive")
    cfg = cfg or IntegratorConfig()
    kin = Kinetics(crn)
    y = x0.values.copy()
    if float(np.max(np.abs(kin(y)), initial=0.0)) < residual_tol:
        return State(crn.registry, y), True, 0.0

    def settled(t, y_now, f):
        return float(np.max(np.abs(f), initial=0.0)) < residual_tol

    y, t, stopped = _advance(kin, y, 0.0, max_time, cfg, settled)
    return State(crn.registry, y), stopped, t


def run_phased(
    program,
    x0: State,
    schedule: PhaseSchedule,
    cfg: Optional[IntegratorConfig] = None,
    record: str = "all",
) -> Trajectory:
    """Execute a phased program: each window integrates only its phase's reactions.

    ``program`` needs a ``crn`` attribute and a ``phase_index`` mapping of
    phase tag to reaction indices.  State carries over across windows and a
    phase mark is recorded at each window start.  ``record`` is ``"all"``
    (every step, see ``run_window``) or ``"boundaries"`` (window endpoints
    only).
    """
    cfg = cfg or IntegratorConfig()
    if record not in ("all", "boundaries"):
        raise ValueError(f"unknown record mode {record!r}")
    crn = program.crn
    kinetics: Dict[str, Kinetics] = {}
    for tag, _ in schedule.phases:
        if tag not in program.phase_index:
            raise CrnError(f"schedule names unknown phase {tag!r}")
        kinetics[tag] = Kinetics(crn, program.phase_index[tag])
    times = [0.0]
    states = [x0.values.copy()]
    marks: List[Tuple[float, str]] = []

    def keep(t, y):
        times.append(t)
        states.append(y.copy())

    y = x0.values.copy()
    t = 0.0
    for _ in range(schedule.cycle_count):
        for tag, duration in schedule.phases:
            marks.append((t, tag))
            y, t = run_window(kinetics[tag], y, t, duration, cfg, keep if record == "all" else None)
            if record == "boundaries":
                keep(t, y)
    return Trajectory(crn.registry, np.array(times), np.array(states), marks)


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


def _cycle_budget(osc, cycles: int) -> float:
    # Each handoff takes about ln(mass/floor) / (k_o * mass) time units;
    # floors deepen over revolutions, so leave generous slack.
    from . import oscillator as osc_mod

    mass = float(np.sum(osc_mod.initial_concentrations(osc)))
    return cycles * osc.count * 60.0 / max(osc.rate * mass, 1e-9) + 100.0


def run_oscillator(
    program,
    x0: State,
    osc,
    cycles: int,
    cfg: Optional[IntegratorConfig] = None,
    record: str = "all",
):
    """Execute a program with clock-species gating instead of idealized windows.

    The clock ring and all program reactions run together; every program
    reaction is gated (catalyzed) by the clock species assigned to its
    phase.  Integration stops when the first phase's clock species has risen
    through the on-threshold ``cycles`` times, i.e. after ``cycles`` complete
    revolutions.  Phase marks are recovered from clock dominance windows.
    """
    from . import oscillator as osc_mod

    cfg = cfg or IntegratorConfig()
    if cycles < 1:
        raise IntegrationError("cycles must be >= 1")
    combined, clock_map = _combine_with_clock(program, osc)
    registry = combined.registry
    init = np.concatenate([x0.values, osc_mod.initial_concentrations(osc)])
    kin = Kinetics(combined)
    first_clock = registry.index(clock_map[program.phases[0]])
    threshold = osc_mod.threshold_value(osc)

    state = {"prev": init[first_clock], "risen": 0}
    times = [0.0]
    states = [init.copy()]

    def crossed(t, y, f):
        if record == "all":
            times.append(t)
            states.append(y.copy())
        now = y[first_clock]
        if state["prev"] < threshold <= now:
            state["risen"] += 1
        state["prev"] = now
        return state["risen"] >= cycles

    budget = _cycle_budget(osc, cycles)
    y, t, stopped = _advance(kin, init.copy(), 0.0, budget, cfg, crossed)
    if record != "all":
        times.append(t)
        states.append(y.copy())
    if not stopped:
        raise IntegrationError(
            f"oscillator did not complete {cycles} cycles within time budget {budget:.0f}"
        )
    traj = Trajectory(registry, np.array(times), np.array(states))
    if record == "all":
        windows = osc_mod.phase_windows(traj, osc)
        phase_of = {clock: phase for phase, clock in clock_map.items()}
        traj.phase_marks = [
            (start, phase_of[clock])
            for clock, start, _ in windows
            if clock in phase_of
        ]
    return traj


class OscillatorRunner:
    """Cycle-by-cycle oscillator execution with online phase-edge detection.

    Avoids dense trajectory recording: the end state of each phase window is
    snapshotted when its clock species falls back through the on-threshold,
    and a cycle ends when the first phase's clock rises again.
    """

    def __init__(self, program, osc, cfg: Optional[IntegratorConfig] = None):
        from . import oscillator as osc_mod

        self.program = program
        self.osc = osc
        self.cfg = cfg or IntegratorConfig()
        self.crn, self.clock_map = _combine_with_clock(program, osc)
        self.registry = self.crn.registry
        self.kinetics = Kinetics(self.crn)
        self.threshold = osc_mod.threshold_value(osc)
        self._clock_idx = {
            phase: self.registry.index(clock) for phase, clock in self.clock_map.items()
        }
        self._clock_init = osc_mod.initial_concentrations(osc)

    def initial_values(self, x0: State) -> np.ndarray:
        return np.concatenate([x0.values, self._clock_init])

    def run_cycle(self, y: np.ndarray, t0: float = 0.0):
        """Advance until the first phase's clock rises again.

        Returns ``(values, t_end, boundaries)`` where ``boundaries`` maps
        each phase to the combined-network state captured as its clock pulse
        ended.
        """
        first = self._clock_idx[self.program.phases[0]]
        prev = {phase: y[idx] for phase, idx in self._clock_idx.items()}
        boundaries: Dict[str, State] = {}

        def watch(t, y_now, f):
            stop = False
            for phase, idx in self._clock_idx.items():
                now = y_now[idx]
                if prev[phase] >= self.threshold > now:
                    boundaries[phase] = State(self.registry, y_now.copy())
                if idx == first and prev[phase] < self.threshold <= now:
                    stop = True
                prev[phase] = now
            return stop

        budget = _cycle_budget(self.osc, 1)
        y, t, stopped = _advance(self.kinetics, y.copy(), t0, budget, self.cfg, watch)
        if not stopped:
            raise IntegrationError(
                f"clock pulse did not return within time budget {budget:.0f}"
            )
        missing = [p for p in self.program.phases if p not in boundaries]
        if missing:
            raise IntegrationError(f"no clock window observed for phases {missing}")
        return y, t, boundaries

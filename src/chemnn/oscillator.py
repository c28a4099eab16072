"""Clock-signal reaction ring and phase-to-clock bookkeeping.

The clock is a cyclic chain of autocatalytic handoffs
``O_i + O_{i+1} -> 2 O_{i+1}``; with a single concentration pulse as the
initial condition, each species spikes in turn.  The chemistry conserves
both the total clock mass sum(O_i) and sum(ln O_i), since
d ln O_i/dt = k (O_{i-1} - O_{i+1}).  ``integrate.OscillatorExecutor``
steps the clocks as ln O_i, so its steps keep sum(ln O_i) to rounding and
the mass only to the steps' tolerance (1.5e-7 over four cycles of the
32-clock, rate-2 ring).  Gating a reaction with a clock species as catalyst
switches it on only while that species' pulse is present.  Compiled phases
are mapped onto every second clock species so that consecutive phases are
separated by a silent buffer species and never overlap.  The ring starts
as a unit pulse: every clock but the first sits at ``OscillatorSpec.floor``,
so none starts at 0, where it would never rise.  ``ring_for`` sizes a ring
to a program and a phase window; ``integrate.OscillatorExecutor`` ends
each phase's window at its clock's falling edge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from .crn import Complex, Crn, CrnError, Reaction, SpeciesRegistry

__all__ = [
    "OscillatorSpec",
    "clock_species",
    "initial_concentrations",
    "build_oscillator",
    "ring_for",
    "assign_phases",
]


@dataclass(frozen=True)
class OscillatorSpec:
    """Ring size, handoff rate, pulse floor and pulse-detection threshold.

    The ring starts as a unit pulse on the first species, every other
    species at ``floor``.  A handoff takes about ln(1/floor) / rate time
    units, and a gated phase does about the work of an idealized window
    that long.  Where a gated run misses a phased one, that difference in
    window is the cause, not off-phase leakage.  ``on_threshold`` is a
    fraction of the clocks' total mass, which the unit pulse makes 1, so it
    is also the absolute concentration at which a clock counts as on; the
    pulse head must start above it.

    That check alone does not make a shallow floor work: at floor 0.05 on
    16 clocks the pulse's later peaks fall to 0.14-0.20, and the third
    cycle of XOR training loses the 0.1 threshold ("no clock window
    observed for phases ['O29']").  ``ring_for``, which the command line
    uses, sets the floor to 1e-20.
    """

    count: int
    rate: float = 1.0
    floor: float = 1e-6
    on_threshold: float = 0.1

    def __post_init__(self):
        if self.count < 2:
            raise CrnError(f"oscillator needs at least 2 species, got {self.count}")
        if not 0 < self.rate < np.inf:
            raise CrnError(f"oscillator rate constant must be positive and finite, got {self.rate}")
        if not 0 < self.on_threshold < 1:
            raise CrnError("on_threshold must be a fraction in (0, 1)")
        if not 0 < (self.count - 1) * self.floor < 1 - self.on_threshold:
            raise CrnError(
                f"clock floor {self.floor} must be positive and leave the pulse head of "
                f"{self.count} clocks above the on-threshold {self.on_threshold}"
            )


def clock_species(spec: OscillatorSpec) -> Tuple[str, ...]:
    return tuple(f"o{i}" for i in range(1, spec.count + 1))


def initial_concentrations(spec: OscillatorSpec) -> np.ndarray:
    """A unit pulse on the first species, the others at the floor."""
    values = np.full(spec.count, spec.floor)
    values[0] = 1.0 - (spec.count - 1) * spec.floor
    return values


def build_oscillator(spec: OscillatorSpec) -> Crn:
    """The r-reaction handoff ring over clock species ``o1..oR`` (mass conserving)."""
    names = clock_species(spec)
    registry = SpeciesRegistry(names, {name: "clock" for name in names})
    reactions = []
    for i in range(spec.count):
        a = names[i]
        b = names[(i + 1) % spec.count]
        reactions.append(Reaction(Complex({a: 1, b: 1}), Complex({b: 2}), spec.rate))
    return Crn(registry, reactions)


def ring_for(program, window: float) -> OscillatorSpec:
    """The ring on which each phase of ``program`` does a window's work.

    Two clocks per phase (``assign_phases``' layout), floor 1e-20 and a
    handoff rate of ln(1/floor) / window, so a gated phase does about the
    work of an idealized window of length ``window``.  A cycle then lasts
    about 2 * phases * window time units, so its cost grows with the
    window: an XOR training round took about 0.1 s at window 114 and 0.5 s
    at 1000 on one Xeon core.
    """
    floor = 1e-20
    return OscillatorSpec(2 * len(program.phases), math.log(1.0 / floor) / window, floor)


def assign_phases(program, spec: OscillatorSpec) -> Dict[str, str]:
    """Map program phases, in execution order, onto odd-indexed clock species.

    Even-indexed species are buffers carrying no gated reactions, so
    consecutive phases never share a handoff.  Requires
    ``2 * len(phases) <= count``.
    """
    phases = tuple(program.phases)
    if 2 * len(phases) > spec.count:
        raise CrnError(
            f"{len(phases)} phases need at least {2 * len(phases)} clock species "
            f"(one buffer each), got {spec.count}"
        )
    if spec.count % 2 != 0:
        raise CrnError("buffered phase layout needs an even clock species count")
    return {phase: f"o{2 * i + 1}" for i, phase in enumerate(phases)}

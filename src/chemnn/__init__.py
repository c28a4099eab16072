"""Neural networks compiled to mass-action reaction networks, end to end.

The pipeline: :mod:`chemnn.compiler` turns a network plus training setup
into a phased reaction program, :mod:`chemnn.integrate` executes it (with
idealized phase windows or a gating clock ring from
:mod:`chemnn.oscillator`), :mod:`chemnn.oracle` provides the exact
floating-point reference, and :mod:`chemnn.analysis` decodes and verifies
the chemistry against it.  :mod:`chemnn.presets` holds the built-in XOR
and OR gates, and :mod:`chemnn.cli` wires everything into reproducible
file-based experiments.
"""

from .crn import (
    Complex,
    Crn,
    CrnError,
    Reaction,
    SpeciesRegistry,
    State,
    add_catalyst,
    crn_from_text,
    crn_to_text,
    reaction_rate,
    rhs,
)
from .integrate import (
    IntegrationError,
    IntegratorConfig,
    Kinetics,
    OscillatorExecutor,
    PhaseSchedule,
    PhasedExecutor,
    Trajectory,
    run_oscillator,
    run_phased,
)
from .oscillator import OscillatorSpec, assign_phases, build_oscillator
from .compiler import (
    NetSpec,
    Program,
    TrainSpec,
    WeightSet,
    compile_feedforward,
    compile_program,
)
from .analysis import (
    BistablePoint,
    bistable_equilibria,
    decode_dual_rail,
    verify_against_oracle,
)
from . import oracle

__version__ = "0.1.0"

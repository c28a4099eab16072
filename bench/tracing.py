"""Per-layer counters, wrapped around the layers' public calls from outside.

Inside a ``with LayerTrace() as trace:`` block, ``compiler.compile_program``
and ``compiler.compile_feedforward`` are timed and counted, and so are
``Kinetics`` construction and every ``Kinetics`` right-hand-side call.  RHS
calls run in the hundred thousands per pass, so they are aggregated per
phase (the phase of the reaction subset the instance was built for, or
``all`` for a whole network) rather than recorded one span per call.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter

from chemnn import compiler, integrate


def _phase_of(crn, reaction_indices) -> str:
    if reaction_indices is None:
        return "all"
    phases = {crn.reactions[j].phase for j in reaction_indices}
    return str(phases.pop()) if len(phases) == 1 else "mixed"


class LayerTrace:
    """Counts and busy times per layer; ``reset`` starts a new pass."""

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self.compiles = 0
        self.compile_s = 0.0
        self.builds = 0
        self.build_s = 0.0
        self.rhs = defaultdict(lambda: [0, 0.0])  # phase -> [calls, seconds]

    def __enter__(self) -> "LayerTrace":
        kin = integrate.Kinetics
        self._saved = [
            (compiler, "compile_program", compiler.compile_program),
            (compiler, "compile_feedforward", compiler.compile_feedforward),
            (kin, "__init__", kin.__init__),
            (kin, "__call__", kin.__call__),
        ]
        for owner, attr, original in self._saved[:2]:
            setattr(owner, attr, self._timed_compile(original))
        init, call = kin.__init__, kin.__call__
        trace = self

        def traced_init(k, crn, reaction_indices=None):
            start = perf_counter()
            init(k, crn, reaction_indices)
            trace.builds += 1
            trace.build_s += perf_counter() - start
            k._bench_rhs = trace.rhs[_phase_of(crn, reaction_indices)]

        def traced_call(k, x):
            start = perf_counter()
            out = call(k, x)
            stats = k._bench_rhs
            stats[0] += 1
            stats[1] += perf_counter() - start
            return out

        kin.__init__ = traced_init
        kin.__call__ = traced_call
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in self._saved:
            setattr(owner, attr, original)

    def _timed_compile(self, fn):
        def timed(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.compiles += 1
                self.compile_s += perf_counter() - start

        return timed

"""Decoders and verifiers for compiled programs and their dynamics.

Covers dual-rail decoding, equilibrium residuals, exponential-rate
certification, bistability analysis for the judgment module, and
phase-by-phase comparison of a simulated program against the exact
floating-point network reference.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from . import oracle
from .crn import Crn, State, rhs

__all__ = [
    "FitError",
    "RateFit",
    "BistablePoint",
    "PhaseReport",
    "decode_dual_rail",
    "fit_exponential_rate",
    "bistable_equilibria",
    "equilibrium_residual",
    "verify_against_oracle",
    "reports_to_csv",
]


class FitError(RuntimeError):
    """The trajectory does not exhibit a certifiable exponential decay."""


def decode_dual_rail(state: State, pair: Tuple[str, str]) -> float:
    """Signed value carried by a rail pair: plus concentration minus minus."""
    plus, minus = pair
    return state.get(plus) - state.get(minus)


@dataclass(frozen=True)
class RateFit:
    """Certified exponential envelope ``residual(t) <= prefactor * exp(-gamma t)``.

    The envelope holds pointwise at every sampled time inside ``window``;
    ``residual_norm`` is the largest log-space deviation from the fitted
    line (a fit-quality figure, not part of the certificate).
    """

    prefactor: float
    gamma: float
    window: Tuple[float, float]
    residual_norm: float


def fit_exponential_rate(
    traj,
    target: Union[State, Mapping[str, float]],
    species: Optional[Sequence[str]] = None,
) -> RateFit:
    """Fit a decay rate to the sup-norm residual of a trajectory.

    ``target`` gives the limiting value per species (a full state or a
    mapping for a subset); ``species`` restricts which coordinates enter the
    sup-norm (defaulting to the mapping's keys, or every species).  The fit
    is least squares on log residuals over the time window where the
    residual lies within [1e-10, 1e-2] of its initial value; the returned
    prefactor is inflated so the envelope majorizes every sampled point in
    that window.
    """
    if isinstance(target, State):
        target_map = target.to_dict()
    else:
        target_map = dict(target)
    if species is None:
        species = list(target_map)
    missing = [s for s in species if s not in target_map]
    if missing:
        raise FitError(f"no target value for species {missing}")
    columns = np.stack([traj.series(name) for name in species], axis=1)
    goals = np.array([target_map[name] for name in species])
    residual = np.max(np.abs(columns - goals), axis=1)
    times = np.asarray(traj.times, dtype=float)
    r0 = float(residual[0])
    if r0 <= 0:
        raise FitError("initial residual is zero; nothing to fit")
    if float(residual[-1]) >= 1e-3 * r0:
        raise FitError(
            f"trajectory too short: final residual {residual[-1]:.3g} "
            f"has not decayed below 1e-3 of initial {r0:.3g}"
        )
    mask = (residual >= 1e-10 * r0) & (residual <= 1e-2 * r0) & (residual > 0)
    idx = np.nonzero(mask)[0]
    if len(idx) < 3:
        raise FitError("fewer than three samples in the fitting window")
    window_res = residual[idx]
    if np.any(window_res[1:] > window_res[:-1] * 1.5):
        raise FitError("residual is not decaying monotonically in the fit window")
    t = times[idx]
    logr = np.log(window_res)
    slope, intercept = np.polyfit(t, logr, 1)
    if slope >= 0:
        raise FitError(f"fitted rate is nonnegative (slope {slope:.3g})")
    gamma = -float(slope)
    # Inflate the prefactor until the envelope dominates every window sample.
    prefactor = float(np.max(window_res * np.exp(gamma * t)))
    residual_norm = float(np.max(np.abs(logr - (slope * t + intercept))))
    return RateFit(prefactor, gamma, (float(t[0]), float(t[-1])), residual_norm)


@dataclass(frozen=True)
class BistablePoint:
    """Equilibrium of the judgment system; ``stable`` is None at a marginal point."""

    e: float
    a: float
    stable: Optional[bool]

    @property
    def label(self) -> str:
        if self.stable is None:
            return "marginal"
        return "stable" if self.stable else "unstable"


def _judgment_jacobian(e: float, a: float, k1: float, k2: float, k3: float, k4: float):
    return np.array(
        [
            [-2 * k2 * e - k3 * a - k4, 2 * k1 - k3 * e],
            [2 * k2 * e, -k1],
        ]
    )


def bistable_equilibria(k1: float, k2: float, k3: float, k4: float) -> List[BistablePoint]:
    """Equilibria of the judgment system, with Jacobian-based stability labels.

    The system is ``de/dt = 2 k1 a - k2 e^2 - k3 e a - k4 e`` and
    ``da/dt = k2 e^2 - k1 a``.  The origin is always an equilibrium; when
    ``k1 k2 - 4 k3 k4 > 0`` two positive equilibria appear on the parabola
    ``a = (k2/k1) e^2``, the smaller unstable and the larger stable.  An
    eigenvalue real part within 1e-9 of zero yields a marginal label.
    """
    if min(k1, k2, k3, k4) <= 0:
        raise ValueError("rate constants must be positive")
    disc = k1 * k2 * (k1 * k2 - 4 * k3 * k4)
    e_values = [0.0]
    if k1 * k2 - 4 * k3 * k4 > 0:
        root = float(np.sqrt(disc))
        e_values.append((k1 * k2 - root) / (2 * k2 * k3))
        e_values.append((k1 * k2 + root) / (2 * k2 * k3))
    elif k1 * k2 - 4 * k3 * k4 == 0:
        e_values.append(k1 / (2 * k3))
    points = []
    for e in e_values:
        a = (k2 / k1) * e * e
        eigs = np.linalg.eigvals(_judgment_jacobian(e, a, k1, k2, k3, k4))
        re = np.real(eigs)
        if np.all(re < -1e-9):
            stable: Optional[bool] = True
        elif np.any(re > 1e-9):
            stable = False
        else:
            stable = None
        points.append(BistablePoint(float(e), float(a), stable))
    return points


def equilibrium_residual(crn: Crn, state: State) -> float:
    """Sup-norm of the mass-action derivative at ``state``."""
    return float(np.max(np.abs(rhs(crn, state)), initial=0.0))


@dataclass
class PhaseReport:
    """Decoded chemical values versus the reference, at one phase boundary."""

    phase: str
    quantities: List[Tuple[str, float, float]]

    @property
    def max_abs_dev(self) -> float:
        return max((abs(c - o) for _, c, o in self.quantities), default=0.0)


def verify_against_oracle(
    boundary: Mapping[str, State],
    program,
    batch: oracle.Batch,
    w1: np.ndarray,
    w2: np.ndarray,
) -> List[PhaseReport]:
    """Diff the phase-boundary states of one round against the exact reference.

    ``boundary`` maps each phase tag to the state at the end of its window,
    as one executor ``run_cycle`` returns it; ``w1``/``w2`` are the decoded
    weights the round started from and ``batch`` the block it was fed.
    Reported quantities per boundary: net inputs (the rail difference),
    activations, errors and complements, gradient rails, and updated
    weights.  Phases absent from ``boundary`` are skipped.
    """
    probes = program.probes
    trace = oracle.forward(w1, w2, batch)

    reports: List[PhaseReport] = []

    def add(phase: str, rows: List[Tuple[str, float, float]]):
        if rows:
            reports.append(PhaseReport(phase, rows))

    if "O7" in boundary:
        st = boundary["O7"]
        add("O7", [
            (f"net1[{i},{l}]", decode_dual_rail(st, pair), float(trace.net_hidden[i - 1, l - 1]))
            for (i, l), pair in sorted(probes.net1.items())
        ])
    if "O13" in boundary:
        st = boundary["O13"]
        add("O13", [
            (f"hidden[{i},{l}]", st.get(name), float(trace.hidden_ext[i - 1, l - 1]))
            for (i, l), name in sorted(probes.hidden.items())
        ])
    if "O15" in boundary:
        st = boundary["O15"]
        add("O15", [
            (f"net2[{o},{l}]", decode_dual_rail(st, pair), float(trace.net_out[l - 1]))
            for (o, l), pair in sorted(probes.net2.items())
        ])
    if "O21" in boundary:
        st = boundary["O21"]
        add("O21", [
            (f"output[{o},{l}]", st.get(name), float(trace.outputs[l - 1]))
            for (o, l), name in sorted(probes.outputs.items())
        ])
    if "O23" in boundary and probes.error:
        st = boundary["O23"]
        rows = []
        errors = batch.labels - trace.outputs
        for l, name in sorted(probes.error.items()):
            rows.append((f"|error|[{l}]", st.get(name), float(abs(errors[l - 1]))))
        for l, pair in sorted(probes.error_pairs.items()):
            rows.append((f"error[{l}]", decode_dual_rail(st, pair), float(errors[l - 1])))
        for l, name in sorted(probes.one_minus_y.items()):
            rows.append((f"1-y[{l}]", st.get(name), float(1.0 - trace.outputs[l - 1])))
        for (i, l), name in sorted(probes.one_minus_h.items()):
            rows.append((f"1-h[{i},{l}]", st.get(name), float(1.0 - trace.hidden_ext[i - 1, l - 1])))
        add("O23", rows)
    if "O27" in boundary and probes.gradients1:
        st = boundary["O27"]
        g1, g2 = oracle.gradients(w1, w2, batch)
        rows = [
            (f"grad1[{i},{j}]", decode_dual_rail(st, pair), float(g1[i - 1, j - 1]))
            for (i, j), pair in sorted(probes.gradients1.items())
        ]
        rows += [
            (f"grad2[{o},{a}]", decode_dual_rail(st, pair), float(g2[o - 1, a - 1]))
            for (o, a), pair in sorted(probes.gradients2.items())
        ]
        add("O27", rows)
    if "O29" in boundary and probes.weights1 and program.train is not None:
        st = boundary["O29"]
        new_w1, new_w2 = oracle.mbgd_step(w1, w2, batch, program.train.eta)
        rows = [
            (f"w1[{i},{j}]", decode_dual_rail(st, pair), float(new_w1[i - 1, j - 1]))
            for (i, j), pair in sorted(probes.weights1.items())
        ]
        rows += [
            (f"w2[{o},{a}]", decode_dual_rail(st, pair), float(new_w2[o - 1, a - 1]))
            for (o, a), pair in sorted(probes.weights2.items())
        ]
        add("O29", rows)
    return reports


def reports_to_csv(reports: Sequence[PhaseReport], path) -> None:
    """Write ``phase,quantity,chemical,oracle,abs_dev`` rows; labels such as
    ``w1[1,3]`` are quoted."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("phase", "quantity", "chemical", "oracle", "abs_dev"))
        for report in reports:
            for label, chem, orc in report.quantities:
                writer.writerow((report.phase, label, repr(chem), repr(orc), repr(abs(chem - orc))))

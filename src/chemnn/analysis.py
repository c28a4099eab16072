"""Decoders and verifiers for compiled programs and their dynamics.

Covers dual-rail decoding, bistability analysis and contraction balls for
the judgment module, and phase-by-phase comparison of a simulated program
against the exact floating-point network reference, as rows that the
command line writes to ``phase_report.csv`` and checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Mapping, Optional, Tuple

import numpy as np

from . import oracle
from .crn import State

__all__ = [
    "BistablePoint",
    "decode_dual_rail",
    "bistable_equilibria",
    "contraction_ball",
    "verify_against_oracle",
]


def decode_dual_rail(state: State, pair: Tuple[str, str]) -> float:
    """Signed value carried by a rail pair: plus concentration minus minus."""
    plus, minus = pair
    return state.get(plus) - state.get(minus)


@dataclass(frozen=True)
class BistablePoint:
    """Equilibrium of the judgment system; ``stable`` is None at a marginal point."""

    e: float
    a: float
    stable: Optional[bool]


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


def contraction_ball(point: BistablePoint, k1: float, k2: float, k3: float, k4: float):
    """``(inverse, gain, reach, rate, slope)`` of the ball about a stable point
    p of the judgment system in which its flow contracts.  With w =
    ``inverse`` (x - p) in a real basis at p, the Jacobian, affine in x =
    (e, a), has log-norm at most -(``rate`` - ``slope`` |w|): a start at |w| =
    rho < rate / slope ends at p with |w(t)| <= rho e^(-(rate - slope rho) t)
    (Lohmiller and Slotine, Automatica 1998), and |x - p| <= ``gain`` |w| <=
    gain ``reach`` |x - p|.  The basis is the eigenbasis, or for complex
    eigenvalues its real form; a repeated eigenvalue lambda takes the Jordan
    basis scaled so that the Jacobian reads [[lambda, -lambda], [0, lambda]]
    there, whose log-norm is lambda / 2.
    """

    def top(sym):  # the larger eigenvalue of a symmetric 2 x 2 matrix
        return 0.5 * (sym[0, 0] + sym[1, 1]) + math.hypot(0.5 * (sym[0, 0] - sym[1, 1]), sym[0, 1])

    def norm(m):
        return math.sqrt(top(m.T @ m))

    (p, q), (r, s) = jac = _judgment_jacobian(point.e, point.a, k1, k2, k3, k4)
    half, disc = 0.5 * (p + s), 0.25 * (p - s) ** 2 + q * r
    root = math.sqrt(abs(disc)) or -half
    # q = 2 k1 - k3 e > 0 at a stable point, so (q, lambda - p) is an eigenvector
    basis = np.array([[q, q], [half + root - p, half - root - p]] if disc > 0
                     else [[q, 0.0], [half - p, root]])
    inverse = np.linalg.inv(basis)
    local = inverse @ jac @ basis
    moves = (np.array([[-2 * k2, -k3], [2 * k2, 0.0]]), np.array([[-k3, 0.0], [0.0, 0.0]]))
    rate = -top(0.5 * (local + local.T))
    slope = math.hypot(*(norm(inverse @ (basis[0, j] * moves[0] + basis[1, j] * moves[1]) @ basis)
                         for j in range(2)))
    return inverse, norm(basis), norm(inverse), rate, slope


def verify_against_oracle(
    boundary: Mapping[str, State],
    program,
    batch: oracle.Batch,
    w1: np.ndarray,
    w2: np.ndarray,
) -> List[Tuple[str, str, float, float]]:
    """Diff the phase-boundary states of one round against the exact reference.

    ``boundary`` maps each phase tag to the state at the end of its window,
    as one executor ``run_cycle`` returns it; ``w1``/``w2`` are the decoded
    weights the round started from and ``batch`` the block it was fed.
    Returns one ``(phase, quantity, chemical, oracle)`` row per decoded
    value, in phase order, labelled such as ``w1[1,3]``.  Per boundary they
    are: net inputs (the rail difference), activations, errors and
    complements, gradient rails (eta times the negative gradient), and
    updated weights, all from ``oracle.exact_round``: a round whose exact
    errors are all below the threshold expects zero gradient rails and
    unchanged weights.  A program without training expects no update.
    Phases absent from ``boundary`` are skipped.
    """
    probes, train = program.probes, program.train
    eta, threshold = (train.eta, train.threshold) if train else (0.0, np.inf)
    exact = oracle.exact_round(w1, w2, batch, eta, threshold)
    trace, errors = exact.trace, exact.errors
    # (phase, label, probe table, expected values); a table maps 1-based
    # indices to a species, read as is, or to a rail pair, decoded
    tables = [
        ("O7", "net1", probes.net1, trace.net_hidden),
        ("O13", "hidden", probes.hidden, trace.hidden_ext),
        ("O15", "net2", probes.net2, trace.net_out[None]),
        ("O21", "output", probes.outputs, trace.outputs[None]),
        ("O23", "|error|", probes.error, np.abs(errors)),
        ("O23", "error", probes.error_pairs, errors),
        ("O23", "1-y", probes.one_minus_y, 1.0 - trace.outputs),
        ("O23", "1-h", probes.one_minus_h, 1.0 - trace.hidden_ext),
        ("O27", "grad1", probes.gradients1, exact.step[0]),
        ("O27", "grad2", probes.gradients2, exact.step[1]),
        ("O29", "w1", probes.weights1, exact.w1),
        ("O29", "w2", probes.weights2, exact.w2),
    ]
    rows = []
    for phase, label, table, expected in tables:
        if phase not in boundary:
            continue
        st = boundary[phase]
        for key, probe in sorted(table.items()):
            index = key if isinstance(key, tuple) else (key,)
            chem = st.get(probe) if isinstance(probe, str) else decode_dual_rail(st, probe)
            rows.append((
                phase,
                f"{label}[{','.join(map(str, index))}]",
                chem,
                float(expected[tuple(i - 1 for i in index)]),
            ))
    return rows

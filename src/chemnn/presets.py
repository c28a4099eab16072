"""The built-in logic-gate experiments: XOR and OR on the 2-2-1 network.

Samples are rows of (x1, x2, label).  The stacked 3x3 rail matrices hold
the layer-1 weights in rows 1-2 and the layer-2 weights in row 3; a weight
is its plus rail minus its minus rail.  ``*_PLUS`` / ``*_MINUS`` start the
training and ``*_FINAL_PLUS`` / ``*_FINAL_MINUS`` are the trained rails the
paper reports.  ``JUDGE_RATES`` are the bistable judgment's rate constants
(k1, k2, k3, k4).  ``GATES`` maps each problem name to its samples and
starting rails.  The arrays are read-only; copy one to change it.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "GATES",
    "JUDGE_RATES",
    "OR_FINAL_MINUS",
    "OR_FINAL_PLUS",
    "OR_MINUS",
    "OR_PLUS",
    "OR_SAMPLES",
    "XOR_FINAL_MINUS",
    "XOR_FINAL_PLUS",
    "XOR_MINUS",
    "XOR_PLUS",
    "XOR_SAMPLES",
]


def _frozen(rows) -> np.ndarray:
    out = np.array(rows, dtype=float)
    out.setflags(write=False)
    return out


XOR_SAMPLES = _frozen([[1, 0, 1], [0, 0, 0], [1, 1, 0], [0, 1, 1]])
OR_SAMPLES = _frozen([[1, 0, 1], [0, 0, 0], [1, 1, 1], [0, 1, 1]])

XOR_PLUS = _frozen([[3, 3, 2.5], [4, 3, 2], [2, 3, 2.5]])
XOR_MINUS = _frozen([[4, 4, 1], [3, 2, 2.5], [1, 2, 4]])
OR_PLUS = _frozen(
    [[4.1968, 1.8964, 2.8458], [1.4442, 1.2924, 3.0160], [7.4030, 8.3528, 2.5640]]
)
OR_MINUS = _frozen([[2, 6, 6], [2, 2, 2], [6, 10, 2]])

XOR_FINAL_PLUS = _frozen(
    [[3.2948, 3.2884, 3.0536], [4.3969, 3.3891, 2.8581], [2.4997, 3.4997, 3.2926]]
)
XOR_FINAL_MINUS = _frozen(
    [[4.2736, 4.2709, 1.4894], [3.3467, 2.3475, 3.2918], [1.3883, 2.3819, 4.6351]]
)
OR_FINAL_PLUS = _frozen(
    [[4.6620, 1.9115, 3.4033], [2.5240, 2.2642, 5.3571], [7.4863, 8.7303, 3.3334]]
)
OR_FINAL_MINUS = _frozen(
    [[2.3766, 6.0094, 6.4861], [3.2772, 3.2779, 4.5249], [6.0113, 10.2436, 2.3547]]
)

JUDGE_RATES = (8.0, 1.0, 2.0, 0.4375)

GATES = {
    "xor": {"samples": XOR_SAMPLES, "plus": XOR_PLUS, "minus": XOR_MINUS},
    "or": {"samples": OR_SAMPLES, "plus": OR_PLUS, "minus": OR_MINUS},
}

"""Exact floating-point reference for an n-h-1 network and its training loop.

Every chemically computed quantity is checked against this module: forward
activations, the squared-error loss, analytic gradients (validated against
finite differences in the test suite), single mini-batch gradient-descent
steps, and the block-cycling training loop with its error-threshold stop
rule.  The shapes come from the weights: w1 is h x (n+1) and w2 is 1 x (h+1),
biases in the last column.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

__all__ = [
    "Batch",
    "ForwardTrace",
    "TrainResult",
    "sigmoid",
    "forward",
    "loss",
    "gradients",
    "mbgd_step",
    "train",
    "batches_of",
]


def sigmoid(z):
    """Logistic function 1 / (1 + exp(-z)), elementwise."""
    return 1.0 / (1.0 + np.exp(-np.asarray(z, dtype=float)))


@dataclass(frozen=True)
class Batch:
    """Inputs as an (n+1) x m matrix whose last row is all ones, plus the m labels."""

    inputs: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        inputs = np.atleast_2d(np.asarray(self.inputs, dtype=float))
        labels = np.asarray(self.labels, dtype=float).ravel()
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "labels", labels)
        if inputs.shape[0] < 2:
            raise ValueError(f"inputs must be (n+1) x m (last row ones), got {inputs.shape}")
        if not np.allclose(inputs[-1], 1.0):
            raise ValueError("last input row must be all ones (bias feed)")
        if labels.shape[0] != inputs.shape[1]:
            raise ValueError("label count does not match batch size")

    @classmethod
    def from_samples(cls, samples: np.ndarray) -> "Batch":
        """Build from rows of inputs followed by the label ``(x1, ..., xn, d)``."""
        samples = np.atleast_2d(np.asarray(samples, dtype=float))
        return cls(np.vstack([samples[:, :-1].T, np.ones(samples.shape[0])]), samples[:, -1])

    @property
    def size(self) -> int:
        return self.inputs.shape[1]


@dataclass(frozen=True)
class ForwardTrace:
    """All intermediate quantities of one forward pass over a batch."""

    net_hidden: np.ndarray    # h x m
    hidden_ext: np.ndarray    # (h+1) x m, last row ones
    net_out: np.ndarray       # m
    outputs: np.ndarray       # m, strictly inside (0, 1)


def _check_weights(w1: np.ndarray, w2: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    w1 = np.atleast_2d(np.asarray(w1, dtype=float))
    w2 = np.atleast_2d(np.asarray(w2, dtype=float))
    if w1.ndim != 2 or w2.shape != (1, w1.shape[0] + 1):
        raise ValueError(f"w2 must be 1 x (h+1) for an h-row w1, got {w1.shape} and {w2.shape}")
    return w1, w2


def forward(w1: np.ndarray, w2: np.ndarray, batch: Batch) -> ForwardTrace:
    """Feedforward pass: weighted sums and logistic activations, layer by layer."""
    w1, w2 = _check_weights(w1, w2)
    net_hidden = w1 @ batch.inputs
    hidden = sigmoid(net_hidden)
    hidden_ext = np.vstack([hidden, np.ones(batch.size)])
    net_out = (w2 @ hidden_ext)[0]
    return ForwardTrace(net_hidden, hidden_ext, net_out, sigmoid(net_out))


def loss(outputs: np.ndarray, labels: np.ndarray) -> float:
    """Half the summed squared error over the batch."""
    e = np.asarray(labels, dtype=float) - np.asarray(outputs, dtype=float)
    return float(0.5 * np.dot(e, e))


def gradients(w1: np.ndarray, w2: np.ndarray, batch: Batch) -> Tuple[np.ndarray, np.ndarray]:
    """Negative loss gradient (unscaled by the learning rate) for both layers.

    Returns ``(g1, g2)`` with the shapes of ``w1`` and ``w2``; the update
    step is ``w + eta * g``.
    """
    w1, w2 = _check_weights(w1, w2)
    trace = forward(w1, w2, batch)
    e = batch.labels - trace.outputs
    gout = e * trace.outputs * (1.0 - trace.outputs)          # m
    g2 = (gout[None, :] * trace.hidden_ext).sum(axis=1)[None, :]
    hidden = trace.hidden_ext[:-1]
    ghid = gout[None, :] * w2[0, :-1, None] * hidden * (1.0 - hidden)   # h x m
    g1 = ghid @ batch.inputs.T
    return g1, g2


def mbgd_step(
    w1: np.ndarray, w2: np.ndarray, batch: Batch, eta: float
) -> Tuple[np.ndarray, np.ndarray]:
    """One mini-batch gradient-descent update with learning rate ``eta``."""
    g1, g2 = gradients(w1, w2, batch)
    return w1 + eta * g1, w2 + eta * g2


def batches_of(samples: np.ndarray, batch_size: int) -> List[Batch]:
    """Split sample rows into consecutive blocks of ``batch_size``."""
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    p = samples.shape[0]
    if batch_size < 1 or p % batch_size != 0:
        raise ValueError(f"batch size {batch_size} does not divide sample count {p}")
    return [Batch.from_samples(samples[i : i + batch_size]) for i in range(0, p, batch_size)]


@dataclass
class TrainResult:
    """Outcome of the block-cycling training loop."""

    rounds: int
    terminated: bool
    w1: np.ndarray
    w2: np.ndarray
    weight_history: List[Tuple[np.ndarray, np.ndarray]] = field(default_factory=list)
    errors: List[np.ndarray] = field(default_factory=list)
    outputs: List[np.ndarray] = field(default_factory=list)


def train(
    samples: np.ndarray,
    w1: np.ndarray,
    w2: np.ndarray,
    *,
    eta: float,
    batch_size: int,
    threshold: float,
    max_rounds: int = 500,
) -> TrainResult:
    """Cycle sample blocks and update weights until the stop rule fires.

    Round ``m`` feeds block ``((m-1) mod p/batch_size) + 1``.  The loop stops
    at the first round whose own batch has every absolute error below
    ``threshold``; that round applies no update, mirroring a judgment gate
    that only sees the current block.  ``weight_history[m-1]`` holds the
    weights the round started from.
    """
    if not 0 < eta <= 1:
        raise ValueError(f"learning rate must be in (0, 1], got {eta}")
    if not 0 < threshold < np.inf:
        raise ValueError(f"threshold must be positive and finite, got {threshold}")
    blocks = batches_of(samples, batch_size)
    w1 = np.asarray(w1, dtype=float).copy()
    w2 = np.atleast_2d(np.asarray(w2, dtype=float)).copy()
    result = TrainResult(rounds=0, terminated=False, w1=w1, w2=w2)
    for m in range(1, max_rounds + 1):
        batch = blocks[(m - 1) % len(blocks)]
        trace = forward(w1, w2, batch)
        e = batch.labels - trace.outputs
        result.weight_history.append((w1.copy(), w2.copy()))
        result.errors.append(np.abs(e))
        result.outputs.append(trace.outputs.copy())
        result.rounds = m
        if np.all(np.abs(e) < threshold):
            result.terminated = True
            break
        w1, w2 = mbgd_step(w1, w2, batch, eta)
    result.w1, result.w2 = w1, w2
    return result

"""Exact floating-point reference for an n-h-1 network and its training loop.

Every chemically computed quantity is checked against this module: forward
activations, the squared-error loss, analytic gradients (validated against
finite differences in the test suite), single mini-batch gradient-descent
steps, the chemistry's training round and its block-cycling loop with its
stop rule.  The shapes come from the weights: w1 is h x (n+1) and w2 is
1 x (h+1), biases in the last column.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    "Round",
    "exact_round",
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


@dataclass(frozen=True)
class Round:
    """One exact round: the signed errors d - y, the judgment's decision, the
    eta-scaled negative gradient it adds (zeros without an update) and the
    weights after the round."""

    trace: ForwardTrace
    errors: np.ndarray
    update: bool
    step: Tuple[np.ndarray, np.ndarray]
    w1: np.ndarray
    w2: np.ndarray


def exact_round(w1: np.ndarray, w2: np.ndarray, batch: Batch, eta: float, threshold: float) -> Round:
    """The chemistry's round in exact arithmetic: it updates unless every
    |error| is below ``threshold``, by ``mbgd_step``'s arithmetic bit for bit."""
    w1, w2 = _check_weights(w1, w2)
    trace = forward(w1, w2, batch)
    errors = batch.labels - trace.outputs
    if np.all(np.abs(errors) < threshold):
        return Round(trace, errors, False, (np.zeros_like(w1), np.zeros_like(w2)), w1, w2)
    g1, g2 = gradients(w1, w2, batch)
    step = (eta * g1, eta * g2)
    return Round(trace, errors, True, step, w1 + step[0], w2 + step[1])


@dataclass
class TrainResult:
    """The loop's rounds in order, whether the stop rule ended it, and the final weights."""

    rounds: List[Round]
    terminated: bool
    w1: np.ndarray
    w2: np.ndarray


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
    """Cycle sample blocks through ``exact_round`` until the stop rule fires.

    Round ``m`` feeds block ``((m-1) mod p/batch_size) + 1``.  The loop
    stops once rounds without an update have run for a full block
    rotation, as ``training.run_training`` stops on the closed gate: a
    block that passes under frozen weights does not mean the next one does.
    """
    if not 0 < eta <= 1:
        raise ValueError(f"learning rate must be in (0, 1], got {eta}")
    if not 0 < threshold < np.inf:
        raise ValueError(f"threshold must be positive and finite, got {threshold}")
    blocks = batches_of(samples, batch_size)
    rounds, streak = [], 0
    while streak < len(blocks) and len(rounds) < max_rounds:
        rounds.append(exact_round(w1, w2, blocks[len(rounds) % len(blocks)], eta, threshold))
        w1, w2 = rounds[-1].w1, rounds[-1].w2
        streak = 0 if rounds[-1].update else streak + 1
    return TrainResult(rounds, streak == len(blocks), w1, w2)

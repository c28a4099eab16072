"""Reference-network tests: activations, loss, gradients, updates, training loop."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chemnn import oracle

from conftest import (
    OR_MINUS,
    OR_PLUS,
    OR_SAMPLES,
    XOR_MINUS,
    XOR_PLUS,
    XOR_SAMPLES,
    finite_difference_gradients,
)


def _xor_weights():
    w = XOR_PLUS - XOR_MINUS
    return w[:2].copy(), w[2:3].copy()


def _or_weights():
    w = OR_PLUS - OR_MINUS
    return w[:2].copy(), w[2:3].copy()


class TestSigmoid:
    def test_zero(self):
        assert oracle.sigmoid(0.0) == 0.5

    def test_one(self):
        assert oracle.sigmoid(1.0) == pytest.approx(0.7310585786300049, abs=1e-12)

    def test_symmetry(self):
        assert oracle.sigmoid(3.0) + oracle.sigmoid(-3.0) == pytest.approx(1.0, abs=1e-12)


class TestForward:
    def test_zero_weights_give_half(self):
        batch = oracle.Batch.from_samples(XOR_SAMPLES)
        trace = oracle.forward(np.zeros((2, 3)), np.zeros((1, 3)), batch)
        np.testing.assert_allclose(trace.outputs, 0.5)
        np.testing.assert_allclose(trace.hidden_ext[:2], 0.5)

    def test_bias_row_enforced(self):
        with pytest.raises(ValueError):
            oracle.Batch(np.array([[1.0], [0.0], [0.5]]), np.array([1.0]))

    def test_last_sample_column_is_the_label(self):
        batch = oracle.Batch.from_samples([[0.1, 0.2, 0.3, 1.0], [0.4, 0.5, 0.6, 0.0]])
        np.testing.assert_array_equal(
            batch.inputs, [[0.1, 0.4], [0.2, 0.5], [0.3, 0.6], [1.0, 1.0]]
        )
        np.testing.assert_array_equal(batch.labels, [1.0, 0.0])

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1))
    def test_outputs_strictly_inside_unit_interval(self, seed):
        rng = np.random.default_rng(seed)
        w1 = rng.normal(0, 3, (2, 3))
        w2 = rng.normal(0, 3, (1, 3))
        batch = oracle.Batch.from_samples(rng.uniform(0, 1, (4, 3)))
        trace = oracle.forward(w1, w2, batch)
        assert np.all(trace.outputs > 0) and np.all(trace.outputs < 1)


class TestLoss:
    def test_zero_on_match(self):
        assert oracle.loss(np.array([0.3, 0.7]), np.array([0.3, 0.7])) == 0.0

    def test_unit_case(self):
        assert oracle.loss(np.array([0.0, 1.0]), np.array([1.0, 0.0])) == pytest.approx(1.0)

    def test_against_hand_sum(self):
        rng = np.random.default_rng(3)
        y = rng.uniform(0, 1, 5)
        d = rng.uniform(0, 1, 5)
        assert oracle.loss(y, d) == pytest.approx(0.5 * sum((di - yi) ** 2 for yi, di in zip(y, d)))


class TestGradients:
    def test_zero_error_gives_zero_gradient(self):
        w1, w2 = _xor_weights()
        batch0 = oracle.Batch.from_samples(XOR_SAMPLES[:2])
        trace = oracle.forward(w1, w2, batch0)
        batch = oracle.Batch(batch0.inputs, trace.outputs)  # labels equal outputs
        g1, g2 = oracle.gradients(w1, w2, batch)
        np.testing.assert_allclose(g1, 0.0, atol=1e-15)
        np.testing.assert_allclose(g2, 0.0, atol=1e-15)

    def test_single_sample_seven_factor_product(self):
        # first layer-1 entry, one sample: e * y(1-y) * w2_11 * h1(1-h1) * x1
        w1, w2 = _xor_weights()
        batch = oracle.Batch.from_samples(XOR_SAMPLES[:1])
        trace = oracle.forward(w1, w2, batch)
        e = batch.labels[0] - trace.outputs[0]
        y = trace.outputs[0]
        h1 = trace.hidden_ext[0, 0]
        expected = e * y * (1 - y) * w2[0, 0] * h1 * (1 - h1) * batch.inputs[0, 0]
        g1, _ = oracle.gradients(w1, w2, batch)
        assert g1[0, 0] == pytest.approx(expected, rel=1e-12)

    def test_finite_difference_agreement(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            w1 = rng.normal(0, 2, (2, 3))
            w2 = rng.normal(0, 2, (1, 3))
            batch = oracle.Batch.from_samples(rng.uniform(0, 1, (2, 3)))
            g1, g2 = oracle.gradients(w1, w2, batch)
            f1, f2 = finite_difference_gradients(w1, w2, batch)
            scale = max(1.0, np.abs(f1).max(), np.abs(f2).max())
            assert np.abs(g1 - f1).max() / scale < 1e-6
            assert np.abs(g2 - f2).max() / scale < 1e-6

    @pytest.mark.parametrize("n, h", [(3, 2), (2, 3)])
    def test_finite_difference_agreement_other_widths(self, n, h):
        """The shapes come from the weights: n inputs and h hidden units."""
        rng = np.random.default_rng(7)
        for _ in range(20):
            w1 = rng.normal(0, 2, (h, n + 1))
            w2 = rng.normal(0, 2, (1, h + 1))
            batch = oracle.Batch.from_samples(rng.uniform(0, 1, (3, n + 1)))
            g1, g2 = oracle.gradients(w1, w2, batch)
            assert g1.shape == (h, n + 1) and g2.shape == (1, h + 1)
            f1, f2 = finite_difference_gradients(w1, w2, batch)
            scale = max(1.0, np.abs(f1).max(), np.abs(f2).max())
            assert np.abs(g1 - f1).max() / scale < 1e-6
            assert np.abs(g2 - f2).max() / scale < 1e-6

    def test_layer_two_must_match_hidden_width(self):
        batch = oracle.Batch.from_samples(XOR_SAMPLES)
        with pytest.raises(ValueError, match="h\\+1"):
            oracle.gradients(np.zeros((3, 3)), np.zeros((1, 3)), batch)

    def test_batch_additivity(self):
        w1, w2 = _or_weights()
        batch = oracle.Batch.from_samples(OR_SAMPLES)
        g1, g2 = oracle.gradients(w1, w2, batch)
        sums1 = np.zeros((2, 3))
        sums2 = np.zeros((1, 3))
        for row in OR_SAMPLES:
            s1, s2 = oracle.gradients(w1, w2, oracle.Batch.from_samples(row[None, :]))
            sums1 += s1
            sums2 += s2
        np.testing.assert_allclose(g1, sums1, rtol=1e-12)
        np.testing.assert_allclose(g2, sums2, rtol=1e-12)


class TestMbgdStep:
    def test_zero_gradient_is_identity(self):
        w1, w2 = _xor_weights()
        batch0 = oracle.Batch.from_samples(XOR_SAMPLES[:2])
        trace = oracle.forward(w1, w2, batch0)
        batch = oracle.Batch(batch0.inputs, trace.outputs)
        n1, n2 = oracle.mbgd_step(w1, w2, batch, 0.9)
        np.testing.assert_allclose(n1, w1, atol=1e-15)
        np.testing.assert_allclose(n2, w2, atol=1e-15)

    def test_one_step_golden(self):
        # frozen from this module's own arithmetic on the nonlinear-gate setup
        w1, w2 = _xor_weights()
        batch = oracle.Batch.from_samples(XOR_SAMPLES[:2])
        n1, n2 = oracle.mbgd_step(w1, w2, batch, 0.9)
        expected1 = np.array(
            [
                [-0.9706877401331079, -1.0, 1.5153973575349429],
                [1.029312259866892, 1.0, -0.49261285908524116],
            ]
        )
        expected2 = np.array([[1.001362838173859, 1.0424166303872782, -1.4685658543622415]])
        np.testing.assert_allclose(n1, expected1, rtol=1e-12)
        np.testing.assert_allclose(n2, expected2, rtol=1e-12)


class TestTrain:
    """The loop stops as ``training.run_training`` does: after a rotation without an update."""

    def test_exact_round_is_the_mbgd_step_or_none(self):
        """An open round's step is eta times the gradient and its weights are
        ``mbgd_step``'s bit for bit; with every |error| below the threshold a
        round keeps its weights, and an error at the threshold updates."""
        w1, w2 = _xor_weights()
        batch = oracle.Batch.from_samples(XOR_SAMPLES[:2])
        worst = np.abs(batch.labels - oracle.forward(w1, w2, batch).outputs).max()
        opened, closed = (oracle.exact_round(w1, w2, batch, 0.9, t) for t in (worst, np.nextafter(worst, 1)))
        n1, n2 = oracle.mbgd_step(w1, w2, batch, 0.9)
        assert opened.update and (opened.w1 == n1).all() and (opened.w2 == n2).all()
        assert (opened.step[1] == 0.9 * oracle.gradients(w1, w2, batch)[1]).all()
        assert not closed.update and (closed.w1 == w1).all() and (closed.w2 == w2).all()
        assert not closed.step[0].any() and not closed.step[1].any()

    def test_loose_threshold_stops_immediately(self):
        """Threshold 1.0 passes every block: one rotation of two rounds, no update."""
        w1, w2 = _xor_weights()
        result = oracle.train(XOR_SAMPLES, w1, w2, eta=0.9, batch_size=2, threshold=1.0)
        assert result.terminated and [r.update for r in result.rounds] == [False, False]
        np.testing.assert_array_equal(result.w1, w1)

    def test_block_cycling_order(self):
        w1, w2 = _xor_weights()
        result = oracle.train(XOR_SAMPLES, w1, w2, eta=0.9, batch_size=2, threshold=0.01, max_rounds=5)
        assert not result.terminated and len(result.rounds) == 5
        # round m sees block ((m-1) mod 2) + 1, from the weights round m-1 left
        starts = [(w1, w2)] + [(r.w1, r.w2) for r in result.rounds]
        for m, r in enumerate(result.rounds):
            batch = oracle.batches_of(XOR_SAMPLES, 2)[m % 2]
            np.testing.assert_array_equal(r.trace.outputs, oracle.forward(*starts[m], batch).outputs)

    def test_nonlinear_gate_rounds(self):
        # exact-arithmetic rounds from the published starting weights; the
        # chemical pipeline (finite windows) is the reproduction target for
        # published counts, not this reference loop.
        w1, w2 = _xor_weights()
        result = oracle.train(XOR_SAMPLES, w1, w2, eta=0.9, batch_size=2, threshold=0.5)
        assert result.terminated and [r.update for r in result.rounds] == [True] * 7 + [False] * 2
        assert all(np.all(np.abs(r.errors) < 0.5) for r in result.rounds[-2:])

    def test_linear_gate_rounds(self):
        w1, w2 = _or_weights()
        result = oracle.train(OR_SAMPLES, w1, w2, eta=0.9, batch_size=2, threshold=0.5)
        assert result.terminated and [r.update for r in result.rounds] == [True, True, False, False]

    def test_history_shapes(self):
        w1, w2 = _xor_weights()
        result = oracle.train(XOR_SAMPLES, w1, w2, eta=0.9, batch_size=2, threshold=0.5)
        assert all(r.errors.shape == (2,) and r.step[0].shape == r.w1.shape == (2, 3) for r in result.rounds)

    def test_invalid_rate_rejected(self):
        w1, w2 = _xor_weights()
        with pytest.raises(ValueError):
            oracle.train(XOR_SAMPLES, w1, w2, eta=1.5, batch_size=2, threshold=0.5)

    @pytest.mark.parametrize("batch_size", [0, -2])
    def test_nonpositive_batch_size_rejected(self, batch_size):
        w1, w2 = _xor_weights()
        with pytest.raises(ValueError, match="batch size"):
            oracle.batches_of(XOR_SAMPLES, batch_size)
        with pytest.raises(ValueError, match="batch size"):
            oracle.train(XOR_SAMPLES, w1, w2, eta=0.9, batch_size=batch_size, threshold=0.5)

    @pytest.mark.parametrize("threshold", [np.inf, np.nan])
    def test_non_finite_threshold_rejected(self, threshold):
        w1, w2 = _xor_weights()
        with pytest.raises(ValueError, match="threshold"):
            oracle.train(XOR_SAMPLES, w1, w2, eta=0.9, batch_size=2, threshold=threshold)

"""Tests for measurement post-processing and readout error."""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import measurement as m

import dense_reference as ref

PROBS = st.floats(min_value=0.0, max_value=1.0)


class TestCountsToProbabilities:
    def test_basic(self):
        probs = m.counts_to_probabilities({"00": 3, "11": 1}, 2)
        assert np.allclose(probs, [0.75, 0, 0, 0.25])

    def test_invalid_bitstring(self):
        with pytest.raises(ValueError, match="invalid bitstring"):
            m.counts_to_probabilities({"0x": 1}, 2)
        with pytest.raises(ValueError, match="invalid bitstring"):
            m.counts_to_probabilities({"0": 1}, 2)

    def test_negative_count(self):
        with pytest.raises(ValueError, match="negative"):
            m.counts_to_probabilities({"00": -1}, 2)

    def test_empty_counts(self):
        with pytest.raises(ValueError, match="empty"):
            m.counts_to_probabilities({}, 2)


class TestExpectations:
    def test_expectation_from_counts_matches_convention(self):
        """All |0> -> +1, all |1> -> -1 per qubit."""
        exp = m.expectation_z_from_counts({"01": 10}, 2)
        assert np.allclose(exp, [1.0, -1.0])

    def test_expectation_from_counts_mixed(self):
        exp = m.expectation_z_from_counts({"00": 1, "10": 1}, 2)
        assert np.allclose(exp, [0.0, 1.0])

    def test_expectation_from_probabilities(self):
        probs = np.array([0.5, 0.0, 0.0, 0.5])  # (|00> + |11>)/sqrt2 mix
        exp = m.expectation_z_from_probabilities(probs)
        assert np.allclose(exp, [0.0, 0.0])

    def test_expectation_from_probabilities_bad_length(self):
        with pytest.raises(ValueError, match="power of two"):
            m.expectation_z_from_probabilities(np.ones(3) / 3)

    def test_counts_and_probability_paths_agree(self):
        counts = {"000": 10, "011": 20, "101": 5, "110": 15}
        probs = m.counts_to_probabilities(counts, 3)
        assert np.allclose(
            m.expectation_z_from_counts(counts, 3),
            m.expectation_z_from_probabilities(probs),
        )

    @pytest.mark.parametrize("shots", [7, 1000, 1023])
    def test_outcome_matrix_equals_counts_path(self, shots):
        """The outcome-matrix readout is the dict readout, bit for bit,
        also when the shot count does not divide evenly."""
        rng = np.random.default_rng(shots)
        probs = rng.dirichlet(np.ones(16), size=5)
        outcomes = m.sample_outcome_matrix(probs, shots, rng)
        stacked = m.expectation_z_from_outcome_matrix(outcomes)
        for row, counts in zip(stacked, m.outcome_matrix_to_counts(outcomes)):
            assert np.array_equal(row, m.expectation_z_from_counts(counts, 4))

    @pytest.mark.parametrize(
        "outcomes,message",
        [
            (np.ones(4, dtype=int), "outcome matrix"),
            (np.ones((2, 3), dtype=int), "power of two"),
            (np.array([[1, 0], [0, 0]]), "empty"),
        ],
    )
    def test_outcome_matrix_validated(self, outcomes, message):
        with pytest.raises(ValueError, match=message):
            m.expectation_z_from_outcome_matrix(outcomes)


class TestHalvingReadout:
    """The one ``<Z>`` reduction every engine and sampled path ends in."""

    @pytest.mark.parametrize("n_qubits", range(1, 11))
    def test_matches_dense_reference_and_batch_of_one(self, n_qubits):
        rng = np.random.default_rng(n_qubits)
        probs = rng.dirichlet(np.ones(2**n_qubits), size=6)
        before = probs.copy()
        stacked = m.expectation_z_from_prob_matrix(probs)
        assert np.array_equal(probs, before)
        assert stacked.shape == (6, n_qubits)
        for row, values in zip(probs, stacked):
            assert np.max(np.abs(values - ref.expectations_z(row))) < 1e-14
            alone = m.expectation_z_from_prob_matrix(row[np.newaxis])
            assert np.array_equal(alone[0], values)
            assert np.array_equal(
                m.expectation_z_from_probabilities(row), values
            )

    @pytest.mark.parametrize("n_qubits", [1, 4, 10])
    def test_outcome_matrix_matches_dense_reference(self, n_qubits):
        rng = np.random.default_rng(100 + n_qubits)
        probs = rng.dirichlet(np.ones(2**n_qubits), size=5)
        outcomes = m.sample_outcome_matrix(probs, 1024, rng)
        before = outcomes.copy()
        stacked = m.expectation_z_from_outcome_matrix(outcomes)
        assert np.array_equal(outcomes, before)
        for row, values in zip(outcomes, stacked):
            want = ref.expectations_z(row / row.sum())
            assert np.max(np.abs(values - want)) < 1e-14
            alone = m.expectation_z_from_outcome_matrix(row[np.newaxis])
            assert np.array_equal(alone[0], values)

    def test_sampled_outcomes_pinned(self):
        """Sampling is untouched by the readout: a recorded seed's draw."""
        probs = np.random.default_rng(0).random((3, 8))
        probs /= probs.sum(axis=1, keepdims=True)
        outcomes = m.sample_outcome_matrix(
            probs, 64, np.random.default_rng(7)
        )
        assert np.array_equal(
            outcomes,
            [
                [11, 7, 1, 0, 10, 18, 3, 14],
                [11, 17, 11, 0, 10, 0, 12, 3],
                [15, 10, 12, 8, 0, 5, 9, 5],
            ],
        )

    @pytest.mark.parametrize(
        "readout,empty",
        [
            (m.expectation_z_from_prob_matrix, np.zeros((2, 0))),
            (m.expectation_z_from_probabilities, np.zeros(0)),
            (m.expectation_z_from_outcome_matrix, np.zeros((2, 0), int)),
        ],
    )
    def test_empty_rows_raise_value_error(self, readout, empty):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="power of two"):
                readout(empty)


class TestReadoutError:
    def test_confusion_matrix_columns_sum_to_one(self):
        conf = m.readout_confusion_matrix(0.03, 0.01)
        assert np.allclose(conf.sum(axis=0), [1.0, 1.0])

    def test_confusion_matrix_validates(self):
        with pytest.raises(ValueError):
            m.readout_confusion_matrix(1.5, 0.0)

    def test_identity_confusion_is_noop(self):
        probs = np.array([0.1, 0.2, 0.3, 0.4])
        identity = m.readout_confusion_matrix(0.0, 0.0)
        out = m.apply_readout_error(probs, [identity, identity])
        assert np.allclose(out, probs)

    def test_full_flip_reverses_marginals(self):
        probs = np.array([1.0, 0.0])  # one qubit in |0>
        flip = m.readout_confusion_matrix(1.0, 1.0)
        out = m.apply_readout_error(probs, [flip])
        assert np.allclose(out, [0.0, 1.0])

    def test_asymmetric_error_biases_towards_zero(self):
        """p01 > p10 (the typical hardware asymmetry) inflates P(0)."""
        probs = np.array([0.5, 0.5])
        conf = m.readout_confusion_matrix(0.05, 0.01)
        out = m.apply_readout_error(probs, [conf])
        assert out[0] > 0.5

    def test_output_normalized(self):
        rng = np.random.default_rng(0)
        probs = rng.dirichlet(np.ones(8))
        confs = [m.readout_confusion_matrix(0.02, 0.01)] * 3
        out = m.apply_readout_error(probs, confs)
        assert np.isclose(out.sum(), 1.0)
        assert np.all(out >= 0)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="does not match"):
            m.apply_readout_error(np.ones(4) / 4, [np.eye(2)] * 3)

    @given(p01=PROBS, p10=PROBS)
    @settings(max_examples=30, deadline=None)
    def test_confusion_always_stochastic(self, p01, p10):
        conf = m.readout_confusion_matrix(p01, p10)
        assert np.all(conf >= 0)
        assert np.allclose(conf.sum(axis=0), 1.0)


class TestSampling:
    def test_sample_counts_sum(self):
        rng = np.random.default_rng(5)
        (counts,) = m.sample_counts_batch(
            np.array([[0.25, 0.25, 0.25, 0.25]]), 1000, rng
        )
        assert sum(counts.values()) == 1000
        assert all(len(k) == 2 for k in counts)

    def test_sample_shots_validated(self):
        with pytest.raises(ValueError):
            m.sample_outcome_matrix(
                np.array([[1.0]]), 0, np.random.default_rng(0)
            )

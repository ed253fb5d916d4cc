"""Deterministic counter-based sampling of the random inputs."""

from __future__ import annotations

import numpy as np
import pytest

from phaseuq import (
    ConfigError,
    DEPTH_RANGE,
    SHIFT_RANGE,
    RandomInputs,
    SampleStream,
    pilot_stream,
    replicate_stream,
    validation_stream,
)


class TestDeterminism:
    def test_same_key_same_draw(self):
        a = SampleStream(2026, "pilot").theta(7)
        b = SampleStream(2026, "pilot").theta(7)
        np.testing.assert_array_equal(a.mu, b.mu)
        np.testing.assert_array_equal(a.eta, b.eta)

    def test_independent_of_draw_order(self):
        stream = SampleStream(2026, "pilot")
        late = stream.theta(5)
        early = stream.theta(0)
        again = SampleStream(2026, "pilot").theta(5)
        np.testing.assert_array_equal(late.to_flat(), again.to_flat())
        assert not np.array_equal(early.to_flat(), late.to_flat())

    def test_master_seed_is_an_integer(self):
        # A numpy integer is the stream of the equal Python int; a bool is
        # not a seed.
        stream = SampleStream(np.int64(3), "pilot")
        assert stream == SampleStream(3, "pilot") and type(stream.master_seed) is int
        np.testing.assert_array_equal(
            stream.theta(4).to_flat(), SampleStream(3, "pilot").theta(4).to_flat()
        )
        for seed in (True, np.bool_(False), 3.0, "3"):
            with pytest.raises(ConfigError, match="master_seed must be an int"):
                SampleStream(seed, "pilot")

    def test_stream_index_is_an_integer(self):
        # A numpy integer index is the draw of the equal Python int; a bool or
        # a float is not an index.
        stream = pilot_stream(1)
        np.testing.assert_array_equal(
            stream.theta(np.int64(3)).to_flat(), stream.theta(3).to_flat()
        )
        for index in (True, np.bool_(False), 3.0, np.float64(1.0), "3"):
            with pytest.raises(ConfigError, match="stream index must be an int"):
                stream.theta(index)

    def test_replicate_index_is_an_integer(self):
        # A numpy integer replicate is the stream of the equal Python int; a
        # bool is not replicate 1 and a float does not reach the tag format.
        assert replicate_stream(1, np.int64(2)) == replicate_stream(1, 2)
        assert replicate_stream(1, 2).tag == "estimate:2"
        for replicate in (True, np.bool_(False), 2.0, np.float64(1.0), "2"):
            with pytest.raises(ConfigError, match="replicate index must be an int"):
                replicate_stream(1, replicate)
        with pytest.raises(ConfigError, match="replicate index must be >= 0"):
            replicate_stream(1, -1)


class TestStreamSeparation:
    def test_streams_pairwise_distinct(self):
        seed = 2026
        streams = [pilot_stream(seed), validation_stream(seed)]
        streams += [replicate_stream(seed, r) for r in range(3)]
        draws = [s.theta(0).to_flat() for s in streams]
        for i in range(len(draws)):
            for j in range(i + 1, len(draws)):
                assert not np.array_equal(draws[i], draws[j])

    def test_seed_changes_stream(self):
        a = pilot_stream(1).theta(0).to_flat()
        b = pilot_stream(2).theta(0).to_flat()
        assert not np.array_equal(a, b)

    def test_index_changes_draw(self):
        stream = pilot_stream(2026)
        flats = np.stack([stream.theta(i).to_flat() for i in range(64)])
        assert len(np.unique(flats, axis=0)) == 64


class TestSupport:
    def test_draws_inside_parameter_box(self):
        stream = pilot_stream(42)
        for theta in [stream.theta(i) for i in range(200)]:
            assert np.all(theta.mu >= DEPTH_RANGE[0]) and np.all(theta.mu <= DEPTH_RANGE[1])
            assert np.all(theta.eta >= SHIFT_RANGE[0]) and np.all(theta.eta <= SHIFT_RANGE[1])
            assert theta.mu.shape == (4,)
            assert theta.eta.shape == (4, 2)

    def test_marginals_roughly_uniform(self):
        stream = validation_stream(7)
        mus = np.stack([stream.theta(i).mu for i in range(2000)])
        # mean of U(0.9, 1.0) is 0.95; standard error with 8000 draws ~ 3e-4
        assert abs(mus.mean() - 0.95) < 2e-3
        assert abs(mus.min() - 0.9) < 1e-3
        assert abs(mus.max() - 1.0) < 1e-3


class TestFlatLayout:
    def test_round_trip(self):
        theta = pilot_stream(9).theta(0)
        again = RandomInputs.from_flat(theta.to_flat())
        np.testing.assert_array_equal(theta.mu, again.mu)
        np.testing.assert_array_equal(theta.eta, again.eta)

    def test_layout_interleaved_per_nucleus(self):
        mu = np.array([0.91, 0.92, 0.93, 0.94])
        eta = np.arange(8, dtype=float).reshape(4, 2) / 1000.0
        flat = RandomInputs(mu=mu, eta=eta).to_flat()
        np.testing.assert_array_equal(
            flat,
            [0.91, 0.0, 0.001, 0.92, 0.002, 0.003, 0.93, 0.004, 0.005, 0.94, 0.006, 0.007],
        )

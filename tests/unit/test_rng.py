"""Unit tests for seeded random substreams."""

import numpy as np
import pytest

from repro.simnet.rng import RngStreams


class TestRngStreams:
    def test_same_seed_same_stream_reproduces(self):
        a = RngStreams(42).stream("jitter").uniform(size=10)
        b = RngStreams(42).stream("jitter").uniform(size=10)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = RngStreams(1).stream("jitter").uniform(size=10)
        b = RngStreams(2).stream("jitter").uniform(size=10)
        assert not np.array_equal(a, b)

    def test_different_names_differ(self):
        streams = RngStreams(7)
        a = streams.stream("alpha").uniform(size=10)
        b = streams.stream("beta").uniform(size=10)
        assert not np.array_equal(a, b)

    def test_stream_isolation_from_creation_order(self):
        # drawing from one stream must not perturb another
        s1 = RngStreams(5)
        s1.stream("other").uniform(size=100)
        a = s1.stream("target").uniform(size=5)

        s2 = RngStreams(5)
        b = s2.stream("target").uniform(size=5)
        assert np.array_equal(a, b)

    def test_stream_is_cached(self):
        streams = RngStreams(3)
        assert streams.stream("x") is streams.stream("x")

    def test_contains_and_names(self):
        streams = RngStreams(3)
        streams.stream("b")
        streams.stream("a")
        assert "a" in streams and "b" in streams and "c" not in streams
        assert streams.names() == ["a", "b"]

    def test_non_int_seed_rejected(self):
        with pytest.raises(TypeError):
            RngStreams("seed")  # type: ignore[arg-type]


@pytest.mark.parametrize("high", [5e-5, 1.0])
@pytest.mark.parametrize("k", [0, 1, 2, 15, 255])
def test_bulk_uniform_is_k_scalar_draws(high, k):
    """``Network.transmit_heartbeats`` draws a tick's jitter with one
    ``uniform(0.0, high, size=k)`` in place of ``k`` scalar calls.  That
    only leaves arrival times alone if both consume PCG64 identically —
    pin it, so a NumPy release that breaks the identity fails here."""
    bulk_gen = RngStreams(11).stream("net.jitter.hb")
    scalar_gen = RngStreams(11).stream("net.jitter.hb")
    bulk = bulk_gen.uniform(0.0, high, size=k).tolist()
    scalar = [float(scalar_gen.uniform(0.0, high)) for _ in range(k)]
    assert bulk == scalar
    assert bulk_gen.bit_generator.state == scalar_gen.bit_generator.state

"""Tests for deterministic named random streams."""

import pytest

from repro.simulation.randomness import RandomStreams


class TestRandomStreams:
    def test_same_seed_same_draws(self):
        a = RandomStreams(7).stream("x").random(5)
        b = RandomStreams(7).stream("x").random(5)
        assert a.tolist() == b.tolist()

    def test_different_names_are_independent(self):
        streams = RandomStreams(7)
        a = streams.stream("a").random(5)
        b = streams.stream("b").random(5)
        assert a.tolist() != b.tolist()

    def test_different_seeds_differ(self):
        a = RandomStreams(1).stream("x").random(5)
        b = RandomStreams(2).stream("x").random(5)
        assert a.tolist() != b.tolist()

    def test_same_name_returns_same_generator_instance(self):
        streams = RandomStreams(0)
        assert streams.stream("x") is streams.stream("x")

    def test_adding_stream_does_not_perturb_existing(self):
        first = RandomStreams(3)
        only = first.stream("main").random(3).tolist()
        second = RandomStreams(3)
        second.stream("other")  # extra stream created before "main"
        with_extra = second.stream("main").random(3).tolist()
        assert only == with_extra

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            RandomStreams(0).stream("")

    def test_non_integer_seed_rejected(self):
        with pytest.raises(TypeError):
            RandomStreams("seed")  # type: ignore[arg-type]

    def test_repr_lists_streams(self):
        streams = RandomStreams(0)
        streams.stream("alpha")
        assert "alpha" in repr(streams)

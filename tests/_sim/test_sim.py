"""Simulation substrate: clock, RNG, trace."""

import pytest

from repro._sim import DeterministicRng, SimClock
from repro._sim.units import Gbps


def test_clock_advances_monotonically():
    clock = SimClock()
    clock.advance(1.5)
    clock.advance(0.5)
    assert clock.now == pytest.approx(2.0)


def test_clock_rejects_negative_advance():
    clock = SimClock()
    with pytest.raises(ValueError):
        clock.advance(-0.1)
    with pytest.raises(ValueError):
        SimClock(start=-1.0)


def test_clock_rejects_nan():
    """NaN fails every ordering test, ``seconds < 0`` included, and a
    clock at NaN makes every later comparison on the heap false."""
    clock = SimClock()
    clock.advance(1.0)
    with pytest.raises(ValueError):
        clock.advance(float("nan"))
    with pytest.raises(ValueError):
        clock.advance_each(float("nan"), 3)
    with pytest.raises(ValueError):
        clock.advance_each(-0.1, 0)  # validated even when nothing would be added
    assert clock.now == 1.0
    with pytest.raises(ValueError):
        SimClock(start=float("nan"))


@pytest.mark.parametrize("observed", [False, True])
def test_advance_each_is_successive_advances(observed):
    """Same additions in the same order, so the same bits — which one
    multiplication does not give."""
    step, times = 12e-6 * 16, 100_000
    one_by_one, batched = SimClock(0.25), SimClock(0.25)
    seen = []
    if observed:
        batched.subscribe(lambda old, new: seen.append((old, new)))
    assert batched.observed is observed
    expected = [(one_by_one.now, one_by_one.advance(step)) for _ in range(times)]
    assert batched.advance_each(step, times) == one_by_one.now
    assert batched.now == one_by_one.now != 0.25 + step * times
    assert seen == (expected if observed else [])
    assert batched.advance_each(step, 0) == one_by_one.now


def test_observed_follows_subscriptions():
    clock = SimClock()

    def observer(old, new):
        pass

    assert clock.observed is False
    clock.subscribe(observer)
    assert clock.observed is True
    clock.unsubscribe(observer)
    assert clock.observed is False


def test_advance_to_is_idempotent_backwards():
    clock = SimClock()
    clock.advance(5.0)
    clock.advance_to(3.0)  # in the past: no-op
    assert clock.now == 5.0
    clock.advance_to(7.0)
    assert clock.now == 7.0


def test_clock_observers():
    clock = SimClock()
    seen = []
    clock.subscribe(lambda old, new: seen.append((old, new)))
    clock.advance(1.0)
    clock.advance(2.0)
    assert seen == [(0.0, 1.0), (1.0, 3.0)]


def test_clock_measure_span():
    clock = SimClock()
    with clock.measure() as span:
        clock.advance(0.25)
    assert span.elapsed == pytest.approx(0.25)


def test_rng_determinism():
    a = DeterministicRng(42)
    b = DeterministicRng(42)
    assert a.random_bytes(64) == b.random_bytes(64)
    assert a.random_bytes(16) == b.random_bytes(16)  # stream continues


def test_rng_children_independent():
    root = DeterministicRng(1)
    assert root.child("a").random_bytes(8) != root.child("b").random_bytes(8)
    # Child derivation is stable regardless of parent consumption.
    again = DeterministicRng(1)
    again.random_bytes(100)
    assert root.child("a").seed == again.child("a").seed


def test_rng_validation():
    with pytest.raises(ValueError):
        DeterministicRng(5).random_bytes(-1)


def test_rng_uniform_is_generator_uniform_bit_for_bit():
    """``uniform`` computes ``Generator.uniform``'s expression itself;
    the twin below still calls numpy, from the same derived seed, with
    the other draw kinds interleaved so a shifted stream would show."""
    rng = DeterministicRng(seed=9, label="uniform")
    twin = DeterministicRng(seed=9, label="uniform")._numpy
    ranges = [(0.0, 1.0), (-1.0, 1.0), (0.0, 0.037), (2.5e-7, 1e9), (0, 3), (5.0, 5.0)]
    for draw in range(100_000):
        low, high = ranges[draw % len(ranges)]
        got = rng.uniform(low, high)
        assert type(got) is float
        assert got == float(twin.uniform(low, high))
        if draw % 7 == 0:
            assert rng.randint(0, 1000) == int(twin.integers(0, 1000))
    assert rng.uniform() == float(twin.uniform())


@pytest.mark.parametrize(
    "low, high",
    [(0.0, float("inf")), (-1e308, 1e308), (float("nan"), 1.0), (float("-inf"), 0.0),
     (1.0, 0.0)],
)
def test_rng_uniform_refuses_what_generator_uniform_refuses(low, high):
    with pytest.raises((OverflowError, ValueError)) as refused:
        DeterministicRng(1)._numpy.uniform(low, high)
    rng = DeterministicRng(1)
    with pytest.raises(refused.type, match=str(refused.value)):
        rng.uniform(low, high)
    assert rng.uniform() == DeterministicRng(1).uniform()  # no draw was spent


def test_units():
    assert Gbps(1) == 1.25e8

"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.sim import Environment, SimulationError


def test_timeout_advances_clock():
    env = Environment()
    seen = []

    def second(carrier):
        seen.append(carrier.env.now)

    def first(carrier):
        seen.append(carrier.env.now)
        carrier.env.call_later(2.5, second)

    env.call_later(5, first)
    env.run()
    assert env.now == 7.5
    assert seen == [5, 7.5]


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.call_later(-1, lambda carrier: None)


def test_nan_delay_rejected():
    """A NaN delay compares false to everything: it must not slip past
    the negative check and land the clock at nan."""
    env = Environment()
    with pytest.raises(ValueError, match="nan"):
        env.call_later(float("nan"), lambda carrier: None)
    env.call_later(float("inf"), lambda carrier: None)
    env.run(until=1.0)
    assert env.now == 1.0


def test_carrier_carries_its_value():
    env = Environment()
    seen = []
    env.call_later(1, lambda carrier: seen.append(carrier.value), "payload")
    env.run()
    assert seen == ["payload"]


def test_event_succeed_value_passed_to_waiter():
    env = Environment()
    gate = env.event()
    seen = []
    gate.callbacks.append(lambda event: seen.append((env.now, event.value)))
    env.call_later(4, lambda carrier: gate.succeed("open"))
    env.run()
    assert seen == [(4, "open")]
    assert gate.processed and gate.ok


def test_event_double_trigger_rejected():
    env = Environment()
    ev = env.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)
    with pytest.raises(SimulationError):
        ev.fail(RuntimeError("late"))


def test_event_value_before_fire_rejected():
    env = Environment()
    ev = env.event()
    with pytest.raises(SimulationError):
        _ = ev.value


def test_event_failure_reaches_its_callbacks():
    env = Environment()
    ev = env.event()
    seen = []
    ev.callbacks.append(lambda event: seen.append((event.ok, event.value)))
    boom = RuntimeError("boom")
    ev.fail(boom)
    env.run()  # observed, so nothing raises
    assert seen == [(False, boom)]


def test_unobserved_failure_raises_from_step():
    env = Environment()
    env.event().fail(ValueError("bad"))
    with pytest.raises(ValueError, match="bad"):
        env.run()


def test_fail_requires_an_exception():
    env = Environment()
    with pytest.raises(TypeError):
        env.event().fail("not an exception")


def test_run_until_time_boundary():
    env = Environment()
    ticks = []

    def tick(carrier):
        ticks.append(env.now)
        env.call_later(1, tick)

    env.call_later(1, tick)
    env.run(until=5)
    assert ticks == [1, 2, 3, 4, 5]
    assert env.now == 5


def test_run_until_past_raises():
    env = Environment()
    env.run(until=5)
    with pytest.raises(ValueError):
        env.run(until=3)


def test_deterministic_same_time_ordering():
    """Events at the same instant fire in insertion order."""
    env = Environment()
    order = []
    for tag in "abcde":
        env.call_later(1, lambda carrier: order.append(carrier.value), tag)
    env.run()
    assert order == list("abcde")


def test_run_until_complete_returns_value():
    env = Environment()
    done = env.event()
    env.call_later(3, lambda carrier: done.succeed("x"))
    env.call_later(9, lambda carrier: None)
    assert env.run_until_complete(done) == "x"
    assert env.now == 3  # stops at the step that processed ``done``


def test_run_until_complete_raises_the_failure():
    env = Environment()
    done = env.event()
    done.callbacks.append(lambda event: None)  # observed: step won't raise
    env.call_later(2, lambda carrier: done.fail(KeyError("lost")))
    with pytest.raises(KeyError, match="lost"):
        env.run_until_complete(done)
    assert env.now == 2


def test_run_until_complete_detects_deadlock():
    env = Environment()
    never = env.event()
    env.call_later(1, lambda carrier: None)
    with pytest.raises(SimulationError, match="deadlock"):
        env.run_until_complete(never)
    assert env.now == 1


def test_peek_reports_next_event_time():
    env = Environment()
    env.call_later(7, lambda carrier: None)
    assert env.peek() == 7
    env.run()
    assert env.peek() == float("inf")


def test_cancelled_carrier_never_fires():
    env = Environment()
    fired = []
    timer = env.call_later(5, lambda carrier: fired.append("timer"))
    env.call_later(1, lambda carrier: timer.cancel())
    env.run()
    assert fired == [] and env.now == 1
    assert env.cancellations == 1


def test_discard_drops_pending_events_unprocessed():
    env = Environment()
    fired = []
    done = env.event()
    env.call_later(1, lambda carrier: done.succeed("done"))
    env.call_later(5.0, lambda carrier: fired.append(carrier.value), "late")
    env.run_until_complete(done)  # the t=5 carrier is still pending
    env.discard()
    assert env.peek() == float("inf")
    env.run()
    assert fired == [] and env.now == 1
    # Still usable, with an empty agenda and pool.
    env.call_later(2.0, lambda carrier: fired.append(carrier.value), "new")
    env.run()
    assert fired == ["new"] and env.now == 3

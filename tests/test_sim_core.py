"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.sim import URGENT, Environment, SimulationError


def test_timeout_advances_clock():
    env = Environment()
    seen = []

    def second(_value):
        seen.append(env.now)

    def first(_value):
        seen.append(env.now)
        env.call_later(2.5, second)

    env.call_later(5, first)
    env.run()
    assert env.now == 7.5
    assert seen == [5, 7.5]


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.call_later(-1, lambda _value: None)


def test_nan_delay_rejected():
    """A NaN delay compares false to everything: it must not slip past
    the negative check and land the clock at nan."""
    env = Environment()
    with pytest.raises(ValueError, match="nan"):
        env.call_later(float("nan"), lambda _value: None)
    env.call_later(float("inf"), lambda _value: None)
    env.run(until=1.0)
    assert env.now == 1.0


def test_carrier_carries_its_value():
    """An agenda entry calls its callback with the value it was given."""
    env = Environment()
    seen = []
    entry = env.call_later(1, seen.append, "payload")
    assert entry == [seen.append, "payload"]
    env.run()
    assert seen == ["payload"]
    assert entry[0] is None  # stepped: the callback slot is cleared


def test_event_succeed_value_passed_to_waiter():
    env = Environment()
    gate = env.event()
    seen = []
    gate.callbacks.append(lambda event: seen.append((env.now, event.value)))
    env.call_later(4, lambda _value: gate.succeed("open"))
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

    def tick(_value):
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
        env.call_later(1, order.append, tag)
    env.run()
    assert order == list("abcde")


def test_run_until_complete_returns_value():
    env = Environment()
    done = env.event()
    env.call_later(3, lambda _value: done.succeed("x"))
    env.call_later(9, lambda _value: None)
    assert env.run_until_complete(done) == "x"
    assert env.now == 3  # stops at the step that processed ``done``


def test_run_until_complete_raises_the_failure():
    env = Environment()
    done = env.event()
    done.callbacks.append(lambda event: None)  # observed: step won't raise
    env.call_later(2, lambda _value: done.fail(KeyError("lost")))
    with pytest.raises(KeyError, match="lost"):
        env.run_until_complete(done)
    assert env.now == 2


def test_run_until_complete_detects_deadlock():
    env = Environment()
    never = env.event()
    env.call_later(1, lambda _value: None)
    with pytest.raises(SimulationError, match="deadlock"):
        env.run_until_complete(never)
    assert env.now == 1


def test_peek_reports_next_event_time():
    env = Environment()
    env.call_later(7, lambda _value: None)
    assert env.peek() == 7
    env.run()
    assert env.peek() == float("inf")


def test_cancelled_carrier_never_fires():
    """A cancelled entry never steps and never moves the clock."""
    env = Environment()
    fired = []
    timer = env.call_later(5, fired.append, "timer")
    env.call_later(1, env.cancel, timer)
    env.run()
    assert fired == [] and env.now == 1
    assert env.cancellations == 1
    env.cancel(timer)  # a second cancel is a no-op
    assert env.cancellations == 1


def test_cancelling_a_fired_entry_is_a_noop():
    env = Environment()
    fired = []
    timer = env.call_later(1, fired.append, "timer")
    late = env.call_later(3, fired.append, "late")
    env.call_later(2, env.cancel, timer)  # fired at 1: nothing to cancel
    env.run()
    assert fired == ["timer", "late"] and env.now == 3
    assert env.cancellations == 0
    env.cancel(late)
    assert env.cancellations == 0
    assert env.peek() == float("inf")


def test_discard_drops_pending_events_unprocessed():
    env = Environment()
    fired = []
    done = env.event()
    env.call_later(1, lambda _value: done.succeed("done"))
    env.call_later(5.0, fired.append, "late")
    env.run_until_complete(done)  # the t=5 entry is still pending
    env.discard()
    assert env.peek() == float("inf")
    env.run()
    assert fired == [] and env.now == 1
    # Still usable, with an empty agenda.
    env.call_later(2.0, fired.append, "new")
    env.run()
    assert fired == ["new"] and env.now == 3


def test_discard_drops_pending_entries_unfired():
    """Every pending entry -- timers, URGENT hops, a triggered event --
    is dropped unfired, and cancelling one afterwards is a no-op that
    leaves the emptied agenda's accounting alone."""
    env = Environment()
    fired = []
    gate = env.event()
    gate.callbacks.append(lambda event: fired.append("gate"))
    timers = [env.call_later(delay, fired.append, delay)
              for delay in (0.0, 1.0, 1.0, 2.0)]
    env.call_later(0.0, fired.append, "urgent", URGENT)
    gate.succeed()
    env.discard()
    assert env.peek() == float("inf")
    for timer in timers:
        env.cancel(timer)
    assert env.cancellations == 0
    env.run()
    assert fired == [] and env.now == 0
    assert not gate.processed
    env.call_later(1.0, fired.append, "new")
    env.run()
    assert fired == ["new"] and env.now == 1


def test_schedule_has_no_delay():
    """An event fires at ``now``: ``schedule`` takes no delay, so a
    negative one cannot fire it before the clock, ahead of a t=1 entry."""
    env = Environment()
    order = []
    env.call_later(1.0, order.append, "timer")
    ev = env.event()
    ev.callbacks.append(lambda event: order.append(env.now))
    with pytest.raises(TypeError):
        env.schedule(ev, delay=-5.0)
    assert not ev.triggered
    env.schedule(ev)
    env.run()
    assert order == [0.0, "timer"] and env.now == 1.0


def test_run_until_nan_rejected():
    """``until=nan`` compares false to everything: it must not step the
    whole agenda and leave the clock at nan."""
    env = Environment()
    fired = []
    env.call_later(1.0, fired.append, "timer")
    with pytest.raises(ValueError, match="nan"):
        env.run(until=float("nan"))
    assert fired == [] and env.now == 0.0
    env.run()
    assert fired == ["timer"] and env.now == 1.0

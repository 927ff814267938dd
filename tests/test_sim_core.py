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


def test_unobserved_failure_raises_from_step():
    """An exception in an entry's callback raises out of the step that
    runs it; the entry counts as fired."""
    env = Environment()

    def fail(_value):
        raise ValueError("bad")

    entry = env.call_later(2, fail)
    env.call_later(3, lambda _value: None)
    with pytest.raises(ValueError, match="bad"):
        env.run()
    assert env.now == 2 and entry[0] is None
    env.run()
    assert env.now == 3


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
    env.call_later(1, fired.append, "first")
    env.call_later(5.0, fired.append, "late")
    env.step()  # the t=5 entry is still pending
    env.discard()
    assert env.peek() == float("inf")
    env.run()
    assert fired == ["first"] and env.now == 1
    # Still usable, with an empty agenda.
    env.call_later(2.0, fired.append, "new")
    env.run()
    assert fired == ["first", "new"] and env.now == 3


def test_discard_drops_pending_entries_unfired():
    """Every pending entry -- timers, URGENT hops, a same-instant
    signal -- is dropped unfired, and cancelling one afterwards is a
    no-op that leaves the emptied agenda's accounting alone."""
    env = Environment()
    fired = []
    timers = [env.call_later(delay, fired.append, delay)
              for delay in (0.0, 1.0, 1.0, 2.0)]
    env.call_later(0.0, fired.append, "urgent", URGENT)
    signal = env.call_later(0.0, fired.append, "signal")
    env.discard()
    assert env.peek() == float("inf")
    for timer in timers:
        env.cancel(timer)
    assert env.cancellations == 0
    env.run()
    assert fired == [] and env.now == 0
    assert signal[0] is None
    env.call_later(1.0, fired.append, "new")
    env.run()
    assert fired == ["new"] and env.now == 1


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


@pytest.mark.parametrize("start", [float("nan"), float("inf"),
                                   float("-inf")])
def test_non_finite_start_time_rejected(start):
    """A NaN clock compares false to every entry's time, so entries would
    run out of order, each reporting ``now == nan``; an infinite one
    would put every entry at the same instant."""
    with pytest.raises(ValueError, match="initial_time"):
        Environment(start)


def test_finite_start_time_offsets_the_clock():
    env = Environment(2.0)
    seen = []
    env.call_later(1.0, lambda _value: seen.append(env.now))
    env.call_later(0.5, lambda _value: seen.append(env.now))
    env.run()
    assert seen == [2.5, 3.0]


@pytest.mark.parametrize("priority", [2, -1, None])
def test_priority_other_than_urgent_or_normal_rejected(priority):
    """The agenda has an URGENT and a NORMAL lane and nothing else: any
    other priority is refused by name and queues nothing."""
    env = Environment()
    with pytest.raises(ValueError, match=f"got {priority!r}"):
        env.call_later(0.0, lambda _value: None, None, priority)
    with pytest.raises(ValueError, match=f"got {priority!r}"):
        env.call_later(1.0, lambda _value: None, None, priority)
    assert env.peek() == float("inf")


def test_sub_ulp_delay_joins_the_current_instant():
    """A positive delay below the clock's last bit lands at ``now``: it
    queues behind the entries already there, in its own priority's lane,
    and steps without moving the clock."""
    env = Environment(1.0)
    order = []
    env.call_later(0.0, order.append, "zero")
    env.call_later(1e-20, order.append, "sub-ulp")
    env.call_later(1e-20, order.append, "urgent", URGENT)
    env.call_later(1e-15, order.append, "later")
    env.run()
    assert order == ["urgent", "zero", "sub-ulp", "later"]
    assert env.now == 1.0 + 1e-15

"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.sim import (
    AllOf,
    AnyOf,
    Environment,
    Event,
    Interrupt,
    SimulationError,
)


def test_timeout_advances_clock():
    env = Environment()

    def proc(env):
        yield env.timeout(5)
        yield env.timeout(2.5)
        return env.now

    p = env.process(proc(env))
    env.run()
    assert env.now == 7.5
    assert p.value == 7.5


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1)


def test_process_return_value():
    env = Environment()

    def proc(env):
        yield env.timeout(1)
        return "result"

    p = env.process(proc(env))
    env.run()
    assert p.value == "result"
    assert p.ok


def test_process_waits_on_another_process():
    env = Environment()
    order = []

    def child(env):
        yield env.timeout(3)
        order.append("child")
        return 42

    def parent(env):
        value = yield env.process(child(env))
        order.append("parent")
        return value

    p = env.process(parent(env))
    env.run()
    assert order == ["child", "parent"]
    assert p.value == 42


def test_waiting_on_already_finished_process():
    env = Environment()

    def quick(env):
        yield env.timeout(1)
        return "done"

    def late(env, target):
        yield env.timeout(10)
        value = yield target
        return value

    target = env.process(quick(env))
    p = env.process(late(env, target))
    env.run()
    assert p.value == "done"
    assert env.now == 10


def test_event_succeed_value_passed_to_waiter():
    env = Environment()
    gate = env.event()

    def opener(env):
        yield env.timeout(4)
        gate.succeed("open")

    def waiter(env):
        value = yield gate
        return (env.now, value)

    env.process(opener(env))
    p = env.process(waiter(env))
    env.run()
    assert p.value == (4, "open")


def test_event_double_trigger_rejected():
    env = Environment()
    ev = env.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_event_value_before_fire_rejected():
    env = Environment()
    ev = env.event()
    with pytest.raises(SimulationError):
        _ = ev.value


def test_process_exception_propagates_to_waiter():
    env = Environment()

    def failing(env):
        yield env.timeout(1)
        raise RuntimeError("boom")

    def waiter(env):
        try:
            yield env.process(failing(env))
        except RuntimeError as exc:
            return str(exc)

    p = env.process(waiter(env))
    env.run()
    assert p.value == "boom"


def test_unhandled_process_failure_marks_event():
    env = Environment()

    def failing(env):
        yield env.timeout(1)
        raise ValueError("bad")

    p = env.process(failing(env))
    env.run()
    assert p.ok is False
    assert isinstance(p.value, ValueError)


def test_run_until_time_boundary():
    env = Environment()
    ticks = []

    def ticker(env):
        while True:
            yield env.timeout(1)
            ticks.append(env.now)

    env.process(ticker(env))
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

    def make(tag):
        def proc(env):
            yield env.timeout(1)
            order.append(tag)
        return proc

    for tag in "abcde":
        env.process(make(tag)(env))
    env.run()
    assert order == list("abcde")


def test_all_of_waits_for_everything():
    env = Environment()

    def proc(env, d):
        yield env.timeout(d)
        return d

    def main(env):
        events = [env.process(proc(env, d)) for d in (3, 1, 2)]
        results = yield env.all_of(events)
        return sorted(results.values())

    p = env.process(main(env))
    env.run()
    assert p.value == [1, 2, 3]
    assert env.now == 3


def test_any_of_fires_on_first():
    env = Environment()

    def proc(env, d):
        yield env.timeout(d)
        return d

    def main(env):
        events = [env.process(proc(env, d)) for d in (3, 1, 2)]
        results = yield env.any_of(events)
        return list(results.values())

    p = env.process(main(env))
    env.run()
    assert p.value == [1]


def test_all_of_empty_fires_immediately():
    env = Environment()

    def main(env):
        yield env.all_of([])
        return env.now

    p = env.process(main(env))
    env.run()
    assert p.value == 0


def test_interrupt_thrown_into_process():
    env = Environment()

    def sleeper(env):
        try:
            yield env.timeout(100)
        except Interrupt as intr:
            return ("interrupted", env.now, intr.cause)

    def interrupter(env, victim):
        yield env.timeout(5)
        victim.interrupt(cause="urgent")

    victim = env.process(sleeper(env))
    env.process(interrupter(env, victim))
    env.run()
    assert victim.value == ("interrupted", 5, "urgent")


def test_interrupt_stale_target_does_not_double_resume():
    env = Environment()
    resumes = []

    def sleeper(env):
        try:
            yield env.timeout(10)
        except Interrupt:
            pass
        resumes.append(env.now)
        yield env.timeout(50)
        resumes.append(env.now)

    def interrupter(env, victim):
        yield env.timeout(2)
        victim.interrupt()

    victim = env.process(sleeper(env))
    env.process(interrupter(env, victim))
    env.run()
    # Resumed at interrupt (t=2) then exactly once more at t=52; the stale
    # t=10 timeout must not have woken it early.
    assert resumes == [2, 52]


def test_interrupt_dead_process_rejected():
    env = Environment()

    def quick(env):
        yield env.timeout(1)

    p = env.process(quick(env))
    env.run()
    with pytest.raises(SimulationError):
        p.interrupt()


def test_yield_non_event_is_error():
    env = Environment()

    def bad(env):
        yield 42

    p = env.process(bad(env))
    env.run()
    assert p.ok is False
    assert isinstance(p.value, SimulationError)


def test_run_until_complete_returns_value():
    env = Environment()

    def proc(env):
        yield env.timeout(3)
        return "x"

    p = env.process(proc(env))
    assert env.run_until_complete(p) == "x"


def test_run_until_complete_detects_deadlock():
    env = Environment()

    def stuck(env):
        yield env.event()  # never fires

    p = env.process(stuck(env))
    with pytest.raises(SimulationError, match="deadlock"):
        env.run_until_complete(p)


def test_peek_reports_next_event_time():
    env = Environment()
    env.timeout(7)
    assert env.peek() == 7
    env.run()
    assert env.peek() == float("inf")


# ------------------------------------------- Interrupt x AllOf / AnyOf
# Regression tests for the fault-injection path: a process abandoned on a
# composite condition must detach cleanly, and late member events -- even
# failures -- must be absorbed instead of crashing the simulation.

def test_interrupt_while_blocked_on_all_of():
    env = Environment()
    e1, e2 = env.event(), env.event()
    log = []

    def waiter(env):
        try:
            yield env.all_of([e1, e2])
            log.append("completed")
        except Interrupt:
            log.append(("interrupted", env.now))
        yield env.timeout(10)
        log.append(("resumed-later", env.now))

    def driver(env, victim):
        yield env.timeout(2)
        victim.interrupt(cause="crash")
        yield env.timeout(1)
        e1.succeed()                      # stale member firing...
        e2.fail(RuntimeError("boom"))     # ...and failing: both absorbed

    victim = env.process(waiter(env))
    env.process(driver(env, victim))
    env.run()
    assert log == [("interrupted", 2), ("resumed-later", 12)]


def test_interrupt_while_blocked_on_any_of():
    env = Environment()
    e1, e2 = env.event(), env.event()
    log = []

    def waiter(env):
        try:
            yield env.any_of([e1, e2])
            log.append("completed")
        except Interrupt:
            log.append(("interrupted", env.now))
        yield env.timeout(5)
        log.append(env.now)

    def driver(env, victim):
        yield env.timeout(1)
        victim.interrupt()
        yield env.timeout(1)
        e1.fail(RuntimeError("late failure, no waiter left"))

    victim = env.process(waiter(env))
    env.process(driver(env, victim))
    env.run()
    assert log == [("interrupted", 1), 6]


def test_all_of_member_failure_propagates_to_waiter():
    env = Environment()
    e1, e2 = env.event(), env.event()
    caught = []

    def waiter(env):
        try:
            yield env.all_of([e1, e2])
        except ValueError as exc:
            caught.append((env.now, str(exc)))

    def driver(env):
        yield env.timeout(3)
        e1.succeed()
        e2.fail(ValueError("member died"))

    env.process(waiter(env))
    env.process(driver(env))
    env.run()
    assert caught == [(3, "member died")]


def test_any_of_member_failure_after_fire_is_absorbed():
    env = Environment()
    e1, e2 = env.event(), env.event()
    results = []

    def waiter(env):
        fired = yield env.any_of([e1, e2])
        results.append(len(fired))
        yield env.timeout(10)
        results.append(env.now)

    def driver(env):
        yield env.timeout(1)
        e1.succeed()
        yield env.timeout(1)
        e2.fail(RuntimeError("too late to matter"))

    env.process(waiter(env))
    env.process(driver(env))
    env.run()
    assert results == [1, 11]


def test_discard_drops_pending_events_unprocessed():
    env = Environment()
    fired = []

    def proc(env):
        yield env.timeout(1)
        return "done"

    p = env.process(proc(env))
    env.call_later(5.0, lambda carrier: fired.append(carrier._value), "late")
    env.run_until_complete(p)  # p's own completion is still pending
    env.discard()
    assert env.peek() == float("inf")
    env.run()
    assert fired == [] and env.now == 1
    # Still usable, with an empty agenda and pool.
    env.call_later(2.0, lambda carrier: fired.append(carrier._value), "new")
    env.run()
    assert fired == ["new"] and env.now == 3

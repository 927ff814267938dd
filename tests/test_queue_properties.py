"""Property tests for the agenda behind the simulator core.

Hypothesis drives arbitrary interleavings of the agenda's API --
``call_later`` (with zero, sub-ulp and positive delays), ``yield_front``,
``step``, ``run(until)``, ``cancel`` (single, and in bursts that compact
the agenda) and ``discard`` -- against a sorted-list reference model
enforcing the exact ``(time, priority, seq)`` total order, including
FIFO tie-breaks among events sharing an instant and priority; a
``yield_front`` push takes the lowest sequence number of its lane.  A
second property checks crash delivery end-to-end (a compute kernel
abandoned mid-run, whose pending finish must then do nothing) against a
closed-form model of any schedule of kernels and crashes.

The cancel-churn regression pins the tombstone bound: a workload that
cancels almost everything it schedules must not grow the agenda beyond
live events plus the compaction threshold.
"""

import bisect
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.gpu import Gpu, V100
from repro.sim import NORMAL, URGENT, Environment, SimulationError
from repro.sim.core import COMPACT_MIN_TOMBSTONES

#: A small time domain so same-instant collisions are common.
TIMES = (0.0, 0.125, 0.25, 0.5, 1.0, 1.5, 2.0)
#: Positive delays below the last bit of every positive clock reading in
#: ``TIMES`` (``now + delay == now``), which are distinct instants only at
#: time zero.
SUB_ULP = (math.ulp(0.0), 1e-18)
#: Start times: a run starting at 1.0 makes every sub-ulp push land at
#: ``now`` from its first op.
STARTS = (0.0, 1.0)
#: Push delays, zero-heavy: a front push only lands ahead of entries
#: queued at the current instant.
DELAYS = (0.0,) * len(TIMES) + TIMES + SUB_ULP

OPS = st.lists(st.one_of(
    st.tuples(st.just("push"), st.sampled_from(DELAYS), st.integers(0, 1)),
    st.tuples(st.just("front"), st.booleans()),
    st.tuples(st.just("step")),
    st.tuples(st.just("run"), st.sampled_from(DELAYS)),
    st.tuples(st.just("cancel"), st.integers(0, 2 ** 32)),
    st.tuples(st.just("churn"), st.sampled_from(TIMES)),
    st.tuples(st.just("discard")),
), max_size=200)


def _apply(ops, start=0.0):
    """Run ops against the agenda and the sorted-list model in lockstep.

    A push is ``call_later(delay, ...)``, at ``now + delay``; a front push
    is ``yield_front`` (optionally after a zero-delay URGENT push), which
    the model expects to queue only behind a live entry ahead of
    ``(now, NORMAL)``; ``run`` is ``run(until=now + delay)``, which steps
    every entry at or before ``until`` and leaves the clock there.  Each
    entry's value is its sequence number, which its callback records when
    it steps.
    """
    env = Environment(start)
    stepped = []
    model = []  # sorted (time, priority, seq, entry); seq makes keys unique
    seq = front = 0  # a front push's seq decreases below every other
    for op in ops:
        if op[0] == "push":
            seq += 1
            entry = env.call_later(op[1], stepped.append, seq, op[2])
            bisect.insort(model, (env.now + op[1], op[2], seq, entry))
        elif op[0] == "front":
            if op[1]:  # first queue an entry ahead of (now, NORMAL)
                seq += 1
                entry = env.call_later(0.0, stepped.append, seq, URGENT)
                bisect.insort(model, (env.now, URGENT, seq, entry))
            key = (env.now, NORMAL)
            ahead = bool(model) and model[0][:2] < key
            front -= 1
            assert env.yield_front(stepped.append, front) == ahead
            if ahead:
                bisect.insort(model, (*key, front, None))
        elif op[0] == "step":
            if not model:
                with pytest.raises(SimulationError, match="no more events"):
                    env.step()
                continue
            t, _p, ident, _entry = model.pop(0)
            env.step()
            assert env.now == t, f"stepped at {env.now}, model says {t}"
            assert stepped[-1] == ident, (
                f"stepped #{stepped[-1]}, model expected #{ident}")
        elif op[0] == "run":
            until = env.now + op[1]
            due = bisect.bisect_right(model, (until, math.inf))
            before = len(stepped)
            env.run(until)
            assert env.now == until
            assert stepped[before:] == [item[2] for item in model[:due]]
            del model[:due]
        elif op[0] == "cancel":  # an arbitrary still-queued entry
            live = [i for i, item in enumerate(model) if item[3] is not None]
            if not live:
                continue
            _t, _p, _s, entry = model.pop(live[op[1] % len(live)])
            env.cancel(entry)
            env.cancel(entry)  # a second cancel is a no-op
        elif op[0] == "churn":  # a compaction, unless 65+ entries are live
            timers = [env.call_later(op[1], stepped.append, None)
                      for _ in range(COMPACT_MIN_TOMBSTONES + 1)]
            for timer in timers:
                env.cancel(timer)
        else:
            env.discard()
            model.clear()
        expected = model[0][0] if model else math.inf
        assert env.peek() == expected
    before = len(stepped)
    env.run()  # drain: the total order must survive to the end
    assert stepped[before:] == [ident for _t, _p, ident, _e in model]
    assert env.peek() == math.inf


@given(start=st.sampled_from(STARTS), ops=OPS)
@settings(max_examples=120, deadline=None)
def test_queue_matches_sorted_model(start, ops):
    _apply(ops, start)


def test_churn_compacts():
    """The model's churn op forces a compaction: the cancel that makes
    tombstones reach the threshold and outnumber live entries removes
    them all."""
    env = Environment()
    timers = [env.call_later(1.0, _never)
              for _ in range(COMPACT_MIN_TOMBSTONES + 1)]

    for timer in timers[:COMPACT_MIN_TOMBSTONES - 1]:
        env.cancel(timer)
    assert _physical(env) == len(timers)
    env.cancel(timers[COMPACT_MIN_TOMBSTONES - 1])
    assert _physical(env) == 1 and env.peek() == 1.0


def test_same_instant_fifo_within_priority():
    """Ties at one (time, priority) slot step in push order; urgent
    first."""
    env = Environment()
    stepped = []
    for i in range(50):
        env.call_later(1.0, stepped.append, i)
        env.call_later(1.0, stepped.append, 100 + i, URGENT)
    env.run()
    assert stepped == [*range(100, 150), *range(50)]


def test_yield_front_sees_only_live_entries_ahead_of_now_normal():
    """``yield_front`` queues its entry only behind a live entry ahead of
    ``(now, NORMAL)``, and then ahead of that slot's earlier entries."""
    env = Environment()
    order = []
    env.call_later(0.0, order.append, "normal")
    assert not env.yield_front(order.append, "not queued")
    env.cancel(env.call_later(0.0, order.append, "cancelled", URGENT))
    assert not env.yield_front(order.append, "not queued")
    env.call_later(0.0, order.append, "urgent", URGENT)
    assert env.yield_front(order.append, "front")
    env.run()
    assert order == ["urgent", "front", "normal"]


@st.composite
def interrupt_scenario(draw):
    n = draw(st.integers(1, 5))
    delays = draw(st.lists(st.sampled_from(TIMES[1:]),
                           min_size=n, max_size=n))
    pokes = draw(st.lists(
        st.tuples(st.sampled_from(TIMES), st.integers(0, n - 1)),
        max_size=6))
    return delays, sorted(pokes)


def _run_interrupts(delays, pokes):
    """One compute kernel of ``delays[i]`` per GPU ``i``, each poke
    aborting its target's kernel if it still runs."""
    env = Environment()
    log = []
    gpus = [Gpu(env, V100, i) for i in range(len(delays))]
    for i, delay in enumerate(delays):
        gpus[i].run_compute(delay, lambda i: log.append(("done", i, env.now)),
                            i)

    def poke(hit):
        at, target = hit
        if not any(entry[1] == target for entry in log):
            gpus[target].abort_compute()
            log.append(("interrupted", target, env.now, f"poke@{at}"))

    def schedule_pokes(_value):
        # Pushed after the kernels' finish entries, as the crashes of a fault
        # schedule are: at a tie the kernel's finish comes first.
        for at, target in pokes:
            env.call_later(at, poke, (at, target))

    env.call_later(0.0, schedule_pokes)
    env.run()
    return log


def _interrupt_model(delays, pokes):
    """Closed form: kernel ``i`` is abandoned by the first poke aimed at
    it strictly before its own finish (a tie goes to the kernel, whose
    finish was scheduled first); otherwise it finishes on time."""
    outcome = {}
    for i, delay in enumerate(delays):
        at = next((at for at, target in pokes
                   if target == i and at < delay), None)
        outcome[i] = (("done", i, delay) if at is None
                      else ("interrupted", i, at, f"poke@{at}"))
    return outcome


@given(scenario=interrupt_scenario())
@settings(max_examples=80, deadline=None)
def test_interrupt_delivery_matches_model(scenario):
    delays, pokes = scenario
    log = _run_interrupts(delays, pokes)
    by_kernel = {entry[1]: entry for entry in log}
    assert len(by_kernel) == len(log) == len(delays), (
        f"each kernel must log exactly once: {log}")
    assert by_kernel == _interrupt_model(delays, pokes)


def test_cancel_churn_keeps_queue_bounded():
    """Heavy cancel churn must not accumulate unbounded tombstones.

    The workload schedules far-future timeouts and cancels almost all of
    them, repeatedly -- the pattern robust transfers with retry timers
    produce.  Lazy deletion alone would retain every tombstone until its
    timestamp drains; the compaction hook must keep the agenda's physical
    size within live + threshold at all times.
    """
    env = Environment()
    high_water = 0

    def arm(round_):
        timers = [env.call_later(1000.0 + i, _never) for i in range(50)]
        env.call_later(0.001, churn, (round_, timers))

    def churn(round_and_timers):
        round_, timers = round_and_timers
        for timer in timers:
            env.cancel(timer)
        if round_ + 1 < 40:
            arm(round_ + 1)

    arm(0)
    instants = 0
    while env.peek() < 1000.0:
        env.step()
        high_water = max(high_water, _physical(env))
        instants = max(instants, len(env._future))
    assert env.cancellations == 40 * 50
    live_peak = 50 + 1  # one round's timers + the churn entry
    assert high_water <= live_peak + COMPACT_MIN_TOMBSTONES * 2, (
        f"agenda grew to {high_water} physical entries under cancel churn")
    # Each timer has an instant of its own: compaction must drop them too.
    assert instants <= live_peak + COMPACT_MIN_TOMBSTONES * 2, (
        f"agenda kept {instants} instants under cancel churn")


def _physical(env):
    """Entries the agenda holds, live or cancelled: the current lanes
    plus every later instant's lanes."""
    return sum(len(lane) for pair in (env._lanes, *env._future.values())
               for lane in pair if lane is not None)


def _never(_value):
    raise AssertionError("a cancelled timer fired")

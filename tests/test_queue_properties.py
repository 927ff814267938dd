"""Property tests for the agenda queue behind the simulator core.

Hypothesis drives arbitrary push/push-front/pop/cancel/compact
interleavings of the slotted calendar queue against a sorted-list
reference model enforcing the exact ``(time, priority, seq)`` total
order, including FIFO tie-breaks among events sharing an instant and
priority; a front push takes the lowest sequence number of its slot.
A second property checks crash delivery end-to-end (a compute kernel
abandoned mid-run, whose pending finish must then do nothing) against a
closed-form model of any schedule of kernels and crashes.

The cancel-churn regression pins the tombstone bound: a workload that
cancels almost everything it schedules must not grow the agenda beyond
live events plus the compaction threshold.
"""

import bisect

from hypothesis import given, settings, strategies as st

from repro.gpu import Gpu, V100
from repro.sim import URGENT, Environment, SlottedQueue
from repro.sim.queues import COMPACT_MIN_TOMBSTONES

#: A small time domain so same-instant collisions are common.
TIMES = (0.0, 0.125, 0.25, 0.5, 1.0, 1.5, 2.0)

OPS = st.lists(st.one_of(
    st.tuples(st.just("push"), st.sampled_from(TIMES), st.integers(0, 1)),
    st.tuples(st.just("front"), st.sampled_from(TIMES), st.integers(0, 1)),
    st.tuples(st.just("pop")),
    st.tuples(st.just("cancel"), st.integers(0, 2 ** 32)),
    st.tuples(st.just("compact")),
), max_size=200)


def _entry(ident: int) -> list:
    """An agenda entry ``[callback, value]`` whose value is ``ident``.

    The queue only reads the callback slot: None is the tombstone.
    """
    return [_never, ident]


def _apply(ops):
    """Run ops against the queue and the sorted-list model in lockstep."""
    queue = SlottedQueue()
    model = []  # sorted (time, priority, seq, entry); seq makes keys unique
    seq = front = 0  # a front push's seq decreases below every other
    for op in ops:
        if op[0] == "push":
            seq += 1
            entry = _entry(seq)
            queue.push(op[1], op[2], entry)
            bisect.insort(model, (op[1], op[2], seq, entry))
        elif op[0] == "front":
            front -= 1
            entry = _entry(front)
            queue.push_front(op[1], op[2], entry)
            bisect.insort(model, (op[1], op[2], front, entry))
        elif op[0] == "compact":
            queue.compact()
        elif op[0] == "pop":
            if not model:
                continue
            t, _p, _s, entry = model.pop(0)
            qt, qentry = queue.pop()
            assert qt == t, f"popped time {qt} != model time {t}"
            assert qentry is entry, (
                f"popped #{qentry[1]}, model expected #{entry[1]}")
        else:  # cancel an arbitrary still-queued entry
            if not model:
                continue
            _t, _p, _s, entry = model.pop(op[1] % len(model))
            entry[0] = None
            queue.note_cancel()
        assert len(queue) == len(model)
        expected = model[0][0] if model else float("inf")
        assert queue.peek_time() == expected
    while model:  # drain: total order must survive to the end
        t, _p, _s, entry = model.pop(0)
        qt, qentry = queue.pop()
        assert qt == t and qentry is entry
    assert len(queue) == 0
    assert queue.peek_time() == float("inf")


@given(ops=OPS)
@settings(max_examples=120, deadline=None)
def test_queue_matches_sorted_model(ops):
    _apply(ops)


def test_same_instant_fifo_within_priority():
    """Ties at one (time, priority) slot pop in push order; urgent first."""
    queue = SlottedQueue()
    normal = [_entry(i) for i in range(50)]
    urgent = [_entry(100 + i) for i in range(50)]
    for n, u in zip(normal, urgent):
        queue.push(1.0, 1, n)
        queue.push(1.0, 0, u)
    popped = [queue.pop()[1][1] for _ in range(100)]
    assert popped == [e[1] for e in urgent] + [e[1] for e in normal]


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
        # Pushed after the kernels' grants, as the crashes of a fault
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
    while env.peek() < 1000.0:
        env.step()
        queue = env._queue
        high_water = max(high_water, len(queue) + queue.tombstones)
    assert env.cancellations == 40 * 50
    live_peak = 50 + 1  # one round's timers + the churn entry
    assert high_water <= live_peak + COMPACT_MIN_TOMBSTONES * 2, (
        f"agenda grew to {high_water} physical entries under cancel churn")


def _never(_value):
    raise AssertionError("a cancelled timer fired")

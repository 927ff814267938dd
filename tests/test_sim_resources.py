"""Unit tests for simulation resources: Resource and Store."""

import pytest

from repro.sim import Environment, Resource, SimulationError, Store


# ---------------------------------------------------------------- Resource

def test_resource_serializes_holders():
    env = Environment()
    res = Resource(env, capacity=1)
    spans = []

    def worker(env, tag, hold):
        req = res.request()
        yield req
        start = env.now
        yield env.timeout(hold)
        res.release(req)
        spans.append((tag, start, env.now))

    env.process(worker(env, "a", 5))
    env.process(worker(env, "b", 3))
    env.run()
    assert spans == [("a", 0, 5), ("b", 5, 8)]


def test_resource_capacity_two_runs_in_parallel():
    env = Environment()
    res = Resource(env, capacity=2)
    done = []

    def worker(env, tag):
        req = res.request()
        yield req
        yield env.timeout(4)
        res.release(req)
        done.append((tag, env.now))

    for tag in ("a", "b", "c"):
        env.process(worker(env, tag))
    env.run()
    assert done == [("a", 4), ("b", 4), ("c", 8)]


def test_resource_fifo_granting():
    env = Environment()
    res = Resource(env, capacity=1)
    order = []

    def worker(env, tag, arrive):
        yield env.timeout(arrive)
        req = res.request()
        yield req
        order.append(tag)
        yield env.timeout(1)
        res.release(req)

    env.process(worker(env, "late", 2))
    env.process(worker(env, "early", 1))
    env.process(worker(env, "first", 0))
    env.run()
    assert order == ["first", "early", "late"]


def test_resource_release_foreign_request_rejected():
    env = Environment()
    res1 = Resource(env)
    res2 = Resource(env)
    req = res1.request()
    with pytest.raises(SimulationError):
        res2.release(req)


def test_resource_counts():
    env = Environment()
    res = Resource(env, capacity=2)
    r1 = res.request()
    r2 = res.request()
    res.request()
    assert res.count == 2
    assert res.queue_length == 1
    res.release(r1)
    assert res.queue_length == 0
    res.release(r2)
    assert res.count == 1  # the queued request now holds it


def test_resource_acquire_helper():
    env = Environment()
    res = Resource(env)

    def worker(env):
        req = yield from res.acquire()
        yield env.timeout(1)
        res.release(req)
        return env.now

    p = env.process(worker(env))
    env.run()
    assert p.value == 1


def test_resource_invalid_capacity():
    env = Environment()
    with pytest.raises(ValueError):
        Resource(env, capacity=0)


# ---------------------------------------------------------------- Store

def test_store_put_then_get():
    env = Environment()
    store = Store(env)
    store.put("x")

    def getter(env):
        item = yield store.get()
        return item

    p = env.process(getter(env))
    env.run()
    assert p.value == "x"


def test_store_get_blocks_until_put():
    env = Environment()
    store = Store(env)

    def getter(env):
        item = yield store.get()
        return (item, env.now)

    def putter(env):
        yield env.timeout(3)
        store.put("late")

    p = env.process(getter(env))
    env.process(putter(env))
    env.run()
    assert p.value == ("late", 3)


def test_store_fifo_order_items_and_getters():
    env = Environment()
    store = Store(env)
    got = []

    def getter(env, tag):
        item = yield store.get()
        got.append((tag, item))

    env.process(getter(env, "g1"))
    env.process(getter(env, "g2"))

    def putter(env):
        yield env.timeout(1)
        store.put("a")
        store.put("b")

    env.process(putter(env))
    env.run()
    assert got == [("g1", "a"), ("g2", "b")]


def test_store_try_get():
    env = Environment()
    store = Store(env)
    assert store.try_get() is None
    store.put(1)
    store.put(2)
    assert store.try_get() == 1
    assert len(store) == 1


# ---------------------------------------------------------------- cancel

def test_cancel_queued_request_withdraws_the_claim():
    env = Environment()
    res = Resource(env, capacity=1)
    order = []

    def holder(env):
        req = res.request()
        yield req
        abandoned = res.request()       # queued behind ourselves
        res.cancel(abandoned)           # withdraw before it is granted
        yield env.timeout(1)
        res.release(req)

    def successor(env):
        yield env.timeout(0.5)
        req = res.request()
        yield req
        order.append(env.now)           # must get the grant at t=1
        res.release(req)

    env.process(holder(env))
    env.process(successor(env))
    env.run()
    assert order == [1]
    assert res.count == 0 and res.queue_length == 0


def test_cancel_granted_request_releases_the_slot():
    env = Environment()
    res = Resource(env, capacity=1)

    def proc(env):
        req = res.request()
        yield req
        assert res.count == 1
        res.cancel(req)                 # cancelling a grant is a release
        assert res.count == 0

    env.process(proc(env))
    env.run()


def test_cancel_foreign_request_rejected():
    env = Environment()
    a, b = Resource(env), Resource(env)
    req = a.request()
    with pytest.raises(SimulationError):
        b.cancel(req)

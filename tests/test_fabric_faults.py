"""Per-message fault semantics of the fabric, pinned as transfer-log tables.

Each fault kind drives a few messages over a 3-node fabric with a
:class:`FaultInjector` attached and pins the resulting
:class:`TransferLog` as ``(t_issue, t_end, outcome, cause)`` rows, exact
to the last bit.  The tables are the fault model's contract: a stalled
send waits out a partition or a dead destination, a dead source drops at
issue, a transient loss holds half its uplink serialization, a degraded
link stretches serialization, a destination that dies in flight drops at
delivery, and an abandoned attempt drops at the abandon instant while
keeping its NIC reservation.
"""

import pytest

from repro.faults import (
    FaultSchedule,
    LinkDegrade,
    LinkPartition,
    LinkRestore,
    NodeCrash,
    NodeRestart,
    TransientSendFailure,
)
from repro.faults.errors import TransferError
from repro.faults.injector import FaultInjector
from repro.net import Fabric, NetworkSpec
from repro.sim import Environment

MB = 1e6

#: kind -> (fault events, sends as (t, src, dst, nbytes), abandons as
#: (t, index of the send to abandon)).
SCENARIOS = {
    "partition-restore": (
        (LinkPartition(at=0.0, src=0, dst=1),
         LinkRestore(at=1e-3, src=0, dst=1)),
        ((1e-4, 0, 1, MB), (2e-4, 0, 2, MB), (1.5e-3, 0, 1, MB)),
        ()),
    "src-dead": (
        (NodeCrash(at=0.0, node=0),),
        ((1e-4, 0, 1, MB), (1e-4, 1, 2, MB)),
        ()),
    "transient": (
        (TransientSendFailure(at=0.0, src=0, dst=1, count=1),),
        ((1e-4, 0, 1, MB), (1e-4, 0, 1, MB), (1e-4, 0, 2, MB)),
        ()),
    "degrade": (
        (LinkDegrade(at=0.0, src=0, dst=1, factor=4.0),),
        ((1e-4, 0, 1, MB), (1e-4, 0, 2, MB)),
        ()),
    "dst-dies-in-flight": (
        (NodeCrash(at=5e-4, node=1), NodeRestart(at=2e-2, node=1)),
        ((1e-4, 0, 1, 10 * MB), (1e-2, 2, 1, MB)),
        ()),
    "abandon-on-timeout": (
        (LinkPartition(at=0.0, src=0, dst=1),),
        ((1e-4, 0, 1, MB), (1e-4, 0, 2, 10 * MB), (2e-3, 0, 2, MB)),
        ((6e-4, 0), (1e-3, 1))),
}

#: The transfer log each scenario leaves, one row per attempt.
TABLES = {
    "abandon-on-timeout": [
        (0.0001, 0.0006, "dropped", "abandoned"),
        (0.0001, 0.001, "dropped", "abandoned"),
        (0.002, 0.009882777777777777, "delivered", None),
    ],
    "degrade": [
        (0.0001, 0.0036605555555555554, "delivered", None),
        (0.0001, 0.0045494444444444445, "delivered", None),
    ],
    "dst-dies-in-flight": [
        (0.0001, 0.008993888888888888, "dropped", "dst-dead"),
        (0.01, 0.020893888888888892, "delivered", None),
    ],
    "partition-restore": [
        (0.0001, 0.0019827777777777778, "delivered", None),
        (0.0002, 0.001093888888888889, "delivered", None),
        (0.0015, 0.0028716666666666665, "delivered", None),
    ],
    "src-dead": [
        (0.0001, 0.0001, "dropped", "src-dead"),
        (0.0001, 0.000993888888888889, "delivered", None),
    ],
    "transient": [
        (0.0001, 0.0005444444444444445, "dropped", "transient"),
        (0.0001, 0.0014383333333333333, "delivered", None),
        (0.0001, 0.002327222222222222, "delivered", None),
    ],
}


def _transfer_log(kind):
    """Run ``kind``'s scenario through :meth:`Fabric.issue`.

    Returns its TransferLog rows after checking each message's callbacks
    against its row: ``handler`` at delivery, ``on_fail`` with a
    TransferError at a drop, neither once abandoned.
    """
    events, sends, abandons = SCENARIOS[kind]
    env = Environment()
    fabric = Fabric(env, 3, NetworkSpec(bandwidth_gbps=10.0,
                                        latency_us=5.0))
    injector = FaultInjector(env, FaultSchedule.of(*events), fabric=fabric)
    actions = sorted([(t, 0, i) for i, (t, *_) in enumerate(sends)]
                     + [(t, 1, i) for t, i in abandons])
    attempts, settled = {}, {}

    def delivered(index):
        settled.setdefault(index, []).append((env.now, "delivered"))

    def failed(index, error):
        assert isinstance(error, TransferError)
        settled.setdefault(index, []).append((env.now, "dropped"))

    for t, abandon, i in actions:
        env.run(until=t)
        if abandon:
            fabric.abandon(attempts[i])
        else:
            _, src, dst, nbytes = sends[i]
            attempts[i] = fabric.issue(src, dst, nbytes, delivered, i,
                                       on_fail=failed)
    env.run()
    rows = [(r.t_issue, r.t_end, r.outcome, r.cause)
            for r in injector.state.log.records]
    for index, (_t_issue, t_end, outcome, cause) in enumerate(rows):
        expected = [] if cause == "abandoned" else [(t_end, outcome)]
        assert settled.get(index, []) == expected, (kind, index)
    return rows


@pytest.mark.parametrize("kind", sorted(SCENARIOS))
def test_fault_kind_transfer_log(kind):
    assert _transfer_log(kind) == TABLES[kind]


def test_issue_under_faults_needs_a_failure_callback():
    env = Environment()
    fabric = Fabric(env, 2, NetworkSpec(bandwidth_gbps=10.0))
    FaultInjector(env, FaultSchedule.of(NodeCrash(at=0.0, node=1)),
                  fabric=fabric)
    with pytest.raises(ValueError, match="on_fail"):
        fabric.issue(0, 1, 1e6, lambda token: None, None)


if __name__ == "__main__":
    for name in sorted(SCENARIOS):
        print(f'    "{name}": [')
        for row in _transfer_log(name):
            print("        " + repr(row).replace("'", '"') + ",")
        print("    ],")

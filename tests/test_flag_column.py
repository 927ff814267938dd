"""The flag column against a dict-only model of op attributes.

``SyncPlan`` keeps an op's True boolean attributes (``ir.FLAGS``) as
bits of its ``flags`` column and every other attribute in a per-row
dict.  Random sequences of ``add``, ``extend``, ``set_attr``,
``pop_attr``, ``drop``, ``reorder`` and ``copy.deepcopy`` run on a plan
while a reference model keeps each op's attributes as one dict, keyed
by uid.  After every step the plan must read the model's attributes,
hold no True flag in a dict, and dump, print and hash exactly like the
same rows with every attribute in its dict and no flag bit set.
"""

import copy

from hypothesis import given, settings, strategies as st

from repro.casync.ir import (FLAG_BIT, FLAGS, OP_KINDS, ReadyRef, SizeExpr,
                             SyncPlan)
from repro.casync.passes import PassContext, build_plan
from repro.cluster import ec2_v100_cluster
from repro.experiments.common import default_algorithm
from repro.models import get_model
from repro.strategies import get_strategy
from tests.rowwise_expand import add

KEYS = FLAGS + ("duration_s", "note")
VALUES = st.one_of(st.just(True), st.just(False), st.none(), st.just(1),
                   st.floats(0, 1e-3), st.text(max_size=2))
ATTRS = st.dictionaries(st.sampled_from(KEYS), VALUES, max_size=3)


def _dict_only(plan, model):
    """``plan``'s rows with every attribute in its dict, no flag set."""
    ref = copy.deepcopy(plan)
    ref.flags = bytearray(len(plan))
    ref.attrs = [dict(model[uid]) or None for uid in plan.uids]
    return ref


def _check(plan, model):
    assert len(plan.flags) == len(plan.attrs) == len(plan)
    for i, uid in enumerate(plan.uids):
        assert plan.op(i).attrs == model[uid]
        assert not any(value is True and key in FLAG_BIT
                       for key, value in (plan.attrs[i] or {}).items())
    ref = _dict_only(plan, model)
    assert plan.to_json() == ref.to_json()
    assert plan.format_text() == ref.format_text()
    assert plan.digest() == ref.digest()


def _rows(data, plan):
    return data.draw(st.lists(st.integers(0, len(plan) - 1), max_size=4),
                     label="rows")


def _add(data, plan, model):
    kind = data.draw(st.sampled_from(("encode", "send", "cpu", "barrier")))
    attrs = data.draw(ATTRS, label="attrs")
    deps = [ReadyRef(0, "g")]
    if len(plan):
        deps.append(plan.uids[data.draw(st.integers(0, len(plan) - 1))])
    uid = add(plan, kind, 0, f"op{plan._next_uid}", SizeExpr(8.0),
              deps=deps, dst=1 if kind == "send" else None, grad="g",
              **attrs)
    model[uid] = dict(attrs)


def _extend(data, plan, model):
    m = data.draw(st.integers(1, 3), label="block")
    attrs = [data.draw(st.one_of(st.none(), ATTRS)) for _ in range(m)]
    flags = [data.draw(st.integers(0, (1 << len(FLAGS)) - 1))
             for _ in range(m)]
    base = len(plan)
    first = plan.extend([OP_KINDS.index("encode")] * m, [1] * m,
                        [f"blk{base + i}" for i in range(m)], [4.0] * m,
                        [False] * m, [-1] * m, ["h"] * m, attrs,
                        [1 if base + i else 0 for i in range(m)],
                        [base + i - 1 for i in range(m) if base + i],
                        flags=flags)
    for i in range(m):
        expected = {name: True for name, bit in FLAG_BIT.items()
                    if flags[i] & bit}
        expected.update(attrs[i] or {})
        model[first + i] = expected


def _set_attr(data, plan, model):
    rows = _rows(data, plan)
    key = data.draw(st.sampled_from(KEYS))
    value = data.draw(VALUES)
    plan.set_attr(rows, key, value)
    for row in rows:
        model[plan.uids[row]][key] = value


def _pop_attr(data, plan, model):
    rows = _rows(data, plan)
    key = data.draw(st.sampled_from(KEYS))
    plan.pop_attr(rows, key)
    for row in rows:
        model[plan.uids[row]].pop(key, None)


def _drop(data, plan, model):
    rows = set(_rows(data, plan))
    for row in rows:
        del model[plan.uids[row]]
    plan.drop(dict.fromkeys(rows))


def _reorder(data, plan, model):
    plan.reorder(data.draw(st.permutations(range(len(plan)))))


STEPS = {"add": _add, "extend": _extend, "set_attr": _set_attr,
         "pop_attr": _pop_attr, "drop": _drop, "reorder": _reorder,
         "deepcopy": None}


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_flag_column_reads_as_dict_attrs(data):
    plan = SyncPlan("flags", num_nodes=2)
    model = {}
    for _ in range(data.draw(st.integers(1, 12), label="steps")):
        step = data.draw(st.sampled_from(sorted(STEPS)), label="step")
        if step in ("add", "extend") or not len(plan):
            STEPS["extend" if step == "extend" else "add"](data, plan, model)
        elif step == "deepcopy":
            original, snapshot = plan, copy.deepcopy(model)
            flags, attrs = bytes(plan.flags), copy.deepcopy(plan.attrs)
            plan, model = copy.deepcopy(plan), copy.deepcopy(model)
            # The copy's appends and flag writes leave the original be.
            _add(data, plan, model)
            plan.set_attr(range(len(plan)), "fused", True)
            for uid in model:
                model[uid]["fused"] = True
            assert bytes(original.flags) == flags
            assert original.attrs == attrs
            _check(original, snapshot)
        else:
            STEPS[step](data, plan, model)
        _check(plan, model)


def test_built_plan_keeps_no_true_flag_in_a_dict():
    # A CaSync-PS plan's flags live in the column; its dicts are None.
    pctx = PassContext(num_nodes=4, cluster=ec2_v100_cluster(4),
                       algorithm=default_algorithm("onebit"))
    plan = build_plan(get_strategy("casync-ps"), pctx,
                      get_model("resnet50"))
    assert any(plan.flags)
    assert plan.attrs.count(None) == len(plan)

"""Grouped costing is exact at scale (slow: run with ``-m slow``).

:func:`repro.casync.lower.lower_plan` costs each group of equal costing
inputs once; ``tests/test_lowering.py``'s oracle costs every op again
with its own ``_cost`` call and compares each cost column bit for bit.
Here the oracle runs on 16-node plans: BERT-large over CaSync-PS with
onebit (271,412 tasks) and VGG19 over CaSync-ring with dgc.
"""

import pytest

from repro.casync.passes import PassContext, build_plan
from repro.cluster import ec2_v100_cluster
from repro.experiments.common import default_algorithm
from repro.models import get_model
from repro.strategies import get_strategy

from tests.test_lowering import assert_costs_exact


@pytest.mark.slow
@pytest.mark.parametrize("strategy, model, codec", [
    ("casync-ps", "bert-large", "onebit"),
    ("casync-ring", "vgg19", "dgc"),
])
def test_grouped_costs_equal_scalar_costs_n16(strategy, model, codec):
    pctx = PassContext(num_nodes=16, cluster=ec2_v100_cluster(16),
                       algorithm=default_algorithm(codec))
    assert_costs_exact(build_plan(get_strategy(strategy), pctx,
                                  get_model(model)), pctx)

"""CaSync: compression-aware gradient synchronization architecture."""

from .decisions import DecisionMap, GradientDecision
from .index import PlanIndex, plan_index
from .ir import (
    OP_KINDS,
    Directive,
    Op,
    PlanVerificationError,
    ReadyRef,
    SizeExpr,
    SyncPlan,
)
from .passes import (
    AdaptivePass,
    BulkRoutePass,
    FuseDecodeMergePass,
    PartitionPass,
    Pass,
    PassContext,
    SelectivePass,
    VerifyPass,
    build_plan,
    verify_plan,
)
from .planner import (
    PLANNER_KINDS,
    STEP_COUNT_PRESETS,
    CostModel,
    GradientPlan,
    SelectivePlanner,
    StepCounts,
    plans_to_json,
)
from .memory import buffer_lifetimes, peak_buffer_memory
from .topology import Role, Topology, ps_topology, ring_topology
from .tasks import (
    COMPUTE_KINDS,
    Coordinator,
    NodeEngine,
    TaskGraph,
    run_graph,
)

__all__ = [
    "AdaptivePass",
    "BulkRoutePass",
    "COMPUTE_KINDS",
    "DecisionMap",
    "Directive",
    "GradientDecision",
    "FuseDecodeMergePass",
    "OP_KINDS",
    "Op",
    "PartitionPass",
    "Pass",
    "PassContext",
    "PlanIndex",
    "PlanVerificationError",
    "ReadyRef",
    "SelectivePass",
    "SizeExpr",
    "SyncPlan",
    "VerifyPass",
    "build_plan",
    "plan_index",
    "verify_plan",
    "Role",
    "buffer_lifetimes",
    "peak_buffer_memory",
    "Topology",
    "ps_topology",
    "plans_to_json",
    "ring_topology",
    "Coordinator",
    "CostModel",
    "GradientPlan",
    "NodeEngine",
    "PLANNER_KINDS",
    "STEP_COUNT_PRESETS",
    "SelectivePlanner",
    "StepCounts",
    "TaskGraph",
    "run_graph",
]

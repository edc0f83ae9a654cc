"""The eight multi-GPU applications of paper Sec. V, plus the
synthetic dataset generators and the workload framework."""

from .als import ALSWorkload
from .base import (
    MultiGPUWorkload,
    contiguous_interval,
    element_intervals,
    push_elements,
)
from .collectives import (
    AllGatherWorkload,
    AllToAllWorkload,
    CollectiveSchedule,
    CollectiveTransfer,
    CollectiveWorkload,
    PipelineWorkload,
    RingAllReduceWorkload,
    TreeAllReduceWorkload,
    allgather_schedule,
    alltoall_schedule,
    collectives_suite,
    pipeline_schedule,
    ring_allreduce_schedule,
    tree_allreduce_schedule,
)
from .ct import CTWorkload
from .datasets import (
    Graph,
    RatingMatrix,
    banded_matrix,
    bipartite_ratings,
    owner_of_vertex,
    partition_bounds,
    powerlaw_graph,
)
from .diffusion import DiffusionWorkload
from .eqwp import EQWPWorkload
from .faulty import FaultyWorkload
from .grids import StencilSpec, build_stencil_trace
from .hit import HITWorkload
from .jacobi import JacobiWorkload
from .pagerank import PagerankWorkload
from .sssp import SSSPWorkload


def default_suite() -> list[MultiGPUWorkload]:
    """The paper's full application suite at evaluation scale."""
    return [
        JacobiWorkload(),
        PagerankWorkload(),
        SSSPWorkload(),
        ALSWorkload(),
        CTWorkload(),
        EQWPWorkload(),
        DiffusionWorkload(),
        HITWorkload(),
    ]


def small_suite() -> list[MultiGPUWorkload]:
    """Scaled-down suite for tests and quick demos."""
    return [
        JacobiWorkload(n=256),
        PagerankWorkload(n=8_000, avg_degree=8),
        SSSPWorkload(n=6_000, avg_degree=8),
        ALSWorkload(n_users=2_000, n_items=500, avg_ratings=8),
        CTWorkload(total_corrections=8_000),
        EQWPWorkload(n=32),
        DiffusionWorkload(n=32),
        HITWorkload(n=32),
    ]


__all__ = [
    "ALSWorkload",
    "AllGatherWorkload",
    "AllToAllWorkload",
    "CollectiveSchedule",
    "CollectiveTransfer",
    "CollectiveWorkload",
    "PipelineWorkload",
    "RingAllReduceWorkload",
    "TreeAllReduceWorkload",
    "allgather_schedule",
    "alltoall_schedule",
    "collectives_suite",
    "pipeline_schedule",
    "ring_allreduce_schedule",
    "tree_allreduce_schedule",
    "MultiGPUWorkload",
    "contiguous_interval",
    "element_intervals",
    "push_elements",
    "CTWorkload",
    "Graph",
    "RatingMatrix",
    "banded_matrix",
    "bipartite_ratings",
    "owner_of_vertex",
    "partition_bounds",
    "powerlaw_graph",
    "DiffusionWorkload",
    "EQWPWorkload",
    "FaultyWorkload",
    "StencilSpec",
    "build_stencil_trace",
    "HITWorkload",
    "JacobiWorkload",
    "PagerankWorkload",
    "SSSPWorkload",
    "default_suite",
    "small_suite",
]

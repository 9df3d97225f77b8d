"""Unified auto-parallel planner: one search pipeline from a training
job to its best TP x DP x PP shape on a server or cluster.

Three layers (docs/planner.md):

1. :mod:`repro.autoplan.candidates` — enumerate valid
   (tp, dp, pp, sequence-parallel, placement) shapes under a per-GPU
   memory budget, heterogeneous box sizes included; every invalid
   shape carries an explicit rejection reason.
2. :mod:`repro.autoplan.pricing` — score each candidate analytically
   from the cost-model, collective and placement primitives, with
   TP/DP sync priced under shared-fabric contention.
3. :mod:`repro.autoplan.search` — simulate only the top-K frontier
   as content-addressed cluster tasks, and rank.

``Planner`` (one chain) and ``run_cluster`` (TP x DP x PP) remain as
thin single-shape facades over the same underlying layers;
``run_hybrid`` (DP x PP on one server) is ``run_cluster``'s tp=1
corner with its own replica layout search.
"""

from repro.autoplan.candidates import (
    RejectedShape,
    ShapeCandidate,
    default_budget_bytes,
    generate_candidates,
    shape_grid,
)
from repro.autoplan.pricing import (
    CandidatePrice,
    chain_time_estimate,
    price_candidate,
)
from repro.autoplan.search import (
    AutoPlanConfig,
    AutoPlanReport,
    RankedShape,
    autoplan,
    frontier_size,
    shape_cluster_config,
)

__all__ = [
    "RejectedShape",
    "ShapeCandidate",
    "default_budget_bytes",
    "generate_candidates",
    "shape_grid",
    "CandidatePrice",
    "chain_time_estimate",
    "price_candidate",
    "AutoPlanConfig",
    "AutoPlanReport",
    "RankedShape",
    "autoplan",
    "frontier_size",
    "shape_cluster_config",
]

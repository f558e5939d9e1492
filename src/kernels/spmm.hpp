// Node-parallel aggregation kernels (the center-neighbor pattern).
//
// `spmm_node` is the workhorse graph operation: every task reduces the
// feature rows of a center node's (sub-)range of neighbors into the center's
// output row, optionally scaled by per-edge weights. It is the kernel DGL
// and ROC implement one-task-per-node (Figure 2, lower half), the kernel
// neighbor grouping splits into bounded tasks, and the kernel
// locality-aware scheduling reorders.
//
// `spmm_vendor` models the cuSPARSE fallback DGL takes when the reducer is
// SUM: same math, but the library's own fixed row-per-warp schedule — task
// lists and reordering hints are ignored.
#pragma once

#include "kernels/common.hpp"

namespace gnnbridge::kernels {

/// Arguments for the node-parallel aggregation kernel.
struct SpmmArgs {
  const GraphOnDevice* graph = nullptr;
  /// Aggregation tasks in launch order (one block each).
  std::span<const Task> tasks;
  /// Source (neighbor) features, [N, F].
  const FeatureMat* src = nullptr;
  /// Optional per-edge weights, [E, 1]; null for unweighted aggregation.
  const FeatureMat* edge_weight = nullptr;
  /// Output features, [N, F].
  FeatureMat* out = nullptr;
  Reduce reduce = Reduce::kSum;
  /// SIMD lanes assigned per feature row (thread mapping; tunable).
  int lanes = 32;
  /// True when tasks split rows (neighbor grouping) and partial results
  /// merge through atomics.
  bool atomic_merge = false;
  /// Initialize the output before accumulating (callers chaining multiple
  /// spmm calls into one logical op set this false after the first).
  bool zero_out = true;
  const char* name = "spmm_node";
  const char* phase = "graph_op";
};

/// Launches the aggregation kernel; returns the simulator's stats for it.
sim::KernelStats spmm_node(sim::SimContext& ctx, const SpmmArgs& args);

/// cuSPARSE-style vendor SpMM: sum-reduce with the library's fixed
/// schedule (natural row order, 32 lanes). `args.tasks`, `lanes`,
/// `atomic_merge` and `reduce` are ignored.
sim::KernelStats spmm_vendor(sim::SimContext& ctx, SpmmArgs args);

}  // namespace gnnbridge::kernels

// The optimized engine's GCN and GAT layers, each described once. Internal —
// not part of the public engine API.
//
// Every caller runs a layer in three steps:
//   allocate   the layer's device buffers, in one fixed order (simulated
//              addresses depend on it);
//   transform  the dense GEMM;
//   aggregate  the graph-side kernel sequence of the pipeline the attempt
//              chose (choose_pipeline), ending in the layer's activation.
// The unsharded attempts run the steps back to back on one context; the
// sharded attempts (engine_shard.cpp) run them per shard with the ghost
// exchange between transform and aggregate; multi-head GAT runs each head
// as a last GAT layer; the training step's forward runs the fused GCN steps.
#pragma once

#include "core/balance/neighbor_grouping.hpp"
#include "engine/engine_internal.hpp"

namespace gnnbridge::engine::detail {

/// Which kernels of a layer share a launch — the data-visible-range
/// adapter's decision (paper §4.2), made once per attempt.
enum class Pipeline {
  kUnfused,  ///< the frameworks' op-per-kernel sequence
  kAdapter,  ///< fused kernels; GAT materializes the softmax division
  kLinear,   ///< fused kernels; GAT postpones the division (linear property)
};

/// The adapter knob's pipeline for one attempt. When the adapter is on,
/// this is where the fusion_pass seam fires (`where` names the gate in the
/// injected failure); a failure degrades the attempt to kUnfused.
Pipeline choose_pipeline(bool adapter, bool linear, const char* where);

/// What an aggregation reads besides the layer's own buffers: the device
/// graph, its task list and the launch knobs.
struct GraphView {
  const k::GraphOnDevice* graph = nullptr;
  const core::GroupedTasks* grouped = nullptr;
  int lanes = 32;
};

/// C = H W over the first `rows` rows of H and C (a shard transforms only
/// the rows it owns; unsharded callers pass every row).
void transform(sim::SimContext& ctx, const k::FeatureMat& h, const k::FeatureMat& w,
               const k::FeatureMat& t, tensor::Index rows);

struct GcnLayer {
  k::FeatureMat w, b, t, agg;
};

/// Allocates w, b, transformed, aggregated for `rows` nodes.
GcnLayer gcn_allocate(sim::SimContext& ctx, Workspace& ws, const baselines::Matrix& weight,
                      const baselines::Matrix& bias, tensor::Index rows);

/// agg = act(A_norm t + b). `last` drops the ReLU.
void gcn_aggregate(sim::SimContext& ctx, const GraphView& g, const k::FeatureMat& norm,
                   GcnLayer& layer, Pipeline pipe, bool last);

struct GatLayer {
  k::FeatureMat w, att_l, att_r, t, att_src, att_dst, e, vacc, agg;
  k::FeatureMat eacc;  ///< kUnfused only: the broadcast normalization sums
};

/// Allocates w, att_l, att_r, transformed, att_src, att_dst, e, v_acc,
/// aggregated for `rows` nodes and `edges` edges, then e_acc when `pipe`
/// is kUnfused.
GatLayer gat_allocate(sim::SimContext& ctx, Workspace& ws, const baselines::Matrix& weight,
                      const baselines::Matrix& att_l, const baselines::Matrix& att_r,
                      tensor::Index rows, tensor::Index edges, Pipeline pipe);

/// agg = act(softmax-weighted sum of t), attention scalars included.
/// `last` drops the ReLU.
void gat_aggregate(sim::SimContext& ctx, const GraphView& g, GatLayer& layer,
                   Pipeline pipe, float leaky_alpha, bool last);

}  // namespace gnnbridge::engine::detail

#include "engine/layers.hpp"

#include <cmath>

#include "kernels/dense.hpp"
#include "kernels/edge_ops.hpp"
#include "kernels/fused.hpp"
#include "kernels/sddmm.hpp"
#include "kernels/spmm.hpp"
#include "rt/fault.hpp"
#include "tensor/activations.hpp"

namespace gnnbridge::engine::detail {

namespace {
/// A view of the first `rows` rows of `m` (same buffer, same host matrix).
/// Kernels size both their traces and their host math from the view, which
/// is what a shard's transform wants: the sim prices and dense_gemm
/// computes the owned rows only, and the ghost rows behind them are left
/// for the exchange to write.
k::FeatureMat top_rows(const k::FeatureMat& m, tensor::Index rows) {
  k::FeatureMat v = m;
  v.rows = rows;
  return v;
}

void relu(sim::SimContext& ctx, k::FeatureMat& m) {
  k::dense_map(ctx, {.in = &m,
                     .out = &m,
                     .fn = [](float x) { return x > 0.0f ? x : 0.0f; },
                     .flops_per_elem = 1.0,
                     .name = "relu"});
}
}  // namespace

Pipeline choose_pipeline(bool adapter, bool linear, const char* where) {
  if (!adapter) return Pipeline::kUnfused;
  rt::raise_if_armed(rt::kSeamFusionPass, where);
  return linear ? Pipeline::kLinear : Pipeline::kAdapter;
}

void transform(sim::SimContext& ctx, const k::FeatureMat& h, const k::FeatureMat& w,
               const k::FeatureMat& t, tensor::Index rows) {
  const k::FeatureMat hview = top_rows(h, rows);
  k::FeatureMat tview = top_rows(t, rows);
  k::dense_gemm(ctx, {.a = &hview, .b = &w, .c = &tview});
}

GcnLayer gcn_allocate(sim::SimContext& ctx, Workspace& ws, const baselines::Matrix& weight,
                      const baselines::Matrix& bias, tensor::Index rows) {
  GcnLayer l;
  l.w = ws.from(ctx, weight, "w");
  l.b = ws.from(ctx, bias, "b");
  l.t = ws.mat(ctx, rows, l.w.cols, "transformed");
  l.agg = ws.mat(ctx, rows, l.w.cols, "aggregated");
  return l;
}

void gcn_aggregate(sim::SimContext& ctx, const GraphView& g, const k::FeatureMat& norm,
                   GcnLayer& layer, Pipeline pipe, bool last) {
  const core::GroupedTasks& grouped = *g.grouped;
  if (pipe == Pipeline::kUnfused) {
    // The frameworks' op-per-kernel sequence: aggregation, bias add and
    // activation each round-trip the [N, F] tensor.
    k::spmm_node(ctx, {.graph = g.graph,
                       .tasks = grouped.tasks,
                       .src = &layer.t,
                       .edge_weight = &norm,
                       .out = &layer.agg,
                       .lanes = g.lanes,
                       .atomic_merge = grouped.any_split});
    k::bias_act_kernel(ctx,
                       {.bias = &layer.b, .mat = &layer.agg, .relu = false, .name = "bias_add"});
    if (!last) relu(ctx, layer.agg);
    return;
  }
  // Aggregation, bias and activation in one kernel: the epilogue needs
  // only its own row's sum, which a whole-row task holds at block range.
  // Split rows (neighbor grouping) merge partial sums through atomics, so
  // a row is complete only at global range — the epilogue is deferred to a
  // separate kernel behind that barrier.
  const bool inline_ok = !grouped.any_split;
  k::aggregate_bias_act_fused(ctx, {.graph = g.graph,
                                    .tasks = grouped.tasks,
                                    .feat = &layer.t,
                                    .edge_weight = &norm,
                                    .bias = &layer.b,
                                    .out = &layer.agg,
                                    .relu = !last,
                                    .epilogue_inline = inline_ok,
                                    .lanes = g.lanes,
                                    .atomic_merge = grouped.any_split});
  if (!inline_ok) {
    k::bias_act_kernel(ctx, {.bias = &layer.b, .mat = &layer.agg, .relu = !last});
  }
}

GatLayer gat_allocate(sim::SimContext& ctx, Workspace& ws, const baselines::Matrix& weight,
                      const baselines::Matrix& att_l, const baselines::Matrix& att_r,
                      tensor::Index rows, tensor::Index edges, Pipeline pipe) {
  GatLayer l;
  l.w = ws.from(ctx, weight, "w");
  l.att_l = ws.from(ctx, att_l, "att_l");
  l.att_r = ws.from(ctx, att_r, "att_r");
  l.t = ws.mat(ctx, rows, l.w.cols, "transformed");
  l.att_src = ws.mat(ctx, rows, 1, "att_src");
  l.att_dst = ws.mat(ctx, rows, 1, "att_dst");
  l.e = ws.mat(ctx, edges, 1, "e");
  l.vacc = ws.mat(ctx, rows, 1, "v_acc");
  l.agg = ws.mat(ctx, rows, l.w.cols, "aggregated");
  if (pipe == Pipeline::kUnfused) l.eacc = ws.mat(ctx, edges, 1, "e_acc");
  return l;
}

void gat_aggregate(sim::SimContext& ctx, const GraphView& g, GatLayer& layer, Pipeline pipe,
                   float leaky_alpha, bool last) {
  const core::GroupedTasks& grouped = *g.grouped;
  // Attention scalars over every local row: row_dot is row-independent, so
  // a shard recomputes its ghost rows' scalars bit-identically to their
  // owner instead of receiving them in the exchange.
  k::row_dot(ctx, {.feat = &layer.t, .vec = &layer.att_l, .out = &layer.att_src});
  k::row_dot(ctx, {.feat = &layer.t, .vec = &layer.att_r, .out = &layer.att_dst});
  switch (pipe) {
    case Pipeline::kLinear:
      // Two kernels (§4.2). Score, leaky_relu and exp are edge-local
      // (thread range), and the normalization sum needs only the center's
      // edges, so it accumulates in the same pass. The linear property
      // moves the division past the weighted sum into the aggregation's
      // epilogue, which removes the broadcast + divide and the global
      // barrier in front of them.
      k::gat_edge_fused(ctx, {.graph = g.graph,
                              .tasks = grouped.tasks,
                              .att_src = &layer.att_src,
                              .att_dst = &layer.att_dst,
                              .edge_out = &layer.e,
                              .vacc_out = &layer.vacc,
                              .leaky_alpha = leaky_alpha,
                              .atomic_merge = grouped.any_split});
      k::gat_aggregate_fused(ctx, {.graph = g.graph,
                                   .tasks = grouped.tasks,
                                   .feat = &layer.t,
                                   .edge_weight = &layer.e,
                                   .vacc = &layer.vacc,
                                   .out = &layer.agg,
                                   .scale_inline = true,
                                   .lanes = g.lanes,
                                   .atomic_merge = grouped.any_split});
      break;
    case Pipeline::kAdapter:
      // Without the linear property every edge weight must be divided by
      // its center's complete sum before the aggregation reads it: the sum
      // is a segment reduction (global range under split rows), so the
      // normalized weights are materialized behind a barrier, with the
      // broadcast and divide fused into one kernel.
      k::gat_edge_fused(ctx, {.graph = g.graph,
                              .tasks = grouped.tasks,
                              .att_src = &layer.att_src,
                              .att_dst = &layer.att_dst,
                              .edge_out = &layer.e,
                              .vacc_out = nullptr,
                              .leaky_alpha = leaky_alpha});
      k::segment_sum(ctx, {.graph = g.graph,
                           .tasks = grouped.tasks,
                           .edge_val = &layer.e,
                           .node_out = &layer.vacc,
                           .atomic_merge = grouped.any_split});
      k::softmax_div_fused(ctx, {.graph = g.graph, .tasks = grouped.tasks, .vacc = &layer.vacc,
                                 .edge = &layer.e});
      k::gat_aggregate_fused(ctx, {.graph = g.graph,
                                   .tasks = grouped.tasks,
                                   .feat = &layer.t,
                                   .edge_weight = &layer.e,
                                   .vacc = nullptr,
                                   .out = &layer.agg,
                                   .lanes = g.lanes,
                                   .atomic_merge = grouped.any_split});
      break;
    case Pipeline::kUnfused:
      // The seven-kernel pipeline of Listing 1, still honoring the task
      // distribution so grouping and LAS ablate independently of fusion
      // (Table 6's columns).
      k::u_add_v(ctx, {.graph = g.graph,
                       .tasks = grouped.tasks,
                       .src_scalar = &layer.att_src,
                       .dst_scalar = &layer.att_dst,
                       .edge_out = &layer.e});
      k::edge_map(ctx, {.in = &layer.e,
                        .out = &layer.e,
                        .fn = [leaky_alpha](float x) {
                          return tensor::leaky_relu_scalar(x, leaky_alpha);
                        },
                        .flops_per_elem = 1.0,
                        .name = "leaky_relu"});
      k::edge_map(ctx, {.in = &layer.e,
                        .out = &layer.e,
                        .fn = [](float x) { return std::exp(x); },
                        .flops_per_elem = 4.0,
                        .name = "exp"});
      k::segment_sum(ctx, {.graph = g.graph,
                           .tasks = grouped.tasks,
                           .edge_val = &layer.e,
                           .node_out = &layer.vacc,
                           .atomic_merge = grouped.any_split});
      k::broadcast_edge(ctx, {.graph = g.graph, .tasks = grouped.tasks, .node_val = &layer.vacc,
                              .edge_out = &layer.eacc});
      k::edge_binary(ctx, {.a = &layer.e,
                           .b = &layer.eacc,
                           .out = &layer.e,
                           .fn = [](float x, float acc) { return acc != 0.0f ? x / acc : 0.0f; },
                           .flops_per_elem = 1.0,
                           .name = "softmax_div"});
      k::spmm_node(ctx, {.graph = g.graph,
                         .tasks = grouped.tasks,
                         .src = &layer.t,
                         .edge_weight = &layer.e,
                         .out = &layer.agg,
                         .lanes = g.lanes,
                         .atomic_merge = grouped.any_split,
                         .name = "u_mul_e_sum"});
      break;
  }
  if (!last) relu(ctx, layer.agg);
}

}  // namespace gnnbridge::engine::detail

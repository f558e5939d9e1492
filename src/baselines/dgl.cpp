#include "baselines/dgl.hpp"

#include <cmath>

#include "baselines/footprint.hpp"
#include "baselines/workspace.hpp"
#include "kernels/dense.hpp"
#include "kernels/edge_ops.hpp"
#include "kernels/expand.hpp"
#include "kernels/fused.hpp"
#include "kernels/lstm.hpp"
#include "kernels/sddmm.hpp"
#include "kernels/spmm.hpp"
#include "tensor/activations.hpp"
#include "prof/span.hpp"

namespace gnnbridge::baselines {

namespace k = gnnbridge::kernels;

namespace {

/// Per-op host-side scheduling cost of the DGL/PyTorch stack (graph index
/// handle lookups, dispatcher layers, autograd bookkeeping) — Observation 3.
constexpr sim::Cycles kFrameworkOverheadCycles = 30000.0;

sim::DeviceSpec with_framework_overhead(sim::DeviceSpec spec) {
  spec.framework_overhead_cycles = kFrameworkOverheadCycles;
  return spec;
}

/// One GAT layer (or head) as Listing 1 of the paper: a GEMM, two row
/// dots and seven separate graph-op kernels. Allocates w, att_l, att_r,
/// transformed, att_src, att_dst, e, v_acc, e_acc, aggregated, in that
/// order, and returns the aggregated matrix (no activation).
k::FeatureMat listing1_gat(sim::SimContext& ctx, Workspace& ws, const k::GraphOnDevice& gdev,
                           std::span<const k::Task> tasks, const k::FeatureMat& h,
                           const Matrix& weight, const Matrix& att_l, const Matrix& att_r,
                           float alpha) {
  const graph::EdgeId num_edges = gdev.csr->num_edges();
  auto w = ws.from(ctx, weight, "w");
  auto al = ws.from(ctx, att_l, "att_l");
  auto ar = ws.from(ctx, att_r, "att_r");
  auto t = ws.mat(ctx, h.rows, w.cols, "transformed");
  k::dense_gemm(ctx, {.a = &h, .b = &w, .c = &t});
  auto att_src = ws.mat(ctx, h.rows, 1, "att_src");
  auto att_dst = ws.mat(ctx, h.rows, 1, "att_dst");
  k::row_dot(ctx, {.feat = &t, .vec = &al, .out = &att_src});
  k::row_dot(ctx, {.feat = &t, .vec = &ar, .out = &att_dst});

  auto e = ws.mat(ctx, num_edges, 1, "e");
  k::u_add_v(ctx, {.graph = &gdev,
                   .tasks = tasks,
                   .src_scalar = &att_src,
                   .dst_scalar = &att_dst,
                   .edge_out = &e});
  k::edge_map(ctx, {.in = &e,
                    .out = &e,
                    .fn = [alpha](float x) { return tensor::leaky_relu_scalar(x, alpha); },
                    .flops_per_elem = 1.0,
                    .name = "leaky_relu"});
  k::edge_map(ctx, {.in = &e,
                    .out = &e,
                    .fn = [](float x) { return std::exp(x); },
                    .flops_per_elem = 4.0,
                    .name = "exp"});
  auto vacc = ws.mat(ctx, h.rows, 1, "v_acc");
  k::segment_sum(ctx, {.graph = &gdev, .tasks = tasks, .edge_val = &e, .node_out = &vacc});
  auto eacc = ws.mat(ctx, num_edges, 1, "e_acc");
  k::broadcast_edge(ctx, {.graph = &gdev, .tasks = tasks, .node_val = &vacc, .edge_out = &eacc});
  k::edge_binary(ctx, {.a = &e,
                       .b = &eacc,
                       .out = &e,
                       .fn = [](float x, float acc) { return acc != 0.0f ? x / acc : 0.0f; },
                       .flops_per_elem = 1.0,
                       .name = "softmax_div"});
  auto agg = ws.mat(ctx, h.rows, w.cols, "aggregated");
  k::spmm_node(ctx, {.graph = &gdev,
                     .tasks = tasks,
                     .src = &t,
                     .edge_weight = &e,
                     .out = &agg,
                     .name = "u_mul_e_sum"});
  return agg;
}

}  // namespace

RunResult DglBackend::run_gcn(const Dataset& data, const GcnRun& run, ExecMode mode,
                              const sim::DeviceSpec& spec) {
  prof::Span span("DglBackend::run_gcn", "baseline");
  const std::uint64_t paper_bytes = dgl_footprint(graph::paper_stats(data.id), *run.cfg);
  if (paper_bytes > kDeviceBytes) return oom_result(paper_bytes);

  sim::SimContext ctx(with_framework_overhead(spec));
  Workspace ws(mode);
  const auto gdev = k::device_graph(ctx, data.csr, "csr");
  const auto tasks = k::natural_tasks(data.csr);
  const auto norm = ws.edge_norm(ctx, data.csr);

  k::FeatureMat h = ws.from(ctx, *run.features, "x");
  for (std::size_t l = 0; l < run.params->weight.size(); ++l) {
    const bool last = l + 1 == run.params->weight.size();
    auto w = ws.from(ctx, run.params->weight[l], "w");
    auto bias = ws.from(ctx, run.params->bias[l], "b");
    auto t = ws.mat(ctx, h.rows, w.cols, "transformed");
    k::dense_gemm(ctx, {.a = &h, .b = &w, .c = &t});

    // DGL routes sum-reduce through the vendor library (cuSPARSE csrmm).
    auto agg = ws.mat(ctx, h.rows, w.cols, "aggregated");
    k::SpmmArgs spmm{.graph = &gdev,
                     .tasks = tasks,
                     .src = &t,
                     .edge_weight = &norm,
                     .out = &agg,
                     .phase = "graph_op"};
    k::spmm_vendor(ctx, spmm);

    // Separate bias + activation kernel (op-per-kernel execution).
    k::bias_act_kernel(ctx, {.bias = &bias, .mat = &agg, .relu = !last});
    h = agg;
  }
  return finish(ctx, spec, h, paper_bytes);
}

RunResult DglBackend::run_gat(const Dataset& data, const GatRun& run, ExecMode mode,
                              const sim::DeviceSpec& spec) {
  prof::Span span("DglBackend::run_gat", "baseline");
  const std::uint64_t paper_bytes = dgl_footprint_gat(graph::paper_stats(data.id), *run.cfg);
  if (paper_bytes > kDeviceBytes) return oom_result(paper_bytes);

  sim::SimContext ctx(with_framework_overhead(spec));
  Workspace ws(mode);
  const auto gdev = k::device_graph(ctx, data.csr, "csr");
  const auto tasks = k::natural_tasks(data.csr);

  k::FeatureMat h = ws.from(ctx, *run.features, "x");
  for (std::size_t l = 0; l < run.params->weight.size(); ++l) {
    k::FeatureMat agg = listing1_gat(ctx, ws, gdev, tasks, h, run.params->weight[l],
                                     run.params->att_l[l], run.params->att_r[l],
                                     run.cfg->leaky_alpha);
    if (l + 1 < run.params->weight.size()) {
      k::dense_map(ctx, {.in = &agg,
                         .out = &agg,
                         .fn = [](float x) { return x > 0.0f ? x : 0.0f; },
                         .flops_per_elem = 1.0,
                         .name = "relu"});
    }
    h = agg;
  }
  return finish(ctx, spec, h, paper_bytes);
}

RunResult DglBackend::run_sage_lstm(const Dataset& data, const SageLstmRun& run, ExecMode mode,
                                    const sim::DeviceSpec& spec) {
  prof::Span span("DglBackend::run_sage_lstm", "baseline");
  // SAGE-LSTM footprints are tiny (one [N, F] expansion buffer at a time).
  sim::SimContext ctx(with_framework_overhead(spec));
  Workspace ws(mode);
  const auto gdev = k::device_graph(ctx, data.csr, "csr");
  const models::Index n = data.csr.num_nodes;
  const models::Index hidden = run.cfg->hidden;

  auto x = ws.from(ctx, *run.features, "x");
  auto w = ws.from(ctx, run.params->w, "w");
  auto rmat = ws.from(ctx, run.params->r, "r");
  auto bias = ws.from(ctx, run.params->bias, "bias");
  auto hstate = ws.mat(ctx, n, hidden, "h");
  auto cstate = ws.mat(ctx, n, hidden, "c");
  auto x_t = ws.mat(ctx, n, run.cfg->in_feat, "x_t");
  auto g_in = ws.mat(ctx, n, 4 * hidden, "gates_in");
  auto g_rec = ws.mat(ctx, n, 4 * hidden, "gates_rec");
  auto gates = ws.mat(ctx, n, 4 * hidden, "gates");

  for (int t = 0; t < run.cfg->steps; ++t) {
    // Expansion: materialize the t-th neighbor features (Observation 4).
    k::step_gather(ctx, {.graph = &gdev, .step = t, .feat = &x, .out = &x_t});
    // Transformation on the expanded matrix — redone every step.
    k::dense_gemm(ctx, {.a = &x_t, .b = &w, .c = &g_in, .phase = "transformation"});
    k::dense_gemm(ctx, {.a = &hstate, .b = &rmat, .c = &g_rec, .phase = "recurrent"});
    k::dense_binary(ctx, {.a = &g_in,
                          .b = &g_rec,
                          .out = &gates,
                          .fn = [](float a, float b) { return a + b; },
                          .flops_per_elem = 1.0,
                          .name = "gates_add",
                          .phase = "lstm_cell"});
    k::lstm_pointwise(ctx, {.gates = &gates, .bias = &bias, .c = &cstate, .h = &hstate});
  }
  auto outw = ws.from(ctx, run.params->out_w, "out_w");
  auto out = ws.mat(ctx, n, hidden, "out");
  k::dense_gemm(ctx, {.a = &hstate, .b = &outw, .c = &out, .phase = "projection"});

  return finish(ctx, spec, out);
}

RunResult DglBackend::run_multihead_gat(const Dataset& data, const MultiHeadGatRun& run,
                                        ExecMode mode, const sim::DeviceSpec& spec) {
  prof::Span span("DglBackend::run_multihead_gat", "baseline");
  // DGL executes each head as an independent Listing-1 pipeline: K times
  // the op count — the op-explosion face of Observation 3.
  sim::SimContext ctx(with_framework_overhead(spec));
  Workspace ws(mode);
  const auto gdev = k::device_graph(ctx, data.csr, "csr");
  const auto tasks = k::natural_tasks(data.csr);

  auto x = ws.from(ctx, *run.features, "x");
  Matrix concat;
  if (x.host) concat = Matrix(data.csr.num_nodes, run.cfg->out_feat());
  for (int head = 0; head < run.cfg->heads; ++head) {
    const auto h = static_cast<std::size_t>(head);
    const k::FeatureMat agg =
        listing1_gat(ctx, ws, gdev, tasks, x, run.params->weight[h], run.params->att_l[h],
                     run.params->att_r[h], run.cfg->leaky_alpha);
    if (agg.host) {
      const models::Index off = static_cast<models::Index>(head) * run.cfg->head_dim;
      for (graph::NodeId v = 0; v < data.csr.num_nodes; ++v) {
        auto src = agg.host->row(v);
        auto dst = concat.row(v);
        for (models::Index f = 0; f < run.cfg->head_dim; ++f) dst[off + f] = src[f];
      }
    }
  }
  return finish(ctx, spec, std::move(concat));
}

RunResult DglBackend::run_sage_pool(const Dataset& data, const SagePoolRun& run, ExecMode mode,
                                    const sim::DeviceSpec& spec) {
  prof::Span span("DglBackend::run_sage_pool", "baseline");
  sim::SimContext ctx(with_framework_overhead(spec));
  Workspace ws(mode);
  const auto gdev = k::device_graph(ctx, data.csr, "csr");
  const auto tasks = k::natural_tasks(data.csr);

  auto x = ws.from(ctx, *run.features, "x");
  auto w_pool = ws.from(ctx, run.params->w_pool, "w_pool");
  auto b_pool = ws.from(ctx, run.params->b_pool, "b_pool");
  auto w_out = ws.from(ctx, run.params->w_out, "w_out");

  auto t = ws.mat(ctx, x.rows, w_pool.cols, "transformed");
  k::dense_gemm(ctx, {.a = &x, .b = &w_pool, .c = &t});
  k::bias_act_kernel(ctx, {.bias = &b_pool, .mat = &t, .relu = true});

  // Max aggregation: DGL's own node-parallel kernel (no vendor path for
  // non-sum reducers).
  auto pooled = ws.mat(ctx, x.rows, w_pool.cols, "pooled");
  k::SpmmArgs spmm{.graph = &gdev,
                   .tasks = tasks,
                   .src = &t,
                   .out = &pooled,
                   .reduce = k::Reduce::kMax,
                   .name = "max_aggregate"};
  k::spmm_node(ctx, spmm);

  auto out = ws.mat(ctx, x.rows, w_out.cols, "out");
  k::dense_gemm(ctx, {.a = &pooled, .b = &w_out, .c = &out});
  return finish(ctx, spec, out);
}

}  // namespace gnnbridge::baselines

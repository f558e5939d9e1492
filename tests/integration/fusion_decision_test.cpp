// The data-visible-range adapter's kernel-boundary decisions (paper §4.2),
// read off the optimized engine's launch sequence for one GCN or GAT layer:
// which ops share a kernel under whole-row and split-row task lists, and
// what the linear property removes.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "engine/engine.hpp"
#include "tests/testing/util.hpp"

namespace gnnbridge {
namespace {

using engine::EngineConfig;
using engine::OptimizedEngine;
using kernels::ExecMode;
using Names = std::vector<std::string>;

/// A hub graph: node 0 aggregates 199 neighbors, so the default grouping
/// bound splits its row and partial sums merge through atomics.
const graph::Dataset& hub() {
  static const graph::Dataset* d = [] {
    auto* data = new graph::Dataset;
    data->name = "hub";
    data->csr = testing::star_graph(200);
    return data;
  }();
  return *d;
}

EngineConfig config(bool grouping, bool adapter, bool linear) {
  EngineConfig cfg;
  cfg.use_neighbor_grouping = grouping;
  cfg.use_adapter = adapter;
  cfg.use_linear = linear;
  return cfg;
}

/// Kernel names of one layer, without the dense GEMM and the attention
/// row dots that precede the graph phase.
Names graph_kernels(const baselines::RunResult& r) {
  EXPECT_TRUE(r.status.ok()) << r.status.to_string();
  Names names;
  for (const sim::KernelStats& k : r.stats.kernels) {
    if (k.name != "gemm" && k.name != "row_dot") names.push_back(k.name);
  }
  return names;
}

Names gcn_layer(const EngineConfig& cfg) {
  models::GcnConfig model;
  model.dims = {8, 4};
  const models::GcnParams params = models::init_gcn(model, 1);
  const models::Matrix x = models::init_features(hub().csr.num_nodes, 8, 2);
  return graph_kernels(OptimizedEngine(cfg).run_gcn(hub(), {&model, &params, &x},
                                                    ExecMode::kFull, sim::v100()));
}

Names gat_layer(const EngineConfig& cfg) {
  models::GatConfig model;
  model.dims = {8, 4};
  const models::GatParams params = models::init_gat(model, 3);
  const models::Matrix x = models::init_features(hub().csr.num_nodes, 8, 4);
  return graph_kernels(OptimizedEngine(cfg).run_gat(hub(), {&model, &params, &x},
                                                    ExecMode::kFull, sim::v100()));
}

TEST(FusionPass, GcnFusesAggregationWithEpilogue) {
  // Whole rows: aggregation, bias and ReLU share one kernel.
  EXPECT_EQ(gcn_layer(config(/*grouping=*/false, true, true)), Names{"aggregate_bias_act"});
}

TEST(FusionPass, GcnSplitRowsDefersEpilogue) {
  // Split rows: a row's sum is complete only after the atomic merge, so
  // the epilogue moves behind a kernel boundary.
  EXPECT_EQ(gcn_layer(config(/*grouping=*/true, true, true)),
            (Names{"aggregate_bias_act", "bias_act"}));
}

TEST(FusionPass, GatSplitRowsWithLinearGivesTwoGraphKernels) {
  // K1: score + normalization sum; K2: aggregation with the postponed
  // division.
  EXPECT_EQ(gat_layer(config(/*grouping=*/true, true, /*linear=*/true)),
            (Names{"gat_edge_fused", "gat_aggregate_fused"}));
}

TEST(FusionPass, GatWithoutLinearKeepsExtraBarrier) {
  const Names with_linear = gat_layer(config(true, true, /*linear=*/true));
  const Names without_linear = gat_layer(config(true, true, /*linear=*/false));
  EXPECT_GT(without_linear.size(), with_linear.size());
  EXPECT_EQ(without_linear,
            (Names{"gat_edge_fused", "segment_sum", "softmax_div_fused", "gat_aggregate_fused"}));
}

TEST(FusionPass, BaselineOpPerKernelWouldBeSeven) {
  // Listing 1: without the adapter every graph op is its own kernel.
  EXPECT_EQ(gat_layer(config(true, /*adapter=*/false, true)),
            (Names{"u_add_v", "leaky_relu", "exp", "segment_sum", "broadcast_edge",
                   "softmax_div", "u_mul_e_sum"}));
}

}  // namespace
}  // namespace gnnbridge

// Exact pins for every GCN/GAT kernel pipeline the optimized engine can
// select, unsharded and at four shards, plus multi-head GAT and one GCN
// training step. perf_regression locks only the default unsharded
// configuration; these pins cover the rest. Each run asserts the simulated
// clock, the launch count, the L2 and DRAM counters, the exchange pricing,
// the ordered kernel names and an FNV-1a hash of the kFull output bytes.
//
// The expected values were captured from the engine before its GCN/GAT
// layer bodies were consolidated into one description; a refactor of the
// engine must leave every value here unchanged. On a mismatch the failure
// message prints the observed row in the table's own syntax.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <string_view>

#include "engine/engine.hpp"
#include "graph/datasets.hpp"
#include "models/multihead_gat.hpp"

namespace gnnbridge {
namespace {

using engine::EngineConfig;
using engine::OptimizedEngine;
using kernels::ExecMode;

struct Pin {
  const char* run;
  double total_cycles;
  int launches;
  std::uint64_t l2_hits;
  std::uint64_t l2_misses;
  std::uint64_t dram_bytes;
  std::uint64_t ghost_bytes;
  double exchange_cycles;
  std::uint64_t output_fnv;
  const char* kernels;  ///< launch order, space-separated
};

// clang-format off
const Pin kPins[] = {
    {"gcn_fused_split_k1",
     0x1.ee2cp+15, 6, 16628u, 8928u, 571392u, 0u, 0x0p+0, 0xcd280362c6869d30u,
     "gemm aggregate_bias_act bias_act gemm aggregate_bias_act bias_act"},
    {"gcn_fused_split_k4",
     0x1.1e83a06666666p+16, 24, 20109u, 8731u, 558784u, 102240u, 0x1.607p+13, 0xcd280362c6869d30u,
     "gemm aggregate_bias_act bias_act gemm aggregate_bias_act bias_act gemm "
     "aggregate_bias_act bias_act gemm aggregate_bias_act bias_act gemm "
     "aggregate_bias_act bias_act gemm aggregate_bias_act bias_act gemm "
     "aggregate_bias_act bias_act gemm aggregate_bias_act bias_act"},
    {"gcn_fused_whole_k1",
     0x1.b848p+15, 4, 15389u, 8745u, 559680u, 0u, 0x0p+0, 0xcd280362c6869d30u,
     "gemm aggregate_bias_act gemm aggregate_bias_act"},
    {"gcn_fused_whole_k4",
     0x1.c9ac31999999ap+15, 16, 17416u, 6762u, 432768u, 102240u, 0x1.607p+13, 0xcd280362c6869d30u,
     "gemm aggregate_bias_act gemm aggregate_bias_act gemm aggregate_bias_act gemm "
     "aggregate_bias_act gemm aggregate_bias_act gemm aggregate_bias_act gemm "
     "aggregate_bias_act gemm aggregate_bias_act"},
    {"gcn_unfused_k1",
     0x1.1b96p+16, 7, 18308u, 8928u, 571392u, 0u, 0x0p+0, 0xcd280362c6869d30u,
     "gemm spmm_node bias_add relu gemm spmm_node bias_add"},
    {"gcn_unfused_k4",
     0x1.431ba06666666p+16, 28, 23919u, 8731u, 558784u, 102240u, 0x1.607p+13, 0xcd280362c6869d30u,
     "gemm spmm_node bias_add relu gemm spmm_node bias_add gemm spmm_node bias_add "
     "relu gemm spmm_node bias_add gemm spmm_node bias_add relu gemm spmm_node "
     "bias_add gemm spmm_node bias_add relu gemm spmm_node bias_add"},
    {"gat_linear_k1",
     0x1.b2868p+16, 11, 38231u, 10369u, 663616u, 0u, 0x0p+0, 0xd7b02ebd3b01d565u,
     "gemm row_dot row_dot gat_edge_fused gat_aggregate_fused relu gemm row_dot "
     "row_dot gat_edge_fused gat_aggregate_fused"},
    {"gat_linear_k4",
     0x1.d824bd3333333p+16, 44, 45281u, 9007u, 576448u, 102240u, 0x1.607p+13, 0xd7b02ebd3b01d565u,
     "gemm row_dot row_dot gat_edge_fused gat_aggregate_fused relu gemm row_dot "
     "row_dot gat_edge_fused gat_aggregate_fused gemm row_dot row_dot gat_edge_fused "
     "gat_aggregate_fused relu gemm row_dot row_dot gat_edge_fused gat_aggregate_fused "
     "gemm row_dot row_dot gat_edge_fused gat_aggregate_fused relu gemm row_dot "
     "row_dot gat_edge_fused gat_aggregate_fused gemm row_dot row_dot gat_edge_fused "
     "gat_aggregate_fused relu gemm row_dot row_dot gat_edge_fused gat_aggregate_fused"},
    {"gat_adapter_k1",
     0x1.215a4p+17, 15, 49358u, 10140u, 648960u, 0u, 0x0p+0, 0xd7b02ebd3b01d565u,
     "gemm row_dot row_dot gat_edge_fused segment_sum softmax_div_fused "
     "gat_aggregate_fused relu gemm row_dot row_dot gat_edge_fused segment_sum "
     "softmax_div_fused gat_aggregate_fused"},
    {"gat_adapter_k4",
     0x1.330c380000001p+17, 60, 56229u, 8979u, 574656u, 102240u, 0x1.607p+13, 0xd7b02ebd3b01d565u,
     "gemm row_dot row_dot gat_edge_fused segment_sum softmax_div_fused "
     "gat_aggregate_fused relu gemm row_dot row_dot gat_edge_fused segment_sum "
     "softmax_div_fused gat_aggregate_fused gemm row_dot row_dot gat_edge_fused "
     "segment_sum softmax_div_fused gat_aggregate_fused relu gemm row_dot row_dot "
     "gat_edge_fused segment_sum softmax_div_fused gat_aggregate_fused gemm row_dot "
     "row_dot gat_edge_fused segment_sum softmax_div_fused gat_aggregate_fused relu "
     "gemm row_dot row_dot gat_edge_fused segment_sum softmax_div_fused "
     "gat_aggregate_fused gemm row_dot row_dot gat_edge_fused segment_sum "
     "softmax_div_fused gat_aggregate_fused relu gemm row_dot row_dot gat_edge_fused "
     "segment_sum softmax_div_fused gat_aggregate_fused"},
    {"gat_unfused_k1",
     0x1.8f7e4p+17, 21, 50142u, 11068u, 708352u, 0u, 0x0p+0, 0x1fa2ad7c6c199f7fu,
     "gemm row_dot row_dot u_add_v leaky_relu exp segment_sum broadcast_edge "
     "softmax_div u_mul_e_sum relu gemm row_dot row_dot u_add_v leaky_relu exp "
     "segment_sum broadcast_edge softmax_div u_mul_e_sum"},
    {"gat_unfused_k4",
     0x1.a198acccccccep+17, 84, 57339u, 9609u, 614976u, 102240u, 0x1.607p+13, 0x1fa2ad7c6c199f7fu,
     "gemm row_dot row_dot u_add_v leaky_relu exp segment_sum broadcast_edge "
     "softmax_div u_mul_e_sum relu gemm row_dot row_dot u_add_v leaky_relu exp "
     "segment_sum broadcast_edge softmax_div u_mul_e_sum gemm row_dot row_dot u_add_v "
     "leaky_relu exp segment_sum broadcast_edge softmax_div u_mul_e_sum relu gemm "
     "row_dot row_dot u_add_v leaky_relu exp segment_sum broadcast_edge softmax_div "
     "u_mul_e_sum gemm row_dot row_dot u_add_v leaky_relu exp segment_sum "
     "broadcast_edge softmax_div u_mul_e_sum relu gemm row_dot row_dot u_add_v "
     "leaky_relu exp segment_sum broadcast_edge softmax_div u_mul_e_sum gemm row_dot "
     "row_dot u_add_v leaky_relu exp segment_sum broadcast_edge softmax_div "
     "u_mul_e_sum relu gemm row_dot row_dot u_add_v leaky_relu exp segment_sum "
     "broadcast_edge softmax_div u_mul_e_sum"},
    {"multihead_gat",
     0x1.2dffap+17, 15, 56381u, 14647u, 937408u, 0u, 0x0p+0, 0x1a6cd09a243a0ee5u,
     "gemm row_dot row_dot gat_edge_fused gat_aggregate_fused gemm row_dot row_dot "
     "gat_edge_fused gat_aggregate_fused gemm row_dot row_dot gat_edge_fused "
     "gat_aggregate_fused"},
    {"train_gcn_step",
     0x1.b1dd9p+18, 23, 34617u, 28317u, 1812288u, 0u, 0x0p+0, 0xcd280362c6869d30u,
     "gemm aggregate_bias_act bias_act gemm aggregate_bias_act bias_act col_sum "
     "aggregate_backward transpose gemm_dw transpose gemm_dh sgd_w sgd_b relu_backward "
     "col_sum aggregate_backward transpose gemm_dw transpose gemm_dh sgd_w sgd_b"},
};
// clang-format on

/// Power-law inputs with hub rows: the default grouping bound splits them,
/// so the fused GCN defers its epilogue and split tasks merge atomically.
struct Inputs {
  graph::Dataset data = graph::make_dataset(graph::DatasetId::kArxiv, 0.02);
  models::GcnConfig gcn_cfg;
  models::GatConfig gat_cfg;
  models::MultiHeadGatConfig mh_cfg;
  models::GcnParams gcn_params;
  models::GatParams gat_params;
  models::MultiHeadGatParams mh_params;
  models::Matrix x;
  models::Matrix target;

  Inputs() {
    gcn_cfg.dims = {32, 16, 8};
    gat_cfg.dims = {32, 16, 8};
    mh_cfg.in_feat = 32;
    mh_cfg.head_dim = 8;
    mh_cfg.heads = 3;
    gcn_params = models::init_gcn(gcn_cfg, 11);
    gat_params = models::init_gat(gat_cfg, 12);
    mh_params = models::init_multihead_gat(mh_cfg, 13);
    x = models::init_features(data.csr.num_nodes, 32, 14);
    target = models::init_features(data.csr.num_nodes, 8, 15);
  }
};

const Inputs& inputs() {
  static const Inputs* in = new Inputs();
  return *in;
}

std::uint64_t fnv1a(const models::Matrix& m) {
  std::uint64_t h = 14695981039346656037ull;
  const auto* bytes = reinterpret_cast<const unsigned char*>(m.data());
  const std::size_t n = static_cast<std::size_t>(m.size()) * sizeof(float);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= bytes[i];
    h *= 1099511628211ull;
  }
  return h;
}

std::string kernel_names(const sim::RunStats& st) {
  std::string names;
  for (const sim::KernelStats& k : st.kernels) {
    if (!names.empty()) names += ' ';
    names += k.name;
  }
  return names;
}

/// The observed row, printed in the table's syntax.
std::string as_row(const char* run, const sim::RunStats& st, std::uint64_t dram,
                   std::uint64_t fnv, const std::string& names) {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "    {\"%s\",\n     %a, %d, %" PRIu64 "u, %" PRIu64 "u, %" PRIu64 "u, %" PRIu64
                "u, %a, 0x%016" PRIx64 "u,\n     \"",
                run, st.total_cycles, st.num_launches(), st.total_hits(), st.total_misses(),
                dram, st.ghost_bytes, st.exchange_cycles, fnv);
  return std::string(buf) + names + "\"},";
}

void expect_pinned(const char* run, const baselines::RunResult& r) {
  ASSERT_TRUE(r.status.ok()) << run << ": " << r.status.to_string();
  const sim::RunStats& st = r.stats;
  std::uint64_t dram = 0;
  for (const sim::KernelStats& k : st.kernels) dram += k.dram_bytes;
  const std::uint64_t fnv = fnv1a(r.output);
  const std::string names = kernel_names(st);
  const std::string row = as_row(run, st, dram, fnv, names);

  const Pin* pin = nullptr;
  for (const Pin& p : kPins) {
    if (std::strcmp(p.run, run) == 0) pin = &p;
  }
  ASSERT_NE(pin, nullptr) << "no pin for '" << run << "'; observed:\n" << row;
  SCOPED_TRACE("observed:\n" + row);
  EXPECT_EQ(st.total_cycles, pin->total_cycles);
  EXPECT_EQ(st.num_launches(), pin->launches);
  EXPECT_EQ(st.total_hits(), pin->l2_hits);
  EXPECT_EQ(st.total_misses(), pin->l2_misses);
  EXPECT_EQ(dram, pin->dram_bytes);
  EXPECT_EQ(st.ghost_bytes, pin->ghost_bytes);
  EXPECT_EQ(st.exchange_cycles, pin->exchange_cycles);
  EXPECT_EQ(fnv, pin->output_fnv);
  EXPECT_EQ(names, std::string_view(pin->kernels));
}

/// A V100 with a 64 KiB L2. The inputs fit in the full-size L2, where hits
/// would not depend on where buffers sit; in this one they conflict, so a
/// buffer allocated out of order moves the L2 and cycle counters.
sim::DeviceSpec pin_spec() {
  sim::DeviceSpec spec = sim::v100();
  spec.l2_bytes = 64 * 1024;
  return spec;
}

EngineConfig config(int shards, bool adapter, bool linear, bool grouping) {
  EngineConfig cfg;
  cfg.shards = shards;
  cfg.use_adapter = adapter;
  cfg.use_linear = linear;
  cfg.use_neighbor_grouping = grouping;
  return cfg;
}

baselines::RunResult run_gcn(const EngineConfig& cfg) {
  const Inputs& in = inputs();
  return OptimizedEngine(cfg).run_gcn(in.data, {&in.gcn_cfg, &in.gcn_params, &in.x},
                                      ExecMode::kFull, pin_spec());
}

baselines::RunResult run_gat(const EngineConfig& cfg) {
  const Inputs& in = inputs();
  return OptimizedEngine(cfg).run_gat(in.data, {&in.gat_cfg, &in.gat_params, &in.x},
                                      ExecMode::kFull, pin_spec());
}

// ---- GCN: fused (split rows defer the epilogue), fused without grouping
// (whole rows keep it inline), unfused.

TEST(PipelineCounters, GcnFusedSplitRows) {
  expect_pinned("gcn_fused_split_k1", run_gcn(config(1, true, true, true)));
  expect_pinned("gcn_fused_split_k4", run_gcn(config(4, true, true, true)));
}

TEST(PipelineCounters, GcnFusedWholeRows) {
  expect_pinned("gcn_fused_whole_k1", run_gcn(config(1, true, true, false)));
  expect_pinned("gcn_fused_whole_k4", run_gcn(config(4, true, true, false)));
}

TEST(PipelineCounters, GcnUnfused) {
  expect_pinned("gcn_unfused_k1", run_gcn(config(1, false, true, true)));
  expect_pinned("gcn_unfused_k4", run_gcn(config(4, false, true, true)));
}

// ---- GAT: linear property, adapter only, unfused.

TEST(PipelineCounters, GatLinear) {
  expect_pinned("gat_linear_k1", run_gat(config(1, true, true, true)));
  expect_pinned("gat_linear_k4", run_gat(config(4, true, true, true)));
}

TEST(PipelineCounters, GatAdapterOnly) {
  expect_pinned("gat_adapter_k1", run_gat(config(1, true, false, true)));
  expect_pinned("gat_adapter_k4", run_gat(config(4, true, false, true)));
}

TEST(PipelineCounters, GatUnfused) {
  expect_pinned("gat_unfused_k1", run_gat(config(1, false, true, true)));
  expect_pinned("gat_unfused_k4", run_gat(config(4, false, true, true)));
}

// ---- Multi-head GAT and training run unsharded at any shard count.

TEST(PipelineCounters, MultiheadGat) {
  const Inputs& in = inputs();
  expect_pinned("multihead_gat",
                OptimizedEngine().run_multihead_gat(in.data, {&in.mh_cfg, &in.mh_params, &in.x},
                                                    ExecMode::kFull, pin_spec()));
}

TEST(PipelineCounters, TrainGcnStep) {
  const Inputs& in = inputs();
  models::GcnParams params = in.gcn_params;
  const auto step = OptimizedEngine().train_gcn_step(in.data, in.gcn_cfg, params, in.x, in.target,
                                                     0.1f, ExecMode::kFull, pin_spec());
  expect_pinned("train_gcn_step", step.run);
}

}  // namespace
}  // namespace gnnbridge

#include "kernels/spmm.hpp"

#include <gtest/gtest.h>

#include "core/balance/neighbor_grouping.hpp"
#include "models/layers.hpp"
#include "tests/testing/util.hpp"

namespace gnnbridge::kernels {
namespace {

using testing::random_graph;
using testing::random_matrix;

struct SpmmHarness {
  sim::SimContext ctx;
  graph::Csr csr;
  GraphOnDevice gdev;
  Matrix src_host;
  Matrix out_host;
  Matrix ew_host;
  FeatureMat src, out, ew;

  SpmmHarness(graph::Csr g, Index feat, std::uint64_t seed, bool weighted)
      : ctx(sim::v100()), csr(std::move(g)) {
    gdev = device_graph(ctx, csr, "g");
    src_host = random_matrix(csr.num_nodes, feat, seed);
    out_host = Matrix(csr.num_nodes, feat);
    src = device_mat(ctx, src_host, "src");
    out = device_mat(ctx, out_host, "out");
    if (weighted) {
      ew_host = random_matrix(csr.num_edges(), 1, seed + 1, 0.1f, 1.0f);
      ew = device_mat(ctx, ew_host, "ew");
    }
  }

  SpmmArgs args(std::span<const Task> tasks, Reduce reduce, bool weighted) {
    SpmmArgs a;
    a.graph = &gdev;
    a.tasks = tasks;
    a.src = &src;
    a.edge_weight = weighted ? &ew : nullptr;
    a.out = &out;
    a.reduce = reduce;
    return a;
  }

  std::vector<float> weights(bool weighted) const {
    if (weighted) {
      return std::vector<float>(ew_host.data(), ew_host.data() + ew_host.size());
    }
    return std::vector<float>(static_cast<std::size_t>(csr.num_edges()), 1.0f);
  }
};

TEST(SpmmNode, SumMatchesReference) {
  SpmmHarness h(random_graph(80, 5.0, 1), 16, 2, /*weighted=*/true);
  const auto tasks = natural_tasks(h.csr);
  spmm_node(h.ctx, h.args(tasks, Reduce::kSum, true));
  const Matrix expect = models::layer_sum(h.csr, h.src_host, h.weights(true));
  EXPECT_TRUE(tensor::allclose(h.out_host, expect, 1e-4f, 1e-5f));
}

TEST(SpmmNode, UnweightedSum) {
  SpmmHarness h(random_graph(60, 4.0, 3), 8, 4, /*weighted=*/false);
  const auto tasks = natural_tasks(h.csr);
  spmm_node(h.ctx, h.args(tasks, Reduce::kSum, false));
  const Matrix expect = models::layer_sum(h.csr, h.src_host, h.weights(false));
  EXPECT_TRUE(tensor::allclose(h.out_host, expect));
}

TEST(SpmmNode, MeanMatchesReference) {
  SpmmHarness h(random_graph(70, 6.0, 5), 12, 6, /*weighted=*/true);
  const auto tasks = natural_tasks(h.csr);
  spmm_node(h.ctx, h.args(tasks, Reduce::kMean, true));
  const Matrix expect = models::layer_mean(h.csr, h.src_host, h.weights(true));
  EXPECT_TRUE(tensor::allclose(h.out_host, expect));
}

TEST(SpmmNode, MaxHandlesZeroDegreeRows) {
  // Star graph: only node 0 has neighbors; all others must come out 0.
  SpmmHarness h(testing::star_graph(10), 4, 7, /*weighted=*/false);
  const auto tasks = natural_tasks(h.csr);
  spmm_node(h.ctx, h.args(tasks, Reduce::kMax, false));
  for (graph::NodeId v = 1; v < 10; ++v) {
    for (Index f = 0; f < 4; ++f) EXPECT_EQ(h.out_host(v, f), 0.0f) << v;
  }
  // Node 0's max over all others.
  for (Index f = 0; f < 4; ++f) {
    float mx = -1e30f;
    for (graph::NodeId u = 1; u < 10; ++u) mx = std::max(mx, h.src_host(u, f));
    EXPECT_FLOAT_EQ(h.out_host(0, f), mx);
  }
}

/// Property sweep: neighbor-grouped (split) tasks must agree with
/// whole-row tasks for every order-insensitive reducer — the correctness
/// claim behind the paper's atomic-merge strategy.
class SpmmGrouping
    : public ::testing::TestWithParam<std::tuple<Reduce, int /*bound*/, int /*seed*/>> {};

TEST_P(SpmmGrouping, SplitTasksMatchWholeRows) {
  auto [reduce, bound, seed] = GetParam();
  SpmmHarness h(random_graph(64, 8.0, static_cast<std::uint64_t>(seed)), 10,
                static_cast<std::uint64_t>(seed) + 100, /*weighted=*/true);

  const auto whole = natural_tasks(h.csr);
  spmm_node(h.ctx, h.args(whole, reduce, true));
  const Matrix expect = h.out_host;

  const core::GroupedTasks grouped = core::neighbor_group_tasks(h.csr, bound);
  SpmmArgs a = h.args(grouped.tasks, reduce, true);
  a.atomic_merge = grouped.any_split;
  spmm_node(h.ctx, a);
  EXPECT_TRUE(tensor::allclose(h.out_host, expect, 1e-4f, 1e-5f))
      << "reduce=" << static_cast<int>(reduce) << " bound=" << bound;
}

INSTANTIATE_TEST_SUITE_P(
    ReducersAndBounds, SpmmGrouping,
    ::testing::Combine(::testing::Values(Reduce::kSum, Reduce::kMean, Reduce::kMax),
                       ::testing::Values(1, 3, 16), ::testing::Values(1, 2, 3)));

TEST(SpmmNode, TaskOrderDoesNotChangeResults) {
  // LAS permutes task order; the output must be identical.
  SpmmHarness h(random_graph(50, 5.0, 9), 6, 11, /*weighted=*/true);
  const auto tasks = natural_tasks(h.csr);
  spmm_node(h.ctx, h.args(tasks, Reduce::kSum, true));
  const Matrix expect = h.out_host;

  std::vector<Task> reversed(tasks.rbegin(), tasks.rend());
  spmm_node(h.ctx, h.args(reversed, Reduce::kSum, true));
  EXPECT_TRUE(tensor::allclose(h.out_host, expect, 1e-5f, 1e-6f));
}

TEST(SpmmNode, EmitsOneBlockPerTask) {
  SpmmHarness h(random_graph(40, 3.0, 13), 4, 15, false);
  const auto tasks = natural_tasks(h.csr);
  const sim::KernelStats& ks = spmm_node(h.ctx, h.args(tasks, Reduce::kSum, false));
  EXPECT_EQ(ks.num_blocks, 40);
}

TEST(SpmmNode, FlopCountTracksEdgesTimesFeat) {
  SpmmHarness h(testing::star_graph(9), 8, 17, /*weighted=*/true);
  const auto tasks = natural_tasks(h.csr);
  const sim::KernelStats& ks = spmm_node(h.ctx, h.args(tasks, Reduce::kSum, true));
  // 8 edges * 8 feat * 2 flops.
  EXPECT_DOUBLE_EQ(ks.flops, 128.0);
}

TEST(SpmmNode, LanePaddingInflatesIssuedFlops) {
  SpmmHarness h(random_graph(30, 4.0, 19), 20, 21, false);
  const auto tasks = natural_tasks(h.csr);
  SpmmArgs a = h.args(tasks, Reduce::kSum, false);
  a.lanes = 32;  // F=20 on 32 lanes: 60% waste
  const sim::KernelStats& ks = spmm_node(h.ctx, a);
  EXPECT_NEAR(ks.issued_flops / ks.flops, 32.0 / 20.0, 1e-9);
}

TEST(SpmmNode, SimulateOnlyLeavesOutputUntouched) {
  // The same launch twice on fresh devices: once on host-backed matrices,
  // once on the same buffers with no host storage. The shape-only launch
  // traces but does not compute, and its counters equal the host-backed
  // launch's (traces are value-independent).
  SpmmHarness full(random_graph(20, 3.0, 23), 4, 25, false);
  SpmmHarness shape(random_graph(20, 3.0, 23), 4, 25, false);
  shape.out_host.fill(42.0f);
  shape.src.host = nullptr;
  shape.out.host = nullptr;
  const auto tasks = natural_tasks(full.csr);
  const sim::KernelStats a = spmm_node(full.ctx, full.args(tasks, Reduce::kSum, false));
  const sim::KernelStats b = spmm_node(shape.ctx, shape.args(tasks, Reduce::kSum, false));
  EXPECT_EQ(shape.out_host(5, 2), 42.0f);
  EXPECT_TRUE(tensor::allclose(
      full.out_host, models::layer_sum(full.csr, full.src_host, full.weights(false))));
  EXPECT_GT(b.l2_misses, 0u);  // trace still emitted
  EXPECT_EQ(a.num_blocks, b.num_blocks);
  EXPECT_EQ(a.l2_hits, b.l2_hits);
  EXPECT_EQ(a.l2_misses, b.l2_misses);
  EXPECT_EQ(a.dram_bytes, b.dram_bytes);
  EXPECT_DOUBLE_EQ(a.flops, b.flops);
  EXPECT_DOUBLE_EQ(a.issued_flops, b.issued_flops);
  EXPECT_DOUBLE_EQ(a.cycles, b.cycles);
}

TEST(SpmmVendor, MatchesNodeParallelNumerics) {
  SpmmHarness h(random_graph(45, 5.0, 27), 8, 29, /*weighted=*/true);
  const auto tasks = natural_tasks(h.csr);
  spmm_node(h.ctx, h.args(tasks, Reduce::kSum, true));
  const Matrix expect = h.out_host;
  spmm_vendor(h.ctx, h.args({}, Reduce::kSum, true));
  EXPECT_TRUE(tensor::allclose(h.out_host, expect, 1e-5f, 1e-6f));
}

TEST(PadFactor, ExactMultiplesHaveNoWaste) {
  EXPECT_DOUBLE_EQ(pad_factor(64, 32), 1.0);
  EXPECT_DOUBLE_EQ(pad_factor(32, 32), 1.0);
}

TEST(PadFactor, WorstJustPastBoundary) {
  EXPECT_NEAR(pad_factor(33, 32), 64.0 / 33.0, 1e-12);
  EXPECT_GT(pad_factor(17, 16), pad_factor(16, 16));
}

}  // namespace
}  // namespace gnnbridge::kernels

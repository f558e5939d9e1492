// Property tests on the simulation substrate itself: determinism, trace
// value-independence, and cost-model monotonicity. These are the
// invariants every reproduced figure silently relies on.
#include <gtest/gtest.h>

#include <array>
#include <thread>

#include "kernels/spmm.hpp"
#include "par/thread_pool.hpp"
#include "tests/testing/util.hpp"

namespace gnnbridge::sim {
namespace {

using gnnbridge::testing::random_graph;
using gnnbridge::testing::random_matrix;

namespace k = gnnbridge::kernels;

/// Whether run_spmm's matrices have host storage: host-backed kernels
/// compute and trace, shape-only kernels only trace.
enum class Storage { kHost, kShapeOnly };

KernelStats run_spmm(const graph::Csr& csr, tensor::Index feat, int lanes, Storage storage,
                     DeviceSpec spec = v100(), std::uint64_t seed = 7) {
  SimContext ctx(spec);
  const auto gdev = k::device_graph(ctx, csr, "g");
  tensor::Matrix src_host = random_matrix(csr.num_nodes, feat, seed);
  tensor::Matrix out_host(csr.num_nodes, feat);
  const bool host = storage == Storage::kHost;
  auto src = host ? k::device_mat(ctx, src_host, "src")
                  : k::device_mat_shape(ctx, csr.num_nodes, feat, "src");
  auto out = host ? k::device_mat(ctx, out_host, "out")
                  : k::device_mat_shape(ctx, csr.num_nodes, feat, "out");
  const auto tasks = k::natural_tasks(csr);
  k::SpmmArgs args{.graph = &gdev, .tasks = tasks, .src = &src, .out = &out,
                   .lanes = lanes};
  return k::spmm_node(ctx, args);
}

class ReplayProperties : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(ReplayProperties, DeterministicAcrossRuns) {
  auto [feat, lanes] = GetParam();
  const graph::Csr g = random_graph(150, 8.0, 3);
  const KernelStats a = run_spmm(g, feat, lanes, Storage::kShapeOnly);
  const KernelStats b = run_spmm(g, feat, lanes, Storage::kShapeOnly);
  EXPECT_EQ(a.l2_hits, b.l2_hits);
  EXPECT_EQ(a.l2_misses, b.l2_misses);
  EXPECT_DOUBLE_EQ(a.cycles, b.cycles);
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
}

TEST_P(ReplayProperties, TraceIsValueIndependent) {
  auto [feat, lanes] = GetParam();
  const graph::Csr g = random_graph(120, 6.0, 5);
  // Different feature *values* (different seeds), identical traces.
  const KernelStats full1 = run_spmm(g, feat, lanes, Storage::kHost, v100(), 11);
  const KernelStats full2 = run_spmm(g, feat, lanes, Storage::kHost, v100(), 99);
  const KernelStats shape = run_spmm(g, feat, lanes, Storage::kShapeOnly, v100(), 11);
  EXPECT_EQ(full1.l2_misses, full2.l2_misses);
  EXPECT_EQ(full1.l2_misses, shape.l2_misses);
  EXPECT_DOUBLE_EQ(full1.cycles, shape.cycles);
}

INSTANTIATE_TEST_SUITE_P(FeatLanes, ReplayProperties,
                         ::testing::Combine(::testing::Values(8, 33, 64),
                                            ::testing::Values(8, 32)));

TEST(CostModel, MoreEdgesNeverCheaper) {
  // Adding edges (strictly more work + traffic) must not reduce cycles.
  const graph::Csr small = random_graph(200, 4.0, 7);
  const graph::Csr big = random_graph(200, 16.0, 7);
  ASSERT_GT(big.num_edges(), small.num_edges());
  const KernelStats a = run_spmm(small, 32, 32, Storage::kShapeOnly);
  const KernelStats b = run_spmm(big, 32, 32, Storage::kShapeOnly);
  EXPECT_GT(b.cycles, a.cycles);
}

TEST(CostModel, WiderFeaturesNeverCheaper) {
  const graph::Csr g = random_graph(200, 8.0, 9);
  const KernelStats narrow = run_spmm(g, 16, 32, Storage::kShapeOnly);
  const KernelStats wide = run_spmm(g, 128, 32, Storage::kShapeOnly);
  EXPECT_GT(wide.cycles, narrow.cycles);
}

TEST(CostModel, LargerCacheNeverMoreMisses) {
  const graph::Csr g = random_graph(3000, 12.0, 11);
  DeviceSpec small_cache = v100();
  small_cache.l2_bytes = 256 * 1024;
  DeviceSpec big_cache = v100();
  big_cache.l2_bytes = 24ll * 1024 * 1024;
  const KernelStats a = run_spmm(g, 64, 32, Storage::kShapeOnly, small_cache);
  const KernelStats b = run_spmm(g, 64, 32, Storage::kShapeOnly, big_cache);
  EXPECT_GE(a.l2_misses, b.l2_misses);
}

TEST(CostModel, FrameworkOverheadIsPerLaunch) {
  const graph::Csr g = random_graph(50, 4.0, 13);
  DeviceSpec base = v100();
  DeviceSpec framework = v100();
  framework.framework_overhead_cycles = 30000.0;
  const KernelStats a = run_spmm(g, 16, 32, Storage::kShapeOnly, base);
  const KernelStats b = run_spmm(g, 16, 32, Storage::kShapeOnly, framework);
  EXPECT_DOUBLE_EQ(b.cycles - a.cycles, 30000.0);
}

TEST(CostModel, LaunchOverheadFloorsTinyKernels) {
  // A one-edge kernel still costs at least the launch overhead.
  const graph::Csr g = gnnbridge::testing::csr_from_edges(2, {{0, 1}});
  const KernelStats ks = run_spmm(g, 4, 32, Storage::kShapeOnly);
  EXPECT_GE(ks.cycles, v100().kernel_launch_cycles);
}

/// One SpMM launched twice on one context: the second launch starts from
/// the L2 the first one left.
struct ColdWarm {
  KernelStats cold, warm;
};

ColdWarm run_spmm_twice(const graph::Csr& csr) {
  SimContext ctx;
  const auto gdev = k::device_graph(ctx, csr, "g");
  auto src = k::device_mat_shape(ctx, csr.num_nodes, 48, "src");
  auto out = k::device_mat_shape(ctx, csr.num_nodes, 48, "out");
  const auto tasks = k::natural_tasks(csr);
  const k::SpmmArgs args{.graph = &gdev, .tasks = tasks, .src = &src, .out = &out, .lanes = 32};
  ColdWarm r;
  r.cold = k::spmm_node(ctx, args);
  r.warm = k::spmm_node(ctx, args);
  return r;
}

void expect_same_kernel(const KernelStats& a, const KernelStats& b) {
  EXPECT_EQ(a.l2_hits, b.l2_hits);
  EXPECT_EQ(a.l2_misses, b.l2_misses);
  EXPECT_EQ(a.cycles, b.cycles);
  const auto& ia = a.timeline.intervals();
  const auto& ib = b.timeline.intervals();
  ASSERT_EQ(ia.size(), ib.size());
  for (std::size_t i = 0; i < ia.size(); ++i) {
    EXPECT_EQ(ia[i].t0, ib[i].t0);
    EXPECT_EQ(ia[i].t1, ib[i].t1);
    EXPECT_EQ(ia[i].active, ib[i].active);
  }
}

class PartitionedReplay : public ::testing::Test {
 protected:
  void TearDown() override { par::set_max_threads(0); }
};

// The replay splits the L2 sets into one group per pool participant; a
// kernel this size is far above the size below which it stays on one
// thread. The outcome must not depend on the split, nor on whether the
// launch runs nested inside another parallel region (one group).
TEST_F(PartitionedReplay, CountsAndTimelinesIndependentOfThreadCount) {
  const graph::Csr g = random_graph(20000, 12.0, 17);
  par::set_max_threads(1);
  const ColdWarm ref = run_spmm_twice(g);
  ASSERT_GT(ref.cold.l2_misses, 0u);
  ASSERT_GT(ref.warm.l2_hits, ref.cold.l2_hits);

  const int hw = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  for (const int threads : {2, 3, hw}) {
    SCOPED_TRACE(threads);
    par::set_max_threads(threads);
    const ColdWarm r = run_spmm_twice(g);
    expect_same_kernel(ref.cold, r.cold);
    expect_same_kernel(ref.warm, r.warm);
  }

  par::set_max_threads(std::max(hw, 2));
  std::array<ColdWarm, 2> nested;
  par::parallel_chunks(nested.size(), 1, [&](std::size_t c, std::size_t, std::size_t) {
    nested[c] = run_spmm_twice(g);
  });
  for (const ColdWarm& r : nested) {
    expect_same_kernel(ref.cold, r.cold);
    expect_same_kernel(ref.warm, r.warm);
  }
}

}  // namespace
}  // namespace gnnbridge::sim

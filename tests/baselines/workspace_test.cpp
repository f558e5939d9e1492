// The Workspace decides once per run whether kernels compute: kFull mats
// carry host matrices, kSimulateOnly mats are shape-only. Both modes must
// lay out the simulated device memory identically, or simulate-only
// counters would drift from full-mode ones.
#include "baselines/workspace.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "tests/testing/util.hpp"

namespace gnnbridge::baselines {
namespace {

using kernels::ExecMode;
using kernels::FeatureMat;

/// One fixed sequence of mat/from/edge_norm calls on a fresh device;
/// `builds` counts the edge-norm builds.
std::vector<FeatureMat> allocate(sim::SimContext& ctx, Workspace& ws, const Matrix& m,
                                 const std::vector<float>& v, int& builds) {
  std::vector<FeatureMat> mats;
  mats.push_back(ws.from(ctx, m, "x"));
  mats.push_back(ws.mat(ctx, 37, 5, "transformed"));
  mats.push_back(ws.edge_norm(ctx, v.size(), [&] {
    ++builds;
    return v;
  }));
  mats.push_back(ws.mat(ctx, 1, 1, "scalar"));
  mats.push_back(ws.from(ctx, m, "copy"));
  return mats;
}

TEST(Workspace, SimulateOnlyAllocatesTheSameBuffersWithoutHostStorage) {
  const Matrix m = testing::random_matrix(23, 9, 3);
  const std::vector<float> v = {0.5f, 1.5f, -2.0f};
  sim::SimContext full_ctx(sim::v100());
  sim::SimContext shape_ctx(sim::v100());
  Workspace full_ws(ExecMode::kFull);
  Workspace shape_ws(ExecMode::kSimulateOnly);
  int full_builds = 0, shape_builds = 0;
  const std::vector<FeatureMat> full = allocate(full_ctx, full_ws, m, v, full_builds);
  const std::vector<FeatureMat> shape = allocate(shape_ctx, shape_ws, m, v, shape_builds);
  EXPECT_EQ(full_builds, 1);
  EXPECT_EQ(shape_builds, 0);

  ASSERT_EQ(full.size(), shape.size());
  for (std::size_t i = 0; i < full.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_NE(full[i].host, nullptr);
    EXPECT_EQ(shape[i].host, nullptr);
    EXPECT_EQ(shape[i].buf.base, full[i].buf.base);
    EXPECT_EQ(shape[i].buf.bytes, full[i].buf.bytes);
    EXPECT_EQ(shape[i].rows, full[i].rows);
    EXPECT_EQ(shape[i].cols, full[i].cols);
  }
  EXPECT_EQ(shape_ctx.mem().total_allocated(), full_ctx.mem().total_allocated());
}

TEST(Workspace, FullModeCopiesTheInputsAndZeroFillsNewMats) {
  const Matrix m = testing::random_matrix(4, 3, 5);
  const std::vector<float> v = {1.0f, 2.0f};
  sim::SimContext ctx(sim::v100());
  Workspace ws(ExecMode::kFull);
  int builds = 0;
  const std::vector<FeatureMat> mats = allocate(ctx, ws, m, v, builds);
  EXPECT_EQ(*mats[0].host, m);
  EXPECT_NE(mats[0].host, &m);
  EXPECT_EQ((*mats[1].host)(36, 4), 0.0f);
  EXPECT_EQ((*mats[2].host)(1, 0), 2.0f);
}

TEST(Workspace, KernelsComputeExactlyOnHostBackedMats) {
  const Matrix m = testing::random_matrix(4, 3, 5);
  sim::SimContext full_ctx(sim::v100());
  sim::SimContext shape_ctx(sim::v100());
  Workspace full_ws(ExecMode::kFull);
  Workspace shape_ws(ExecMode::kSimulateOnly);
  const FeatureMat a = full_ws.from(full_ctx, m, "a");
  const FeatureMat b = full_ws.mat(full_ctx, 4, 3, "b");
  const FeatureMat c = shape_ws.from(shape_ctx, m, "c");
  const FeatureMat d = shape_ws.mat(shape_ctx, 4, 3, "d");
  EXPECT_TRUE(kernels::computes({&a, nullptr, &b}));
  EXPECT_FALSE(kernels::computes({&c, nullptr, &d}));
  EXPECT_DEBUG_DEATH(kernels::computes({&a, &d}), "host-backed and shape-only");
}

}  // namespace
}  // namespace gnnbridge::baselines

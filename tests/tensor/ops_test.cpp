#include "tensor/ops.hpp"

#include <gtest/gtest.h>

#include "tensor/rng.hpp"

namespace gnnbridge::tensor {
namespace {

Matrix random(Index r, Index c, std::uint64_t seed) {
  Rng rng(seed);
  Matrix m(r, c);
  fill_uniform(m, rng);
  return m;
}

TEST(GemmRef, TinyHandComputed) {
  Matrix a(2, 2, {1, 2, 3, 4});
  Matrix b(2, 2, {5, 6, 7, 8});
  Matrix c = gemm_ref(a, b);
  EXPECT_FLOAT_EQ(c(0, 0), 19.0f);
  EXPECT_FLOAT_EQ(c(0, 1), 22.0f);
  EXPECT_FLOAT_EQ(c(1, 0), 43.0f);
  EXPECT_FLOAT_EQ(c(1, 1), 50.0f);
}

TEST(Gemm, IdentityIsNoop) {
  Matrix a = random(5, 5, 1);
  Matrix eye(5, 5);
  for (Index i = 0; i < 5; ++i) eye(i, i) = 1.0f;
  EXPECT_TRUE(allclose(gemm(a, eye), a));
}

/// Blocked GEMM must match the reference bit for bit on assorted shapes,
/// tile multiples and off-by-ones included.
class GemmShapes : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(GemmShapes, BlockedMatchesReference) {
  auto [m, k, n] = GetParam();
  Matrix a = random(m, k, 10 + m);
  Matrix b = random(k, n, 20 + n);
  EXPECT_EQ(gemm(a, b), gemm_ref(a, b)) << "m=" << m << " k=" << k << " n=" << n;
}

INSTANTIATE_TEST_SUITE_P(TileBoundaries, GemmShapes,
                         ::testing::Values(std::tuple{1, 1, 1}, std::tuple{63, 64, 65},
                                           std::tuple{64, 64, 64}, std::tuple{65, 63, 64},
                                           std::tuple{128, 32, 16}, std::tuple{7, 129, 5},
                                           std::tuple{100, 100, 100}, std::tuple{1, 200, 3}));

/// The register block is 4 rows by 16 columns; every shape here straddles
/// one of its edges. Each c(i,j) sums a(i,k)*b(k,j) from 0.0f in k order,
/// exactly as the reference does, so the results are equal, not close.
TEST(Gemm, BitIdenticalToReference) {
  for (Index m : {0, 1, 3, 4, 5, 67}) {
    for (Index n : {1, 15, 16, 17, 130}) {
      for (Index k : {1, 33, 512}) {
        Matrix a = random(m, k, static_cast<std::uint64_t>(100 + m * 7 + k));
        Matrix b = random(k, n, static_cast<std::uint64_t>(200 + n * 11 + k));
        EXPECT_EQ(gemm(a, b), gemm_ref(a, b)) << "m=" << m << " n=" << n << " k=" << k;
      }
    }
  }
}

TEST(Gemm, RowsSubRangeLeavesOtherRowsUntouched) {
  Matrix a = random(23, 40, 31);
  Matrix b = random(40, 19, 32);
  const Matrix full = gemm_ref(a, b);
  Matrix c(23, 19);
  c.fill(-7.0f);
  gemm_rows(a, b, c, 5, 14);
  for (Index i = 0; i < c.rows(); ++i) {
    for (Index j = 0; j < c.cols(); ++j) {
      const float expect = (i >= 5 && i < 14) ? full(i, j) : -7.0f;
      EXPECT_EQ(c(i, j), expect) << "i=" << i << " j=" << j;
    }
  }
}

TEST(Gemm, RowsAccumulateAddsTheProduct) {
  Matrix a = random(9, 21, 33);
  Matrix b = random(21, 18, 34);
  Matrix c = random(9, 18, 35);
  Matrix expect = c;
  axpy(expect, 1.0f, gemm_ref(a, b));
  gemm_rows(a, b, c, 0, a.rows(), /*accumulate=*/true);
  EXPECT_EQ(c, expect);
}

TEST(GemmNt, MatchesExplicitTranspose) {
  Matrix a = random(13, 7, 3);
  Matrix b = random(11, 7, 4);
  EXPECT_TRUE(allclose(gemm_nt(a, b), gemm_ref(a, transpose(b)), 1e-3f, 1e-4f));
}

TEST(Transpose, Involution) {
  Matrix a = random(9, 17, 5);
  EXPECT_EQ(transpose(transpose(a)), a);
}

TEST(AddSubMul, Elementwise) {
  Matrix a(1, 3, {1, 2, 3});
  Matrix b(1, 3, {4, 5, 6});
  EXPECT_EQ(add(a, b), Matrix(1, 3, {5, 7, 9}));
  EXPECT_EQ(sub(b, a), Matrix(1, 3, {3, 3, 3}));
  EXPECT_EQ(mul(a, b), Matrix(1, 3, {4, 10, 18}));
}

TEST(Axpy, AccumulatesScaled) {
  Matrix a(1, 2, {1, 1});
  Matrix b(1, 2, {2, 4});
  axpy(a, 0.5f, b);
  EXPECT_EQ(a, Matrix(1, 2, {2, 3}));
}

TEST(Scale, MultipliesAll) {
  Matrix a(1, 3, {1, -2, 3});
  scale(a, -2.0f);
  EXPECT_EQ(a, Matrix(1, 3, {-2, 4, -6}));
}

TEST(AddBias, PerColumn) {
  Matrix m(2, 2, {0, 0, 1, 1});
  const std::vector<float> bias{10, 20};
  add_bias(m, bias);
  EXPECT_EQ(m, Matrix(2, 2, {10, 20, 11, 21}));
}

TEST(ScaleRows, PerRowFactors) {
  Matrix m(2, 2, {1, 1, 1, 1});
  const std::vector<float> f{2, 3};
  scale_rows(m, f);
  EXPECT_EQ(m, Matrix(2, 2, {2, 2, 3, 3}));
}

TEST(RowSum, SumsEachRow) {
  Matrix m(2, 3, {1, 2, 3, -1, -2, -3});
  Matrix s = row_sum(m);
  EXPECT_FLOAT_EQ(s(0, 0), 6.0f);
  EXPECT_FLOAT_EQ(s(1, 0), -6.0f);
}

TEST(RowMax, FindsMaxPerRow) {
  Matrix m(2, 3, {1, 9, 3, -5, -2, -7});
  Matrix s = row_max(m);
  EXPECT_FLOAT_EQ(s(0, 0), 9.0f);
  EXPECT_FLOAT_EQ(s(1, 0), -2.0f);
}

TEST(Dot, MatchesManual) {
  const std::vector<float> a{1, 2, 3};
  const std::vector<float> b{4, 5, 6};
  EXPECT_FLOAT_EQ(dot(a, b), 32.0f);
}

TEST(FrobeniusNorm, KnownValue) {
  Matrix m(1, 2, {3, 4});
  EXPECT_FLOAT_EQ(frobenius_norm(m), 5.0f);
}

}  // namespace
}  // namespace gnnbridge::tensor

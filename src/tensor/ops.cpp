#include "tensor/ops.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace gnnbridge::tensor {

Matrix gemm_ref(const Matrix& a, const Matrix& b) {
  assert(a.cols() == b.rows());
  Matrix c(a.rows(), b.cols());
  for (Index i = 0; i < a.rows(); ++i) {
    for (Index j = 0; j < b.cols(); ++j) {
      float acc = 0.0f;
      for (Index k = 0; k < a.cols(); ++k) acc += a(i, k) * b(k, j);
      c(i, j) = acc;
    }
  }
  return c;
}

namespace {
/// Register block of the host GEMM: kMr rows by kNr columns of C stay in
/// accumulators while k walks its whole range in order, so every c(i,j) is
/// the sum gemm_ref forms. 4x16 floats are the 16 SSE registers of the
/// baseline x86-64 ISA. The r and j loops must unroll completely for the
/// block to live in registers and the j loop to vectorize; rolled, the
/// accumulators stay in memory and the kernel runs at about half speed.
constexpr Index kMr = 4;
constexpr Index kNr = 16;

/// Columns [j0, j0 + kNr) of `rows` consecutive rows of C = A * B.
template <Index rows>
void gemm_block(const float* a, const float* b, float* c, Index k, Index n, Index j0,
                bool accumulate) {
  float acc[rows][kNr] = {};
  for (Index p = 0; p < k; ++p) {
    const float* bp = b + p * n + j0;
#pragma GCC unroll 4
    for (Index r = 0; r < rows; ++r) {
      const float av = a[r * k + p];
#pragma GCC unroll 16
      for (Index j = 0; j < kNr; ++j) acc[r][j] += av * bp[j];
    }
  }
  for (Index r = 0; r < rows; ++r) {
    float* cr = c + r * n + j0;
    for (Index j = 0; j < kNr; ++j) cr[j] = accumulate ? cr[j] + acc[r][j] : acc[r][j];
  }
}
}  // namespace

void gemm_rows(std::span<const float> a, const Matrix& b, std::span<float> c, bool accumulate) {
  const Index k = b.rows(), n = b.cols();
  if (n == 0) return;
  const Index m = static_cast<Index>(c.size()) / n;
  assert(static_cast<Index>(c.size()) == m * n && static_cast<Index>(a.size()) == m * k);
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = c.data();
  const Index n_blocked = n - n % kNr;
  Index i = 0;
  for (; i + kMr <= m; i += kMr) {
    for (Index j0 = 0; j0 < n_blocked; j0 += kNr)
      gemm_block<kMr>(pa + i * k, pb, pc + i * n, k, n, j0, accumulate);
  }
  for (; i < m; ++i) {
    for (Index j0 = 0; j0 < n_blocked; j0 += kNr)
      gemm_block<1>(pa + i * k, pb, pc + i * n, k, n, j0, accumulate);
  }
  // Edge columns, one element at a time.
  for (Index r = 0; r < m; ++r) {
    for (Index j = n_blocked; j < n; ++j) {
      float acc = 0.0f;
      for (Index p = 0; p < k; ++p) acc += pa[r * k + p] * pb[p * n + j];
      float& out = pc[r * n + j];
      out = accumulate ? out + acc : acc;
    }
  }
}

void gemm_rows(const Matrix& a, const Matrix& b, Matrix& c, Index row_begin, Index row_end,
               bool accumulate) {
  assert(a.cols() == b.rows() && c.cols() == b.cols());
  assert(0 <= row_begin && row_begin <= row_end && row_end <= a.rows() && row_end <= c.rows());
  const auto rows = static_cast<std::size_t>(row_end - row_begin);
  gemm_rows(std::span<const float>(a.data() + row_begin * a.cols(),
                                   rows * static_cast<std::size_t>(a.cols())),
            b,
            std::span<float>(c.data() + row_begin * c.cols(),
                             rows * static_cast<std::size_t>(c.cols())),
            accumulate);
}

Matrix gemm(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.cols());
  gemm_rows(a, b, c, 0, a.rows());
  return c;
}

Matrix gemm_nt(const Matrix& a, const Matrix& b) {
  assert(a.cols() == b.cols());
  const Index m = a.rows(), n = b.rows(), k = a.cols();
  Matrix c(m, n);
  for (Index i = 0; i < m; ++i) {
    for (Index j = 0; j < n; ++j) {
      c(i, j) = dot(a.row(i), b.row(j));
    }
  }
  (void)k;
  return c;
}

Matrix transpose(const Matrix& a) {
  Matrix t(a.cols(), a.rows());
  for (Index i = 0; i < a.rows(); ++i)
    for (Index j = 0; j < a.cols(); ++j) t(j, i) = a(i, j);
  return t;
}

namespace {
template <typename F>
Matrix binary_op(const Matrix& a, const Matrix& b, F f) {
  assert(a.rows() == b.rows() && a.cols() == b.cols());
  Matrix out(a.rows(), a.cols());
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.data();
  const Index n = a.size();
  for (Index i = 0; i < n; ++i) po[i] = f(pa[i], pb[i]);
  return out;
}
}  // namespace

Matrix add(const Matrix& a, const Matrix& b) {
  return binary_op(a, b, [](float x, float y) { return x + y; });
}

Matrix sub(const Matrix& a, const Matrix& b) {
  return binary_op(a, b, [](float x, float y) { return x - y; });
}

Matrix mul(const Matrix& a, const Matrix& b) {
  return binary_op(a, b, [](float x, float y) { return x * y; });
}

void axpy(Matrix& a, float alpha, const Matrix& b) {
  assert(a.rows() == b.rows() && a.cols() == b.cols());
  float* pa = a.data();
  const float* pb = b.data();
  const Index n = a.size();
  for (Index i = 0; i < n; ++i) pa[i] += alpha * pb[i];
}

void scale(Matrix& a, float s) {
  float* p = a.data();
  const Index n = a.size();
  for (Index i = 0; i < n; ++i) p[i] *= s;
}

void add_bias(Matrix& m, std::span<const float> bias) {
  assert(static_cast<Index>(bias.size()) == m.cols());
  for (Index i = 0; i < m.rows(); ++i) {
    auto row = m.row(i);
    for (Index j = 0; j < m.cols(); ++j) row[j] += bias[j];
  }
}

void scale_rows(Matrix& m, std::span<const float> factors) {
  assert(static_cast<Index>(factors.size()) == m.rows());
  for (Index i = 0; i < m.rows(); ++i) {
    auto row = m.row(i);
    const float f = factors[i];
    for (float& v : row) v *= f;
  }
}

Matrix row_sum(const Matrix& m) {
  Matrix out(m.rows(), 1);
  for (Index i = 0; i < m.rows(); ++i) {
    float acc = 0.0f;
    for (float v : m.row(i)) acc += v;
    out(i, 0) = acc;
  }
  return out;
}

Matrix row_max(const Matrix& m) {
  assert(m.cols() > 0);
  Matrix out(m.rows(), 1);
  for (Index i = 0; i < m.rows(); ++i) {
    auto row = m.row(i);
    out(i, 0) = *std::max_element(row.begin(), row.end());
  }
  return out;
}

float dot(std::span<const float> a, std::span<const float> b) {
  assert(a.size() == b.size());
  float acc = 0.0f;
  for (std::size_t i = 0; i < a.size(); ++i) acc += a[i] * b[i];
  return acc;
}

float frobenius_norm(const Matrix& m) {
  double acc = 0.0;
  const float* p = m.data();
  for (Index i = 0; i < m.size(); ++i) acc += static_cast<double>(p[i]) * static_cast<double>(p[i]);
  return static_cast<float>(std::sqrt(acc));
}

}  // namespace gnnbridge::tensor

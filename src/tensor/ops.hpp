// Dense linear-algebra building blocks (the cuBLAS stand-in).
//
// Two GEMM implementations are provided: a straightforward reference used by
// tests as ground truth, and a register-blocked version used by the models,
// the kernels and the benchmark harness. The blocked version forms every
// c(i,j) as the reference does (0.0f plus a(i,k)*b(k,j) for k = 0..K-1 in
// order, no FP contraction), so the two are bit-identical. Everything here
// runs on the calling thread; kernels::dense_gemm parallelizes over disjoint
// row ranges through gemm_rows.
#pragma once

#include <span>

#include "tensor/matrix.hpp"

namespace gnnbridge::tensor {

/// C = A * B. Triple-loop reference implementation (ground truth for tests).
Matrix gemm_ref(const Matrix& a, const Matrix& b);

/// C = A * B: gemm_rows over every row. Bit-identical to gemm_ref.
Matrix gemm(const Matrix& a, const Matrix& b);

/// Rows [row_begin, row_end) of A * B, written into the preallocated `c`
/// (c.cols() == b.cols(), c.rows() >= row_end); with `accumulate`, each
/// product element is added to what `c` holds. Rows of `c` outside the
/// range are untouched, so callers may fill disjoint ranges concurrently.
void gemm_rows(const Matrix& a, const Matrix& b, Matrix& c, Index row_begin, Index row_end,
               bool accumulate = false);

/// The same on contiguous row-major blocks: `a` holds R rows of b.rows()
/// floats and `c` R rows of b.cols() floats.
void gemm_rows(std::span<const float> a, const Matrix& b, std::span<float> c,
               bool accumulate = false);

/// C = A * B^T. Needed by attention-style edge ops (<W_l h_u, W_r h_v>).
Matrix gemm_nt(const Matrix& a, const Matrix& b);

/// Returns A^T.
Matrix transpose(const Matrix& a);

/// out = a + b (elementwise; shapes must match).
Matrix add(const Matrix& a, const Matrix& b);

/// out = a - b (elementwise; shapes must match).
Matrix sub(const Matrix& a, const Matrix& b);

/// out = a ⊙ b (Hadamard product; shapes must match).
Matrix mul(const Matrix& a, const Matrix& b);

/// a += alpha * b, in place.
void axpy(Matrix& a, float alpha, const Matrix& b);

/// Scales every element of `a` by `s`, in place.
void scale(Matrix& a, float s);

/// Adds row-vector `bias` (length == m.cols()) to every row of `m`.
void add_bias(Matrix& m, std::span<const float> bias);

/// Scales row r of `m` by `factors[r]` (length == m.rows()).
void scale_rows(Matrix& m, std::span<const float> factors);

/// Per-row sum: returns a column vector [rows x 1].
Matrix row_sum(const Matrix& m);

/// Per-row max: returns a column vector [rows x 1].
Matrix row_max(const Matrix& m);

/// Dot product of two equal-length spans.
float dot(std::span<const float> a, std::span<const float> b);

/// Frobenius norm of `m`.
float frobenius_norm(const Matrix& m);

}  // namespace gnnbridge::tensor

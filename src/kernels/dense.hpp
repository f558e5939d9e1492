// Dense neural-operation kernels (the cuBLAS/cuDNN stand-ins).
//
// GEMMs, bias + activation, and row-vector dot products. These carry the
// compute-heavy side of GNN layers; their traces are tile-granular (32x32
// output tiles walking k in 32-wide steps) which is all the cache model
// needs — dense ops are compute-bound and their role in the paper's story
// is their *cost* and their *count* (redundant O(E) transformations,
// Observation 4). On the host, the GEMMs compute exactly the rows their
// views cover with tensor::gemm_rows, in parallel over fixed 64-row chunks;
// the result is bit-identical to tensor::gemm_ref at any thread count.
#pragma once

#include <functional>

#include "kernels/common.hpp"

namespace gnnbridge::kernels {

/// C = A * B (+ C if accumulate). A: [M, K], B: [K, N], C: [M, N], where M
/// is the views' row count: the host matrices may hold more rows, which are
/// left untouched.
struct GemmArgs {
  const FeatureMat* a = nullptr;
  const FeatureMat* b = nullptr;
  FeatureMat* c = nullptr;
  bool accumulate = false;
  const char* name = "gemm";
  const char* phase = "transformation";
};
sim::KernelStats dense_gemm(sim::SimContext& ctx, const GemmArgs& args);

/// Variant of `dense_gemm` where the rows of A are fetched indirectly:
/// row i of the logical A is `feat[row_index[i]]`. This is *sparse
/// fetching* (paper §4.3): the gather that baselines run as a separate
/// expansion kernel happens inside the GEMM's loads instead. Locality is
/// worse (indexed rows), but the intermediate [M, K] matrix never exists.
struct SparseFetchGemmArgs {
  const FeatureMat* feat = nullptr;        ///< [N, K] source features
  std::span<const NodeId> row_index;       ///< M logical row ids
  sim::Buffer index_buf;                   ///< device copy of row_index
  const FeatureMat* b = nullptr;           ///< [K, Nc]
  FeatureMat* c = nullptr;                 ///< [M, Nc]
  bool accumulate = false;
  const char* name = "gemm_spfetch";
  const char* phase = "transformation";
};
sim::KernelStats sparse_fetch_gemm(sim::SimContext& ctx, const SparseFetchGemmArgs& args);

/// Elementwise map over a dense [M, N] matrix (activations, gate math).
struct DenseMapArgs {
  const FeatureMat* in = nullptr;
  FeatureMat* out = nullptr;  ///< may alias in
  std::function<float(float)> fn;
  double flops_per_elem = 1.0;
  const char* name = "dense_map";
  const char* phase = "elementwise";
};
sim::KernelStats dense_map(sim::SimContext& ctx, const DenseMapArgs& args);

/// Elementwise combine of two dense matrices: out = fn(a, b).
struct DenseBinaryArgs {
  const FeatureMat* a = nullptr;
  const FeatureMat* b = nullptr;
  FeatureMat* out = nullptr;
  std::function<float(float, float)> fn;
  double flops_per_elem = 1.0;
  const char* name = "dense_binary";
  const char* phase = "elementwise";
};
sim::KernelStats dense_binary(sim::SimContext& ctx, const DenseBinaryArgs& args);

/// out[i] = fn(a[row_index[i]], b[i]) — elementwise combine where the first
/// operand's rows are fetched by index. This is the redundancy-bypassing
/// LSTM cell's input path: the pre-transformed feature row of the step's
/// neighbor is fetched sparsely and combined with the recurrent term, with
/// no expansion kernel and no per-step re-transformation (paper §4.3,
/// Figure 6's red box).
struct IndexedBinaryArgs {
  const FeatureMat* a = nullptr;      ///< [N, F] indexed operand
  std::span<const NodeId> row_index;  ///< M logical row ids into `a`
  sim::Buffer index_buf;              ///< device copy of row_index
  const FeatureMat* b = nullptr;      ///< [M, F]
  FeatureMat* out = nullptr;          ///< [M, F]
  std::function<float(float, float)> fn;
  double flops_per_elem = 1.0;
  const char* name = "indexed_binary";
  const char* phase = "elementwise";
};
sim::KernelStats indexed_binary(sim::SimContext& ctx, const IndexedBinaryArgs& args);

/// out = in^T. Tiled transpose (the backward pass needs h^T and W^T).
struct TransposeArgs {
  const FeatureMat* in = nullptr;  ///< [M, N]
  FeatureMat* out = nullptr;       ///< [N, M]
  const char* name = "transpose";
  const char* phase = "transformation";
};
sim::KernelStats dense_transpose(sim::SimContext& ctx, const TransposeArgs& args);

/// out[c] = sum over rows of in[r][c] — the bias gradient reduction.
/// Row-chunked blocks merge partial sums through atomics.
struct ColSumArgs {
  const FeatureMat* in = nullptr;  ///< [M, N]
  FeatureMat* out = nullptr;       ///< [N, 1]
  const char* name = "col_sum";
  const char* phase = "backward";
};
sim::KernelStats col_sum(sim::SimContext& ctx, const ColSumArgs& args);

/// out[i] = dot(feat[i], vec) — computes GAT's per-node attention scalars.
struct RowDotArgs {
  const FeatureMat* feat = nullptr;  ///< [N, F]
  const FeatureMat* vec = nullptr;   ///< [F, 1]
  FeatureMat* out = nullptr;         ///< [N, 1]
  const char* name = "row_dot";
  const char* phase = "transformation";
};
sim::KernelStats row_dot(sim::SimContext& ctx, const RowDotArgs& args);

}  // namespace gnnbridge::kernels

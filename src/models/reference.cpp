#include "models/reference.hpp"

#include <cassert>
#include <cmath>

#include "models/layers.hpp"
#include "models/lstm.hpp"
#include "tensor/activations.hpp"
#include "tensor/ops.hpp"

namespace gnnbridge::models {

Matrix gcn_forward_ref(const Csr& g, const Matrix& x, [[maybe_unused]] const GcnConfig& cfg,
                       const GcnParams& params) {
  assert(x.cols() == cfg.dims.front());
  const std::vector<float> norm = gcn_edge_norm(g);
  Matrix h = x;
  for (std::size_t l = 0; l < params.weight.size(); ++l) {
    Matrix transformed = tensor::gemm(h, params.weight[l]);
    Matrix agg = layer_sum(g, transformed, norm);
    for (Index r = 0; r < agg.rows(); ++r) {
      auto row = agg.row(r);
      for (Index c = 0; c < agg.cols(); ++c) row[c] += params.bias[l](c, 0);
    }
    if (l + 1 < params.weight.size()) tensor::relu_(agg);
    h = std::move(agg);
  }
  return h;
}

Matrix gat_forward_ref(const Csr& g, const Matrix& x, const GatConfig& cfg,
                       const GatParams& params) {
  assert(x.cols() == cfg.dims.front());
  Matrix h = x;
  for (std::size_t l = 0; l < params.weight.size(); ++l) {
    const Matrix transformed = tensor::gemm(h, params.weight[l]);
    const std::vector<float> scores =
        edge_gat(g, transformed, params.att_l[l], params.att_r[l], cfg.leaky_alpha);
    Matrix agg = layer_softmax_aggr(g, transformed, scores);
    if (l + 1 < params.weight.size()) tensor::relu_(agg);
    h = std::move(agg);
  }
  return h;
}

Matrix sage_lstm_forward_ref(const Csr& g, const Matrix& x, const SageLstmConfig& cfg,
                             const SageLstmParams& params) {
  assert(x.cols() == cfg.in_feat);
  LstmState state = zero_state(g.num_nodes, cfg.hidden);
  Matrix x_t(g.num_nodes, cfg.in_feat);
  for (int t = 0; t < cfg.steps; ++t) {
    // The t-th sampled neighbor feature of every center node (wrapping for
    // low degrees; isolated nodes fall back to their own feature) — same
    // convention as kernels::step_gather and core::step_neighbor_index.
    for (NodeId v = 0; v < g.num_nodes; ++v) {
      const EdgeId d = g.degree(v);
      NodeId u = v;
      if (d > 0) {
        const EdgeId idx = g.row_ptr[v] + (static_cast<EdgeId>(t) % d);
        u = g.col_idx[static_cast<std::size_t>(idx)];
      }
      auto src = x.row(u);
      auto row = x_t.row(v);
      std::copy(src.begin(), src.end(), row.begin());
    }
    lstm_cell_ref(x_t, params, state);
  }
  return tensor::gemm(state.h, params.out_w);
}

}  // namespace gnnbridge::models

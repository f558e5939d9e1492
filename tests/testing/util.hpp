// Shared test fixtures and builders.
#pragma once

#include <algorithm>
#include <thread>
#include <vector>

#include "graph/csr.hpp"
#include "graph/generators.hpp"
#include "kernels/common.hpp"
#include "tensor/matrix.hpp"
#include "tensor/rng.hpp"

namespace gnnbridge::testing {

using graph::Coo;
using graph::Csr;
using graph::EdgeId;
using graph::NodeId;
using tensor::Index;
using tensor::Matrix;
using tensor::Rng;

/// Builds a CSR directly from an explicit (dst <- src) edge list.
inline Csr csr_from_edges(NodeId n, std::vector<std::pair<NodeId, NodeId>> dst_src) {
  Coo coo;
  coo.num_nodes = n;
  for (auto [d, s] : dst_src) coo.add_edge(s, d);
  return graph::csr_from_coo(graph::canonicalize(coo));
}

/// A directed path 0 <- 1 <- 2 <- ... (node v aggregates node v+1).
inline Csr path_graph(NodeId n) {
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId v = 0; v + 1 < n; ++v) edges.push_back({v, v + 1});
  return csr_from_edges(n, std::move(edges));
}

/// A star: node 0 aggregates every other node.
inline Csr star_graph(NodeId n) {
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId v = 1; v < n; ++v) edges.push_back({0, v});
  return csr_from_edges(n, std::move(edges));
}

/// Random symmetric graph (may include isolated nodes for small avg_deg).
inline Csr random_graph(NodeId n, double avg_degree, std::uint64_t seed) {
  Rng rng(seed);
  return graph::csr_from_coo(graph::erdos_renyi(n, avg_degree, rng));
}

/// Host pool sizes a determinism sweep compares against a one-thread run:
/// 2, 3 and 8 plus this host's hardware concurrency, deduplicated.
inline std::vector<int> sweep_thread_counts() {
  std::vector<int> counts = {2, 3, 8};
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  if (hw > 1 && std::find(counts.begin(), counts.end(), hw) == counts.end()) {
    counts.push_back(hw);
  }
  return counts;
}

/// Random matrix filled from `seed`.
inline Matrix random_matrix(Index rows, Index cols, std::uint64_t seed, float lo = -1.0f,
                            float hi = 1.0f) {
  Rng rng(seed);
  Matrix m(rows, cols);
  tensor::fill_uniform(m, rng, lo, hi);
  return m;
}

}  // namespace gnnbridge::testing

// Pieces every backend's pipelines share: the host storage behind device
// matrices and the two shapes of RunResult a run ends in. Internal to the
// backends (DGL, PyG, ROC and the optimized engine) — not part of the
// Backend API.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <vector>

#include "baselines/backend.hpp"
#include "kernels/common.hpp"
#include "models/common.hpp"
#include "sim/context.hpp"

namespace gnnbridge::baselines {

/// Allocates a run's device mats, and decides once for the whole run
/// whether they compute: under kFull each mat gets a host matrix (so every
/// kernel computes), under kSimulateOnly none does (kernels only trace).
/// Both modes allocate the same device buffers in the same order, so
/// simulated addresses match. A deque keeps element addresses stable across
/// growth, so FeatureMat::host pointers taken earlier stay valid.
class Workspace {
 public:
  explicit Workspace(kernels::ExecMode mode) : full_(mode == kernels::ExecMode::kFull) {}

  /// A zero-filled [rows, cols] mat.
  kernels::FeatureMat mat(sim::SimContext& ctx, models::Index rows, models::Index cols,
                          const char* label) {
    if (!full_) return kernels::device_mat_shape(ctx, rows, cols, label);
    pool_.emplace_back(rows, cols);
    return kernels::device_mat(ctx, pool_.back(), label);
  }
  /// A mat holding a copy of `m`.
  kernels::FeatureMat from(sim::SimContext& ctx, const Matrix& m, const char* label) {
    if (!full_) return kernels::device_mat_shape(ctx, m.rows(), m.cols(), label);
    pool_.push_back(m);
    return kernels::device_mat(ctx, pool_.back(), label);
  }
  /// The GCN edge-norm mat: `edges` per-edge normalizations, [edges, 1].
  /// `build()` returns the values and runs only when the run computes, so a
  /// simulate-only run allocates the same buffer without building the O(E)
  /// vector.
  template <typename Build>
  kernels::FeatureMat edge_norm(sim::SimContext& ctx, std::size_t edges, Build&& build) {
    const auto rows = static_cast<models::Index>(edges);
    if (!full_) return kernels::device_mat_shape(ctx, rows, 1, "gcn_norm");
    pool_.emplace_back(rows, 1, build());
    return kernels::device_mat(ctx, pool_.back(), "gcn_norm");
  }
  /// The edge-norm mat of the whole graph `csr` (models::gcn_edge_norm).
  kernels::FeatureMat edge_norm(sim::SimContext& ctx, const graph::Csr& csr) {
    return edge_norm(ctx, static_cast<std::size_t>(csr.num_edges()),
                     [&] { return models::gcn_edge_norm(csr); });
  }

 private:
  bool full_;
  std::deque<Matrix> pool_;
};

/// A completed run: the context's counters, the simulated wall time, the
/// output (empty when the run only traced) and the paper-scale footprint.
inline RunResult finish(sim::SimContext& ctx, const sim::DeviceSpec& spec, Matrix output,
                        std::uint64_t paper_bytes = 0) {
  RunResult r;
  r.stats = ctx.stats();
  r.ms = spec.millis(r.stats.total_cycles);
  r.paper_bytes = paper_bytes;
  r.output = std::move(output);
  return r;
}

/// finish() with the output read from a device mat: its host matrix when
/// the run computed, empty otherwise.
inline RunResult finish(sim::SimContext& ctx, const sim::DeviceSpec& spec,
                        const kernels::FeatureMat& output, std::uint64_t paper_bytes = 0) {
  return finish(ctx, spec, output.host ? *output.host : Matrix(), paper_bytes);
}

/// A run that would not fit in device memory at paper scale (Figure 7's
/// "OOM" cells): no counters, no time, only the footprint estimate.
inline RunResult oom_result(std::uint64_t paper_bytes) {
  RunResult r;
  r.oom = true;
  r.paper_bytes = paper_bytes;
  return r;
}

}  // namespace gnnbridge::baselines

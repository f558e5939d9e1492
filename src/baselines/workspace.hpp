// Pieces every backend's pipelines share: the host storage behind device
// matrices and the two shapes of RunResult a run ends in. Internal to the
// backends (DGL, PyG, ROC and the optimized engine) — not part of the
// Backend API.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "baselines/backend.hpp"
#include "kernels/common.hpp"
#include "sim/context.hpp"

namespace gnnbridge::baselines {

/// Owns the host matrices backing a pipeline's device mats. A deque keeps
/// element addresses stable across growth, so FeatureMat::host pointers
/// taken earlier stay valid.
struct Workspace {
  std::deque<Matrix> pool;

  kernels::FeatureMat mat(sim::SimContext& ctx, models::Index rows, models::Index cols,
                          const char* label) {
    pool.emplace_back(rows, cols);
    return kernels::device_mat(ctx, pool.back(), label);
  }
  kernels::FeatureMat from(sim::SimContext& ctx, const Matrix& m, const char* label) {
    pool.push_back(m);
    return kernels::device_mat(ctx, pool.back(), label);
  }
  kernels::FeatureMat from_vec(sim::SimContext& ctx, const std::vector<float>& v,
                               const char* label) {
    pool.emplace_back(static_cast<models::Index>(v.size()), 1,
                      std::vector<float>(v.begin(), v.end()));
    return kernels::device_mat(ctx, pool.back(), label);
  }
};

/// A completed run: the context's counters, the simulated wall time, the
/// output (empty outside ExecMode::kFull) and the paper-scale footprint.
inline RunResult finish(sim::SimContext& ctx, const sim::DeviceSpec& spec, Matrix output,
                        std::uint64_t paper_bytes = 0) {
  RunResult r;
  r.stats = ctx.stats();
  r.ms = spec.millis(r.stats.total_cycles);
  r.paper_bytes = paper_bytes;
  r.output = std::move(output);
  return r;
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

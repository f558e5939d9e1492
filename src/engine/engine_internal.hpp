// Helpers shared by the engine's translation units (engine.cpp and
// engine_shard.cpp). Internal — not part of the public engine API.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "baselines/workspace.hpp"
#include "graph/csr.hpp"
#include "kernels/common.hpp"
#include "obs/journal.hpp"
#include "sim/context.hpp"

namespace gnnbridge::shard {
struct Partition;
}  // namespace gnnbridge::shard

namespace gnnbridge::engine::detail {

namespace k = gnnbridge::kernels;

/// Shard-recovery accounting for one run (DESIGN.md §17), thread-local via
/// RecoveryScope so the sharded pipelines and the degradation ladder can
/// report into it from anywhere under the run. It survives across ladder
/// rounds within run_guarded: an abandoned sharded attempt's retries stay
/// counted after the fallback-to-unsharded rung succeeds.
struct RecoveryTally {
  std::uint64_t shard_retries = 0;       ///< granted retry decisions
  std::uint64_t shards_reexecuted = 0;   ///< shard phase bodies re-executed
  std::uint64_t fallback_unsharded = 0;  ///< sharded->unsharded ladder steps
  double wasted_cycles = 0.0;            ///< cycles of failed attempts/redos
  /// Buffered journal events ("shard_retry"/"shard_fallback"), interleaved
  /// with the owning batch job's attempt events and flushed by run_batch's
  /// sequential fold. Null for direct (non-batch) runs, which surface
  /// recovery through the metrics sink only.
  std::vector<obs::JournalEvent>* journal = nullptr;

  bool any() const { return shard_retries != 0 || fallback_unsharded != 0; }
};

/// A journal event with its payload fields set; the request ID and sequence
/// number are stamped when run_batch appends it.
inline obs::JournalEvent journal_event(std::string_view type, std::string_view key,
                                       std::string_view code = {}, std::string detail = {},
                                       std::uint64_t attempt = 0, double cycles = 0.0) {
  obs::JournalEvent ev;
  ev.type = type;
  ev.key = key;
  ev.code = code;
  ev.detail = std::move(detail);
  ev.attempt = attempt;
  ev.cycles = cycles;
  return ev;
}

/// The tally installed for the current thread's run; nullptr when none.
RecoveryTally* active_recovery();

/// True when the calling thread runs a cache-isolated batch job of
/// `engine` (any job with a fault plan re-derives warm state every
/// attempt; see ActiveJob in engine.cpp). Exposed so engine_shard.cpp can
/// apply the same warm-hit skip to the memoized shard-plan cache.
bool cache_isolated_active(const void* engine);

/// RAII installer for the thread-local recovery tally (nests; restores the
/// previous tally on destruction). run_batch installs one per job around
/// the attempt loop; run_guarded installs one for direct runs.
class RecoveryScope {
 public:
  explicit RecoveryScope(RecoveryTally* tally);
  ~RecoveryScope();
  RecoveryScope(const RecoveryScope&) = delete;
  RecoveryScope& operator=(const RecoveryScope&) = delete;

 private:
  RecoveryTally* prev_;
};

using baselines::finish;
using baselines::Workspace;

/// The launch knobs one attempt runs under, resolved once per attempt by
/// OptimizedEngine::schedule_for from the configuration, the degradation
/// ladder and the (graph, feature width) tune.
struct Schedule {
  int lanes = 32;                                   ///< SIMD lanes per feature row
  graph::EdgeId bound = 0;                          ///< neighbor grouping bound; 0 = off
  const std::vector<graph::NodeId>* las = nullptr;  ///< LAS order; null = natural order
  /// Sharded attempts only: the memoized partition (null = unsharded).
  std::shared_ptr<const shard::Partition> plan;
};

/// The engine's handwritten kernels are driven by a thin C++ launcher
/// wrapped in PyTorch; per-kernel host overhead is a fraction of the
/// baselines' per-op dispatch.
constexpr sim::Cycles kEngineOverheadCycles = 4000.0;

inline sim::DeviceSpec with_engine_overhead(sim::DeviceSpec spec) {
  spec.framework_overhead_cycles = kEngineOverheadCycles;
  return spec;
}

}  // namespace gnnbridge::engine::detail

// Shared kernel-library types.
//
// Every kernel in this directory plays two roles at once:
//   1. it computes real results on host matrices (so semantics are testable
//      and the examples produce meaningful GNN outputs), and
//   2. it emits the global-memory trace + flop counts of the corresponding
//      GPU kernel into the simulator.
// A kernel plays role 1 exactly when every matrix it is given has host
// storage (`computes`); shape-only matrices skip it for the large benchmark
// sweeps. Traces are value-independent, so counters and timings are the
// same either way. Which matrices get host storage is decided once per run,
// by the backends' Workspace from the run's execution mode.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <span>
#include <vector>

#include "graph/csr.hpp"
#include "sim/context.hpp"
#include "tensor/matrix.hpp"

namespace gnnbridge::kernels {

using graph::Csr;
using graph::EdgeId;
using graph::NodeId;
using tensor::Index;
using tensor::Matrix;

/// Whether a run computes real arithmetic or only emits traces. Kernels
/// never read it: a run's Workspace turns it into host storage (kFull) or
/// shape-only matrices (kSimulateOnly).
enum class ExecMode {
  kFull,          ///< compute results and emit traces
  kSimulateOnly,  ///< emit traces only (no host matrices)
};

/// Reduction operator for aggregation kernels. All three are
/// order-insensitive, which is what licenses neighbor grouping's
/// atomic-merge strategy (paper §4.1.2).
enum class Reduce { kSum, kMean, kMax };

/// A feature matrix living in the simulated device memory (for traces) and,
/// when the run computes, on the host (for arithmetic).
struct FeatureMat {
  Matrix* host = nullptr;      ///< null = shape only: kernels trace, never compute
  sim::Buffer buf;             ///< simulated allocation
  Index rows = 0;
  Index cols = 0;

  std::uint64_t row_bytes() const { return static_cast<std::uint64_t>(cols) * 4; }
  std::uint64_t row_offset(Index r) const { return static_cast<std::uint64_t>(r) * row_bytes(); }
};

/// Allocates a simulated buffer for `m` and returns the pair.
FeatureMat device_mat(sim::SimContext& ctx, Matrix& m, const char* name);

/// Allocates a simulated [rows x cols] buffer with no host storage
/// (kSimulateOnly pipelines).
FeatureMat device_mat_shape(sim::SimContext& ctx, Index rows, Index cols, const char* name);

/// Whether a kernel computes: true iff every matrix it is given has host
/// storage. Null entries are absent optional operands and are skipped. A
/// mix of host-backed and shape-only matrices is a caller error (asserted).
bool computes(std::initializer_list<const FeatureMat*> mats);

/// The graph structure resident in simulated device memory.
struct GraphOnDevice {
  const Csr* csr = nullptr;
  sim::Buffer row_ptr;  ///< (N+1) x 8 bytes
  sim::Buffer col_idx;  ///< E x 4 bytes
};

/// Uploads (allocates) the CSR arrays for `csr`.
GraphOnDevice device_graph(sim::SimContext& ctx, const Csr& csr, const char* name);

/// One aggregation task: center node `v`, neighbor sub-range
/// [begin, end) of its CSR row. Baselines use one task per node covering
/// the whole row; neighbor grouping emits several bounded tasks per
/// heavy node; locality-aware scheduling permutes the task order.
struct Task {
  NodeId v = 0;
  EdgeId begin = 0;
  EdgeId end = 0;

  EdgeId size() const { return end - begin; }
};

/// One whole-row task per node, in natural node order (the DGL baseline's
/// task distribution).
std::vector<Task> natural_tasks(const Csr& csr);

/// Lane-padding factor for mapping a `feat_len`-wide row onto `lanes`
/// SIMD lanes: issued work / useful work = ceil(F/lanes)*lanes / F.
/// This is Observation 5's mechanism: a fixed mapping wastes lanes at
/// awkward feature lengths.
double pad_factor(Index feat_len, int lanes);

}  // namespace gnnbridge::kernels

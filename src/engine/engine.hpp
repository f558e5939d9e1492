// The optimized execution engine ("Ours" in Figure 7).
//
// Composes the four optimizations of Section 4 over the same kernels,
// graphs and weights the baselines use:
//   * locality-aware task scheduling — offline cluster-adjacent task order;
//   * neighbor grouping — bounded tasks with atomic merge;
//   * data-visible-range adapter + linear property — fused kernel
//     pipelines, one per GCN/GAT layer description (engine/layers.hpp);
//   * sparse fetching + redundancy bypassing — for GraphSAGE-LSTM's
//     center-neighbor neural operations.
// Every knob is independently switchable, which is what the ablation
// benchmarks (Figures 8-11, Table 6) sweep.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "baselines/backend.hpp"
#include "core/balance/neighbor_grouping.hpp"
#include "core/locality/schedule.hpp"
#include "graph/fingerprint.hpp"
#include "models/gcn_grad.hpp"
#include "rt/breaker.hpp"
#include "rt/deadline.hpp"
#include "rt/degrade.hpp"
#include "rt/retry.hpp"

namespace gnnbridge::shard {
struct Partition;
}  // namespace gnnbridge::shard

namespace gnnbridge::engine::detail {
enum class Pipeline;
struct Schedule;
}  // namespace gnnbridge::engine::detail

namespace gnnbridge::engine {

using baselines::Backend;
using baselines::Dataset;
using baselines::ExecMode;
using baselines::GatRun;
using baselines::GcnRun;
using baselines::RunResult;
using baselines::SageLstmRun;
using graph::EdgeId;
using graph::NodeId;

/// GraphSAGE-LSTM optimization levels (Figure 11's three bars).
enum class SageOptLevel {
  kBase,              ///< expansion + per-step transformation (DGL-like)
  kSparseFetch,       ///< gather folded into the transform's loads
  kSparseFetchBypass, ///< + transformation hoisted out of the step loop
};

/// Engine configuration. Defaults are the full optimization stack.
struct EngineConfig {
  /// SIMD lanes per feature row (the tunable thread mapping).
  int lanes = 32;
  /// Neighbor grouping bound; 0 = heuristic (average degree rounded up to
  /// a multiple of 16).
  EdgeId group_bound = 0;
  bool use_neighbor_grouping = true;
  bool use_las = true;
  /// Data-visible-range adapter (kernel fusion).
  bool use_adapter = true;
  /// Linear-property postponement of the softmax division.
  bool use_linear = true;
  SageOptLevel sage_level = SageOptLevel::kSparseFetchBypass;
  /// Precomputed LAS order (offline result reused across runs); when null
  /// and use_las is set, the engine computes it on the fly.
  const std::vector<NodeId>* las_order = nullptr;
  /// Run the online tuner per (graph, feature length) before executing:
  /// lanes and grouping bound come from sampled probes instead of the
  /// static fields above (paper §4.4). The tuned configuration is cached
  /// per graph.
  bool auto_tune = false;
  /// Partitioned execution (DESIGN.md §16): number of edge-cut shards the
  /// GCN/GAT pipelines split the graph across, each simulated on its own
  /// device with per-layer ghost-feature exchanges. 0 = inherit the
  /// GNNBRIDGE_SHARDS environment variable (default 1); 1 = the ordinary
  /// single-device path; values are clamped to the node count. Sharded
  /// outputs are bit-identical to the unsharded engine; the exchange cost
  /// surfaces as the inter-shard-traffic gap. Models other than GCN/GAT
  /// run unsharded regardless.
  int shards = 0;
  /// Retry backoff for run_batch jobs that fail with a retryable Status
  /// (DESIGN.md §12). Backoff is sim-time, charged against the deadline.
  rt::RetryPolicy retry;
  /// Per-(model, graph) circuit breaker for run_batch (DESIGN.md §12).
  rt::BreakerConfig breaker;
};

/// The optimized engine, with graceful degradation (DESIGN.md §10): every
/// public run_* entry point validates its inputs (preflight), executes the
/// optimized pipeline, and — when an optimization stage fails (injected
/// via GNNBRIDGE_FAULT_PLAN or real) — disables the failed knob, records a
/// structured degradation event through prof::MetricsSink, and retries.
/// Only unrecoverable failures (invalid inputs, ladder exhausted) surface
/// as a non-ok RunResult::status; nothing throws across this API.
class OptimizedEngine final : public Backend {
 public:
  explicit OptimizedEngine(EngineConfig cfg = {}) : cfg_(cfg) {}

  std::string_view name() const override { return "Ours"; }
  bool supports(models::ModelKind) const override { return true; }

  RunResult run_gcn(const Dataset& data, const GcnRun& run, ExecMode mode,
                    const sim::DeviceSpec& spec) override;
  RunResult run_gat(const Dataset& data, const GatRun& run, ExecMode mode,
                    const sim::DeviceSpec& spec) override;
  RunResult run_sage_lstm(const Dataset& data, const SageLstmRun& run, ExecMode mode,
                          const sim::DeviceSpec& spec) override;

  bool supports_pool() const override { return true; }
  RunResult run_sage_pool(const Dataset& data, const baselines::SagePoolRun& run, ExecMode mode,
                          const sim::DeviceSpec& spec) override;

  bool supports_multihead() const override { return true; }
  RunResult run_multihead_gat(const Dataset& data, const baselines::MultiHeadGatRun& run,
                              ExecMode mode, const sim::DeviceSpec& spec) override;

  const EngineConfig& config() const { return cfg_; }

  /// Outcome of one training step.
  struct TrainResult {
    RunResult run;
    float loss = 0.0f;
  };

  /// One simulated GCN training step: forward (with activation caching),
  /// MSE loss against `target`, backward, and an SGD update of `params`
  /// (in place, ExecMode::kFull only). The backward aggregation reuses the
  /// forward kernels — the symmetric GCN normalization is self-adjoint —
  /// so LAS/NG/fusion apply to training unchanged. `grads_out`, when
  /// non-null, receives the computed gradients (kFull only).
  TrainResult train_gcn_step(const Dataset& data, const models::GcnConfig& cfg,
                             models::GcnParams& params, const models::Matrix& x,
                             const models::Matrix& target, float lr, ExecMode mode,
                             const sim::DeviceSpec& spec,
                             models::GcnGrads* grads_out = nullptr);

  /// The task list this configuration produces for a graph — the
  /// composition of neighbor grouping and the LAS order. Exposed for the
  /// kernel-level benchmarks. `feat` is the feature width the tasks will
  /// run at: with auto_tune, knobs an earlier run tuned for (graph, feat)
  /// apply; this call never tunes, and -1 (or a width not tuned yet) gets
  /// the static knobs.
  core::GroupedTasks build_tasks(const graph::Csr& csr, tensor::Index feat = -1) const;

  /// The shard count this engine's GCN/GAT pipelines will execute with:
  /// cfg.shards, or the GNNBRIDGE_SHARDS environment variable when
  /// cfg.shards == 0 (malformed values warn once and fall back to 1).
  int resolved_shards() const;

  /// Knobs the degradation ladder has disabled so far, as metric-schema
  /// knob names (rt::kKnob*). Sticky for the engine's lifetime.
  std::vector<std::string> degraded_knobs() const;

  /// One independent run request for run_batch: exactly one of the model
  /// pointers must be set.
  struct BatchJob {
    const Dataset* data = nullptr;
    const GcnRun* gcn = nullptr;
    const GatRun* gat = nullptr;
    const SageLstmRun* sage_lstm = nullptr;
    const baselines::SagePoolRun* sage_pool = nullptr;
    const baselines::MultiHeadGatRun* multihead_gat = nullptr;
    ExecMode mode = ExecMode::kSimulateOnly;
    sim::DeviceSpec spec;
    /// Sim-time budget for the whole job, retries and backoff included;
    /// expiry surfaces as kDeadlineExceeded with RunResult::timed_out set.
    rt::Deadline deadline;
    /// Run attempts before the job's failure is final (>= 1). Only
    /// retryable failures (rt::classify_for_retry) consume extra attempts.
    int max_attempts = 1;
    /// Optional external cancellation; checked at the same cooperative
    /// checkpoints as the deadline.
    const rt::CancelToken* cancel = nullptr;
    /// Per-job fault plan (rt::FaultInjector plan syntax). Applies to this
    /// job alone — jobs see private shot counters, so a batch behaves
    /// identically at any thread count. Empty = no injected faults (the
    /// process-wide plan is suppressed for the job either way).
    std::string fault_plan;
    /// Caller-supplied request ID, threaded through spans and the obs::
    /// event journal (DESIGN.md §13). Empty = the engine synthesizes a
    /// deterministic "req-<batch>-<index>" ID. Duplicate caller-supplied
    /// IDs within one batch are disambiguated with "#2"/"#3"... suffixes
    /// in journal/trace output so events stay attributable.
    std::string request_id;
    /// Tenant owning this request (serving multi-tenancy, DESIGN.md §14).
    /// Consumed by serve::AdmissionController for quotas and weighted-fair
    /// dequeue; the engine itself treats it as opaque. Empty = untenanted.
    std::string tenant;
    /// Shedding priority class: 0 = low, 1 = normal, 2 = high. Low classes
    /// are shed first under overload (serve::Priority has the named values);
    /// the engine itself ignores it.
    int priority = 1;
    /// Sim-time arrival stamp (cycles since stream start), supplied by the
    /// open-loop load generator. Admission control refills token buckets
    /// and ages the virtual queue from arrival deltas; the engine itself
    /// ignores it.
    double arrival_cycles = 0.0;
    /// Sim-cycles the job waited in the admission virtual queue and on
    /// token-bucket refill before dispatch (stamped by serve(); 0 when the
    /// batch bypassed admission control). The engine folds them into the
    /// job's end-to-end critical path (journal "e2e" event, SLO latency);
    /// it never re-schedules on them.
    double admission_wait_cycles = 0.0;
    double quota_wait_cycles = 0.0;
    /// Optimization knobs (rt::kKnob* names) force-disabled for this job
    /// only, merged with the breaker's half-open degradations in the job's
    /// admission set. The admission controller pre-degrades host-expensive
    /// knobs here under sustained overload before shedding escalates.
    std::vector<std::string> disable_knobs;
  };

  /// Runs independent (model, dataset) jobs concurrently on the host
  /// thread pool, sharing this engine's memoized LAS orders and tuned
  /// configurations (the caches are fingerprint-keyed and mutex-guarded).
  /// Results are returned in job order and are identical to running each
  /// job sequentially.
  ///
  /// Resilience (DESIGN.md §12): each job runs under its deadline/cancel
  /// scope with per-job retry and fault isolation; a failing job never
  /// blocks healthy ones. Admission and outcomes flow through a
  /// per-(model, graph-fingerprint) circuit breaker in sequential job
  /// order, and the batch's robustness counters are folded into
  /// prof::MetricsSink — all byte-identical at any host thread count.
  std::vector<RunResult> run_batch(std::span<const BatchJob> jobs);

  /// The run_batch circuit breaker (observability for tests and the soak
  /// driver).
  const rt::CircuitBreaker& breaker() const { return breaker_; }

  /// Cache observability (tests): number of memoized LAS orders / tuned
  /// configurations. A mutated-then-rerun graph must grow these — the
  /// stale-pointer regression this engine used to have.
  std::size_t las_cache_size() const;
  std::size_t tuned_cache_size() const;
  std::size_t shard_plan_cache_size() const;

 private:
  EngineConfig cfg_;
  /// Per-(model, graph-fingerprint) breaker shared by every run_batch call
  /// on this engine (cross-batch memory of failing pairs). Declared after
  /// cfg_ so it can take its configuration from it.
  mutable rt::CircuitBreaker breaker_{cfg_.breaker};

  /// Monotonic run_batch counter, seed for synthesized request IDs. The
  /// counter is engine-local, so IDs are deterministic per call sequence
  /// regardless of host thread count.
  std::atomic<std::uint64_t> batch_seq_{0};

  /// Cached auto-tune outcome for one (graph fingerprint, feature length).
  struct TunedEntry {
    int lanes = 32;
    EdgeId bound = 0;
    bool use_las = true;
  };
  /// Cache key for a per-graph artifact that also depends on one integer:
  /// the feature width of a tune, the shard count of a partition.
  struct GraphKey {
    graph::GraphFingerprint fp;
    std::int64_t n = 0;
    friend bool operator==(const GraphKey& a, const GraphKey& b) {
      return a.fp == b.fp && a.n == b.n;
    }
  };
  struct GraphKeyHash {
    std::size_t operator()(const GraphKey& k) const {
      return graph::GraphFingerprintHash{}(k.fp) * 1099511628211ull ^
             static_cast<std::size_t>(k.n);
    }
  };

  // Memoized per-graph artifacts, keyed by content fingerprint so an
  // in-place mutated (or reallocated-at-the-same-address) graph can never
  // alias a stale entry. Guarded by cache_mu_; run_batch jobs share them.
  // LAS orders are held behind shared_ptr and never erased, so the raw
  // pointers handed to a running attempt stay valid across concurrent
  // inserts/rehashes.
  mutable std::mutex cache_mu_;
  mutable std::unordered_map<graph::GraphFingerprint,
                             std::shared_ptr<const std::vector<NodeId>>,
                             graph::GraphFingerprintHash>
      las_cache_;
  mutable std::unordered_map<GraphKey, TunedEntry, GraphKeyHash> tuned_cache_;
  // Shard plans are deterministic pure functions of (graph, k); entries are
  // held behind shared_ptr and never erased, so concurrent jobs can keep
  // using a plan across rehashes (same lifetime rule as las_cache_).
  mutable std::unordered_map<GraphKey, std::shared_ptr<const shard::Partition>, GraphKeyHash>
      shard_cache_;
  // Preflight cache: validation is O(N x F); benches rerun identical
  // inputs thousands of times. Keyed by fingerprint + feature pointer.
  mutable std::unordered_map<graph::GraphFingerprint, const void*,
                             graph::GraphFingerprintHash>
      preflight_cache_;

  /// One optimization knob the degradation ladder can turn off. The order
  /// is the order knob sets are reported in (breaker rungs, metrics).
  enum class Knob : std::uint8_t { kLas, kAutoTune, kAdapter, kNeighborGrouping, kSharding };

  // Knobs the ladder turned off for good, one bit per Knob: a stage that
  // failed once is not trusted again for this engine's lifetime. Atomic so
  // concurrent batch jobs can degrade without racing. Batch jobs degrade
  // their own job-local set instead (ActiveJob in engine.cpp).
  mutable std::atomic<std::uint8_t> failed_knobs_{0};

  /// Whether the configuration turns `knob` on (sharding: more than one
  /// shard resolved).
  bool configured(Knob knob) const;
  /// Whether the ladder turned `knob` off, engine-wide or for the batch
  /// job running on this thread.
  bool degraded(Knob knob) const;
  bool knob_on(Knob knob) const { return configured(knob) && !degraded(knob); }
  static std::uint8_t bit(Knob knob) {
    return static_cast<std::uint8_t>(1u << static_cast<int>(knob));
  }
  /// Turns `knob` off, job-locally inside a batch job and for good
  /// otherwise, and records the degradation event. False when it was off
  /// already.
  bool turn_off(Knob knob, std::string_view seam, std::string_view action,
                const rt::Status& cause) const;

  /// Input validation run before every attempt (cached by identity).
  rt::Status preflight(const Dataset& data, const models::Matrix* features) const;

  /// Walks one step down the degradation ladder for the failed seam:
  /// disables the responsible knob, records the event, returns false when
  /// there is nothing left to turn off.
  bool degrade_for(const rt::StageFailure& failure) const;

  /// Preflight + attempt + catch-degrade-retry loop shared by every entry
  /// point. `attempt` returns RunResult or TrainResult.
  template <typename Fn>
  auto run_guarded(const Dataset& data, const models::Matrix* features, std::string_view what,
                   Fn&& attempt) -> decltype(attempt());

  RunResult gcn_attempt(const Dataset& data, const GcnRun& run, ExecMode mode,
                        const sim::DeviceSpec& spec);
  RunResult gat_attempt(const Dataset& data, const GatRun& run, ExecMode mode,
                        const sim::DeviceSpec& spec);
  // Partitioned variants (engine_shard.cpp): K simulated devices, per-layer
  // ghost exchange, bit-identical outputs (DESIGN.md §16). gcn_attempt and
  // gat_attempt resolve the pipeline and the schedule (partition included)
  // and hand them over.
  RunResult gcn_attempt_sharded(const Dataset& data, const GcnRun& run, ExecMode mode,
                                const sim::DeviceSpec& spec, detail::Pipeline pipe,
                                const detail::Schedule& sched);
  RunResult gat_attempt_sharded(const Dataset& data, const GatRun& run, ExecMode mode,
                                const sim::DeviceSpec& spec, detail::Pipeline pipe,
                                const detail::Schedule& sched);
  /// Memoized partition for (graph, k); computed on miss, never evicted.
  /// Raises rt::StageFailure(kSeamShardPartition) when partitioning fails
  /// (e.g. a corrupt CSR) so run_guarded can surface it.
  std::shared_ptr<const shard::Partition> shard_plan_for(const graph::Csr& csr,
                                                         const graph::GraphFingerprint& fp,
                                                         int k) const;
  RunResult multihead_gat_attempt(const Dataset& data, const baselines::MultiHeadGatRun& run,
                                  ExecMode mode, const sim::DeviceSpec& spec);
  RunResult sage_pool_attempt(const Dataset& data, const baselines::SagePoolRun& run,
                              ExecMode mode, const sim::DeviceSpec& spec);
  RunResult sage_lstm_attempt(const Dataset& data, const SageLstmRun& run, ExecMode mode,
                              const sim::DeviceSpec& spec);
  TrainResult train_gcn_attempt(const Dataset& data, models::GcnParams& params,
                                const models::Matrix& x, const models::Matrix& target, float lr,
                                ExecMode mode, const sim::DeviceSpec& spec,
                                models::GcnGrads* grads_out);

  /// The schedule of one attempt at aggregation width `feat` (-1 = no
  /// aggregation to tune for): tunes or recalls the (graph, feat) knobs
  /// when auto_tune is on, partitions the graph when `shards` > 1, then
  /// resolves lanes, grouping bound and LAS order. Called once per attempt,
  /// after the attempt's pipeline choice.
  detail::Schedule schedule_for(const graph::Csr& csr, tensor::Index feat,
                                const sim::DeviceSpec& spec, int shards = 1) const;

  /// The cached tune for `key`; empty when (graph, width) is not tuned yet.
  std::optional<TunedEntry> cached_tune(const GraphKey& key) const;

  /// The tuned entry for (fp, feat): the cached one, else a fresh tune.
  /// Empty when tuning fails; the ladder then turns auto_tune off.
  std::optional<TunedEntry> tuned_for(const graph::Csr& csr, const graph::GraphFingerprint& fp,
                                      tensor::Index feat, const sim::DeviceSpec& spec) const;

  /// Lanes, bound and LAS order from the configuration, the ladder and
  /// `tuned` (empty = untuned).
  detail::Schedule resolve(const graph::Csr& csr, const graph::GraphFingerprint& fp,
                           const std::optional<TunedEntry>& tuned) const;

  /// The memoized LAS order of the graph (computed on miss).
  const std::vector<NodeId>* las_order(const graph::Csr& csr,
                                       const graph::GraphFingerprint& fp) const;
};

}  // namespace gnnbridge::engine

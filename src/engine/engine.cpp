#include "engine/engine.hpp"

#include <array>
#include <cstdio>
#include <map>
#include <optional>
#include <type_traits>

#include "core/spfetch/step_index.hpp"
#include "engine/engine_internal.hpp"
#include "engine/layers.hpp"
#include "engine/tune_helper.hpp"
#include "par/thread_pool.hpp"
#include "models/gcn_grad.hpp"
#include "kernels/dense.hpp"
#include "kernels/expand.hpp"
#include "kernels/fused.hpp"
#include "kernels/lstm.hpp"
#include "kernels/spmm.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/journal.hpp"
#include "obs/registry.hpp"
#include "obs/request.hpp"
#include "obs/slo.hpp"
#include "prof/metrics_json.hpp"
#include "prof/span.hpp"
#include "rt/fault.hpp"
#include "rt/validate.hpp"

namespace gnnbridge::engine {

namespace k = gnnbridge::kernels;
using baselines::Matrix;

namespace {
using detail::Pipeline;
using detail::Workspace;
using detail::finish;
using detail::with_engine_overhead;

/// Metric-schema name of every OptimizedEngine::Knob, in enum order.
constexpr std::array<std::string_view, 5> kKnobNames = {
    rt::kKnobLas, rt::kKnobAutoTune, rt::kKnobAdapter, rt::kKnobNeighborGrouping,
    rt::kKnobSharding};

/// The knobs named in `names` (unknown names are ignored), as a bit set.
std::uint8_t knob_set(const std::vector<std::string>& names) {
  std::uint8_t set = 0;
  for (const std::string& name : names) {
    for (std::size_t k = 0; k < kKnobNames.size(); ++k) {
      if (name == kKnobNames[k]) set |= static_cast<std::uint8_t>(1u << k);
    }
  }
  return set;
}

/// The knobs of a bit set as metric-schema names, in enum order.
std::vector<std::string> knob_names(std::uint8_t set) {
  std::vector<std::string> names;
  for (std::size_t k = 0; k < kKnobNames.size(); ++k) {
    if (set & (1u << k)) names.emplace_back(kKnobNames[k]);
  }
  return names;
}

/// The batch job running on this thread (serving resilience, DESIGN.md
/// §12). Batch jobs execute whole on one pool worker (nested regions run
/// inline), so a thread-local is job-confined. While active, the
/// degradation ladder disables knobs *here* instead of the engine's sticky
/// set — one job's failures never change how a concurrent healthy job
/// runs, which keeps batch results independent of job interleaving — and
/// degradation events are buffered for a later flush in job-index order.
struct ActiveJob {
  const void* engine = nullptr;
  std::uint8_t disabled = 0;  ///< knobs off for this job, one bit per Knob
  /// The job carries a private fault plan, so it must not take warm-cache
  /// shortcuts: a cache hit skips the work (and its fault seams) entirely,
  /// and warmth depends on which job got there first — thread timing. An
  /// isolated job recomputes LAS orders and tuned configurations itself,
  /// making its fault schedule a function of the job alone (§11/§12).
  bool cache_isolated = false;
  std::vector<rt::DegradationEvent>* events = nullptr;
  bool active = false;
};
thread_local ActiveJob t_active_job;

bool job_active_for(const void* engine) {
  return t_active_job.active && t_active_job.engine == engine;
}

/// RAII install of the per-job ladder, pre-seeded from the breaker's
/// admission decision (an open breaker routes the job straight to the
/// last-known-good degraded knob set) and the knobs the job itself forces
/// off (e.g. the admission controller's overload pre-degradation).
class JobGuard {
 public:
  JobGuard(const void* engine, const rt::BreakerDecision& admission,
           std::vector<rt::DegradationEvent>* events, bool cache_isolated,
           const std::vector<std::string>& job_disable_knobs = {})
      : prev_(t_active_job) {
    t_active_job = ActiveJob{
        .engine = engine,
        .disabled = static_cast<std::uint8_t>(knob_set(admission.disabled_knobs) |
                                              knob_set(job_disable_knobs)),
        .cache_isolated = cache_isolated,
        .events = events,
        .active = true,
    };
  }
  ~JobGuard() { t_active_job = prev_; }
  JobGuard(const JobGuard&) = delete;
  JobGuard& operator=(const JobGuard&) = delete;

  /// Knobs currently off for this job, as metric-schema names — the rung
  /// the breaker records when the job still fails here.
  static std::vector<std::string> disabled_knobs() { return knob_names(t_active_job.disabled); }

 private:
  ActiveJob prev_;
};

/// The run's recovery tally (see detail::RecoveryScope). Thread-local like
/// ActiveJob: a run executes whole on one thread, so both batch jobs and
/// direct runs see exactly their own tally.
thread_local detail::RecoveryTally* t_recovery = nullptr;
}  // namespace

namespace detail {
RecoveryTally* active_recovery() { return t_recovery; }

bool cache_isolated_active(const void* engine) {
  return job_active_for(engine) && t_active_job.cache_isolated;
}

RecoveryScope::RecoveryScope(RecoveryTally* tally) : prev_(t_recovery) { t_recovery = tally; }
RecoveryScope::~RecoveryScope() { t_recovery = prev_; }
}  // namespace detail

// ---- Graceful degradation (DESIGN.md §10) -----------------------------

rt::Status OptimizedEngine::preflight(const Dataset& data,
                                      const models::Matrix* features) const {
  const graph::GraphFingerprint fp = graph::fingerprint(data.csr);
  {
    std::lock_guard<std::mutex> lock(cache_mu_);
    auto it = preflight_cache_.find(fp);
    if (it != preflight_cache_.end() && it->second == features) return rt::OkStatus();
  }
  if (rt::Status s = rt::validate_csr(data.csr); !s.ok()) {
    return std::move(s).with_context("engine preflight");
  }
  if (features) {
    if (rt::Status s = rt::validate_matrix(*features, "features"); !s.ok()) {
      return std::move(s).with_context("engine preflight");
    }
  }
  std::lock_guard<std::mutex> lock(cache_mu_);
  preflight_cache_[fp] = features;
  return rt::OkStatus();
}

bool OptimizedEngine::configured(Knob knob) const {
  switch (knob) {
    case Knob::kLas: return cfg_.use_las;
    case Knob::kAutoTune: return cfg_.auto_tune;
    case Knob::kAdapter: return cfg_.use_adapter;
    case Knob::kNeighborGrouping: return cfg_.use_neighbor_grouping;
    case Knob::kSharding: return resolved_shards() > 1;
  }
  return false;
}

bool OptimizedEngine::degraded(Knob knob) const {
  if (failed_knobs_.load(std::memory_order_relaxed) & bit(knob)) return true;
  return job_active_for(this) && (t_active_job.disabled & bit(knob));
}

bool OptimizedEngine::turn_off(Knob knob, std::string_view seam, std::string_view action,
                               const rt::Status& cause) const {
  // Batch jobs walk a job-local ladder: the knob is disabled in the
  // thread-local ActiveJob (never the engine's sticky set) and the event
  // buffered for a job-order flush. A knob the engine has already degraded
  // globally counts as unavailable here too.
  rt::DegradationEvent event =
      rt::make_degradation(seam, kKnobNames[static_cast<std::size_t>(knob)], action, cause);
  if (job_active_for(this)) {
    if (degraded(knob)) return false;
    t_active_job.disabled |= bit(knob);
    if (t_active_job.events) t_active_job.events->push_back(std::move(event));
    return true;
  }
  if (failed_knobs_.fetch_or(bit(knob)) & bit(knob)) return false;
  prof::MetricsSink::instance().record_degradation(std::move(event));
  return true;
}

bool OptimizedEngine::degrade_for(const rt::StageFailure& failure) const {
  const auto disable = [&](Knob knob, std::string_view action) {
    if (!configured(knob) || !turn_off(knob, failure.seam(), action, failure.status())) {
      return false;
    }
    std::fprintf(stderr, "gnnbridge: stage '%s' failed (%s); degrading: %.*s\n",
                 failure.seam().c_str(), failure.status().to_string().c_str(),
                 static_cast<int>(action.size()), action.data());
    return true;
  };
  const std::string& seam = failure.seam();
  if (seam == rt::kSeamLasCluster) return disable(Knob::kLas, "las->natural_order");
  if (seam == rt::kSeamTunerProbe) return disable(Knob::kAutoTune, "tuned_bound->heuristic_bound");
  if (seam == rt::kSeamFusionPass) return disable(Knob::kAdapter, "fused->unfused_pipeline");
  if (seam == rt::kSeamSimLaunch) {
    // A failing launch has no single culprit; walk toward the most
    // conservative configuration one knob at a time.
    return disable(Knob::kNeighborGrouping, "grouped->one_task_per_node") ||
           disable(Knob::kAdapter, "fused->unfused_pipeline") ||
           disable(Knob::kLas, "las->natural_order");
  }
  if (seam == rt::kSeamShardCompute || seam == rt::kSeamShardExchange) {
    // The final rung of shard recovery (DESIGN.md §17): the per-shard
    // attempt budget is spent, so the whole run falls back to the
    // unsharded single-device pipeline. The run still succeeds — outputs
    // are bit-identical either way — so the breaker never sees a failure.
    const bool stepped = disable(Knob::kSharding, "sharded->unsharded");
    if (stepped) {
      if (detail::RecoveryTally* tally = detail::active_recovery()) {
        ++tally->fallback_unsharded;
        if (tally->journal) {
          tally->journal->push_back(detail::journal_event("shard_fallback", seam, rt::kKnobSharding,
                                                          "sharded->unsharded"));
        }
      }
    }
    return stepped;
  }
  return false;
}

template <typename Fn>
auto OptimizedEngine::run_guarded(const Dataset& data, const models::Matrix* features,
                                  std::string_view what, Fn&& attempt) -> decltype(attempt()) {
  using R = decltype(attempt());
  const auto fail = [&](rt::Status s) {
    R r{};
    s.with_context("OptimizedEngine::" + std::string(what) + "('" + data.name + "')");
    if constexpr (std::is_same_v<R, RunResult>) {
      r.status = std::move(s);
    } else {
      r.run.status = std::move(s);
    }
    return r;
  };
  if (rt::Status s = preflight(data, features); !s.ok()) return fail(std::move(s));
  // Direct (non-batch) runs get a run-local recovery tally here and flush
  // it straight into the metrics sink on exit; batch jobs install theirs
  // in run_batch and fold it in job order instead (t_recovery already set).
  detail::RecoveryTally direct_tally;
  struct DirectRecovery {
    detail::RecoveryTally* tally = nullptr;
    std::optional<detail::RecoveryScope> scope;
    ~DirectRecovery() {
      if (tally && tally->any()) {
        prof::RecoveryStats rs;
        rs.shard_retries = tally->shard_retries;
        rs.shards_reexecuted = tally->shards_reexecuted;
        rs.fallback_unsharded = tally->fallback_unsharded;
        rs.wasted_cycles = tally->wasted_cycles;
        prof::MetricsSink::instance().add_recovery(rs);
      }
    }
  } direct;
  if (!detail::active_recovery()) {
    direct.tally = &direct_tally;
    direct.scope.emplace(&direct_tally);
  }
  // The ladder holds at most five knobs; a few spare rounds absorb fault
  // plans that keep firing while we degrade.
  constexpr int kMaxRounds = 8;
  for (int round = 0; round < kMaxRounds; ++round) {
    // Deadline/cancel checkpoint between ladder rounds: an expired budget
    // ends the job here instead of starting another degraded attempt.
    if (rt::Status s = rt::cancel_checkpoint(); !s.ok()) return fail(std::move(s));
    try {
      return attempt();
    } catch (const rt::StageFailure& failure) {
      const rt::StatusCode code = failure.status().code();
      if (code == rt::StatusCode::kDeadlineExceeded || code == rt::StatusCode::kCancelled) {
        // Terminal: the ladder has no answer to a spent budget.
        return fail(failure.status());
      }
      if (!degrade_for(failure)) return fail(failure.status());
    }
  }
  return fail(rt::Status(rt::StatusCode::kInternal, "degradation retries exhausted"));
}

std::vector<std::string> OptimizedEngine::degraded_knobs() const {
  return knob_names(failed_knobs_.load());
}

// ---- Schedule resolution ----------------------------------------------

detail::Schedule OptimizedEngine::schedule_for(const graph::Csr& csr, tensor::Index feat,
                                               const sim::DeviceSpec& spec, int shards) const {
  const graph::GraphFingerprint fp = graph::fingerprint(csr);
  const std::optional<TunedEntry> tuned =
      feat >= 0 && knob_on(Knob::kAutoTune) ? tuned_for(csr, fp, feat, spec) : std::nullopt;
  // The partition comes between the tune and the LAS order: that is the
  // order the three stages' fault seams fire in.
  std::shared_ptr<const shard::Partition> plan =
      shards > 1 ? shard_plan_for(csr, fp, shards) : nullptr;
  detail::Schedule sched = resolve(csr, fp, tuned);
  sched.plan = std::move(plan);
  return sched;
}

std::optional<OptimizedEngine::TunedEntry> OptimizedEngine::tuned_for(
    const graph::Csr& csr, const graph::GraphFingerprint& fp, tensor::Index feat,
    const sim::DeviceSpec& spec) const {
  const GraphKey key{fp, feat};
  // Cache-isolated jobs re-tune every attempt: the shared cache is a
  // warm-state shortcut whose contents depend on what ran before (see
  // ActiveJob).
  const bool isolated = detail::cache_isolated_active(this);
  if (!isolated) {
    if (std::optional<TunedEntry> hit = cached_tune(key)) return hit;
  }
  // The tune's own LAS pass. A cache-isolated job follows its own ladder,
  // so a LAS failure it has already absorbed does not fire again in the
  // re-tune. Any other tune follows the engine-wide state only, so what a
  // warm-cache read returns never depends on which job tuned first.
  const bool engine_las =
      cfg_.use_las && !(failed_knobs_.load(std::memory_order_relaxed) & bit(Knob::kLas));
  const bool tune_las = isolated ? cfg_.use_las && !degraded(Knob::kLas) : engine_las;
  prof::Span span("auto_tune", "engine");
  span.arg("feat_len", static_cast<double>(feat));
  // Probe launches run outside the job's cancel scope: tuning is engine-
  // internal cache-amortized work, and which job reaches the cold cache
  // first depends on thread timing — charging it to that job's deadline or
  // checkpoint count would break the §11 byte-identical-metrics contract.
  core::TuneResult tuned;
  {
    rt::AdoptScope neutral{rt::ScopeHandle{}};
    tuned = tune_for(csr, feat, spec, tune_las);
  }
  if (!tuned.error.ok()) {
    // A poisoned probe measurement must not pick the configuration: fall
    // back to the heuristic bound and static lanes — job-locally inside a
    // batch job (the engine stays trusted for other jobs), for good
    // otherwise.
    turn_off(Knob::kAutoTune, rt::kSeamTunerProbe, "tuned_bound->heuristic_bound", tuned.error);
    std::fprintf(stderr, "gnnbridge: auto-tune aborted (%s); using heuristic configuration\n",
                 tuned.error.to_string().c_str());
    return std::nullopt;
  }
  const TunedEntry entry{tuned.best.lanes, tuned.best.group_bound, tuned.best.use_las};
  // A tune that skipped LAS for this job's ladder alone differs from the
  // engine-wide tune; caching it would make the cache depend on job order.
  if (tune_las != engine_las) return entry;
  std::lock_guard<std::mutex> lock(cache_mu_);
  return tuned_cache_.try_emplace(key, entry).first->second;
}

std::optional<OptimizedEngine::TunedEntry> OptimizedEngine::cached_tune(
    const GraphKey& key) const {
  std::lock_guard<std::mutex> lock(cache_mu_);
  auto it = tuned_cache_.find(key);
  if (it == tuned_cache_.end()) return std::nullopt;
  return it->second;
}

detail::Schedule OptimizedEngine::resolve(const graph::Csr& csr,
                                          const graph::GraphFingerprint& fp,
                                          const std::optional<TunedEntry>& tuned) const {
  detail::Schedule sched;
  sched.lanes = tuned ? tuned->lanes : cfg_.lanes;
  // A degraded grouping knob beats a tune; a tune beats the static
  // configuration (use_neighbor_grouping = false included).
  if (tuned && !degraded(Knob::kNeighborGrouping)) {
    sched.bound = tuned->bound;
  } else if (knob_on(Knob::kNeighborGrouping)) {
    const double avg = csr.num_nodes > 0 ? static_cast<double>(csr.num_edges()) /
                                               static_cast<double>(csr.num_nodes)
                                         : 0.0;
    sched.bound = cfg_.group_bound > 0
                      ? cfg_.group_bound
                      : std::max<EdgeId>(16, (static_cast<EdgeId>(avg) + 15) / 16 * 16);
  }
  // use_las = false (or a degraded LAS) beats a tune; a tune can turn LAS off.
  if (knob_on(Knob::kLas) && !(tuned && !tuned->use_las)) sched.las = las_order(csr, fp);
  return sched;
}

const std::vector<NodeId>* OptimizedEngine::las_order(const graph::Csr& csr,
                                                      const graph::GraphFingerprint& fp) const {
  if (cfg_.las_order) return cfg_.las_order;
  // Cache-isolated jobs skip the warm-hit shortcut (but still insert: the
  // computed order is a pure function of the graph, so the entry is
  // value-identical however it got there).
  if (!detail::cache_isolated_active(this)) {
    std::lock_guard<std::mutex> lock(cache_mu_);
    auto it = las_cache_.find(fp);
    if (it != las_cache_.end()) return it->second.get();
  }
  // Compute outside the lock (clustering is the expensive part); two
  // concurrent jobs missing on the same graph compute identical orders and
  // the first insert wins. Entries are never erased, so the returned raw
  // pointer stays valid for the engine's lifetime.
  prof::Span span("las_schedule", "engine");
  auto order = std::make_shared<const std::vector<NodeId>>(core::locality_aware_schedule(csr).order);
  span.arg("nodes", static_cast<double>(csr.num_nodes));
  std::lock_guard<std::mutex> lock(cache_mu_);
  auto [it, inserted] = las_cache_.try_emplace(fp, std::move(order));
  return it->second.get();
}

std::size_t OptimizedEngine::las_cache_size() const {
  std::lock_guard<std::mutex> lock(cache_mu_);
  return las_cache_.size();
}

std::size_t OptimizedEngine::tuned_cache_size() const {
  std::lock_guard<std::mutex> lock(cache_mu_);
  return tuned_cache_.size();
}

namespace {
/// Model tag for the breaker key; nullptr when the job names no model.
const char* batch_model_name(const OptimizedEngine::BatchJob& job) {
  if (job.gcn) return "gcn";
  if (job.gat) return "gat";
  if (job.sage_lstm) return "sage_lstm";
  if (job.sage_pool) return "sage_pool";
  if (job.multihead_gat) return "multihead_gat";
  return nullptr;
}

/// Per-job resilience bookkeeping, filled inside the parallel wave and
/// folded sequentially in job order afterwards.
struct JobTally {
  std::uint64_t attempts = 0;
  std::uint64_t retries = 0;
  bool ran = false;        ///< the job was valid enough to attempt
  bool success = false;
  bool timed_out = false;
  bool cancelled = false;
  double backoff_cycles = 0.0;
  double attempt_cycles = 0.0;  ///< sim-cycles across every attempt (retries included)
  std::uint64_t cancel_points = 0;
  std::vector<rt::DegradationEvent> events;   ///< buffered, job-local
  std::vector<std::string> rung;              ///< knobs off when it ended
  std::vector<obs::JournalEvent> journal;     ///< buffered attempt/backoff events
  engine::detail::RecoveryTally recovery;     ///< shard-recovery counters (§17)
};
}  // namespace

std::vector<RunResult> OptimizedEngine::run_batch(std::span<const BatchJob> jobs) {
  std::vector<RunResult> results(jobs.size());
  if (jobs.empty()) return results;

  // --- Sequential admission pre-pass: breaker decisions in job order, so
  // which job trips/probes/opens the breaker is independent of how the
  // wave below is scheduled across threads.
  std::vector<std::string> keys(jobs.size());
  std::vector<rt::BreakerDecision> admissions(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const char* model = jobs[i].data ? batch_model_name(jobs[i]) : nullptr;
    if (!model) continue;
    const graph::GraphFingerprint fp = graph::fingerprint(jobs[i].data->csr);
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(fp.checksum));
    keys[i] = std::string(model) + "/" + buf;
    admissions[i] = breaker_.admit(keys[i]);
  }

  // Request IDs (DESIGN.md §13): caller-supplied or synthesized from this
  // engine's batch counter — fixed before the wave so spans and journal
  // events carry the same ID at any thread count.
  const std::uint64_t batch_seq = batch_seq_.fetch_add(1, std::memory_order_relaxed);
  std::vector<std::string> req_ids(jobs.size());
  std::map<std::string, std::size_t> id_uses;  // duplicate caller IDs, in job order
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    req_ids[i] = jobs[i].request_id.empty()
                     ? "req-" + std::to_string(batch_seq) + "-" + std::to_string(i)
                     : jobs[i].request_id;
    // Duplicate caller-supplied IDs within the batch would merge unrelated
    // jobs' spans/journal events under one name; disambiguate occurrences
    // after the first with a "#<n>" suffix (the first keeps the bare ID).
    const std::size_t uses = ++id_uses[req_ids[i]];
    if (uses > 1) req_ids[i] += "#" + std::to_string(uses);
  }
  // Journal gating is sampled once per batch: events are buffered per job
  // in the wave and appended (seq assignment) in the sequential fold. An
  // armed flight recorder keeps event creation on even when the journal
  // itself is disabled (the ring is fed through EventJournal::append).
  const bool journal_on = obs::EventJournal::instance().enabled() ||
                          obs::FlightRecorder::instance().armed();

  // --- Parallel wave. Jobs are independent (model, dataset) configs; each
  // runs its whole pipeline inline on one pool worker (nested parallel
  // regions detect the worker and stay serial) under its own deadline
  // scope, fault plan, and job-local degradation ladder. Shared
  // memoization is fingerprint-keyed and mutex-guarded, so results land in
  // job order and match a sequential loop exactly; a failing, retrying, or
  // expiring job never blocks a healthy one.
  std::vector<JobTally> tallies(jobs.size());
  const auto run_job = [&](std::size_t i) {
    const BatchJob& job = jobs[i];
    RunResult& out = results[i];
    JobTally& tally = tallies[i];
    // Thread-local request ID: every prof::Span opened below (and any
    // nested instrumentation) stamps this ID into its record.
    obs::RequestScope req_scope(req_ids[i]);
    if (!job.data) {
      out.status = rt::Status(rt::StatusCode::kInvalidArgument, "batch job has no dataset");
      out.attempts = 0;
      return;
    }
    if (!batch_model_name(job)) {
      out.status = rt::Status(rt::StatusCode::kInvalidArgument, "batch job has no run request");
      out.attempts = 0;
      return;
    }
    tally.ran = true;
    rt::CancelScope scope(job.deadline, job.cancel);
    // Per-job fault plan: thread-confined shot counters, so concurrent
    // jobs see deterministic fault schedules (the process-wide plan is
    // suppressed for the job's duration either way).
    rt::FaultInjector::ScopedJobPlan plan(job.fault_plan);
    JobGuard guard(this, admissions[i], &tally.events, !job.fault_plan.empty(),
                   job.disable_knobs);
    if (!plan.status().ok()) {
      out.status = rt::Status(plan.status().code(), plan.status().message())
                       .with_context("batch job fault plan");
      out.attempts = 0;
      tally.cancel_points = scope.checkpoints();
      return;
    }
    // Shard-recovery tally for this job (DESIGN.md §17): the sharded
    // pipelines and the degradation ladder report into it, with journal
    // events buffered alongside the attempt events so the sequential fold
    // interleaves them in emission order. The fire listener additionally
    // records every armed-seam shot as a "fault_injected" event — the
    // per-job plan is thread-confined, so every fire lands on this worker.
    tally.recovery.journal = journal_on ? &tally.journal : nullptr;
    detail::RecoveryScope recovery_scope(&tally.recovery);
    const rt::FaultFireListener on_fire = +[](void* ctx, std::string_view seam, int shot) {
      static_cast<std::vector<obs::JournalEvent>*>(ctx)->push_back(detail::journal_event(
          "fault_injected", seam, rt::status_code_name(rt::StatusCode::kFaultInjected), "",
          static_cast<std::uint64_t>(shot) + 1));
    };
    rt::ScopedFireListener fire_listener(journal_on ? on_fire : nullptr,
                                         journal_on ? &tally.journal : nullptr);
    const int max_attempts = std::max(1, job.max_attempts);
    for (int attempt = 1;; ++attempt) {
      ++tally.attempts;
      if (job.gcn) {
        out = run_gcn(*job.data, *job.gcn, job.mode, job.spec);
      } else if (job.gat) {
        out = run_gat(*job.data, *job.gat, job.mode, job.spec);
      } else if (job.sage_lstm) {
        out = run_sage_lstm(*job.data, *job.sage_lstm, job.mode, job.spec);
      } else if (job.sage_pool) {
        out = run_sage_pool(*job.data, *job.sage_pool, job.mode, job.spec);
      } else {
        out = run_multihead_gat(*job.data, *job.multihead_gat, job.mode, job.spec);
      }
      tally.attempt_cycles += out.stats.total_cycles;
      if (journal_on) {
        tally.journal.push_back(detail::journal_event(
            "attempt", keys[i], rt::status_code_name(out.status.code()),
            out.status.ok() ? "" : out.status.message(), tally.attempts, out.stats.total_cycles));
      }
      if (out.status.ok()) {
        tally.success = true;
        break;
      }
      const rt::StatusCode code = out.status.code();
      if (code == rt::StatusCode::kDeadlineExceeded) {
        tally.timed_out = true;
        break;
      }
      if (code == rt::StatusCode::kCancelled) {
        tally.cancelled = true;
        break;
      }
      if (!rt::retryable(out.status) || attempt >= max_attempts) break;
      // Deterministic backoff before the retry, charged in sim-time
      // against the job's own deadline (never a wall-clock sleep).
      const double backoff = rt::backoff_cycles(cfg_.retry, attempt);
      tally.backoff_cycles += backoff;
      if (journal_on) {
        tally.journal.push_back(
            detail::journal_event("backoff", keys[i], "", "", tally.attempts, backoff));
      }
      rt::charge_sim_cycles(backoff);
      if (rt::Status s = rt::cancel_checkpoint(); !s.ok()) {
        const bool deadline = s.code() == rt::StatusCode::kDeadlineExceeded;
        out.status = std::move(s).with_context("run_batch retry backoff");
        (deadline ? tally.timed_out : tally.cancelled) = true;
        break;
      }
      ++tally.retries;
    }
    out.attempts = static_cast<int>(tally.attempts);
    out.timed_out = tally.timed_out;
    tally.rung = JobGuard::disabled_knobs();
    tally.cancel_points = scope.checkpoints();
  };
  par::parallel_chunks(jobs.size(), /*grain=*/1,
                       [&](std::size_t /*chunk*/, std::size_t begin, std::size_t end) {
                         for (std::size_t i = begin; i < end; ++i) run_job(i);
                       });

  // --- Sequential fold in job order: degradation events flush to the sink
  // in a deterministic sequence, breaker outcomes apply in job order, the
  // batch's robustness counters accumulate once, and the telemetry story —
  // journal seq numbers and registry observations — lands in job order, so
  // every export is byte-identical at any host thread count.
  prof::RobustnessStats rs;
  prof::RecoveryStats recov;
  prof::MetricsSink& sink = prof::MetricsSink::instance();
  obs::EventJournal& journal = obs::EventJournal::instance();
  obs::TelemetryRegistry& reg = obs::TelemetryRegistry::instance();
  std::uint64_t jobs_ok = 0;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    JobTally& tally = tallies[i];
    // Stamps the job's request ID on a journal event and appends it.
    const auto append = [&](obs::JournalEvent ev) {
      ev.request_id = req_ids[i];
      journal.append(std::move(ev));
    };
    if (journal_on && tally.ran && !keys[i].empty()) {
      append(detail::journal_event("admission", keys[i],
                                   rt::breaker_state_name(admissions[i].state),
                                   admissions[i].probe ? "half_open_probe" : ""));
    }
    if (journal_on) {
      for (obs::JournalEvent& ev : tally.journal) append(std::move(ev));
    }
    for (rt::DegradationEvent& ev : tally.events) {
      if (journal_on) append(detail::journal_event("degradation", ev.seam, ev.knob, ev.action));
      sink.record_degradation(std::move(ev));
    }
    ++rs.jobs;
    rs.attempts += tally.attempts;
    rs.retries += tally.retries;
    if (tally.timed_out) ++rs.deadline_hits;
    if (tally.cancelled) ++rs.cancellations;
    rs.cancel_points += tally.cancel_points;
    rs.backoff_cycles += tally.backoff_cycles;
    recov.shard_retries += tally.recovery.shard_retries;
    recov.shards_reexecuted += tally.recovery.shards_reexecuted;
    recov.fallback_unsharded += tally.recovery.fallback_unsharded;
    recov.wasted_cycles += tally.recovery.wasted_cycles;
    // Per-tenant recovery counters (DESIGN.md §17): only materialized when
    // the job actually recovered, so fault-free telemetry is unchanged.
    if (!jobs[i].tenant.empty() && tally.recovery.any()) {
      if (tally.recovery.shard_retries > 0) {
        reg.counter_add("serve.tenant." + jobs[i].tenant + ".shard_retries",
                        tally.recovery.shard_retries);
      }
      if (tally.recovery.fallback_unsharded > 0) {
        reg.counter_add("serve.tenant." + jobs[i].tenant + ".shard_fallbacks",
                        tally.recovery.fallback_unsharded);
      }
    }
    const char* outcome_word = !tally.ran       ? "rejected"
                               : tally.success  ? "ok"
                               : tally.timed_out ? "timed_out"
                               : tally.cancelled ? "cancelled"
                                                 : "failed";
    const std::string_view status_word = rt::status_code_name(results[i].status.code());
    if (journal_on) {
      append(detail::journal_event("outcome", keys[i], status_word, outcome_word, tally.attempts,
                                   results[i].stats.total_cycles));
    }
    // End-to-end critical path (DESIGN.md §15): admission-queue and quota
    // waits stamped by serve(), every attempt's compute (retries included),
    // and the backoff charged between attempts. The triage analyzer
    // re-derives the same total from the individual events and checks they
    // agree — keep this the sum of the emitted parts.
    const double e2e_cycles = jobs[i].admission_wait_cycles + jobs[i].quota_wait_cycles +
                              tally.attempt_cycles + tally.backoff_cycles;
    if (journal_on) {
      append(detail::journal_event("e2e", keys[i], status_word, outcome_word, tally.attempts,
                                   e2e_cycles));
    }
    obs::SloTracker& slo = obs::SloTracker::instance();
    if (slo.enabled()) {
      const obs::SloOutcome so =
          slo.record(jobs[i].tenant, jobs[i].arrival_cycles, e2e_cycles, tally.success);
      if (journal_on && (so.latency_violation || so.failure_violation)) {
        append(detail::journal_event(
            "slo_violation", jobs[i].tenant, so.latency_violation ? "latency" : "failure",
            so.latency_violation ? "end-to-end over latency objective" : outcome_word,
            tally.attempts, e2e_cycles));
      }
      if (journal_on && so.budget_exhausted_now) {
        append(detail::journal_event(
            "slo_violation", jobs[i].tenant, "budget_exhausted",
            "window " + std::to_string(so.window_index) + " error budget exhausted",
            /*attempt=*/0, e2e_cycles));
      }
    }
    if (tally.ran) reg.observe("serve.job_attempts", static_cast<double>(tally.attempts));
    if (tally.success) {
      ++jobs_ok;
      reg.observe("serve.job_cycles", results[i].stats.total_cycles);
    }
    if (!tally.ran || keys[i].empty()) continue;
    results[i].breaker_state = std::string(rt::breaker_state_name(admissions[i].state));
    if (admissions[i].state != rt::BreakerState::kClosed) ++rs.breaker_open_admissions;
    if (admissions[i].probe) ++rs.breaker_half_open_probes;
    const rt::CircuitBreaker::OutcomeEffect effect =
        breaker_.record(keys[i], admissions[i], tally.success, std::move(tally.rung));
    if (effect.tripped) ++rs.breaker_trips;
    if (effect.recovered) ++rs.breaker_recoveries;
    if (journal_on && (effect.tripped || effect.recovered)) {
      append(detail::journal_event("breaker", keys[i], effect.tripped ? "open" : "closed",
                                   effect.tripped ? "tripped" : "recovered"));
    }
  }
  sink.add_robustness(rs);
  // Recovery counters fold in even when all-zero (the v9 block is always
  // present), but the named telemetry counters only appear once a shard
  // actually recovered — fault-free documents stay byte-identical.
  sink.add_recovery(recov);
  if (recov.shard_retries > 0) reg.counter_add("serve.shard_retries", recov.shard_retries);
  if (recov.shards_reexecuted > 0) {
    reg.counter_add("serve.shards_reexecuted", recov.shards_reexecuted);
  }
  if (recov.fallback_unsharded > 0) {
    reg.counter_add("serve.shard_fallbacks", recov.fallback_unsharded);
  }
  reg.counter_add("serve.jobs", rs.jobs);
  reg.counter_add("serve.jobs_ok", jobs_ok);
  reg.counter_add("serve.jobs_deadline", rs.deadline_hits);
  reg.counter_add("serve.jobs_cancelled", rs.cancellations);
  reg.counter_add("serve.jobs_failed", rs.jobs - jobs_ok - rs.deadline_hits - rs.cancellations);
  reg.counter_add("serve.attempts", rs.attempts);
  reg.counter_add("serve.retries", rs.retries);
  reg.observe("serve.batch_jobs", static_cast<double>(jobs.size()));
  reg.gauge_set("serve.queue_depth", static_cast<double>(jobs.size()));
  return results;
}

namespace {
/// The neighbor-grouped task list of `sched` over `csr`.
core::GroupedTasks group_tasks(const graph::Csr& csr, const detail::Schedule& sched) {
  prof::Span span("neighbor_grouping", "engine");
  core::GroupedTasks grouped = core::neighbor_group_tasks(
      csr, sched.bound,
      sched.las ? std::span<const NodeId>(*sched.las) : std::span<const NodeId>());
  span.arg("tasks", static_cast<double>(grouped.tasks.size()));
  return grouped;
}
}  // namespace

core::GroupedTasks OptimizedEngine::build_tasks(const graph::Csr& csr, tensor::Index feat) const {
  const graph::GraphFingerprint fp = graph::fingerprint(csr);
  const std::optional<TunedEntry> tuned =
      feat >= 0 && knob_on(Knob::kAutoTune) ? cached_tune({fp, feat}) : std::nullopt;
  return group_tasks(csr, resolve(csr, fp, tuned));
}

RunResult OptimizedEngine::run_gcn(const Dataset& data, const GcnRun& run, ExecMode mode,
                                   const sim::DeviceSpec& spec) {
  return run_guarded(data, run.features, "run_gcn",
                     [&] { return gcn_attempt(data, run, mode, spec); });
}

RunResult OptimizedEngine::gcn_attempt(const Dataset& data, const GcnRun& run, ExecMode mode,
                                       const sim::DeviceSpec& spec) {
  const int shards = knob_on(Knob::kSharding) ? resolved_shards() : 1;
  prof::Span span(shards > 1 ? "OptimizedEngine::run_gcn_sharded" : "OptimizedEngine::run_gcn",
                  "engine");
  if (shards > 1) span.arg("shards", static_cast<double>(shards));
  const Pipeline pipe =
      detail::choose_pipeline(knob_on(Knob::kAdapter), cfg_.use_linear, "run_gcn fusion gate");
  const tensor::Index feat = run.cfg->dims.size() > 1 ? run.cfg->dims[1] : -1;
  const detail::Schedule sched = schedule_for(data.csr, feat, spec, shards);
  if (sched.plan) return gcn_attempt_sharded(data, run, mode, spec, pipe, sched);
  sim::SimContext ctx(with_engine_overhead(spec));
  Workspace ws(mode);
  const auto gdev = k::device_graph(ctx, data.csr, "csr");
  const core::GroupedTasks grouped = group_tasks(data.csr, sched);
  const auto norm = ws.edge_norm(ctx, data.csr);
  const detail::GraphView view{&gdev, &grouped, sched.lanes};

  k::FeatureMat h = ws.from(ctx, *run.features, "x");
  for (std::size_t l = 0; l < run.params->weight.size(); ++l) {
    detail::GcnLayer layer =
        detail::gcn_allocate(ctx, ws, run.params->weight[l], run.params->bias[l], h.rows);
    detail::transform(ctx, h, layer.w, layer.t, h.rows);
    detail::gcn_aggregate(ctx, view, norm, layer, pipe, l + 1 == run.params->weight.size());
    h = layer.agg;
  }
  return finish(ctx, spec, h);
}

OptimizedEngine::TrainResult OptimizedEngine::train_gcn_step(
    const Dataset& data, const models::GcnConfig& cfg, models::GcnParams& params,
    const models::Matrix& x, const models::Matrix& target, float lr, ExecMode mode,
    const sim::DeviceSpec& spec, models::GcnGrads* grads_out) {
  (void)cfg;
  return run_guarded(data, &x, "train_gcn_step", [&] {
    return train_gcn_attempt(data, params, x, target, lr, mode, spec, grads_out);
  });
}

OptimizedEngine::TrainResult OptimizedEngine::train_gcn_attempt(
    const Dataset& data, models::GcnParams& params, const models::Matrix& x,
    const models::Matrix& target, float lr, ExecMode mode, const sim::DeviceSpec& spec,
    models::GcnGrads* grads_out) {
  prof::Span span("OptimizedEngine::train_gcn_step", "engine");
  // Training tunes at the first layer's output width, mirroring the
  // forward entry point.
  const tensor::Index feat = params.weight.empty() ? -1 : params.weight[0].cols();
  const detail::Schedule sched = schedule_for(data.csr, feat, spec);
  sim::SimContext ctx(with_engine_overhead(spec));
  Workspace ws(mode);
  const auto gdev = k::device_graph(ctx, data.csr, "csr");
  const core::GroupedTasks grouped = group_tasks(data.csr, sched);
  const auto norm = ws.edge_norm(ctx, data.csr);
  const std::size_t layers = params.weight.size();

  // ---- Forward on the fused GCN steps, caching every layer for backward.
  const detail::GraphView view{&gdev, &grouped, sched.lanes};
  std::vector<k::FeatureMat> hs{ws.from(ctx, x, "x")};  // hs[l] = h_l
  std::vector<detail::GcnLayer> fwd;
  for (std::size_t l = 0; l < layers; ++l) {
    detail::GcnLayer layer =
        detail::gcn_allocate(ctx, ws, params.weight[l], params.bias[l], hs.back().rows);
    detail::transform(ctx, hs.back(), layer.w, layer.t, hs.back().rows);
    detail::gcn_aggregate(ctx, view, norm, layer, Pipeline::kLinear, l + 1 == layers);
    hs.push_back(layer.agg);
    fwd.push_back(layer);
  }

  TrainResult result;
  // ---- Loss gradient (host; the loss itself is a scalar reduction whose
  // simulated cost is negligible next to the layers).
  auto d_h = ws.mat(ctx, hs.back().rows, hs.back().cols, "d_out");
  const bool full = d_h.host != nullptr;
  if (full) {
    result.loss = models::mse_loss(*hs.back().host, target);
    *d_h.host = models::mse_loss_grad(*hs.back().host, target);
  }

  // ---- Backward.
  models::GcnGrads grads;
  grads.weight.resize(layers);
  grads.bias.resize(layers);
  for (std::size_t li = layers; li-- > 0;) {
    const bool last = li + 1 == layers;
    // Mask through the activation: ReLU passes gradient where out > 0.
    if (!last) {
      k::dense_binary(ctx, {.a = &d_h,
                            .b = &hs[li + 1],
                            .out = &d_h,
                            .fn = [](float g, float o) { return o > 0.0f ? g : 0.0f; },
                            .flops_per_elem = 1.0,
                            .name = "relu_backward",
                            .phase = "backward"});
    }
    // Bias gradient.
    auto d_b = ws.mat(ctx, fwd[li].b.rows, 1, "d_b");
    k::col_sum(ctx, {.in = &d_h, .out = &d_b});
    // d_t = A d_pre — the same aggregation kernel, same task schedule.
    auto d_t = ws.mat(ctx, d_h.rows, d_h.cols, "d_t");
    k::SpmmArgs spmm{.graph = &gdev,
                     .tasks = grouped.tasks,
                     .src = &d_h,
                     .edge_weight = &norm,
                     .out = &d_t,
                     .lanes = view.lanes,
                     .atomic_merge = grouped.any_split,
                     .name = "aggregate_backward",
                     .phase = "backward"};
    k::spmm_node(ctx, spmm);
    // d_W = h^T d_t.
    auto h_t = ws.mat(ctx, hs[li].cols, hs[li].rows, "hT");
    k::dense_transpose(ctx, {.in = &hs[li], .out = &h_t, .phase = "backward"});
    auto d_w = ws.mat(ctx, h_t.rows, d_t.cols, "d_w");
    k::dense_gemm(ctx, {.a = &h_t, .b = &d_t, .c = &d_w, .name = "gemm_dw",
                        .phase = "backward"});
    // d_h_{l} = d_t W^T.
    auto w_t = ws.mat(ctx, fwd[li].w.cols, fwd[li].w.rows, "wT");
    k::dense_transpose(ctx, {.in = &fwd[li].w, .out = &w_t, .phase = "backward"});
    auto d_h_prev = ws.mat(ctx, d_t.rows, w_t.cols, "d_h");
    k::dense_gemm(ctx,
                  {.a = &d_t, .b = &w_t, .c = &d_h_prev, .name = "gemm_dh", .phase = "backward"});

    // SGD update, fused elementwise kernels.
    k::dense_binary(ctx, {.a = &fwd[li].w,
                          .b = &d_w,
                          .out = &fwd[li].w,
                          .fn = [lr](float w, float g) { return w - lr * g; },
                          .flops_per_elem = 2.0,
                          .name = "sgd_w",
                          .phase = "backward"});
    k::dense_binary(ctx, {.a = &fwd[li].b,
                          .b = &d_b,
                          .out = &fwd[li].b,
                          .fn = [lr](float b, float g) { return b - lr * g; },
                          .flops_per_elem = 2.0,
                          .name = "sgd_b",
                          .phase = "backward"});
    if (full) {
      grads.weight[li] = *d_w.host;
      grads.bias[li] = *d_b.host;
    }
    d_h = d_h_prev;
  }
  if (full) {
    grads.input = *d_h.host;
    // Publish the updated parameters back to the caller.
    for (std::size_t l = 0; l < layers; ++l) {
      params.weight[l] = *fwd[l].w.host;
      params.bias[l] = *fwd[l].b.host;
    }
    if (grads_out) *grads_out = std::move(grads);
    result.run.output = *hs.back().host;
  }
  result.run.stats = ctx.stats();
  result.run.ms = spec.millis(result.run.stats.total_cycles);
  return result;
}

RunResult OptimizedEngine::run_gat(const Dataset& data, const GatRun& run, ExecMode mode,
                                   const sim::DeviceSpec& spec) {
  return run_guarded(data, run.features, "run_gat",
                     [&] { return gat_attempt(data, run, mode, spec); });
}

RunResult OptimizedEngine::gat_attempt(const Dataset& data, const GatRun& run, ExecMode mode,
                                       const sim::DeviceSpec& spec) {
  const int shards = knob_on(Knob::kSharding) ? resolved_shards() : 1;
  prof::Span span(shards > 1 ? "OptimizedEngine::run_gat_sharded" : "OptimizedEngine::run_gat",
                  "engine");
  if (shards > 1) span.arg("shards", static_cast<double>(shards));
  const Pipeline pipe =
      detail::choose_pipeline(knob_on(Knob::kAdapter), cfg_.use_linear, "run_gat fusion gate");
  const tensor::Index feat = run.cfg->dims.size() > 1 ? run.cfg->dims[1] : -1;
  const detail::Schedule sched = schedule_for(data.csr, feat, spec, shards);
  if (sched.plan) return gat_attempt_sharded(data, run, mode, spec, pipe, sched);
  sim::SimContext ctx(with_engine_overhead(spec));
  Workspace ws(mode);
  const auto gdev = k::device_graph(ctx, data.csr, "csr");
  const core::GroupedTasks grouped = group_tasks(data.csr, sched);
  const detail::GraphView view{&gdev, &grouped, sched.lanes};
  const auto num_edges = static_cast<tensor::Index>(data.csr.num_edges());

  k::FeatureMat h = ws.from(ctx, *run.features, "x");
  for (std::size_t l = 0; l < run.params->weight.size(); ++l) {
    detail::GatLayer layer =
        detail::gat_allocate(ctx, ws, run.params->weight[l], run.params->att_l[l],
                             run.params->att_r[l], h.rows, num_edges, pipe);
    detail::transform(ctx, h, layer.w, layer.t, h.rows);
    detail::gat_aggregate(ctx, view, layer, pipe, run.cfg->leaky_alpha,
                          l + 1 == run.params->weight.size());
    h = layer.agg;
  }
  return finish(ctx, spec, h);
}

RunResult OptimizedEngine::run_multihead_gat(const Dataset& data,
                                             const baselines::MultiHeadGatRun& run,
                                             ExecMode mode, const sim::DeviceSpec& spec) {
  return run_guarded(data, run.features, "run_multihead_gat",
                     [&] { return multihead_gat_attempt(data, run, mode, spec); });
}

RunResult OptimizedEngine::multihead_gat_attempt(const Dataset& data,
                                                 const baselines::MultiHeadGatRun& run,
                                                 ExecMode mode, const sim::DeviceSpec& spec) {
  prof::Span span("OptimizedEngine::run_multihead_gat", "engine");
  // Each head is a last GAT layer on the linear pipeline; head outputs
  // write directly into their column slice of the concatenated destination
  // on a real GPU (strided epilogue stores) — per-head buffers here carry
  // the identical traffic.
  const detail::Schedule sched = schedule_for(data.csr, run.cfg->head_dim, spec);
  sim::SimContext ctx(with_engine_overhead(spec));
  Workspace ws(mode);
  const auto gdev = k::device_graph(ctx, data.csr, "csr");
  const core::GroupedTasks grouped = group_tasks(data.csr, sched);
  const detail::GraphView view{&gdev, &grouped, sched.lanes};
  const auto num_edges = static_cast<tensor::Index>(data.csr.num_edges());

  auto x = ws.from(ctx, *run.features, "x");
  Matrix concat;
  if (x.host) concat = Matrix(data.csr.num_nodes, run.cfg->out_feat());
  for (int head = 0; head < run.cfg->heads; ++head) {
    const auto h = static_cast<std::size_t>(head);
    detail::GatLayer layer =
        detail::gat_allocate(ctx, ws, run.params->weight[h], run.params->att_l[h],
                             run.params->att_r[h], x.rows, num_edges, Pipeline::kLinear);
    detail::transform(ctx, x, layer.w, layer.t, x.rows);
    detail::gat_aggregate(ctx, view, layer, Pipeline::kLinear, run.cfg->leaky_alpha,
                          /*last=*/true);
    if (layer.agg.host) {
      const models::Index off = static_cast<models::Index>(head) * run.cfg->head_dim;
      for (graph::NodeId v = 0; v < data.csr.num_nodes; ++v) {
        auto src = layer.agg.host->row(v);
        auto dst = concat.row(v);
        for (models::Index f = 0; f < run.cfg->head_dim; ++f) dst[off + f] = src[f];
      }
    }
  }
  return finish(ctx, spec, std::move(concat));
}

RunResult OptimizedEngine::run_sage_pool(const Dataset& data, const baselines::SagePoolRun& run,
                                         ExecMode mode, const sim::DeviceSpec& spec) {
  return run_guarded(data, run.features, "run_sage_pool",
                     [&] { return sage_pool_attempt(data, run, mode, spec); });
}

RunResult OptimizedEngine::sage_pool_attempt(const Dataset& data,
                                             const baselines::SagePoolRun& run, ExecMode mode,
                                             const sim::DeviceSpec& spec) {
  prof::Span span("OptimizedEngine::run_sage_pool", "engine");
  const detail::Schedule sched = schedule_for(data.csr, run.cfg->pool_dim, spec);
  sim::SimContext ctx(with_engine_overhead(spec));
  Workspace ws(mode);
  const auto gdev = k::device_graph(ctx, data.csr, "csr");
  const core::GroupedTasks grouped = group_tasks(data.csr, sched);

  auto x = ws.from(ctx, *run.features, "x");
  auto w_pool = ws.from(ctx, run.params->w_pool, "w_pool");
  auto b_pool = ws.from(ctx, run.params->b_pool, "b_pool");
  auto w_out = ws.from(ctx, run.params->w_out, "w_out");

  auto t = ws.mat(ctx, x.rows, w_pool.cols, "transformed");
  k::dense_gemm(ctx, {.a = &x, .b = &w_pool, .c = &t});
  k::bias_act_kernel(ctx, {.bias = &b_pool, .mat = &t, .relu = true});

  // Max is order-insensitive: neighbor grouping's split tasks merge
  // through atomic max exactly as sums do (paper §4.1.2).
  auto pooled = ws.mat(ctx, x.rows, w_pool.cols, "pooled");
  k::SpmmArgs spmm{.graph = &gdev,
                   .tasks = grouped.tasks,
                   .src = &t,
                   .out = &pooled,
                   .reduce = k::Reduce::kMax,
                   .lanes = sched.lanes,
                   .atomic_merge = grouped.any_split,
                   .name = "max_aggregate"};
  k::spmm_node(ctx, spmm);

  auto out = ws.mat(ctx, x.rows, w_out.cols, "out");
  k::dense_gemm(ctx, {.a = &pooled, .b = &w_out, .c = &out});
  return finish(ctx, spec, out);
}

RunResult OptimizedEngine::run_sage_lstm(const Dataset& data, const SageLstmRun& run,
                                         ExecMode mode, const sim::DeviceSpec& spec) {
  return run_guarded(data, run.features, "run_sage_lstm",
                     [&] { return sage_lstm_attempt(data, run, mode, spec); });
}

RunResult OptimizedEngine::sage_lstm_attempt(const Dataset& data, const SageLstmRun& run,
                                             ExecMode mode, const sim::DeviceSpec& spec) {
  prof::Span span("OptimizedEngine::run_sage_lstm", "engine");
  sim::SimContext ctx(with_engine_overhead(spec));
  Workspace ws(mode);
  const auto gdev = k::device_graph(ctx, data.csr, "csr");
  const models::Index n = data.csr.num_nodes;
  const models::Index hidden = run.cfg->hidden;

  auto x = ws.from(ctx, *run.features, "x");
  auto w = ws.from(ctx, run.params->w, "w");
  auto rmat = ws.from(ctx, run.params->r, "r");
  auto bias = ws.from(ctx, run.params->bias, "bias");
  auto hstate = ws.mat(ctx, n, hidden, "h");
  auto cstate = ws.mat(ctx, n, hidden, "c");
  auto g_in = ws.mat(ctx, n, 4 * hidden, "gates_in");
  auto g_rec = ws.mat(ctx, n, 4 * hidden, "gates_rec");
  auto gates = ws.mat(ctx, n, 4 * hidden, "gates");

  const core::StepIndexSet steps = core::build_step_indices(ctx, data.csr, run.cfg->steps);

  k::FeatureMat xw;  // pre-transformed features (redundancy bypassing)
  if (cfg_.sage_level == SageOptLevel::kSparseFetchBypass) {
    xw = ws.mat(ctx, n, 4 * hidden, "xw_pre");
    // One transformation for the whole unroll: O(N) instead of O(E).
    k::dense_gemm(ctx, {.a = &x, .b = &w, .c = &xw, .name = "pre_transform",
                        .phase = "transformation"});
  }
  auto x_t = ws.mat(ctx, n, run.cfg->in_feat, "x_t");

  for (int t = 0; t < run.cfg->steps; ++t) {
    switch (cfg_.sage_level) {
      case SageOptLevel::kBase:
        k::step_gather(ctx, {.graph = &gdev, .step = t, .feat = &x, .out = &x_t});
        k::dense_gemm(ctx, {.a = &x_t, .b = &w, .c = &g_in, .phase = "transformation"});
        break;
      case SageOptLevel::kSparseFetch:
        // The gather rides inside the GEMM's loads — no expansion kernel,
        // no [N, F] intermediate; the transformation is still per-step.
        k::sparse_fetch_gemm(ctx, {.feat = &x,
                                   .row_index = steps.index[static_cast<std::size_t>(t)],
                                   .index_buf = steps.buf[static_cast<std::size_t>(t)],
                                   .b = &w,
                                   .c = &g_in,
                                   .phase = "transformation"});
        break;
      case SageOptLevel::kSparseFetchBypass:
        break;  // handled below: fetch pre-transformed rows directly
    }
    k::dense_gemm(ctx, {.a = &hstate, .b = &rmat, .c = &g_rec, .phase = "recurrent"});
    if (cfg_.sage_level == SageOptLevel::kSparseFetchBypass) {
      // gates = XW[neighbor_t(v)] + hR — sparse fetch of the
      // pre-transformed row fused into the gate addition.
      k::indexed_binary(ctx, {.a = &xw,
                              .row_index = steps.index[static_cast<std::size_t>(t)],
                              .index_buf = steps.buf[static_cast<std::size_t>(t)],
                              .b = &g_rec,
                              .out = &gates,
                              .fn = [](float a, float b) { return a + b; },
                              .flops_per_elem = 1.0,
                              .name = "spfetch_gates_add",
                              .phase = "lstm_cell"});
    } else {
      k::dense_binary(ctx, {.a = &g_in,
                            .b = &g_rec,
                            .out = &gates,
                            .fn = [](float a, float b) { return a + b; },
                            .flops_per_elem = 1.0,
                            .name = "gates_add",
                            .phase = "lstm_cell"});
    }
    k::lstm_pointwise(ctx, {.gates = &gates, .bias = &bias, .c = &cstate, .h = &hstate});
  }
  auto outw = ws.from(ctx, run.params->out_w, "out_w");
  auto out = ws.mat(ctx, n, hidden, "out");
  k::dense_gemm(ctx, {.a = &hstate, .b = &outw, .c = &out, .phase = "projection"});

  return finish(ctx, spec, out);
}

}  // namespace gnnbridge::engine

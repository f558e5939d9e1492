// Partitioned (multi-shard) execution for the optimized engine
// (DESIGN.md §16).
//
// The graph is split into K edge-cut shards (shard::partition_graph); each
// shard runs on its own simulated device (one SimContext per shard, warm
// L2 across layers) and the shards execute concurrently as host pool jobs.
// A GNN layer runs the steps of layers.hpp, the same kernel sequence the
// unsharded attempt launches, as three phases:
//
//   Phase A  (parallel)  transform of the shard's *owned* rows;
//   Exchange (barrier)   ghost rows of the transformed features are copied
//                        from their owning shard and priced against the
//                        inter-shard link (DeviceSpec::exchange_*);
//   Phase B  (parallel)  aggregate over the shard-local CSR — owned rows
//                        read local + freshly-exchanged ghost rows.
//
// Correctness contract: outputs are bit-identical to the unsharded engine.
// Every aggregation kernel accumulates per output row in within-row CSR edge
// order, the shard-local CSR preserves exactly that order (only column ids
// are remapped), dense ops are row-independent, and the exchange copies
// identical float bytes — so each owned row sees the same additions in the
// same order as the single-device run.
//
// Accounting contract: the merged RunStats advance the clock by the
// *slowest shard* per phase (shards run concurrently) plus the exchange
// cost; per-shard kernel records are appended in shard order, so the
// metrics surface is byte-identical at any host thread count. Shard bodies
// run under a neutral cancel scope — the parent charges the phase makespan
// and checks cancellation at the (deterministic) barriers, keeping
// deadline behaviour independent of how pool workers interleave.
//
// Recovery contract (DESIGN.md §17): each shard is a failure domain. The
// shard_compute seam fires inside one shard's per-layer phase body and the
// shard_exchange seam in the per-layer ghost exchange; decisions are drawn
// on the parent thread in shard order, so the fault schedule is a function
// of the plan alone, never of pool scheduling. A failed shard is
// re-executed in place — phase bodies fully overwrite their outputs from
// inputs the phase never mutates, so a redo is bit-identical to a clean
// run — up to kShardAttemptBudget attempts per shard per phase; the failed
// attempts' cycles stay priced into the clock (wasted work is real work).
// A spent budget raises StageFailure(seam) and the degradation ladder
// falls back to the unsharded pipeline, whose output is bit-identical too.
//
// Scope: GCN and GAT inference. Training, GraphSAGE and multi-head GAT
// run unsharded regardless of the shard count.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/balance/neighbor_grouping.hpp"
#include "engine/engine.hpp"
#include "engine/engine_internal.hpp"
#include "engine/layers.hpp"
#include "models/common.hpp"
#include "par/thread_pool.hpp"
#include "prof/span.hpp"
#include "rt/fault.hpp"
#include "rt/retry.hpp"
#include "shard/partition.hpp"

namespace gnnbridge::engine {

namespace k = gnnbridge::kernels;
using baselines::Matrix;
using detail::Pipeline;
using detail::Workspace;
using detail::with_engine_overhead;

namespace {

/// Per-shard execution state, persistent across layers (one simulated
/// device each; the L2 stays warm layer to layer, like the unsharded
/// engine's single context).
struct ShardExec {
  explicit ShardExec(ExecMode mode) : ws(mode) {}

  const shard::Shard* sh = nullptr;
  std::unique_ptr<sim::SimContext> ctx;
  Workspace ws;
  k::GraphOnDevice gdev;
  core::GroupedTasks grouped;
  k::FeatureMat norm;  ///< GCN only: local gather of the global edge norm
  k::FeatureMat h;     ///< activations, [num_local, F]
  sim::Cycles last_total = 0.0;
};

// ---- Shard-level recovery (DESIGN.md §17) -----------------------------

/// Attempts one shard phase body (or one exchange) may take before the
/// ladder falls back to unsharded execution: the initial execution plus
/// two retries.
constexpr int kShardAttemptBudget = 3;

/// Prices one failed shard attempt: its cycles are already in the shard's
/// own SimContext (and thus the phase makespan), so they only need to be
/// tagged as recovery waste in the run's stats and the active tally.
void note_wasted(sim::RunStats& accum, sim::Cycles wasted) {
  accum.recovery_wasted_cycles += wasted;
  if (detail::RecoveryTally* tally = detail::active_recovery()) {
    tally->wasted_cycles += static_cast<double>(wasted);
  }
}

/// Records one granted retry decision (a shard re-execution or an exchange
/// redo) in the run's stats and the active tally, buffering a
/// "shard_retry" journal event for batch jobs. `attempt` is the 1-based
/// index of the attempt that just failed; `wasted` its priced cycles.
void note_retry(sim::RunStats& accum, std::string_view seam, std::string what, int attempt,
                sim::Cycles wasted, bool reexecution) {
  ++accum.shard_retries;
  if (reexecution) ++accum.shards_reexecuted;
  if (detail::RecoveryTally* tally = detail::active_recovery()) {
    ++tally->shard_retries;
    if (reexecution) ++tally->shards_reexecuted;
    if (tally->journal) {
      tally->journal->push_back(detail::journal_event("shard_retry", seam, "", std::move(what),
                                                      static_cast<std::uint64_t>(attempt),
                                                      static_cast<double>(wasted)));
    }
  }
}

// ---- Shard setup --------------------------------------------------------

/// Shard-local LAS order: the global order filtered to the shard's owned
/// rows (mapped to local ids), with ghost rows appended in ascending order
/// — neighbor_group_tasks requires a full permutation of the local rows.
std::vector<graph::NodeId> local_order(const shard::Partition& p, int s,
                                       const std::vector<graph::NodeId>& owned_local,
                                       const std::vector<graph::NodeId>& global_order) {
  const shard::Shard& sh = p.shards[static_cast<std::size_t>(s)];
  std::vector<graph::NodeId> order;
  order.reserve(static_cast<std::size_t>(sh.local.num_nodes));
  for (const graph::NodeId v : global_order) {
    if (p.assign[static_cast<std::size_t>(v)] == s) {
      order.push_back(owned_local[static_cast<std::size_t>(v)]);
    }
  }
  for (graph::NodeId g = sh.num_owned(); g < sh.local.num_nodes; ++g) order.push_back(g);
  return order;
}

/// Drops the zero-size tasks neighbor grouping emits for ghost rows:
/// ghosts are read, never aggregated, so their epilogue writes would be
/// pure overhead the unsharded run does not pay. Owned zero-degree rows
/// keep their (zero-size) tasks — the unsharded task list has them too.
void drop_ghost_tasks(core::GroupedTasks& grouped, graph::NodeId num_owned) {
  grouped.tasks.erase(std::remove_if(grouped.tasks.begin(), grouped.tasks.end(),
                                     [num_owned](const k::Task& t) { return t.v >= num_owned; }),
                      grouped.tasks.end());
}

/// Per-shard device/task setup: context, local CSR, task list (grouping
/// bound + LAS order restricted to the shard, ghost tasks dropped), and
/// the initial activations with input features replicated to ghost rows
/// (so layer 0 needs no extra exchange for them).
void init_shard(ShardExec& se, const shard::Shard& sh, const sim::DeviceSpec& spec,
                const shard::Partition& p, int s, const detail::Schedule& sched,
                const std::vector<graph::NodeId>& owned_local, const Matrix& x) {
  se.sh = &sh;
  se.ctx = std::make_unique<sim::SimContext>(with_engine_overhead(spec));
  se.gdev = k::device_graph(*se.ctx, sh.local, "csr");
  if (sched.las) {
    const std::vector<graph::NodeId> order = local_order(p, s, owned_local, *sched.las);
    se.grouped = core::neighbor_group_tasks(sh.local, sched.bound, order);
  } else {
    se.grouped = core::neighbor_group_tasks(sh.local, sched.bound);
  }
  drop_ghost_tasks(se.grouped, sh.num_owned());
  se.h = se.ws.mat(*se.ctx, sh.local.num_nodes, x.cols(), "x");
  if (!se.h.host) return;
  for (graph::NodeId r = 0; r < sh.num_owned(); ++r) {
    const auto src = x.row(sh.owned[static_cast<std::size_t>(r)]);
    auto dst = se.h.host->row(r);
    std::copy(src.begin(), src.end(), dst.begin());
  }
  for (std::size_t gi = 0; gi < sh.ghosts.size(); ++gi) {
    const auto src = x.row(sh.ghosts[gi]);
    auto dst = se.h.host->row(sh.num_owned() + static_cast<graph::NodeId>(gi));
    std::copy(src.begin(), src.end(), dst.begin());
  }
}

/// One sharded attempt: the partition, the per-shard devices, the launch
/// knobs every shard shares, and the merged clock (the sum of phase
/// makespans and exchanges).
struct ShardedRun {
  std::shared_ptr<const shard::Partition> plan;
  sim::DeviceSpec spec;
  int lanes = 32;
  std::vector<ShardExec> se;
  sim::RunStats accum;
  sim::Cycles total = 0.0;

  /// Sets up every shard. The schedule (partition included) is resolved
  /// by the caller on the parent thread: the degradation ladder's
  /// job-local state is thread-local, out of pool workers' sight.
  ShardedRun(const detail::Schedule& sched, const sim::DeviceSpec& device, ExecMode mode,
             graph::NodeId num_nodes, const Matrix& x)
      : plan(sched.plan), spec(device), lanes(sched.lanes) {
    // Owned-local row of every global node (the owned lists partition the
    // node set, so one vector serves all shards).
    std::vector<NodeId> owned_local(static_cast<std::size_t>(num_nodes), 0);
    for (const shard::Shard& sh : plan->shards) {
      for (std::size_t r = 0; r < sh.owned.size(); ++r) {
        owned_local[static_cast<std::size_t>(sh.owned[r])] = static_cast<NodeId>(r);
      }
    }
    se.reserve(plan->shards.size());
    for (std::size_t s = 0; s < plan->shards.size(); ++s) {
      init_shard(se.emplace_back(mode), plan->shards[s], spec, *plan, static_cast<int>(s), sched,
                 owned_local, x);
    }
  }

  /// One parallel phase with shard-level recovery. Every shard runs
  /// `body(s)` concurrently on the host pool under a neutral cancel scope:
  /// a body only touches its own shard's SimContext, and the parent charges
  /// the phase makespan at the barrier (end_phase). Exceptions (e.g.
  /// injected sim_launch faults) surface as the lowest shard index's
  /// failure, matching a sequential loop. shard_compute decisions are
  /// pre-drawn on the parent in shard order — deterministic at any host
  /// thread count — and every body runs regardless (a doomed shard's work
  /// is wasted-but-priced, like a real mid-kernel fault). Failed shards
  /// are then re-executed sequentially on the parent, in shard order;
  /// bodies fully overwrite their outputs from inputs the phase never
  /// mutates, so a redo is bit-identical to a clean run. A non-retryable
  /// failure or a spent attempt budget raises StageFailure so the ladder
  /// can fall back to unsharded execution.
  template <typename Body>
  void phase(std::size_t layer, const char* phase_name, Body&& body) {
    const std::size_t nshards = se.size();
    std::vector<std::optional<rt::Status>> fail(nshards);
    std::vector<sim::Cycles> start(nshards);
    for (std::size_t s = 0; s < nshards; ++s) {
      fail[s] = rt::fire_fault(rt::kSeamShardCompute);
      start[s] = se[s].ctx->stats().total_cycles;
    }
    par::parallel_chunks(nshards, /*grain=*/1,
                         [&](std::size_t /*chunk*/, std::size_t begin, std::size_t end) {
                           rt::AdoptScope neutral{rt::ScopeHandle{}};
                           for (std::size_t s = begin; s < end; ++s) body(s);
                         });
    for (std::size_t s = 0; s < nshards; ++s) {
      for (int attempt = 1; fail[s]; ++attempt) {
        const sim::Cycles wasted = se[s].ctx->stats().total_cycles - start[s];
        note_wasted(accum, wasted);
        const std::string what = "layer=" + std::to_string(layer) + " phase=" + phase_name +
                                 " shard=" + std::to_string(s);
        if (!rt::retryable(*fail[s]) || attempt >= kShardAttemptBudget) {
          throw rt::StageFailure(
              std::string(rt::kSeamShardCompute),
              std::move(*fail[s]).with_context(what + ": shard attempt budget spent"));
        }
        note_retry(accum, rt::kSeamShardCompute, what, attempt, wasted, /*reexecution=*/true);
        start[s] = se[s].ctx->stats().total_cycles;
        fail[s] = rt::fire_fault(rt::kSeamShardCompute);
        rt::AdoptScope neutral{rt::ScopeHandle{}};
        body(s);
      }
    }
  }

  /// Closes one parallel phase: the merged clock advances by the slowest
  /// shard's cycles since the last barrier (shards run concurrently), and
  /// the parent checks cancellation at the barrier.
  void end_phase(const std::string& where) {
    sim::Cycles span = 0.0;
    for (ShardExec& shard : se) {
      const sim::Cycles cur = shard.ctx->stats().total_cycles;
      span = std::max(span, cur - shard.last_total);
      shard.last_total = cur;
    }
    total += span;
    rt::charge_sim_cycles(span);
    rt::throw_if_cancelled(where);
  }

  /// One layer's ghost exchange of the per-shard matrices `mats`, with
  /// recovery. Every shard pulls its ghost rows from the owners over the
  /// inter-shard link, then all shards rendezvous once. The shard_exchange
  /// seam fires on the parent (the exchange is a barrier; the parent owns
  /// it); a failed attempt prices a full exchange — the rendezvous
  /// happened and the payload moved before it was found torn — and the
  /// copy is withheld until an attempt succeeds. Budget exhaustion raises
  /// StageFailure(shard_exchange) for the ladder.
  void exchange(std::size_t layer, const std::vector<k::FeatureMat>& mats) {
    const auto ghost_rows = static_cast<std::uint64_t>(plan->total_ghosts);
    const std::uint64_t row_bytes = mats[0].row_bytes();
    const auto line = static_cast<std::uint64_t>(spec.line_bytes);
    const std::uint64_t lines_per_row = line > 0 ? (row_bytes + line - 1) / line : 0;
    const sim::Cycles xcyc =
        spec.exchange_sync_cycles +
        static_cast<double>(ghost_rows * lines_per_row) * spec.exchange_cycles_per_line;
    for (int attempt = 1;; ++attempt) {
      std::optional<rt::Status> fault = rt::fire_fault(rt::kSeamShardExchange);
      total += xcyc;
      accum.exchange_cycles += xcyc;
      accum.exchange_syncs += 1;
      accum.ghost_bytes += ghost_rows * row_bytes;
      rt::charge_sim_cycles(xcyc);
      if (!fault) break;
      note_wasted(accum, xcyc);
      const std::string what = "layer=" + std::to_string(layer) + " exchange";
      if (!rt::retryable(*fault) || attempt >= kShardAttemptBudget) {
        throw rt::StageFailure(
            std::string(rt::kSeamShardExchange),
            std::move(*fault).with_context(what + ": exchange retry budget spent"));
      }
      note_retry(accum, rt::kSeamShardExchange, what, attempt, xcyc, /*reexecution=*/false);
    }
    // Host values only, when the run computes: traces are value-independent.
    if (!mats[0].host) return;
    for (std::size_t s = 0; s < se.size(); ++s) {
      const shard::Shard& sh = plan->shards[s];
      for (std::size_t gi = 0; gi < sh.ghosts.size(); ++gi) {
        const auto owner = static_cast<std::size_t>(sh.ghost_owner[gi]);
        const auto src = mats[owner].host->row(sh.ghost_owner_row[gi]);
        auto dst = mats[s].host->row(sh.num_owned() + static_cast<NodeId>(gi));
        std::copy(src.begin(), src.end(), dst.begin());
      }
    }
  }

  /// One layer on every shard (layers.hpp's steps). The layer's buffers
  /// are allocated here on the parent — SimContext/Workspace are
  /// single-threaded — so the phase bodies only launch kernels and a
  /// re-executed shard allocates nothing.
  template <typename Allocate, typename Aggregate>
  void layer(std::size_t l, const std::string& model, Allocate&& allocate,
             Aggregate&& aggregate) {
    std::vector<decltype(allocate(se[0]))> layers;
    layers.reserve(se.size());
    for (ShardExec& shard : se) layers.push_back(allocate(shard));

    // Phase A: transform the owned rows; ghost rows of the transformed
    // features arrive in the exchange.
    phase(l, "transform", [&](std::size_t s) {
      detail::transform(*se[s].ctx, se[s].h, layers[s].w, layers[s].t, se[s].sh->num_owned());
    });
    end_phase("sharded " + model + " transform");

    std::vector<k::FeatureMat> transformed;
    for (const auto& lay : layers) transformed.push_back(lay.t);
    exchange(l, transformed);
    rt::throw_if_cancelled("sharded " + model + " exchange");

    // Phase B: aggregate over the shard-local graph.
    phase(l, "aggregate", [&](std::size_t s) {
      aggregate(se[s], detail::GraphView{&se[s].gdev, &se[s].grouped, lanes}, layers[s]);
    });
    end_phase("sharded " + model + " aggregate");

    for (std::size_t s = 0; s < se.size(); ++s) se[s].h = layers[s].agg;
  }

  /// Merges per-shard counters into the final run stats: kernel records
  /// append in shard order (deterministic at any thread count), sync
  /// counts add, exchange rendezvous count as global syncs, and the clock
  /// is the phase-makespan sum. A computing run gathers every shard's
  /// owned rows back into global row order.
  RunResult finish(graph::NodeId num_nodes) {
    Matrix output;
    if (se[0].h.host) {
      output = Matrix(num_nodes, se[0].h.cols);
      for (const ShardExec& shard : se) {
        for (graph::NodeId r = 0; r < shard.sh->num_owned(); ++r) {
          const auto src = shard.h.host->row(r);
          auto dst = output.row(shard.sh->owned[static_cast<std::size_t>(r)]);
          std::copy(src.begin(), src.end(), dst.begin());
        }
      }
    }
    for (const ShardExec& shard : se) {
      const sim::RunStats& st = shard.ctx->stats();
      accum.kernels.insert(accum.kernels.end(), st.kernels.begin(), st.kernels.end());
      accum.global_syncs += st.global_syncs;
    }
    accum.global_syncs += accum.exchange_syncs;
    accum.total_cycles = total;
    accum.shards = static_cast<int>(se.size());
    RunResult r;
    r.stats = std::move(accum);
    r.ms = spec.millis(r.stats.total_cycles);
    r.output = std::move(output);
    return r;
  }
};

}  // namespace

int OptimizedEngine::resolved_shards() const {
  if (cfg_.shards > 0) return cfg_.shards;
  // Read once per process: a mid-run environment change must not make two
  // halves of one experiment disagree about the execution mode.
  static const int env_shards = [] {
    const char* s = std::getenv("GNNBRIDGE_SHARDS");
    if (!s || !*s) return 1;
    char* end = nullptr;
    const long v = std::strtol(s, &end, 10);
    if (end == s || *end != '\0' || v < 1 || v > 4096) {
      std::fprintf(stderr,
                   "gnnbridge: ignoring invalid GNNBRIDGE_SHARDS='%s' "
                   "(want an integer in [1, 4096]); running unsharded\n",
                   s);
      return 1;
    }
    return static_cast<int>(v);
  }();
  return env_shards;
}

std::shared_ptr<const shard::Partition> OptimizedEngine::shard_plan_for(
    const graph::Csr& csr, const graph::GraphFingerprint& fp, int k) const {
  const GraphKey key{fp, k};
  // Cache-isolated jobs (any job with a fault plan) skip the warm-hit
  // shortcut: an armed shard_partition seam must fire on *this* attempt's
  // partition instead of being absorbed by a neighbor's memoized plan. A
  // fault-injected partition is never cached — the seam raises below,
  // before the insert — so the cache only ever holds clean plans.
  if (!detail::cache_isolated_active(this)) {
    std::lock_guard<std::mutex> lock(cache_mu_);
    auto it = shard_cache_.find(key);
    if (it != shard_cache_.end()) return it->second;
  }
  // Compute outside the lock (mirrors las_order): the partition is a
  // pure function of (graph, k), so concurrent misses compute identical
  // plans and the first insert wins.
  prof::Span span("shard_partition", "engine");
  rt::raise_if_armed(rt::kSeamShardPartition, "shard_plan_for");
  shard::PartitionConfig pcfg;
  pcfg.shards = k;
  rt::Result<shard::Partition> part = shard::partition_graph(csr, pcfg);
  if (!part.ok()) {
    throw rt::StageFailure(std::string(rt::kSeamShardPartition),
                           rt::Status(part.status()).with_context("shard_plan_for"));
  }
  span.arg("shards", static_cast<double>(part->k));
  span.arg("cut_edges", static_cast<double>(part->cut_edges));
  span.arg("ghosts", static_cast<double>(part->total_ghosts));
  auto plan = std::make_shared<const shard::Partition>(*std::move(part));
  std::lock_guard<std::mutex> lock(cache_mu_);
  auto [it, inserted] = shard_cache_.try_emplace(key, std::move(plan));
  return it->second;
}

std::size_t OptimizedEngine::shard_plan_cache_size() const {
  std::lock_guard<std::mutex> lock(cache_mu_);
  return shard_cache_.size();
}

RunResult OptimizedEngine::gcn_attempt_sharded(const Dataset& data, const GcnRun& run,
                                               ExecMode mode, const sim::DeviceSpec& spec,
                                               Pipeline pipe, const detail::Schedule& sched) {
  ShardedRun sr(sched, spec, mode, data.csr.num_nodes, *run.features);

  // The GCN edge norm uses *global* degrees; gather it through the local
  // edge -> global edge map so every local edge carries the exact float
  // the unsharded run multiplies with. The global norm is built once, by
  // the first shard that computes.
  std::vector<float> norm_global;
  for (ShardExec& se : sr.se) {
    const std::vector<graph::EdgeId>& origin = se.sh->edge_origin;
    se.norm = se.ws.edge_norm(*se.ctx, origin.size(), [&] {
      if (norm_global.empty()) norm_global = models::gcn_edge_norm(data.csr);
      std::vector<float> norm_loc(origin.size());
      for (std::size_t i = 0; i < origin.size(); ++i) {
        norm_loc[i] = norm_global[static_cast<std::size_t>(origin[i])];
      }
      return norm_loc;
    });
  }

  const std::size_t layers = run.params->weight.size();
  for (std::size_t l = 0; l < layers; ++l) {
    sr.layer(
        l, "gcn",
        [&](ShardExec& se) {
          return detail::gcn_allocate(*se.ctx, se.ws, run.params->weight[l], run.params->bias[l],
                                      se.sh->local.num_nodes);
        },
        [&](ShardExec& se, const detail::GraphView& g, detail::GcnLayer& layer) {
          detail::gcn_aggregate(*se.ctx, g, se.norm, layer, pipe, l + 1 == layers);
        });
  }
  return sr.finish(data.csr.num_nodes);
}

RunResult OptimizedEngine::gat_attempt_sharded(const Dataset& data, const GatRun& run,
                                               ExecMode mode, const sim::DeviceSpec& spec,
                                               Pipeline pipe, const detail::Schedule& sched) {
  ShardedRun sr(sched, spec, mode, data.csr.num_nodes, *run.features);

  // The exchange ships one F-float row per ghost; the aggregate step
  // recomputes the ghosts' attention scalars locally.
  const std::size_t layers = run.params->weight.size();
  for (std::size_t l = 0; l < layers; ++l) {
    sr.layer(
        l, "gat",
        [&](ShardExec& se) {
          return detail::gat_allocate(*se.ctx, se.ws, run.params->weight[l], run.params->att_l[l],
                                      run.params->att_r[l], se.sh->local.num_nodes,
                                      static_cast<tensor::Index>(se.sh->local.num_edges()), pipe);
        },
        [&](ShardExec& se, const detail::GraphView& g, detail::GatLayer& layer) {
          detail::gat_aggregate(*se.ctx, g, layer, pipe, run.cfg->leaky_alpha, l + 1 == layers);
        });
  }
  return sr.finish(data.csr.num_nodes);
}

}  // namespace gnnbridge::engine

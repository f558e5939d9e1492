// Host wall-clock benchmark of the gnnbridge library.
//
// One process runs one workload. It builds the workload's inputs from the
// seed (dataset, weights, features), constructs one OptimizedEngine and
// drives warm forward passes through it from one caller thread in a
// closed loop: the next request is sent when the last one returns. Every
// run is checked (status, bit-identical output and simulator counters);
// the kFull outputs are checked once against the host reference model and
// the sharded output against an unsharded run.
//
//   --trace 0  prints the end-to-end metrics, measured untraced.
//   --trace 1  prints the per-layer metrics: an untraced half-run, then a
//              traced half-run in which the benchmark opens a span around
//              each public library call it makes (nesting the library's own
//              engine and sim launch spans), written as a Chrome trace.
//
// The last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"}; the lines before it repeat
// each metric with its unit and sample count, plus provenance. The exit
// code is 0 only when every check passed. perfbench/run.py builds and runs
// this program; README.md explains the workloads and metrics.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "bench/bench_util.hpp"
#include "core/locality/schedule.hpp"
#include "core/spfetch/step_index.hpp"
#include "engine/engine.hpp"
#include "graph/datasets.hpp"
#include "models/reference.hpp"
#include "obs/request.hpp"
#include "par/thread_pool.hpp"
#include "prof/chrome_trace.hpp"
#include "prof/span.hpp"
#include "prof/tracer.hpp"
#include "shard/partition.hpp"
#include "tensor/ops.hpp"

namespace {

using namespace gnnbridge;
using baselines::RunResult;
using kernels::ExecMode;
using models::Matrix;
using Clock = std::chrono::steady_clock;

/// Host threads of the par pool. Fixed so runs compare; clamped to the CPUs
/// this process may use. On a 4-vCPU host, 4 pool threads split the
/// gcn_full_products medians into two groups (about 1.55 s and 2.5 s) while
/// 1-3 threads gave 1.40-1.61 s (README.md).
constexpr int kPoolThreads = 2;
/// Set-ups per --trace 0 run; setup_s is their median.
constexpr int kSetups = 3;
/// Repetitions of each per-layer call in the traced run (median reported).
constexpr int kLayerReps = 3;
/// Warm runs timed even when --seconds has already elapsed.
constexpr std::size_t kMinSamples = 3;
/// Shard count of the traced shard::partition_graph call on every workload.
constexpr int kPartitionShards = 4;
/// Tolerances of the repository's reference-comparison tests.
constexpr float kRtol = 1e-3f;
constexpr float kAtol = 1e-4f;

#ifdef NDEBUG
constexpr bool kAssertsOn = false;
#else
constexpr bool kAssertsOn = true;
#endif

struct Workload {
  std::string_view name;
  graph::DatasetId dataset;
  double scale;
  models::ModelKind model;
  ExecMode mode;
  int shards;
};

// Why each workload exists is in README.md.
constexpr Workload kWorkloads[] = {
    {"gcn_full_products", graph::DatasetId::kProducts, 0.25, models::ModelKind::kGcn,
     ExecMode::kFull, 1},
    {"gat_sim_reddit", graph::DatasetId::kReddit, 0.25, models::ModelKind::kGat,
     ExecMode::kSimulateOnly, 1},
    {"sage_full_reddit", graph::DatasetId::kReddit, 0.25, models::ModelKind::kSageLstm,
     ExecMode::kFull, 1},
    {"gcn_shard4_reddit", graph::DatasetId::kReddit, 0.25, models::ModelKind::kGcn,
     ExecMode::kFull, 4},
};

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// CPUs this process may run on (what `nproc` prints).
int usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

/// A fixed loop of the benchmark's own code, timed next to every measured
/// call. On a shared host, co-tenants slow this process's caches, memory
/// and cores by phases that last from seconds to minutes, and the slowdown
/// moves a run's median by up to 2x (README.md). The loop sees the same
/// slowdown, so each measured time is divided by the loop's time around it
/// and scaled by kReferenceMs: times are reported in milliseconds of a host
/// on which the loop takes kReferenceMs. The loop does no library work, so
/// a change to the library moves the reported times and not the divisor. It
/// mixes the kinds of work of a forward pass: a random gather from a table
/// larger than L2 (aggregation, L2 replay), a streaming multiply-add over
/// arrays larger than L2 (GEMM operands) and a cache-resident dense product
/// (GEMM inner loops).
class Calibration {
 public:
  /// The loop's median time on a quiet 4-vCPU Xeon (Emerald Rapids) host.
  static constexpr double kReferenceMs = 18.0;

  Calibration()
      : table_(std::size_t{4} << 20), index_(std::size_t{1} << 19), a_(std::size_t{2} << 20),
        b_(a_.size()), p_(kDim * kDim), q_(kDim * kDim), r_(kDim * kDim) {
    std::uint64_t s = 0x9e3779b97f4a7c15ull;  // fixed: the loop is the same in every run
    const auto next = [&s] {
      s ^= s << 13;
      s ^= s >> 7;
      s ^= s << 17;
      return s;
    };
    for (float& v : table_) v = static_cast<float>(next() % 1000) * 1e-3f;
    for (std::uint32_t& i : index_) i = static_cast<std::uint32_t>(next() % table_.size());
    for (float& v : a_) v = static_cast<float>(next() % 1000) * 1e-3f;
    for (float& v : p_) v = static_cast<float>(next() % 1000) * 1e-3f;
    for (float& v : q_) v = static_cast<float>(next() % 1000) * 1e-3f;
    for (int warm = 0; warm < 3; ++warm) (void)run_ms();
  }

  /// Bytes of the loop's buffers, resident for the whole process.
  std::size_t bytes() const {
    return sizeof(float) * (table_.size() + a_.size() + b_.size() + p_.size() + q_.size() +
                            r_.size()) +
           sizeof(std::uint32_t) * index_.size();
  }

  /// One pass of the loop; its wall-clock in milliseconds.
  double run_ms() {
    const Clock::time_point t0 = Clock::now();
    float gathered = 0.0f;
    for (int pass = 0; pass < kPasses; ++pass) {
      for (const std::uint32_t i : index_) gathered += table_[i];
      for (std::size_t i = 0; i < a_.size(); ++i) b_[i] = 0.5f * b_[i] + a_[i];
      for (int rep = 0; rep < kDenseReps; ++rep) {
        for (std::size_t i = 0; i < kDim; ++i) {
          for (std::size_t j = 0; j < kDim; ++j) r_[i * kDim + j] = 0.0f;
          for (std::size_t k = 0; k < kDim; ++k) {
            const float x = p_[i * kDim + k];
            for (std::size_t j = 0; j < kDim; ++j) r_[i * kDim + j] += x * q_[k * kDim + j];
          }
        }
      }
    }
    sink_ = sink_ + gathered + b_[sink_index_++ % b_.size()] + r_[kDim + 1];
    return 1e3 * std::chrono::duration<double>(Clock::now() - t0).count();
  }

 private:
  static constexpr std::size_t kDim = 96;
  static constexpr int kDenseReps = 12;
  static constexpr int kPasses = 2;
  std::vector<float> table_;
  std::vector<std::uint32_t> index_;
  std::vector<float> a_, b_, p_, q_, r_;
  std::size_t sink_index_ = 0;
  volatile float sink_ = 0.0f;
};

/// Times `work` in milliseconds, scaled by the calibration loop run just
/// before and just after it. Returns {scaled, raw}.
template <typename Work>
std::pair<double, double> calibrated_ms(Calibration& cal, Work&& work) {
  const double before = cal.run_ms();
  const Clock::time_point t0 = Clock::now();
  work();
  const double raw = 1e3 * std::chrono::duration<double>(Clock::now() - t0).count();
  const double after = cal.run_ms();
  return {raw * Calibration::kReferenceMs / (0.5 * (before + after)), raw};
}

/// Everything one forward pass consumes, generated from the workload seed.
struct Inputs {
  graph::Dataset data;
  models::GcnConfig gcn = bench::paper_gcn();
  models::GatConfig gat = bench::paper_gat();
  models::SageLstmConfig sage = bench::paper_sage();
  models::GcnParams gcn_params;
  models::GatParams gat_params;
  models::SageLstmParams sage_params;
  Matrix x;
};

rt::Result<std::unique_ptr<Inputs>> make_inputs(const Workload& w, std::uint64_t seed) {
  rt::Result<graph::Dataset> data = graph::try_make_dataset(w.dataset, w.scale, seed);
  if (!data.ok()) return data.status();
  auto in = std::make_unique<Inputs>();
  in->data = std::move(data).value();
  const graph::NodeId n = in->data.csr.num_nodes;
  switch (w.model) {
    case models::ModelKind::kGcn:
      in->gcn_params = models::init_gcn(in->gcn, seed + 1);
      in->x = models::init_features(n, in->gcn.dims.front(), seed + 2);
      break;
    case models::ModelKind::kGat:
      in->gat_params = models::init_gat(in->gat, seed + 1);
      in->x = models::init_features(n, in->gat.dims.front(), seed + 2);
      break;
    case models::ModelKind::kSageLstm:
      in->sage_params = models::init_sage_lstm(in->sage, seed + 1);
      in->x = models::init_features(n, in->sage.in_feat, seed + 2);
      break;
  }
  return in;
}

RunResult run_once(engine::OptimizedEngine& eng, const Inputs& in, const Workload& w) {
  switch (w.model) {
    case models::ModelKind::kGcn:
      return eng.run_gcn(in.data, {&in.gcn, &in.gcn_params, &in.x}, w.mode, sim::v100());
    case models::ModelKind::kGat:
      return eng.run_gat(in.data, {&in.gat, &in.gat_params, &in.x}, w.mode, sim::v100());
    case models::ModelKind::kSageLstm:
      return eng.run_sage_lstm(in.data, {&in.sage, &in.sage_params, &in.x}, w.mode, sim::v100());
  }
  return {};
}

Matrix reference_output(const Inputs& in, const Workload& w) {
  switch (w.model) {
    case models::ModelKind::kGcn:
      return models::gcn_forward_ref(in.data.csr, in.x, in.gcn, in.gcn_params);
    case models::ModelKind::kGat:
      return models::gat_forward_ref(in.data.csr, in.x, in.gat, in.gat_params);
    case models::ModelKind::kSageLstm:
      return models::sage_lstm_forward_ref(in.data.csr, in.x, in.sage, in.sage_params);
  }
  return {};
}

/// Width of the first aggregation: the feature width build_tasks is asked for.
tensor::Index task_feat(const Inputs& in, const Workload& w) {
  switch (w.model) {
    case models::ModelKind::kGcn: return in.gcn.dims[1];
    case models::ModelKind::kGat: return in.gat.dims[1];
    case models::ModelKind::kSageLstm: return in.sage.hidden;
  }
  return -1;
}

/// The X·W products of each model layer, as (input, weight) pairs. Deeper
/// layers take seeded random inputs of the shape the layer sees.
std::vector<std::pair<Matrix, const Matrix*>> layer_gemms(const Inputs& in, const Workload& w,
                                                          std::uint64_t seed) {
  std::vector<std::pair<Matrix, const Matrix*>> out;
  const graph::NodeId n = in.data.csr.num_nodes;
  const auto stacked = [&](const std::vector<Matrix>& weights) {
    for (std::size_t l = 0; l < weights.size(); ++l) {
      out.emplace_back(l == 0 ? in.x : models::init_features(n, weights[l].rows(), seed + 3 + l),
                       &weights[l]);
    }
  };
  switch (w.model) {
    case models::ModelKind::kGcn: stacked(in.gcn_params.weight); break;
    case models::ModelKind::kGat: stacked(in.gat_params.weight); break;
    case models::ModelKind::kSageLstm: {
      // Input transform once, the recurrent product every step, then the
      // output projection: the engine's kSparseFetchBypass GEMMs.
      const Matrix h = models::init_features(n, in.sage.hidden, seed + 3);
      out.emplace_back(in.x, &in.sage_params.w);
      for (int t = 0; t < in.sage.steps; ++t) out.emplace_back(h, &in.sage_params.r);
      out.emplace_back(h, &in.sage_params.out_w);
      break;
    }
  }
  return out;
}

bool same_bits(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), sizeof(float) * static_cast<std::size_t>(a.size())) == 0;
}

/// Every simulator counter of a run (and its occupancy timelines), as
/// bytes: two runs agree exactly when their signatures are equal.
std::string sim_signature(const RunResult& r) {
  std::string sig;
  const auto put = [&sig](const auto& v) {
    sig.append(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  put(r.ms);
  const sim::RunStats& s = r.stats;
  put(s.total_cycles);
  put(s.global_syncs);
  put(s.ghost_bytes);
  put(s.exchange_syncs);
  put(s.exchange_cycles);
  put(s.shards);
  put(s.shard_retries);
  put(s.shards_reexecuted);
  put(s.fallback_unsharded);
  put(s.recovery_wasted_cycles);
  for (const sim::KernelStats& k : s.kernels) {
    sig += k.name;
    sig += '\0';
    sig += k.phase;
    sig += '\0';
    put(k.num_blocks);
    put(k.l2_hits);
    put(k.l2_misses);
    put(k.dram_bytes);
    put(k.flops);
    put(k.issued_flops);
    put(k.atomic_cycles);
    put(k.atomic_bytes);
    put(k.adapter_cycles);
    put(k.adapter_bytes);
    put(k.pad_flops);
    put(k.copy_flops);
    put(k.tile_flops);
    put(k.cycles);
    put(k.makespan);
    put(k.balanced);
    for (const sim::Timeline::Interval& iv : k.timeline.intervals()) {
      put(iv.t0);
      put(iv.t1);
      put(iv.active);
    }
  }
  return sig;
}

/// Runs attempted and failed, with the first few failure messages.
struct Tally {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> errors;

  void record(const std::string& failure) {
    ++attempted;
    if (failure.empty()) return;
    ++failed;
    if (errors.size() < 8) errors.push_back(failure);
  }
};

/// An earlier run on the same inputs that later runs must reproduce.
struct Expected {
  explicit Expected(const RunResult& r) : output(r.output), sig(sim_signature(r)) {}
  Matrix output;
  std::string sig;

  /// Empty when `r` reproduces it, else what failed.
  std::string check(const RunResult& r) const {
    if (!r.status.ok()) return "run failed: " + r.status.to_string();
    if (!same_bits(r.output, output)) return "output differs from the first run";
    if (sim_signature(r) != sig) return "sim counters differ from the first run";
    return {};
  }
};

/// One warm engine over one set of inputs.
struct Instance {
  std::unique_ptr<Inputs> in;
  std::unique_ptr<engine::OptimizedEngine> eng;
  RunResult cold;
};

/// Builds inputs and engine and makes the cold run. Returns the set-up time
/// in calibrated seconds (see Calibration), or a failure message.
std::optional<std::string> set_up(const Workload& w, std::uint64_t seed, Calibration& cal,
                                  Instance& inst, double& setup_s, double& raw_s) {
  std::optional<std::string> err;
  const auto [scaled_ms, raw_ms] = calibrated_ms(cal, [&] {
    auto in = make_inputs(w, seed);
    if (!in.ok()) {
      err = "dataset build failed: " + in.status().to_string();
      return;
    }
    inst.in = std::move(in).value();
    engine::EngineConfig cfg;
    cfg.shards = w.shards;
    inst.eng = std::make_unique<engine::OptimizedEngine>(cfg);
    inst.cold = run_once(*inst.eng, *inst.in, w);
  });
  setup_s = 1e-3 * scaled_ms;
  raw_s = 1e-3 * raw_ms;
  if (err) return err;
  if (!inst.cold.status.ok()) return "cold run failed: " + inst.cold.status.to_string();
  return std::nullopt;
}

struct Timing {
  std::vector<double> ms;      ///< calibrated time of each verified run
  std::vector<double> raw_ms;  ///< its wall-clock
  std::vector<double> cal_ms;  ///< the calibration loop, between runs
  double p50() const { return median(ms); }
  /// Verified passes per second of calibrated run time.
  double per_s() const {
    double total_ms = 0.0;
    for (const double m : ms) total_ms += m;
    return total_ms > 0.0 ? 1e3 * static_cast<double>(ms.size()) / total_ms : 0.0;
  }
  std::string raw() const {
    if (raw_ms.empty()) return {};
    const auto [lo, hi] = std::minmax_element(raw_ms.begin(), raw_ms.end());
    char buf[128];
    std::snprintf(buf, sizeof(buf), " wall-clock p50 %.1f min %.1f max %.1f, loop p50 %.2f ms",
                  median(raw_ms), *lo, *hi, median(cal_ms));
    return buf;
  }
};

/// The closed loop: one caller, next request when the last returns. The
/// calibration loop runs between requests; each request's time is scaled
/// by the mean of the loop times just before and just after it.
/// `around(i, run)` makes request i by calling run(); the traced run opens
/// its request span there.
template <typename Around>
Timing closed_loop(Instance& inst, const Workload& w, double seconds, Calibration& cal,
                   Tally& tally, Around&& around) {
  const Expected expect(inst.cold);
  Timing t;
  const Clock::time_point t0 = Clock::now();
  double before = cal.run_ms();
  t.cal_ms.push_back(before);
  for (std::size_t i = 0; i < kMinSamples || seconds_since(t0) < seconds; ++i) {
    const Clock::time_point r0 = Clock::now();
    const RunResult r = around(i, [&] { return run_once(*inst.eng, *inst.in, w); });
    const double raw = 1e3 * seconds_since(r0);
    const double after = cal.run_ms();
    t.cal_ms.push_back(after);
    const std::string failure = expect.check(r);
    tally.record(failure);
    if (failure.empty()) {
      t.ms.push_back(raw * Calibration::kReferenceMs / (0.5 * (before + after)));
      t.raw_ms.push_back(raw);
    }
    before = after;
  }
  return t;
}

/// The once-per-process output checks: the kFull output against the host
/// reference model, and a sharded output against an unsharded engine run
/// on the same inputs (bit-identical).
void verify_outputs(const Instance& inst, const Workload& w, Tally& tally) {
  if (w.mode == ExecMode::kFull) {
    const Matrix expect = reference_output(*inst.in, w);
    const bool ok = inst.cold.output.rows() == expect.rows() &&
                    inst.cold.output.cols() == expect.cols() &&
                    tensor::allclose(inst.cold.output, expect, kRtol, kAtol);
    tally.record(ok ? "" : "output differs from the reference model (max abs diff " +
                               std::to_string(tensor::max_abs_diff(inst.cold.output, expect)) +
                               ")");
  }
  if (w.shards > 1) {
    engine::EngineConfig cfg;
    cfg.shards = 1;
    engine::OptimizedEngine unsharded(cfg);
    const RunResult r = run_once(unsharded, *inst.in, w);
    std::string failure;
    if (!r.status.ok()) {
      failure = "unsharded run failed: " + r.status.to_string();
    } else if (!same_bits(inst.cold.output, r.output)) {
      failure = "sharded output differs from the unsharded run";
    }
    tally.record(failure);
  }
}

// ---- Output ---------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;  ///< sample count or source, printed beside the value
};

std::string json_number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void print_result(const std::vector<Metric>& metrics, const Tally& tally) {
  for (const Metric& m : metrics) {
    std::printf("  %-28s %16.6f %-8s %s\n", m.name.c_str(), m.value, m.unit.c_str(),
                m.note.c_str());
  }
  // error_rate is failed / attempted of the result line; it is printed here
  // rather than among the metrics because a metric that reads 0 on every
  // good run has no median to bound a regression by.
  std::printf("  %-28s %16.6f %-8s (failed %lld of %lld runs and checks)\n", "error_rate",
              tally.attempted > 0 ? static_cast<double>(tally.failed) / tally.attempted : 1.0,
              "fraction", static_cast<long long>(tally.failed),
              static_cast<long long>(tally.attempted));
  for (const std::string& e : tally.errors) std::printf("FAILED: %s\n", e.c_str());
  std::string line = "{\"correct\": ";
  line += tally.failed == 0 ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(tally.attempted);
  line += ", \"failed\": " + std::to_string(tally.failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) line += ", ";
    line += "\"" + metrics[i].name + "\": {\"value\": " + json_number(metrics[i].value) +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

std::string samples(std::size_t n, const char* what) {
  return "(n=" + std::to_string(n) + " " + what + ")";
}

// ---- --trace 0: end-to-end metrics -----------------------------------------

std::vector<Metric> end_to_end(const Workload& w, std::uint64_t seed, double seconds,
                               Calibration& cal, Tally& tally) {
  Instance inst;
  std::optional<Expected> first;
  std::vector<double> setups, raw_setups;
  for (int s = 0; s < kSetups; ++s) {
    inst = Instance{};  // free the previous set-up first: it would inflate peak_rss_mb
    double setup_s = 0.0, raw_s = 0.0;
    if (const std::optional<std::string> err = set_up(w, seed, cal, inst, setup_s, raw_s)) {
      tally.record(*err);
      return {};
    }
    setups.push_back(setup_s);
    raw_setups.push_back(raw_s);
    // Every engine built from the same seed must compute the same pass.
    if (!first) first.emplace(inst.cold);
    tally.record(first->check(inst.cold));
  }
  const Timing t =
      closed_loop(inst, w, seconds, cal, tally, [](std::size_t, auto&& run) { return run(); });
  // Before the reference checks allocate; less the calibration buffers.
  const double rss = peak_rss_mb() - static_cast<double>(cal.bytes()) / (1024.0 * 1024.0);
  verify_outputs(inst, w, tally);
  return {
      {"setup_s", median(setups), "s",
       samples(setups.size(), "set-ups") + " wall-clock p50 " + std::to_string(median(raw_setups)) +
           " s"},
      {"run_ms_p50", t.p50(), "ms", samples(t.ms.size(), "warm runs") + t.raw()},
      {"runs_per_s", t.per_s(), "1/s", samples(t.ms.size(), "verified runs")},
      {"peak_rss_mb", rss, "MB", "(process peak after the timed loop, less the calibration loop)"},
      {"sim_ms", inst.cold.ms, "ms", "(simulated device time of one pass)"},
  };
}

// ---- --trace 1: per-layer metrics ------------------------------------------

/// A span tree over the tracer's records: per span, its direct children's
/// total duration (spans of one thread nest, so children never overlap).
std::vector<std::uint64_t> child_time(const std::vector<prof::SpanRecord>& spans) {
  std::vector<std::size_t> idx(spans.size());
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  std::sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
    const auto& x = spans[a];
    const auto& y = spans[b];
    return std::tie(x.tid, x.start_us, x.depth) < std::tie(y.tid, y.start_us, y.depth);
  });
  std::vector<std::uint64_t> child(spans.size(), 0);
  std::vector<std::size_t> open;
  int tid = -1;
  for (const std::size_t i : idx) {
    if (spans[i].tid != tid) {
      open.clear();
      tid = spans[i].tid;
    }
    while (!open.empty() && spans[open.back()].depth >= spans[i].depth) open.pop_back();
    if (!open.empty() && spans[open.back()].depth + 1 == spans[i].depth) {
      child[open.back()] += spans[i].duration_us;
    }
    open.push_back(i);
  }
  return child;
}

/// Attributes spans opened on pool threads (which carry no request id) to
/// the request whose engine.run span encloses them in time.
void attribute_requests(std::vector<prof::SpanRecord>& spans) {
  // start -> (end, id) of each request span
  std::map<std::uint64_t, std::pair<std::uint64_t, std::string>> by_start;
  for (const auto& s : spans) {
    if (s.name == "engine.run") by_start[s.start_us] = {s.start_us + s.duration_us, s.request_id};
  }
  for (auto& s : spans) {
    if (!s.request_id.empty()) continue;
    auto it = by_start.upper_bound(s.start_us);
    if (it == by_start.begin()) continue;
    --it;
    if (s.start_us + s.duration_us <= it->second.first) s.request_id = it->second.second;
  }
}

std::vector<Metric> per_layer(const Workload& w, std::uint64_t seed, double seconds,
                              const std::string& trace_out, Calibration& cal, Tally& tally) {
  Instance inst;
  double setup_s = 0.0, raw_s = 0.0;
  if (const std::optional<std::string> err = set_up(w, seed, cal, inst, setup_s, raw_s)) {
    tally.record(*err);
    return {};
  }
  tally.record("");
  const Timing untraced =
      closed_loop(inst, w, seconds / 2, cal, tally, [](std::size_t, auto&& run) { return run(); });

  const Inputs& in = *inst.in;
  const graph::Csr& csr = in.data.csr;
  const auto gemms = layer_gemms(in, w, seed);
  prof::Tracer& tracer = prof::Tracer::instance();
  tracer.clear();
  tracer.set_enabled(true);

  // One span around each public library call, kLayerReps times.
  double pairs = 0, clusters = 0, tasks = 0, ghost_rows = 0, gemm_flops = 0;
  for (int rep = 0; rep < kLayerReps; ++rep) {
    const std::string id = "layers-" + std::to_string(rep);
    obs::RequestScope scope(id);
    prof::Span build_span("graph.build", "bench");
    const rt::Result<graph::Dataset> again = graph::try_make_dataset(w.dataset, w.scale, seed);
    build_span.end();
    tally.record(again.ok() && again->csr.row_ptr == csr.row_ptr &&
                         again->csr.col_idx == csr.col_idx
                     ? ""
                     : "dataset rebuild differs from the first build");
    {
      prof::Span span("core.locality.schedule", "bench");
      const core::LasSchedule las = core::locality_aware_schedule(csr);
      pairs = las.num_candidate_pairs;
      clusters = las.num_nontrivial_clusters;
    }
    {
      prof::Span span("core.balance.build_tasks", "bench");
      tasks = static_cast<double>(inst.eng->build_tasks(csr, task_feat(in, w)).tasks.size());
    }
    {
      prof::Span span("core.spfetch.step_index", "bench");
      for (int t = 0; t < in.sage.steps; ++t) (void)core::step_neighbor_index(csr, t);
    }
    {
      prof::Span span("shard.partition", "bench");
      shard::PartitionConfig pcfg;
      pcfg.shards = kPartitionShards;
      const rt::Result<shard::Partition> part = shard::partition_graph(csr, pcfg);
      tally.record(part.ok() ? "" : "partition failed: " + part.status().to_string());
      ghost_rows = part.ok() ? static_cast<double>(part->total_ghosts) : 0.0;
    }
    gemm_flops = 0;
    for (const auto& [x, wt] : gemms) {
      prof::Span span("tensor.gemm", "bench");
      span.arg("m", static_cast<double>(x.rows()));
      span.arg("k", static_cast<double>(x.cols()));
      span.arg("n", static_cast<double>(wt->cols()));
      (void)tensor::gemm(x, *wt);
      gemm_flops += 2.0 * static_cast<double>(x.rows()) * static_cast<double>(x.cols()) *
                    static_cast<double>(wt->cols());
    }
  }

  const Timing traced =
      closed_loop(inst, w, seconds / 2, cal, tally, [](std::size_t i, auto&& run) {
        const std::string id = "req-" + std::to_string(i);
        obs::RequestScope scope(id);
        prof::Span span("engine.run", "bench");
        return run();
      });
  tracer.set_enabled(false);
  std::vector<prof::SpanRecord> spans = tracer.snapshot();
  tracer.clear();
  attribute_requests(spans);
  const std::vector<std::uint64_t> child = child_time(spans);

  // Per name: durations (one per call), summed per request id.
  std::map<std::string, std::map<std::string, double>> dur_s;  // name -> id -> s
  std::map<std::string, double> engine_self, sim_launch, sim_self;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const prof::SpanRecord& s = spans[i];
    const double d = 1e-6 * static_cast<double>(s.duration_us);
    const double self = 1e-6 * static_cast<double>(s.duration_us - child[i]);
    if (s.category == "bench") dur_s[s.name][s.request_id] += d;
    if (!s.request_id.starts_with("req-")) continue;
    // The request's span and the engine's run_* wrapper directly under it:
    // their self time is the engine's unspanned work (host numerics, trace
    // build, allocation, and on the sharded path waiting for pool jobs).
    if (s.name == "engine.run" || s.name.starts_with("OptimizedEngine::run_")) {
      engine_self[s.request_id] += self;
    }
    if (s.category == "sim") {
      sim_launch[s.request_id] += d;
      sim_self[s.request_id] += self;
    }
  }
  const auto med = [](const std::map<std::string, double>& by_id) {
    std::vector<double> v;
    for (const auto& [id, x] : by_id) v.push_back(x);
    return median(v);
  };
  const auto layer = [&](const std::string& name) { return med(dur_s[name]); };

  const sim::RunStats& st = inst.cold.stats;
  std::uint64_t dram = 0;
  for (const auto& k : st.kernels) dram += k.dram_bytes;
  const double accesses = static_cast<double>(st.total_hits() + st.total_misses());
  std::vector<double> ns_per_access;
  for (const auto& [id, s] : sim_self) {
    ns_per_access.push_back(accesses > 0 ? 1e9 * s / accesses : 0.0);
  }
  const double gemm_s = layer("tensor.gemm");

  if (!trace_out.empty()) {
    const rt::Status written = prof::write_chrome_trace_file(trace_out, spans);
    tally.record(written.ok() ? "" : "trace not written: " + written.to_string());
    if (written.ok()) {
      std::printf("chrome trace (%zu spans) -> %s\n", spans.size(), trace_out.c_str());
    }
  }
  verify_outputs(inst, w, tally);

  const std::string reps = samples(kLayerReps, "calls");
  const std::string reqs = samples(traced.ms.size(), "traced runs");
  const std::string cold = "(cold run; every traced and untraced run matched it)";
  return {
      {"graph.build_s", layer("graph.build"), "s", reps},
      {"graph.edges", static_cast<double>(csr.num_edges()), "count", ""},
      {"core.locality.schedule_s", layer("core.locality.schedule"), "s", reps},
      {"core.locality.pairs", pairs, "count", ""},
      {"core.locality.clusters", clusters, "count", ""},
      {"core.balance.tasks_s", layer("core.balance.build_tasks"), "s", reps},
      {"core.balance.tasks", tasks, "count", ""},
      {"core.spfetch.index_s", layer("core.spfetch.step_index"), "s", reps},
      {"shard.partition_s", layer("shard.partition"), "s", reps},
      {"shard.ghost_rows", ghost_rows, "count", ""},
      {"tensor.gemm_s", gemm_s, "s", reps},
      {"tensor.gemm_flops", gemm_flops, "count", ""},
      {"tensor.gemm_gflops", gemm_s > 0 ? gemm_flops / gemm_s / 1e9 : 0.0, "GFLOP/s", reps},
      {"engine.run_s", layer("engine.run"), "s", reqs},
      {"engine.self_s", med(engine_self), "s", reqs},
      {"engine.degraded_knobs", static_cast<double>(inst.eng->degraded_knobs().size()), "count",
       ""},
      {"sim.launch_s", med(sim_launch), "s", reqs},
      {"sim.launches", static_cast<double>(st.num_launches()), "count", cold},
      {"sim.l2_accesses", accesses, "count", cold},
      {"sim.l2_hit_rate", st.l2_hit_rate(), "fraction", cold},
      {"sim.dram_bytes", static_cast<double>(dram), "bytes", cold},
      {"sim.cycles", st.total_cycles, "cycles", cold},
      {"sim.replay_ns_per_access", median(ns_per_access), "ns", reqs},
      {"sim.ghost_bytes", static_cast<double>(st.ghost_bytes), "bytes", cold},
      {"sim.exchange_cycles", st.exchange_cycles, "cycles", cold},
      {"trace.overhead_frac", untraced.p50() > 0 ? traced.p50() / untraced.p50() - 1.0 : 0.0,
       "fraction",
       "(traced p50 over untraced p50, n=" + std::to_string(traced.ms.size()) + "/" +
           std::to_string(untraced.ms.size()) + ")"},
  };
}

// ---- main -----------------------------------------------------------------

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload NAME --seed N [--seconds S] [--trace 0|1]\n"
               "                 [--trace-out PATH] [--git-sha SHA]\n"
               "workloads:",
               why);
  for (const Workload& w : kWorkloads) {
    std::fprintf(stderr, " %.*s", int(w.name.size()), w.name.data());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

template <typename T>
T parse_number(const char* flag, const char* s) {
  char* end = nullptr;
  errno = 0;
  T v{};
  if constexpr (std::is_floating_point_v<T>) {
    v = static_cast<T>(std::strtod(s, &end));
  } else {
    v = static_cast<T>(std::strtoull(s, &end, 10));
  }
  if (end == s || *end != '\0' || errno == ERANGE || *s == '-') {
    usage((std::string("bad value for ") + flag + ": " + s).c_str());
  }
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  const Workload* w = nullptr;
  std::optional<std::uint64_t> seed;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out, git_sha = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + std::string(flag)).c_str());
    const char* val = argv[++i];
    if (flag == "--workload") {
      for (const Workload& cand : kWorkloads) {
        if (cand.name == val) w = &cand;
      }
      if (!w) usage((std::string("unknown workload: ") + val).c_str());
    } else if (flag == "--seed") {
      seed = parse_number<std::uint64_t>("--seed", val);
    } else if (flag == "--seconds") {
      seconds = parse_number<double>("--seconds", val);
      if (!(seconds > 0.0) || seconds > 600.0) usage("--seconds must be in (0, 600]");
    } else if (flag == "--trace") {
      if (std::string_view(val) != "0" && std::string_view(val) != "1") usage("--trace is 0 or 1");
      trace = val[0] == '1';
    } else if (flag == "--trace-out") {
      trace_out = val;
    } else if (flag == "--git-sha") {
      git_sha = val;
    } else {
      usage(("unknown flag " + std::string(flag)).c_str());
    }
  }
  if (!w) usage("--workload is required");
  if (!seed) usage("--seed is required");

  const int nproc = usable_cpus();
  const int threads = std::min(kPoolThreads, nproc);
  par::set_max_threads(threads);

  std::printf("perfbench %.*s: model=%.*s mode=%s dataset=%.*s scale=%.2f shards=%d seed=%llu "
              "seconds=%g trace=%d\n",
              int(w->name.size()), w->name.data(), int(models::model_name(w->model).size()),
              models::model_name(w->model).data(),
              w->mode == ExecMode::kFull ? "full" : "simulate_only",
              int(graph::dataset_name(w->dataset).size()), graph::dataset_name(w->dataset).data(),
              w->scale, w->shards, static_cast<unsigned long long>(*seed), seconds, trace ? 1 : 0);
  std::printf("provenance: git_sha=%s nproc=%d pool_threads=%d asserts=%s\n", git_sha.c_str(),
              nproc, par::max_threads(), kAssertsOn ? "on" : "off");
  if (kAssertsOn) {
    std::printf("WARNING: built without NDEBUG (asserts on); timings are unfit for comparison\n");
  }
  std::fflush(stdout);

  Tally tally;
  Calibration cal;
  const std::vector<Metric> metrics = trace ? per_layer(*w, *seed, seconds, trace_out, cal, tally)
                                           : end_to_end(*w, *seed, seconds, cal, tally);
  print_result(metrics, tally);
  return tally.failed == 0 ? 0 : 1;
}

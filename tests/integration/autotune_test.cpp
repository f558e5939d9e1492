// The engine's integrated online tuner (EngineConfig::auto_tune).
#include <gtest/gtest.h>

#include <new>
#include <string>
#include <thread>
#include <vector>

#include "engine/engine.hpp"
#include "graph/datasets.hpp"
#include "models/reference.hpp"
#include "rt/fault.hpp"
#include "tests/testing/util.hpp"

namespace gnnbridge {
namespace {

using engine::EngineConfig;
using engine::OptimizedEngine;
using kernels::ExecMode;

TEST(AutoTune, PreservesSemantics) {
  const graph::Dataset data = graph::make_dataset(graph::DatasetId::kCollab, 0.01);
  models::GcnConfig cfg;
  cfg.dims = {16, 8, 4};
  const models::GcnParams params = models::init_gcn(cfg, 1);
  const models::Matrix x = models::init_features(data.csr.num_nodes, 16, 2);
  const models::Matrix expect = models::gcn_forward_ref(data.csr, x, cfg, params);

  EngineConfig ecfg;
  ecfg.auto_tune = true;
  OptimizedEngine e(ecfg);
  const auto r = e.run_gcn(data, {&cfg, &params, &x}, ExecMode::kFull, sim::v100());
  EXPECT_TRUE(tensor::allclose(r.output, expect, 2e-3f, 2e-4f));
}

TEST(AutoTune, NotSlowerThanDefaultsOnSkewedGraph) {
  const graph::Dataset data = graph::make_dataset(graph::DatasetId::kArxiv, 0.1);
  models::GcnConfig cfg;
  cfg.dims = {64, 48};  // an awkward width the static 32-lane default wastes
  const models::GcnParams params = models::init_gcn(cfg, 3);
  const models::Matrix x = models::init_features(data.csr.num_nodes, 64, 4);

  EngineConfig plain;
  plain.use_neighbor_grouping = false;  // untuned static schedule
  EngineConfig tuned = plain;
  tuned.auto_tune = true;
  OptimizedEngine a(plain), b(tuned);
  const auto ra = a.run_gcn(data, {&cfg, &params, &x}, ExecMode::kSimulateOnly, sim::v100());
  const auto rb = b.run_gcn(data, {&cfg, &params, &x}, ExecMode::kSimulateOnly, sim::v100());
  EXPECT_LT(rb.ms, ra.ms * 1.05);  // tuning must not regress materially
}

// Regression: the engine used to key its memoized LAS order and tuned
// configuration by the graph's address (&csr). A dataset mutated or
// reloaded in place — same address, different content — silently reused
// the stale schedule. The caches are now keyed by content fingerprint;
// swapping a different graph into the same Dataset object must retune.
TEST(AutoTune, MutatedGraphAtSameAddressIsRetuned) {
  graph::Dataset data = graph::make_dataset(graph::DatasetId::kCollab, 0.02);
  models::GcnConfig cfg;
  cfg.dims = {32, 16};
  const models::GcnParams params = models::init_gcn(cfg, 5);

  // Two cache populations: the default engine memoizes LAS orders; the
  // auto-tuning engine memoizes tuned configurations (which may well turn
  // LAS off for a small graph, so its LAS cache is not asserted).
  OptimizedEngine las_engine;
  EngineConfig tcfg;
  tcfg.auto_tune = true;
  OptimizedEngine tuned_engine(tcfg);

  const auto run_both = [&](const models::Matrix& x) {
    const auto rl =
        las_engine.run_gcn(data, {&cfg, &params, &x}, ExecMode::kSimulateOnly, sim::v100());
    EXPECT_TRUE(rl.status.ok()) << rl.status.to_string();
    const auto rt =
        tuned_engine.run_gcn(data, {&cfg, &params, &x}, ExecMode::kSimulateOnly, sim::v100());
    EXPECT_TRUE(rt.status.ok()) << rt.status.to_string();
    return rt;
  };

  const models::Matrix x1 = models::init_features(data.csr.num_nodes, 32, 6);
  const auto r1 = run_both(x1);
  EXPECT_EQ(las_engine.las_cache_size(), 1u);
  EXPECT_EQ(tuned_engine.tuned_cache_size(), 1u);

  // Reload a structurally different graph into the same Dataset object:
  // `data.csr` keeps its address but now holds different content.
  data.csr = graph::make_dataset(graph::DatasetId::kArxiv, 0.02).csr;
  const models::Matrix x2 = models::init_features(data.csr.num_nodes, 32, 6);
  run_both(x2);
  EXPECT_EQ(las_engine.las_cache_size(), 2u) << "stale LAS order reused for mutated graph";
  EXPECT_EQ(tuned_engine.tuned_cache_size(), 2u) << "stale tuned config reused for mutated graph";

  // And the original graph's entries are still valid: rerunning the first
  // input hits the cache instead of growing it.
  data.csr = graph::make_dataset(graph::DatasetId::kCollab, 0.02).csr;
  const auto r3 = run_both(x1);
  EXPECT_EQ(las_engine.las_cache_size(), 2u);
  EXPECT_EQ(tuned_engine.tuned_cache_size(), 2u);
  EXPECT_DOUBLE_EQ(r1.ms, r3.ms);
}

TEST(AutoTune, TunedConfigCachedAcrossRuns) {
  const graph::Dataset data = graph::make_dataset(graph::DatasetId::kCollab, 0.02);
  models::GcnConfig cfg;
  cfg.dims = {32, 16};
  const models::GcnParams params = models::init_gcn(cfg, 5);
  const models::Matrix x = models::init_features(data.csr.num_nodes, 32, 6);

  EngineConfig ecfg;
  ecfg.auto_tune = true;
  OptimizedEngine e(ecfg);
  const auto r1 = e.run_gcn(data, {&cfg, &params, &x}, ExecMode::kSimulateOnly, sim::v100());
  const auto r2 = e.run_gcn(data, {&cfg, &params, &x}, ExecMode::kSimulateOnly, sim::v100());
  // Deterministic and identical: the cached tuned config is reused.
  EXPECT_DOUBLE_EQ(r1.ms, r2.ms);
}

// Regression: graph::fingerprint hashes topology only, and the tuned-knob
// cache used to be keyed by it alone — so a second model with a different
// feature width on the same graph was served knobs (lane width, LAS bound)
// tuned for the first width. The cache key now carries the aggregated
// feature length (dims[1], the width aggregation actually runs at); same
// graph + new width must retune, and re-running either width must hit its
// own entry.
TEST(AutoTune, SameGraphDifferentFeatureWidthIsRetuned) {
  const graph::Dataset data = graph::make_dataset(graph::DatasetId::kCollab, 0.02);
  EngineConfig ecfg;
  ecfg.auto_tune = true;
  OptimizedEngine e(ecfg);

  const auto run_width = [&](tensor::Index hidden, int seed) {
    models::GcnConfig cfg;
    cfg.dims = {32, hidden};
    const models::GcnParams params = models::init_gcn(cfg, seed);
    const models::Matrix x = models::init_features(data.csr.num_nodes, 32, seed + 1);
    const auto r = e.run_gcn(data, {&cfg, &params, &x}, ExecMode::kSimulateOnly, sim::v100());
    EXPECT_TRUE(r.status.ok()) << r.status.to_string();
    return r;
  };

  // Each attempt reads tuned knobs from this engine's own cache, so what
  // other tests tuned on this graph (even at a recycled engine address)
  // cannot populate or bypass it.
  const auto r24 = run_width(24, 6);
  EXPECT_EQ(e.tuned_cache_size(), 1u);
  run_width(96, 8);
  EXPECT_EQ(e.tuned_cache_size(), 2u)
      << "feature width ignored: 96-wide run served the 24-wide tuned knobs";
  // Both entries stay live: re-running the first width hits its own cache
  // entry (identical clock) instead of growing or clobbering the table.
  const auto again = run_width(24, 6);
  EXPECT_EQ(e.tuned_cache_size(), 2u);
  EXPECT_DOUBLE_EQ(r24.ms, again.ms);
}

// Regression: tuned knobs used to be published in a thread-local entry
// keyed by the engine's address, and an attempt that found a matching entry
// skipped its own cache. An engine built in the storage of a destroyed one
// was served the old engine's tune and never filled its own cache.
TEST(AutoTune, RecycledEngineAddressTunesItsOwnCache) {
  const graph::Dataset data = graph::make_dataset(graph::DatasetId::kCollab, 0.02);
  models::GcnConfig cfg;
  cfg.dims = {32, 16};
  const models::GcnParams params = models::init_gcn(cfg, 5);
  const models::Matrix x = models::init_features(data.csr.num_nodes, 32, 6);
  EngineConfig ecfg;
  ecfg.auto_tune = true;

  alignas(OptimizedEngine) unsigned char storage[sizeof(OptimizedEngine)];
  const auto run_in_storage = [&] {
    auto* e = new (storage) OptimizedEngine(ecfg);
    const auto r = e->run_gcn(data, {&cfg, &params, &x}, ExecMode::kSimulateOnly, sim::v100());
    EXPECT_TRUE(r.status.ok()) << r.status.to_string();
    EXPECT_EQ(e->tuned_cache_size(), 1u);
    e->~OptimizedEngine();
    return r.stats.total_cycles;
  };
  const double first = run_in_storage();
  const double second = run_in_storage();
  EXPECT_DOUBLE_EQ(first, second);
}

// Regression: once auto_tune was degraded for good, the thread that had run
// the tune still used the tuned knobs for that graph while every other
// thread used the heuristic ones, so the same run's cycles depended on the
// calling thread. A degraded knob now means the fallback on every thread.
TEST(AutoTune, StickyDegradationHoldsOnEveryThread) {
  const graph::Dataset g = graph::make_dataset(graph::DatasetId::kArxiv, 0.1);
  const graph::Dataset h = graph::make_dataset(graph::DatasetId::kCollab, 0.02);
  models::GcnConfig cfg;
  cfg.dims = {64, 48};
  const models::GcnParams params = models::init_gcn(cfg, 3);
  const models::Matrix xg = models::init_features(g.csr.num_nodes, 64, 4);
  const models::Matrix xh = models::init_features(h.csr.num_nodes, 64, 4);
  EngineConfig ecfg;
  ecfg.auto_tune = true;
  OptimizedEngine e(ecfg);
  const auto run_g = [&] {
    const auto r = e.run_gcn(g, {&cfg, &params, &xg}, ExecMode::kSimulateOnly, sim::v100());
    EXPECT_TRUE(r.status.ok()) << r.status.to_string();
    return r.stats.total_cycles;
  };

  run_g();
  ASSERT_EQ(e.tuned_cache_size(), 1u);
  {
    struct ClearPlan {
      ~ClearPlan() { rt::FaultInjector::instance().clear(); }
    } clear_plan;
    ASSERT_TRUE(rt::FaultInjector::instance().set_plan("tuner_probe=*").ok());
    const auto r = e.run_gcn(h, {&cfg, &params, &xh}, ExecMode::kSimulateOnly, sim::v100());
    EXPECT_TRUE(r.status.ok()) << r.status.to_string();
  }
  ASSERT_EQ(e.degraded_knobs(), std::vector<std::string>{"auto_tune"});

  const double here = run_g();
  double fresh = 0.0;
  std::thread([&] { fresh = run_g(); }).join();
  EXPECT_DOUBLE_EQ(here, fresh);
  // The fallback is the untuned engine's schedule.
  OptimizedEngine untuned;
  const auto r = untuned.run_gcn(g, {&cfg, &params, &xg}, ExecMode::kSimulateOnly, sim::v100());
  EXPECT_DOUBLE_EQ(here, r.stats.total_cycles);
}

}  // namespace
}  // namespace gnnbridge

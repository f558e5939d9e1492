// Kernel-library microbenchmarks (google-benchmark harness).
//
// These measure the *host cost of the simulation itself* — how fast the
// trace replay and scheduling run — so contributors can see what a
// simulated kernel launch costs them in wall-clock time and spot
// regressions in the simulator hot paths. BM_HostGemm adds the host
// arithmetic of a kFull GEMM on top of its replay.
#include <benchmark/benchmark.h>

#include "bench_util.hpp"
#include "core/balance/neighbor_grouping.hpp"
#include "core/locality/schedule.hpp"
#include "graph/datasets.hpp"
#include "kernels/dense.hpp"
#include "kernels/spmm.hpp"
#include "tensor/rng.hpp"

using namespace gnnbridge;

namespace {

const graph::Dataset& collab() {
  static const graph::Dataset* d =
      new graph::Dataset(graph::make_dataset(graph::DatasetId::kCollab, 0.1));
  return *d;
}

void BM_SpmmReplay(benchmark::State& state) {
  const graph::Dataset& d = collab();
  const auto tasks = kernels::natural_tasks(d.csr);
  const tensor::Index feat = state.range(0);
  for (auto _ : state) {
    sim::SimContext ctx(sim::v100());
    const auto gdev = kernels::device_graph(ctx, d.csr, "csr");
    auto src = kernels::device_mat_shape(ctx, d.csr.num_nodes, feat, "src");
    auto out = kernels::device_mat_shape(ctx, d.csr.num_nodes, feat, "out");
    kernels::SpmmArgs args{.graph = &gdev,
                           .tasks = tasks,
                           .src = &src,
                           .out = &out};
    benchmark::DoNotOptimize(kernels::spmm_node(ctx, args).cycles);
  }
  state.SetItemsProcessed(state.iterations() * d.csr.num_edges());
}
BENCHMARK(BM_SpmmReplay)->Arg(32)->Arg(128);

void BM_GemmReplay(benchmark::State& state) {
  const tensor::Index n = state.range(0);
  for (auto _ : state) {
    sim::SimContext ctx(sim::v100());
    auto a = kernels::device_mat_shape(ctx, n, 128, "a");
    auto b = kernels::device_mat_shape(ctx, 128, 64, "b");
    auto c = kernels::device_mat_shape(ctx, n, 64, "c");
    benchmark::DoNotOptimize(
        kernels::dense_gemm(ctx, {.a = &a, .b = &b, .c = &c})
            .cycles);
  }
}
BENCHMARK(BM_GemmReplay)->Arg(4096)->Arg(16384);

/// The paper's GCN layer GEMMs on 20000 rows ([K] x [N] per argument pair),
/// in kFull: the host product (tensor::gemm_rows over parallel row chunks)
/// plus the same trace and replay BM_GemmReplay times alone. Items are
/// FLOPs, so items_per_second reads as FLOP/s.
void BM_HostGemm(benchmark::State& state) {
  constexpr tensor::Index kRows = 20000;
  const tensor::Index kdim = state.range(0), n = state.range(1);
  tensor::Rng rng(7);
  tensor::Matrix a_host(kRows, kdim), b_host(kdim, n), c_host(kRows, n);
  tensor::fill_uniform(a_host, rng);
  tensor::fill_uniform(b_host, rng);
  for (auto _ : state) {
    sim::SimContext ctx(sim::v100());
    auto a = kernels::device_mat(ctx, a_host, "a");
    auto b = kernels::device_mat(ctx, b_host, "b");
    auto c = kernels::device_mat(ctx, c_host, "c");
    benchmark::DoNotOptimize(kernels::dense_gemm(ctx, {.a = &a, .b = &b, .c = &c}).cycles);
    benchmark::DoNotOptimize(c_host.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * 2 * kRows * kdim * n);
}
BENCHMARK(BM_HostGemm)->Args({512, 128})->Args({128, 64})->Args({64, 32})->Unit(
    benchmark::kMillisecond);

void BM_LasOfflinePass(benchmark::State& state) {
  const graph::Dataset& d = collab();
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::locality_aware_schedule(d.csr).order.size());
  }
  state.SetItemsProcessed(state.iterations() * d.csr.num_edges());
}
BENCHMARK(BM_LasOfflinePass);

void BM_NeighborGroupingOnlinePass(benchmark::State& state) {
  const graph::Dataset& d = collab();
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::neighbor_group_tasks(d.csr, 16).tasks.size());
  }
  state.SetItemsProcessed(state.iterations() * d.csr.num_nodes);
}
BENCHMARK(BM_NeighborGroupingOnlinePass);

}  // namespace

// Custom main instead of BENCHMARK_MAIN(): bootstraps the metrics sink
// (GNNBRIDGE_METRICS_JSON / GNNBRIDGE_TRACE_JSON) and records one untimed
// representative replay so this binary emits the same schema as the rest.
int main(int argc, char** argv) {
  bench::banner("Micro kernels", "host cost of simulated kernel replay");
  {
    const graph::Dataset& d = collab();
    const auto tasks = kernels::natural_tasks(d.csr);
    sim::SimContext ctx(sim::v100());
    const auto gdev = kernels::device_graph(ctx, d.csr, "csr");
    auto src = kernels::device_mat_shape(ctx, d.csr.num_nodes, 32, "src");
    auto out = kernels::device_mat_shape(ctx, d.csr.num_nodes, 32, "out");
    kernels::SpmmArgs args{.graph = &gdev,
                           .tasks = tasks,
                           .src = &src,
                           .out = &out};
    kernels::spmm_node(ctx, args);
    bench::record_stats("micro/spmm_replay/" + d.name, "aggregation", "micro", d.name,
                        ctx.stats());
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

// Figure 3 — L2 cache miss rates of graph operations in the last layer of
// GCN in DGL (node-parallel tasks in natural order; the SUM reducer goes
// through the vendor cuSPARSE-style path, so all bars here are the
// "w/ cuSPARSE" variant, as in the paper's GCN measurement).
//
// Expected shape: well over 50% miss rate everywhere except the small or
// inherently clustered datasets (ddi, protein).
#include "bench_util.hpp"
#include "kernels/spmm.hpp"

using namespace gnnbridge;

int main() {
  bench::banner("Figure 3", "L2 miss rate of DGL's GCN last-layer graph operation");
  // Last GCN layer: aggregation runs on the transformed features, F = 32.
  constexpr tensor::Index kFeat = 32;

  std::printf("%-10s %12s %12s %12s\n", "dataset", "l2 miss %", "lines", "misses");
  bench::DatasetCache cache;
  for (graph::DatasetId id : graph::kAllDatasets) {
    const graph::Dataset& d = cache.get(id);
    sim::SimContext ctx(sim::v100());
    const auto gdev = kernels::device_graph(ctx, d.csr, "csr");
    auto src = kernels::device_mat_shape(ctx, d.csr.num_nodes, kFeat, "src");
    auto out = kernels::device_mat_shape(ctx, d.csr.num_nodes, kFeat, "out");
    auto norm = kernels::device_mat_shape(ctx, d.csr.num_edges(), 1, "norm");

    kernels::SpmmArgs args{.graph = &gdev,
                           .tasks = {},
                           .src = &src,
                           .edge_weight = &norm,
                           .out = &out};
    const sim::KernelStats ks = kernels::spmm_vendor(ctx, args);
    bench::record_stats("l2_miss/" + d.name, "gcn-last-layer", "dgl", d.name, ctx.stats());
    std::printf("%-10s %12.1f %12llu %12llu\n", d.name.c_str(), 100.0 * ks.l2_miss_rate(),
                static_cast<unsigned long long>(ks.l2_hits + ks.l2_misses),
                static_cast<unsigned long long>(ks.l2_misses));
  }
  std::printf("\npaper (Fig 3): >50%% miss everywhere except ddi (~15%%) and protein "
              "(~25%%)\n");
  return 0;
}

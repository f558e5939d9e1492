// Table 4 — The percentage of time when the number of active thread blocks
// is less than 100% / 50% / 10% of the device's concurrent capacity, for
// DGL's GAT graph operations (node-parallel, whole-row tasks).
//
// Expected shape: arxiv (extreme hubs) spends most of its time
// underutilized; ddi/collab substantial; the big regular graphs little.
#include "bench_util.hpp"
#include "kernels/sddmm.hpp"
#include "kernels/spmm.hpp"

using namespace gnnbridge;

int main() {
  bench::banner("Table 4", "% of time active blocks below capacity, DGL GAT graph ops");
  constexpr tensor::Index kFeat = 32;  // last-layer aggregation width
  const sim::DeviceSpec spec = sim::v100();
  const int slots = spec.total_block_slots();

  std::printf("%-10s %8s %8s %8s\n", "dataset", "<100%", "<50%", "<10%");
  bench::DatasetCache cache;
  for (graph::DatasetId id : graph::kAllDatasets) {
    const graph::Dataset& d = cache.get(id);
    sim::SimContext ctx(spec);
    const auto gdev = kernels::device_graph(ctx, d.csr, "csr");
    auto src = kernels::device_mat_shape(ctx, d.csr.num_nodes, kFeat, "src");
    auto out = kernels::device_mat_shape(ctx, d.csr.num_nodes, kFeat, "out");
    auto e = kernels::device_mat_shape(ctx, d.csr.num_edges(), 1, "e");
    auto att = kernels::device_mat_shape(ctx, d.csr.num_nodes, 1, "att");
    const auto tasks = kernels::natural_tasks(d.csr);

    // The GAT graph-op phase: attention scores + weighted aggregation
    // (the two node-parallel kernels whose occupancy the paper profiles).
    sim::Timeline combined;
    kernels::UAddVArgs uav{.graph = &gdev,
                           .tasks = tasks,
                           .src_scalar = &att,
                           .dst_scalar = &att,
                           .edge_out = &e};
    combined.append(kernels::u_add_v(ctx, uav).timeline);
    kernels::SpmmArgs agg{.graph = &gdev,
                          .tasks = tasks,
                          .src = &src,
                          .edge_weight = &e,
                          .out = &out,
                          .name = "u_mul_e_sum"};
    combined.append(kernels::spmm_node(ctx, agg).timeline);
    bench::record_stats("occupancy/" + d.name, "gat-graph-ops", "dgl", d.name, ctx.stats());

    std::printf("%-10s %8.2f %8.2f %8.2f\n", d.name.c_str(),
                100.0 * combined.fraction_below(1.0, slots),
                100.0 * combined.fraction_below(0.5, slots),
                100.0 * combined.fraction_below(0.1, slots));
  }
  std::printf("\npaper (Table 4): arxiv 90/90/88, collab 34/33/32, citation 3/2/1, ddi "
              "74/64/43,\n               protein 14/11/9, ppa 6/5/3, reddit 19/17/15, "
              "products 6/4/4\n");
  return 0;
}

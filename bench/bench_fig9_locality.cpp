// Figure 9 — L2 hit rates of the last GCN layer's graph operation under
// the four schedules: best prior (DGL/PyG/ROC natural order, best of the
// three), neighbor grouping alone, locality-aware scheduling alone, and
// both. NG+LAS should lead on most datasets; the inherently clustered
// graphs (protein, ddi) lose slightly when LAS breaks their natural
// layout.
#include "bench_util.hpp"
#include "core/balance/neighbor_grouping.hpp"
#include "core/locality/reorder_baselines.hpp"
#include "core/locality/schedule.hpp"
#include "kernels/expand.hpp"
#include "kernels/spmm.hpp"

using namespace gnnbridge;

namespace {

constexpr tensor::Index kFeat = 128;  // locality matters when rows are fat

double node_parallel_hit_rate(const graph::Dataset& d, std::span<const kernels::Task> tasks,
                              bool atomic, const char* schedule) {
  sim::SimContext ctx(sim::v100());
  const auto gdev = kernels::device_graph(ctx, d.csr, "csr");
  auto src = kernels::device_mat_shape(ctx, d.csr.num_nodes, kFeat, "src");
  auto out = kernels::device_mat_shape(ctx, d.csr.num_nodes, kFeat, "out");
  kernels::SpmmArgs args{.graph = &gdev,
                         .tasks = tasks,
                         .src = &src,
                         .out = &out,
                         .atomic_merge = atomic};
  const double hit = kernels::spmm_node(ctx, args).l2_hit_rate();
  bench::record_stats("locality/" + std::string(schedule) + "/" + d.name, "gcn-last-layer",
                      schedule, d.name, ctx.stats());
  return hit;
}

double edge_parallel_hit_rate(const graph::Dataset& d) {
  sim::SimContext ctx(sim::v100());
  const auto edev = kernels::device_edges(ctx, d.coo, "coo");
  auto src = kernels::device_mat_shape(ctx, d.csr.num_nodes, kFeat, "src");
  auto expanded = kernels::device_mat_shape(ctx, d.coo.num_edges(), kFeat, "exp");
  kernels::GatherArgs args{.edges = &edev,
                           .by_src = true,
                           .feat = &src,
                           .expanded = &expanded};
  const double hit = kernels::gather(ctx, args).l2_hit_rate();
  bench::record_stats("locality/edge-parallel/" + d.name, "gcn-last-layer", "edge-parallel",
                      d.name, ctx.stats());
  return hit;
}

}  // namespace

int main() {
  bench::banner("Figure 9", "L2 hit rate: best prior / NG / LAS / NG+LAS");

  std::printf("%-10s %12s %8s %8s %8s | %10s %8s\n", "dataset", "best prior", "NG", "LAS",
              "NG+LAS", "NG+degree", "NG+BFS");
  bench::DatasetCache cache;
  for (graph::DatasetId id : graph::kAllDatasets) {
    const graph::Dataset& d = cache.get(id);
    const auto whole = kernels::natural_tasks(d.csr);
    const double prior_node = node_parallel_hit_rate(d, whole, false, "natural");
    const double prior_edge = edge_parallel_hit_rate(d);
    const double best_prior = std::max(prior_node, prior_edge);

    const graph::EdgeId bound =
        std::max<graph::EdgeId>(16, (static_cast<graph::EdgeId>(d.stats.avg_degree) + 15) /
                                        16 * 16);
    const core::GroupedTasks ng = core::neighbor_group_tasks(d.csr, bound);
    const double hit_ng = node_parallel_hit_rate(d, ng.tasks, ng.any_split, "ng");

    const auto las = core::locality_aware_schedule(d.csr);
    const core::GroupedTasks las_only = core::neighbor_group_tasks(d.csr, 0, las.order);
    const double hit_las = node_parallel_hit_rate(d, las_only.tasks, false, "las");

    const core::GroupedTasks both = core::neighbor_group_tasks(d.csr, bound, las.order);
    const double hit_both = node_parallel_hit_rate(d, both.tasks, both.any_split, "ng+las");

    // Extension: classic reordering baselines under the same grouping.
    const auto deg = core::degree_order(d.csr);
    const core::GroupedTasks ng_deg = core::neighbor_group_tasks(d.csr, bound, deg);
    const double hit_deg =
        node_parallel_hit_rate(d, ng_deg.tasks, ng_deg.any_split, "ng+degree");
    const auto bfs = core::bfs_order(d.csr);
    const core::GroupedTasks ng_bfs = core::neighbor_group_tasks(d.csr, bound, bfs);
    const double hit_bfs = node_parallel_hit_rate(d, ng_bfs.tasks, ng_bfs.any_split, "ng+bfs");

    std::printf("%-10s %12.1f %8.1f %8.1f %8.1f | %10.1f %8.1f\n", d.name.c_str(),
                100.0 * best_prior, 100.0 * hit_ng, 100.0 * hit_las, 100.0 * hit_both,
                100.0 * hit_deg, 100.0 * hit_bfs);
  }
  std::printf("\npaper (Fig 9): NG+LAS highest on 6/8; LAS alone helps 6/8; protein and ddi "
              "see a slight decrease.\nNG+degree / NG+BFS are our extension baselines — "
              "similarity clustering should beat both on community graphs.\n");
  return 0;
}

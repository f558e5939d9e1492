#include "kernels/expand.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <vector>

namespace gnnbridge::kernels {

namespace {
constexpr double kBlockSetupCycles = 30.0;
constexpr double kAtomicCyclesPerLine = 2.5;
}  // namespace

EdgeListOnDevice device_edges(sim::SimContext& ctx, const graph::Coo& coo, const char* name) {
  EdgeListOnDevice e;
  e.coo = &coo;
  const std::uint64_t bytes = static_cast<std::uint64_t>(coo.num_edges()) * 4;
  e.src = ctx.mem().alloc(std::string(name) + ".src", bytes);
  e.dst = ctx.mem().alloc(std::string(name) + ".dst", bytes);
  return e;
}

sim::KernelStats gather(sim::SimContext& ctx, const GatherArgs& args) {
  assert(args.edges && args.feat && args.expanded);
  const graph::Coo& coo = *args.edges->coo;
  const EdgeId num_edges = coo.num_edges();
  const Index feat = args.feat->cols;
  assert(args.expanded->cols == feat);
  const bool full = computes({args.feat, args.expanded});
  const auto& index = args.by_src ? coo.src : coo.dst;
  const sim::Buffer& index_buf = args.by_src ? args.edges->src : args.edges->dst;

  const std::uint64_t row_bytes = args.feat->row_bytes();

  sim::Kernel k;
  k.name = args.name;
  k.phase = args.phase;
  for (EdgeId chunk = 0; chunk < num_edges; chunk += kEdgeChunk) {
    const EdgeId end = std::min(chunk + kEdgeChunk, num_edges);
    sim::BlockWork blk;
    blk.read(index_buf, static_cast<std::uint64_t>(chunk) * 4,
             static_cast<std::uint32_t>((end - chunk) * 4));
    for (EdgeId e = chunk; e < end; ++e) {
      const NodeId u = index[static_cast<std::size_t>(e)];
      blk.read(args.feat->buf, args.feat->row_offset(u), static_cast<std::uint32_t>(row_bytes));
      blk.write(args.expanded->buf, args.expanded->row_offset(e),
                static_cast<std::uint32_t>(row_bytes));
      if (full) {
        auto in = args.feat->host->row(u);
        auto out = args.expanded->host->row(e);
        std::copy(in.begin(), in.end(), out.begin());
      }
    }
    blk.extra_cycles = kBlockSetupCycles;
    // Pure data movement; a copy still occupies lanes for one op per elem.
    const double moved = static_cast<double>((end - chunk) * feat);
    blk.compute_copy(moved);
    k.blocks.push_back(std::move(blk));
  }
  return ctx.launch(std::move(k));
}

sim::KernelStats scatter_reduce(sim::SimContext& ctx, const ScatterArgs& args) {
  assert(args.edges && args.expanded && args.out);
  const graph::Coo& coo = *args.edges->coo;
  const EdgeId num_edges = coo.num_edges();
  const Index feat = args.expanded->cols;
  assert(args.out->cols == feat);
  const bool full = computes({args.expanded, args.edge_weight, args.out});
  const Matrix* ew = args.edge_weight ? args.edge_weight->host : nullptr;

  if (full && args.zero_out) {
    if (args.reduce == Reduce::kMax) {
      args.out->host->fill(-std::numeric_limits<float>::infinity());
    } else {
      args.out->host->fill(0.0f);
    }
  }

  const std::uint64_t row_bytes = args.expanded->row_bytes();
  const std::uint32_t line = static_cast<std::uint32_t>(ctx.spec().line_bytes);
  const double out_lines = static_cast<double>((row_bytes + line - 1) / line);

  sim::Kernel k;
  k.name = args.name;
  k.phase = args.phase;
  for (EdgeId chunk = 0; chunk < num_edges; chunk += kEdgeChunk) {
    const EdgeId end = std::min(chunk + kEdgeChunk, num_edges);
    sim::BlockWork blk;
    blk.read(args.edges->dst, static_cast<std::uint64_t>(chunk) * 4,
             static_cast<std::uint32_t>((end - chunk) * 4));
    if (args.edge_weight) {
      blk.read(args.edge_weight->buf, static_cast<std::uint64_t>(chunk) * 4,
               static_cast<std::uint32_t>((end - chunk) * 4));
    }
    for (EdgeId e = chunk; e < end; ++e) {
      const NodeId v = coo.dst[static_cast<std::size_t>(e)];
      blk.read(args.expanded->buf, args.expanded->row_offset(e),
               static_cast<std::uint32_t>(row_bytes));
      blk.write(args.out->buf, args.out->row_offset(v), static_cast<std::uint32_t>(row_bytes));
      blk.atomic_merge(kAtomicCyclesPerLine * out_lines, row_bytes);
      if (full) {
        const float w = ew ? (*ew)(e, 0) : 1.0f;
        auto in = args.expanded->host->row(e);
        auto out = args.out->host->row(v);
        switch (args.reduce) {
          case Reduce::kSum:
          case Reduce::kMean:
            for (Index f = 0; f < feat; ++f) out[f] += w * in[f];
            break;
          case Reduce::kMax:
            for (Index f = 0; f < feat; ++f) out[f] = std::max(out[f], w * in[f]);
            break;
        }
      }
    }
    blk.extra_cycles += kBlockSetupCycles;
    const double work = 2.0 * static_cast<double>((end - chunk) * feat);
    blk.compute(work, work);
    k.blocks.push_back(std::move(blk));
  }
  const sim::KernelStats& ks = ctx.launch(std::move(k));

  if (full && args.reduce == Reduce::kMean) {
    // Mean needs degrees; derive them from the (dst-sorted) edge list.
    std::vector<float> inv_deg(static_cast<std::size_t>(coo.num_nodes), 0.0f);
    for (NodeId v : coo.dst) inv_deg[static_cast<std::size_t>(v)] += 1.0f;
    for (auto& d : inv_deg) d = d > 0.0f ? 1.0f / d : 0.0f;
    for (NodeId v = 0; v < coo.num_nodes; ++v) {
      for (float& x : args.out->host->row(v)) x *= inv_deg[static_cast<std::size_t>(v)];
    }
  }
  if (full && args.reduce == Reduce::kMax) {
    std::vector<bool> touched(static_cast<std::size_t>(coo.num_nodes), false);
    for (NodeId v : coo.dst) touched[static_cast<std::size_t>(v)] = true;
    for (NodeId v = 0; v < coo.num_nodes; ++v) {
      if (!touched[static_cast<std::size_t>(v)]) {
        for (float& x : args.out->host->row(v)) x = 0.0f;
      }
    }
  }
  return ks;
}

sim::KernelStats step_gather(sim::SimContext& ctx, const StepGatherArgs& args) {
  assert(args.graph && args.feat && args.out);
  const Csr& csr = *args.graph->csr;
  const Index feat = args.feat->cols;
  assert(args.out->cols == feat && args.out->rows == csr.num_nodes);
  const bool full = computes({args.feat, args.out});
  const std::uint64_t row_bytes = args.feat->row_bytes();

  sim::Kernel k;
  k.name = args.name;
  k.phase = args.phase;
  constexpr NodeId kNodeChunk = 128;
  for (NodeId chunk = 0; chunk < csr.num_nodes; chunk += kNodeChunk) {
    const NodeId end = std::min<NodeId>(chunk + kNodeChunk, csr.num_nodes);
    sim::BlockWork blk;
    blk.read(args.graph->row_ptr, static_cast<std::uint64_t>(chunk) * 8,
             static_cast<std::uint32_t>((end - chunk + 1) * 8));
    for (NodeId v = chunk; v < end; ++v) {
      const EdgeId d = csr.degree(v);
      // Isolated nodes fall back to their own feature row (same
      // convention as models::sage_lstm_forward_ref).
      NodeId u = v;
      if (d > 0) {
        const EdgeId idx = csr.row_ptr[v] + (static_cast<EdgeId>(args.step) % d);
        blk.read(args.graph->col_idx, static_cast<std::uint64_t>(idx) * 4, 4);
        u = csr.col_idx[static_cast<std::size_t>(idx)];
      }
      blk.read(args.feat->buf, args.feat->row_offset(u), static_cast<std::uint32_t>(row_bytes));
      blk.write(args.out->buf, args.out->row_offset(v), static_cast<std::uint32_t>(row_bytes));
      if (full) {
        auto in = args.feat->host->row(u);
        auto outr = args.out->host->row(v);
        std::copy(in.begin(), in.end(), outr.begin());
      }
    }
    blk.extra_cycles = kBlockSetupCycles;
    const double moved = static_cast<double>((end - chunk) * feat);
    blk.compute_copy(moved);
    k.blocks.push_back(std::move(blk));
  }
  return ctx.launch(std::move(k));
}

}  // namespace gnnbridge::kernels

#include "kernels/spmm.hpp"

#include <algorithm>
#include <cassert>
#include <limits>

#include "par/thread_pool.hpp"

namespace gnnbridge::kernels {

namespace {
/// Fixed per-task scheduling/setup cost (cycles).
constexpr double kTaskSetupCycles = 30.0;
/// Extra cost per output line when merging through atomics.
constexpr double kAtomicCyclesPerLine = 2.5;
}  // namespace

sim::KernelStats spmm_node(sim::SimContext& ctx, const SpmmArgs& args) {
  assert(args.graph && args.src && args.out);
  const Csr& csr = *args.graph->csr;
  const Index feat = args.src->cols;
  assert(args.out->cols == feat);

  const bool full = computes({args.src, args.edge_weight, args.out});
  Matrix* out = args.out->host;
  const Matrix* src = args.src->host;
  const Matrix* ew = args.edge_weight ? args.edge_weight->host : nullptr;

  if (full && args.zero_out) {
    if (args.reduce == Reduce::kMax) {
      out->fill(-std::numeric_limits<float>::infinity());
    } else {
      out->fill(0.0f);
    }
  }

  const double pad = pad_factor(feat, args.lanes);
  const std::uint64_t row_bytes = args.src->row_bytes();
  const std::uint32_t line = static_cast<std::uint32_t>(ctx.spec().line_bytes);
  const double flops_per_nbr = args.edge_weight ? 2.0 * static_cast<double>(feat)
                                                : 1.0 * static_cast<double>(feat);

  sim::Kernel k;
  k.name = args.name;
  k.phase = args.phase;
  k.blocks.resize(args.tasks.size());

  // Chunk boundaries never split a run of tasks sharing the same center
  // node v (split rows emit adjacent tasks), so each chunk owns a disjoint
  // set of output rows and the per-row `orow[f] +=` accumulation order is
  // exactly the sequential one — host outputs are byte-identical at any
  // thread count.
  const std::vector<std::size_t> bounds = par::aligned_chunk_bounds(
      args.tasks.size(), par::kDefaultGrain,
      [&](std::size_t i) { return args.tasks[i].v == args.tasks[i - 1].v; });
  par::parallel_ranges(bounds, [&](std::size_t /*chunk*/, std::size_t begin, std::size_t end) {
    for (std::size_t ti = begin; ti < end; ++ti) {
      const Task& t = args.tasks[ti];
      sim::BlockWork blk;
      // CSR metadata: row_ptr[v], row_ptr[v+1].
      blk.read(args.graph->row_ptr, static_cast<std::uint64_t>(t.v) * 8, 16);
      if (t.size() > 0) {
        blk.read(args.graph->col_idx, static_cast<std::uint64_t>(t.begin) * 4,
                 static_cast<std::uint32_t>(t.size() * 4));
        if (args.edge_weight) {
          blk.read(args.edge_weight->buf, static_cast<std::uint64_t>(t.begin) * 4,
                   static_cast<std::uint32_t>(t.size() * 4));
        }
      }
      for (EdgeId e = t.begin; e < t.end; ++e) {
        const NodeId u = csr.col_idx[static_cast<std::size_t>(e)];
        blk.read(args.src->buf, args.src->row_offset(u), static_cast<std::uint32_t>(row_bytes));
        if (full) {
          const float w = ew ? (*ew)(e, 0) : 1.0f;
          auto srow = src->row(u);
          auto orow = out->row(t.v);
          switch (args.reduce) {
            case Reduce::kSum:
            case Reduce::kMean:
              for (Index f = 0; f < feat; ++f) orow[f] += w * srow[f];
              break;
            case Reduce::kMax:
              for (Index f = 0; f < feat; ++f) orow[f] = std::max(orow[f], w * srow[f]);
              break;
          }
        }
      }
      blk.write(args.out->buf, args.out->row_offset(t.v), static_cast<std::uint32_t>(row_bytes));
      const double useful = flops_per_nbr * static_cast<double>(t.size());
      blk.compute(useful, useful * pad);
      blk.extra_cycles = kTaskSetupCycles;
      if (args.atomic_merge) {
        const double out_lines = static_cast<double>((row_bytes + line - 1) / line);
        blk.atomic_merge(kAtomicCyclesPerLine * out_lines, row_bytes);
      }
      k.blocks[ti] = std::move(blk);
    }
  });

  const sim::KernelStats& ks = ctx.launch(std::move(k));

  if (full) {
    // Post-pass on the host mirrors what the kernel epilogue does:
    // mean divides by the full-row degree (valid even for split tasks —
    // the linear property), max replaces untouched -inf rows by zero.
    if (args.reduce == Reduce::kMean) {
      par::parallel_chunks(static_cast<std::size_t>(csr.num_nodes), par::kDefaultGrain,
                           [&](std::size_t /*chunk*/, std::size_t begin, std::size_t end) {
                             for (std::size_t vi = begin; vi < end; ++vi) {
                               const NodeId v = static_cast<NodeId>(vi);
                               const EdgeId d = csr.degree(v);
                               if (d > 0) {
                                 const float inv = 1.0f / static_cast<float>(d);
                                 for (float& x : out->row(v)) x *= inv;
                               }
                             }
                           });
    } else if (args.reduce == Reduce::kMax) {
      par::parallel_chunks(static_cast<std::size_t>(csr.num_nodes), par::kDefaultGrain,
                           [&](std::size_t /*chunk*/, std::size_t begin, std::size_t end) {
                             for (std::size_t vi = begin; vi < end; ++vi) {
                               const NodeId v = static_cast<NodeId>(vi);
                               if (csr.degree(v) == 0) {
                                 for (float& x : out->row(v)) x = 0.0f;
                               }
                             }
                           });
    }
  }
  return ks;
}

sim::KernelStats spmm_vendor(sim::SimContext& ctx, SpmmArgs args) {
  // cuSPARSE csrmm is internally load-balanced (merge-based row
  // splitting): heavy rows spread over many blocks, so the library shows
  // no long-tail effect — but its schedule is fixed and opaque: natural
  // row order (no locality hints), 32 lanes, its own split bound.
  const Csr& csr = *args.graph->csr;
  constexpr EdgeId kVendorBound = 256;
  std::vector<Task> tasks;
  tasks.reserve(static_cast<std::size_t>(csr.num_nodes));
  bool any_split = false;
  for (NodeId v = 0; v < csr.num_nodes; ++v) {
    const EdgeId begin = csr.row_ptr[static_cast<std::size_t>(v)];
    const EdgeId end = csr.row_ptr[static_cast<std::size_t>(v) + 1];
    if (end - begin <= kVendorBound) {
      tasks.push_back({v, begin, end});
    } else {
      any_split = true;
      for (EdgeId b = begin; b < end; b += kVendorBound) {
        tasks.push_back({v, b, std::min(b + kVendorBound, end)});
      }
    }
  }
  args.tasks = tasks;
  args.lanes = 32;
  args.atomic_merge = any_split;
  args.reduce = Reduce::kSum;
  args.name = "spmm_vendor";
  return spmm_node(ctx, args);
}

}  // namespace gnnbridge::kernels

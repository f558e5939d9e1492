#include "kernels/lstm.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace gnnbridge::kernels {

namespace {
constexpr double kBlockSetupCycles = 40.0;
/// sigmoid x3 + tanh x2 + multiplies/adds, per hidden element.
constexpr double kFlopsPerHidden = 30.0;
}  // namespace

sim::KernelStats lstm_pointwise(sim::SimContext& ctx, const LstmPointwiseArgs& args) {
  assert(args.gates && args.c && args.h);
  const Index n = args.gates->rows;
  const Index hidden = args.c->cols;
  assert(args.gates->cols == 4 * hidden);
  assert(args.c->rows == n && args.h->rows == n && args.h->cols == hidden);
  const bool full = computes({args.gates, args.bias, args.c, args.h});

  auto sigmoid = [](float x) { return 1.0f / (1.0f + std::exp(-x)); };

  sim::Kernel k;
  k.name = args.name;
  k.phase = args.phase;
  constexpr Index kRowsPerBlock = 64;
  for (Index r0 = 0; r0 < n; r0 += kRowsPerBlock) {
    const Index r1 = std::min(r0 + kRowsPerBlock, n);
    sim::BlockWork blk;
    if (args.bias) blk.read(args.bias->buf, 0, static_cast<std::uint32_t>(4 * hidden * 4));
    blk.read(args.gates->buf, args.gates->row_offset(r0),
             static_cast<std::uint32_t>((r1 - r0) * args.gates->row_bytes()));
    const std::uint32_t state_bytes = static_cast<std::uint32_t>((r1 - r0) * args.c->row_bytes());
    blk.read(args.c->buf, args.c->row_offset(r0), state_bytes);
    blk.write(args.c->buf, args.c->row_offset(r0), state_bytes);
    blk.write(args.h->buf, args.h->row_offset(r0), state_bytes);
    if (full) {
      for (Index r = r0; r < r1; ++r) {
        auto g = args.gates->host->row(r);
        auto crow = args.c->host->row(r);
        auto hrow = args.h->host->row(r);
        for (Index j = 0; j < hidden; ++j) {
          auto b = [&](Index slot) {
            return args.bias ? (*args.bias->host)(slot, 0) : 0.0f;
          };
          const float i = sigmoid(g[j] + b(j));
          const float f = sigmoid(g[hidden + j] + b(hidden + j));
          const float z = std::tanh(g[2 * hidden + j] + b(2 * hidden + j));
          const float o = sigmoid(g[3 * hidden + j] + b(3 * hidden + j));
          const float c = f * crow[j] + i * z;
          crow[j] = c;
          hrow[j] = o * std::tanh(c);
        }
      }
    }
    const double work = kFlopsPerHidden * static_cast<double>((r1 - r0) * hidden);
    blk.compute(work, work);
    blk.extra_cycles = kBlockSetupCycles;
    k.blocks.push_back(std::move(blk));
  }
  return ctx.launch(std::move(k));
}

}  // namespace gnnbridge::kernels

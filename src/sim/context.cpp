#include "sim/context.hpp"

#include <algorithm>
#include <vector>

#include "par/thread_pool.hpp"
#include "prof/span.hpp"
#include "rt/deadline.hpp"
#include "rt/fault.hpp"
#include "sim/scheduler.hpp"

namespace gnnbridge::sim {

namespace {

// Each turn a block advances kChunk accesses — roughly one scheduling
// quantum of memory instructions.
constexpr std::size_t kChunk = 8;

// A kernel with fewer accesses replays on the calling thread: waking the
// pool would cost more than the probes it splits.
constexpr std::size_t kMinParallelAccesses = std::size_t{1} << 15;

}  // namespace

SimContext::SimContext(DeviceSpec spec)
    : spec_(spec), l2_(spec.l2_bytes, spec.l2_ways, spec.line_bytes) {}

// Slot s holds the block currently occupying it; when a block's stream is
// exhausted the next block in launch order takes the slot. Only lines of
// sets [first_set, first_set + num_sets) are probed and counted.
void SimContext::replay(const Kernel& kernel, std::uint64_t first_set, std::uint64_t num_sets,
                        ReplayGroup& g) {
  const std::size_t n = kernel.blocks.size();
  const auto wave = static_cast<std::size_t>(spec_.total_block_slots());
  g.lines.assign(n, {});
  g.slots.clear();
  std::size_t next_block = 0;
  while (next_block < n && g.slots.size() < wave) g.slots.push_back({next_block++, 0});
  while (!g.slots.empty()) {
    for (std::size_t s = 0; s < g.slots.size();) {
      ReplayGroup::Slot& slot = g.slots[s];
      const std::vector<Access>& accesses = kernel.blocks[slot.block].accesses;
      const std::size_t end = std::min(accesses.size(), slot.cursor + kChunk);
      std::uint64_t probed = 0, hits = 0;
      for (; slot.cursor < end; ++slot.cursor) {
        const Access& a = accesses[slot.cursor];
        if (a.bytes == 0) continue;
        const std::uint64_t last = l2_.line_of(a.addr + a.bytes - 1);
        for (std::uint64_t line = l2_.line_of(a.addr); line <= last; ++line) {
          if (l2_.set_of(line) - first_set >= num_sets) continue;
          ++probed;
          hits += l2_.probe(line) ? 1 : 0;
        }
      }
      g.lines[slot.block].hits += hits;
      g.lines[slot.block].misses += probed - hits;
      if (slot.cursor < accesses.size()) {
        ++s;
      } else if (next_block < n) {
        slot = {next_block++, 0};
        ++s;
      } else {
        g.slots.erase(g.slots.begin() + static_cast<std::ptrdiff_t>(s));
      }
    }
  }
}

const KernelStats& SimContext::launch(Kernel kernel) {
  // Block-scheduling boundary: an expired deadline or cancelled token is
  // noticed here, before any new kernel work starts. Counting checkpoint —
  // the job completes the kernel that crosses its budget and cancels at
  // the next launch, so expiry is a function of sim-time alone.
  rt::throw_if_cancelled("SimContext::launch('" + kernel.name + "')");
  // Fault seam: this is the chokepoint every simulated kernel passes
  // through, several stack frames below APIs that return void or stats
  // references — hence the exception vehicle (see rt::StageFailure).
  rt::raise_if_armed(rt::kSeamSimLaunch, "SimContext::launch('" + kernel.name + "')");
  prof::Span span(kernel.name, "sim");
  KernelStats ks;
  ks.name = std::move(kernel.name);
  ks.phase = std::move(kernel.phase);
  ks.num_blocks = static_cast<int>(kernel.blocks.size());

  const std::size_t n = kernel.blocks.size();

  // --- Cache replay: interleave the access streams of co-resident blocks.
  // A set's LRU state depends only on the order of the accesses to that
  // set, and the interleave only on each block's access count, so the sets
  // split into contiguous groups that replay the same stream concurrently,
  // each probing only its own sets. Per-block counts are integers, so the
  // fold below is exact for any group count (DESIGN.md §11).
  std::size_t accesses = 0;
  for (const BlockWork& blk : kernel.blocks) accesses += blk.accesses.size();
  const auto num_sets = static_cast<std::size_t>(l2_.num_sets());
  const std::size_t groups =
      accesses < kMinParallelAccesses || par::in_parallel_region()
          ? 1
          : std::min(static_cast<std::size_t>(par::max_threads()), num_sets);
  if (groups_.size() < groups) groups_.resize(groups);
  par::parallel_chunks(groups, 1, [&](std::size_t g, std::size_t, std::size_t) {
    const std::size_t first = num_sets * g / groups;
    replay(kernel, first, num_sets * (g + 1) / groups - first, groups_[g]);
  });
  std::vector<ReplayGroup::Lines>& lines = groups_[0].lines;
  for (std::size_t g = 1; g < groups; ++g) {
    for (std::size_t b = 0; b < n; ++b) {
      lines[b].hits += groups_[g].lines[b].hits;
      lines[b].misses += groups_[g].lines[b].misses;
    }
  }

  // --- Cost model: per-block duration = max(compute, memory) + extras.
  // The per-line costs assume a fully occupied device sharing bandwidth
  // across all block slots; a kernel that launches fewer blocks leaves
  // each one a bigger bandwidth share. Floor at 1/8: a single block is
  // still bounded by its SM's slice of the memory system.
  const double bw_share =
      std::clamp(static_cast<double>(n) / spec_.total_block_slots(), 1.0 / 8.0, 1.0);
  std::vector<Cycles> durations(n, 0.0);
  // Per-block durations are independent (disjoint writes); the counter
  // sums accumulate into per-chunk shards merged below in chunk index
  // order, so the totals are identical at any thread count. (The summed
  // doubles here are sums of exactly-representable per-block quantities,
  // so the shard grouping is also exact vs. a sequential fold.)
  struct CounterShard {
    std::uint64_t l2_hits = 0, l2_misses = 0;
    double flops = 0.0, issued_flops = 0.0;
    double atomic_cycles = 0.0;
    std::uint64_t atomic_bytes = 0;
    double adapter_cycles = 0.0;
    std::uint64_t adapter_bytes = 0;
    double pad_flops = 0.0, copy_flops = 0.0, tile_flops = 0.0;
  };
  const std::vector<CounterShard> shards = par::sharded_chunks<CounterShard>(
      n, par::kDefaultGrain,
      [&](CounterShard& shard, std::size_t /*chunk*/, std::size_t begin, std::size_t end) {
        for (std::size_t b = begin; b < end; ++b) {
          const auto& blk = kernel.blocks[b];
          const Cycles compute = blk.issued_flops / spec_.flops_per_cycle_per_block;
          const Cycles memory =
              (static_cast<double>(lines[b].hits) * spec_.l2_hit_cycles_per_line +
               static_cast<double>(lines[b].misses) * spec_.dram_cycles_per_line) *
              bw_share;
          durations[b] = std::max(compute, memory) + blk.extra_cycles;
          shard.l2_hits += lines[b].hits;
          shard.l2_misses += lines[b].misses;
          shard.flops += blk.flops;
          shard.issued_flops += blk.issued_flops;
          shard.atomic_cycles += blk.atomic_cycles;
          shard.atomic_bytes += blk.atomic_bytes;
          shard.adapter_cycles += blk.adapter_cycles;
          shard.adapter_bytes += blk.adapter_bytes;
          shard.pad_flops += blk.pad_flops;
          shard.copy_flops += blk.copy_flops;
          shard.tile_flops += blk.tile_flops;
        }
      });
  for (const CounterShard& shard : shards) {
    ks.l2_hits += shard.l2_hits;
    ks.l2_misses += shard.l2_misses;
    ks.flops += shard.flops;
    ks.issued_flops += shard.issued_flops;
    ks.atomic_cycles += shard.atomic_cycles;
    ks.atomic_bytes += shard.atomic_bytes;
    ks.adapter_cycles += shard.adapter_cycles;
    ks.adapter_bytes += shard.adapter_bytes;
    ks.pad_flops += shard.pad_flops;
    ks.copy_flops += shard.copy_flops;
    ks.tile_flops += shard.tile_flops;
  }
  l2_.count(ks.l2_hits, ks.l2_misses);
  ks.dram_bytes = ks.l2_misses * static_cast<std::uint64_t>(spec_.line_bytes);

  ScheduleResult sched = schedule_blocks(durations, spec_.total_block_slots());
  // Device-level bandwidth bound: however the blocks are scheduled, the
  // kernel cannot finish before its total traffic drains at full device
  // bandwidth. (The per-block per-line costs equal this bound divided by
  // the slot count, so a fully occupied grid already sits on it; the bound
  // bites for kernels with few, fat blocks.)
  const Cycles bandwidth_floor =
      (static_cast<double>(ks.l2_hits) * spec_.l2_hit_cycles_per_line +
       static_cast<double>(ks.l2_misses) * spec_.dram_cycles_per_line) /
      spec_.total_block_slots();
  ks.makespan = std::max(sched.makespan, bandwidth_floor);
  ks.balanced = sched.balanced;
  ks.timeline = std::move(sched.timeline);
  ks.cycles = spec_.kernel_launch_cycles + spec_.framework_overhead_cycles + ks.makespan;

  span.arg("cycles", ks.cycles);
  span.arg("blocks", ks.num_blocks);
  span.arg("l2_hit_rate", ks.l2_hit_rate());
  span.arg("flops", ks.flops);
  span.arg("l2_lines", static_cast<double>(ks.l2_hits + ks.l2_misses));

  stats_.total_cycles += ks.cycles;
  rt::charge_sim_cycles(ks.cycles);  // advance the job's deadline clock
  // Every kernel boundary is a device-wide synchronization point: the host
  // serializes on the previous launch before issuing the next.
  stats_.global_syncs += 1;
  stats_.kernels.push_back(std::move(ks));
  return stats_.kernels.back();
}

}  // namespace gnnbridge::sim

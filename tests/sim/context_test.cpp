#include "sim/context.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "prof/tracer.hpp"

namespace gnnbridge::sim {
namespace {

DeviceSpec tiny_device() {
  DeviceSpec s;
  s.num_sms = 2;
  s.max_blocks_per_sm = 2;
  s.l2_bytes = 64 * 1024;
  s.l2_ways = 4;
  s.line_bytes = 64;
  return s;
}

TEST(AddressSpace, BuffersAreDisjointAndAligned) {
  AddressSpace mem;
  const Buffer a = mem.alloc("a", 100);
  const Buffer b = mem.alloc("b", 100);
  EXPECT_EQ(a.base % 256, 0u);
  EXPECT_EQ(b.base % 256, 0u);
  EXPECT_GE(b.base, a.base + a.bytes);
  EXPECT_EQ(mem.total_allocated(), 200u);
}

TEST(AddressSpace, ZeroByteAllocGetsNonEmptyRange) {
  AddressSpace mem;
  const Buffer a = mem.alloc("a", 0);
  EXPECT_GE(a.bytes, 1u);
}

TEST(Context, LaunchAccountsLaunchOverhead) {
  SimContext ctx(tiny_device());
  Kernel k;
  k.name = "empty";
  ctx.launch(std::move(k));
  EXPECT_EQ(ctx.stats().num_launches(), 1);
  EXPECT_DOUBLE_EQ(ctx.stats().total_cycles, ctx.spec().kernel_launch_cycles);
}

TEST(Context, CountersAccumulateAcrossKernels) {
  SimContext ctx(tiny_device());
  const Buffer buf = ctx.mem().alloc("data", 4096);
  for (int i = 0; i < 3; ++i) {
    Kernel k;
    k.name = "touch";
    BlockWork blk;
    blk.read(buf, 0, 256);
    blk.compute(10.0, 10.0);
    k.blocks.push_back(blk);
    ctx.launch(std::move(k));
  }
  EXPECT_EQ(ctx.stats().num_launches(), 3);
  // 4 lines: first kernel misses, later kernels hit the warm L2.
  EXPECT_EQ(ctx.stats().total_misses(), 4u);
  EXPECT_EQ(ctx.stats().total_hits(), 8u);
  EXPECT_DOUBLE_EQ(ctx.stats().total_flops(), 30.0);
}

TEST(Context, LaunchSpanCarriesL2Lines) {
  prof::Tracer& tracer = prof::Tracer::instance();
  tracer.clear();
  tracer.set_enabled(true);
  SimContext ctx(tiny_device());
  const Buffer buf = ctx.mem().alloc("data", 4096);
  Kernel k;
  k.name = "touch";
  BlockWork blk;
  blk.read(buf, 0, 256);
  blk.read(buf, 32, 64);  // straddles lines 0 and 1
  k.blocks.push_back(blk);
  ctx.launch(std::move(k));
  tracer.set_enabled(false);
  const auto spans = tracer.snapshot();
  tracer.clear();

  ASSERT_EQ(spans.size(), 1u);
  const auto& args = spans[0].args;
  const auto it = std::find_if(args.begin(), args.end(),
                               [](const auto& a) { return a.first == "l2_lines"; });
  ASSERT_NE(it, args.end());
  EXPECT_EQ(it->second, 6.0);
}

TEST(Context, ClearCacheColdStarts) {
  SimContext ctx(tiny_device());
  const Buffer buf = ctx.mem().alloc("data", 4096);
  auto touch = [&] {
    Kernel k;
    BlockWork blk;
    blk.read(buf, 0, 256);
    k.blocks.push_back(blk);
    ctx.launch(std::move(k));
  };
  touch();
  ctx.clear_cache();
  touch();
  EXPECT_EQ(ctx.stats().total_misses(), 8u);
}

TEST(Context, ComputeBoundBlockCostFollowsFlops) {
  SimContext ctx(tiny_device());
  Kernel k;
  BlockWork blk;
  blk.compute(1600.0, 1600.0);  // 100 cycles at 16 flops/cycle
  k.blocks.push_back(blk);
  const KernelStats& ks = ctx.launch(std::move(k));
  EXPECT_NEAR(ks.makespan, 100.0, 1e-6);
}

TEST(Context, MemoryBoundBlockCostFollowsMissCost) {
  DeviceSpec spec = tiny_device();
  SimContext ctx(spec);
  const Buffer buf = ctx.mem().alloc("data", 1 << 20);
  Kernel k;
  BlockWork blk;
  blk.read(buf, 0, static_cast<std::uint32_t>(64 * 100));  // 100 cold lines
  k.blocks.push_back(blk);
  const KernelStats& ks = ctx.launch(std::move(k));
  // A lone block gets a bigger bandwidth share (1/8 of the fully-occupied
  // per-block cost), but never beats the device bandwidth floor
  // (total traffic / slot count).
  const Cycles shared = 100.0 * spec.dram_cycles_per_line / 8.0;
  const Cycles floor = 100.0 * spec.dram_cycles_per_line / spec.total_block_slots();
  EXPECT_NEAR(ks.makespan, std::max(shared, floor), 1e-6);
  EXPECT_EQ(ks.l2_misses, 100u);
  EXPECT_EQ(ks.dram_bytes, 6400u);
}

TEST(Context, FullGridPaysFullPerBlockMemoryCost) {
  DeviceSpec spec = tiny_device();  // 4 slots
  SimContext ctx(spec);
  const Buffer buf = ctx.mem().alloc("data", 1 << 20);
  Kernel k;
  for (int b = 0; b < 4; ++b) {
    BlockWork blk;
    blk.read(buf, static_cast<std::uint64_t>(b) * 6400, 64 * 100);
    k.blocks.push_back(blk);
  }
  const KernelStats& ks = ctx.launch(std::move(k));
  EXPECT_NEAR(ks.makespan, 100.0 * spec.dram_cycles_per_line, 1e-6);
}

TEST(Context, SharedCacheGivesCoResidentReuse) {
  // Two blocks touching the same data in one wave: the second stream
  // largely hits because the replay interleaves co-resident blocks.
  SimContext ctx(tiny_device());
  const Buffer buf = ctx.mem().alloc("data", 1 << 16);
  Kernel k;
  for (int b = 0; b < 2; ++b) {
    BlockWork blk;
    for (int i = 0; i < 32; ++i) blk.read(buf, static_cast<std::uint64_t>(i) * 64, 64);
    k.blocks.push_back(blk);
  }
  const KernelStats& ks = ctx.launch(std::move(k));
  EXPECT_EQ(ks.l2_misses, 32u);
  EXPECT_EQ(ks.l2_hits, 32u);
  EXPECT_DOUBLE_EQ(ks.l2_hit_rate(), 0.5);
}

TEST(Context, FarApartBlocksMissWhenCacheTiny) {
  // Same data touched by blocks that are NOT co-resident (more blocks than
  // slots, distinct early data evicts) -> reuse lost. This is the
  // mechanism LAS exploits in reverse.
  DeviceSpec spec = tiny_device();
  spec.l2_bytes = 2 * 1024;  // 32 lines only
  SimContext ctx(spec);
  const Buffer buf = ctx.mem().alloc("data", 1 << 20);
  Kernel k;
  // 16 blocks each streaming 64 distinct lines, then 16 blocks re-reading
  // block 0's lines. With 4 slots, the re-readers run long after.
  for (int b = 0; b < 16; ++b) {
    BlockWork blk;
    for (int i = 0; i < 64; ++i) {
      blk.read(buf, static_cast<std::uint64_t>(b) * 4096 + static_cast<std::uint64_t>(i) * 64, 64);
    }
    k.blocks.push_back(blk);
  }
  BlockWork rereader;
  for (int i = 0; i < 64; ++i) rereader.read(buf, static_cast<std::uint64_t>(i) * 64, 64);
  k.blocks.push_back(rereader);
  const KernelStats& ks = ctx.launch(std::move(k));
  EXPECT_LT(ks.l2_hit_rate(), 0.1);
}

TEST(Context, AtomicMergeCountsTrafficAndExtendsBlockTime) {
  SimContext ctx(tiny_device());
  Kernel k;
  BlockWork blk;
  blk.compute(1600.0, 1600.0);  // 100 cycles at 16 flops/cycle
  blk.atomic_merge(40.0, 256);
  k.blocks.push_back(blk);
  const KernelStats& ks = ctx.launch(std::move(k));
  EXPECT_DOUBLE_EQ(ks.atomic_cycles, 40.0);
  EXPECT_EQ(ks.atomic_bytes, 256u);
  EXPECT_NEAR(ks.makespan, 140.0, 1e-6);  // extra_cycles ride on the block
}

TEST(Context, AdapterCountsTrafficSeparatelyFromAtomics) {
  SimContext ctx(tiny_device());
  Kernel k;
  BlockWork blk;
  blk.adapter(25.0, 128);
  k.blocks.push_back(blk);
  const KernelStats& ks = ctx.launch(std::move(k));
  EXPECT_DOUBLE_EQ(ks.adapter_cycles, 25.0);
  EXPECT_EQ(ks.adapter_bytes, 128u);
  EXPECT_DOUBLE_EQ(ks.atomic_cycles, 0.0);
  EXPECT_EQ(ks.atomic_bytes, 0u);
}

TEST(Context, RedundantFlopCausesAreBrokenOut) {
  SimContext ctx(tiny_device());
  Kernel k;
  BlockWork blk;
  blk.compute(100.0, 160.0);       // 60 pad flops (lane padding)
  blk.compute_copy(32.0);          // pure data movement
  blk.compute_tiled(200.0, 256.0); // 56 boundary-tile flops
  k.blocks.push_back(blk);
  const KernelStats& ks = ctx.launch(std::move(k));
  EXPECT_DOUBLE_EQ(ks.pad_flops, 60.0);
  EXPECT_DOUBLE_EQ(ks.copy_flops, 32.0);
  EXPECT_DOUBLE_EQ(ks.tile_flops, 56.0);
  EXPECT_DOUBLE_EQ(ks.flops, 300.0);
  EXPECT_DOUBLE_EQ(ks.issued_flops, 448.0);
  EXPECT_DOUBLE_EQ(ks.waste_flops(), 148.0);  // pad + copy + tile
}

TEST(Context, EveryLaunchIsOneGlobalSync) {
  SimContext ctx(tiny_device());
  for (int i = 0; i < 3; ++i) {
    Kernel k;
    k.name = "noop";
    ctx.launch(std::move(k));
  }
  EXPECT_EQ(ctx.stats().global_syncs, 3u);
}

TEST(Context, StatsResetKeepsAllocations) {
  SimContext ctx(tiny_device());
  ctx.mem().alloc("x", 128);
  Kernel k;
  ctx.launch(std::move(k));
  ctx.reset_stats();
  EXPECT_EQ(ctx.stats().num_launches(), 0);
  EXPECT_EQ(ctx.mem().total_allocated(), 128u);
}

TEST(RunStats, PhaseAccounting) {
  SimContext ctx(tiny_device());
  Kernel a;
  a.name = "k1";
  a.phase = "expansion";
  ctx.launch(std::move(a));
  Kernel b;
  b.name = "k2";
  b.phase = "transformation";
  ctx.launch(std::move(b));
  const Cycles exp = ctx.stats().cycles_in_phase("expansion");
  EXPECT_GT(exp, 0.0);
  EXPECT_DOUBLE_EQ(exp, ctx.stats().cycles_in_phase("transformation"));
  EXPECT_DOUBLE_EQ(ctx.stats().cycles_in_phase("nope"), 0.0);
}

TEST(DeviceSpec, UnitConversions) {
  DeviceSpec s;
  s.clock_ghz = 1.0;
  EXPECT_DOUBLE_EQ(s.seconds(1e9), 1.0);
  EXPECT_DOUBLE_EQ(s.millis(1e6), 1.0);
  EXPECT_EQ(v100().total_block_slots(), 640);
}

}  // namespace
}  // namespace gnnbridge::sim

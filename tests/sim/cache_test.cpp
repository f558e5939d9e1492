#include "sim/cache.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <random>
#include <tuple>
#include <vector>

namespace gnnbridge::sim {
namespace {

/// The reference LRU: per-way timestamps, a hit refreshes its way's stamp,
/// a miss fills the last empty way of the set or else evicts the oldest
/// stamp. Same geometry as SetAssocCache (sets rounded down to a power of
/// two).
class StampLru {
 public:
  StampLru(std::int64_t capacity_bytes, int ways, int line_bytes)
      : ways_(ways), line_bytes_(static_cast<std::uint64_t>(line_bytes)) {
    const std::int64_t raw_sets = capacity_bytes / (std::int64_t{ways} * line_bytes);
    num_sets_ = std::uint64_t{1} << (std::bit_width(static_cast<std::uint64_t>(raw_sets)) - 1);
    tags_.assign(num_sets_ * static_cast<std::uint64_t>(ways_), kEmpty);
    stamps_.assign(tags_.size(), 0);
  }

  bool access_line(std::uint64_t addr) {
    const std::uint64_t line = addr / line_bytes_;
    const std::uint64_t set = line % num_sets_;
    std::uint64_t* tag = &tags_[set * static_cast<std::uint64_t>(ways_)];
    std::uint64_t* stamp = &stamps_[set * static_cast<std::uint64_t>(ways_)];
    ++tick_;
    int victim = 0;
    std::uint64_t oldest = ~0ull;
    for (int w = 0; w < ways_; ++w) {
      if (tag[w] == line) {
        stamp[w] = tick_;
        return true;
      }
      if (tag[w] == kEmpty) {
        victim = w;
        oldest = 0;
      } else if (stamp[w] < oldest) {
        victim = w;
        oldest = stamp[w];
      }
    }
    tag[victim] = line;
    stamp[victim] = tick_;
    return false;
  }

  void clear() {
    std::fill(tags_.begin(), tags_.end(), kEmpty);
    std::fill(stamps_.begin(), stamps_.end(), 0);
    tick_ = 0;
  }

  std::uint64_t num_sets() const { return num_sets_; }

 private:
  static constexpr std::uint64_t kEmpty = ~0ull;
  int ways_;
  std::uint64_t line_bytes_;
  std::uint64_t num_sets_ = 0;
  std::vector<std::uint64_t> tags_, stamps_;
  std::uint64_t tick_ = 0;
};

TEST(Cache, FirstTouchMisses) {
  SetAssocCache c(1024, 2, 64);
  EXPECT_FALSE(c.access_line(0));
  EXPECT_EQ(c.total_misses(), 1u);
  EXPECT_EQ(c.total_hits(), 0u);
}

TEST(Cache, SecondTouchHits) {
  SetAssocCache c(1024, 2, 64);
  c.access_line(128);
  EXPECT_TRUE(c.access_line(128));
  EXPECT_EQ(c.total_hits(), 1u);
}

TEST(Cache, DistinctLinesInSameSetCoexistUpToWays) {
  // 1024 B, 2-way, 64 B lines -> 8 sets. Lines 0 and 8*64 share set 0.
  SetAssocCache c(1024, 2, 64);
  ASSERT_EQ(c.num_sets(), 8);
  c.access_line(0);
  c.access_line(8 * 64);
  EXPECT_TRUE(c.access_line(0));
  EXPECT_TRUE(c.access_line(8 * 64));
}

TEST(Cache, LruEvictionOrder) {
  SetAssocCache c(1024, 2, 64);  // 8 sets, 2 ways
  const std::uint64_t a = 0, b = 8 * 64, d = 16 * 64;  // same set
  c.access_line(a);
  c.access_line(b);
  c.access_line(a);      // a most recent
  c.access_line(d);      // evicts b (LRU)
  EXPECT_TRUE(c.access_line(a));
  EXPECT_FALSE(c.access_line(b));  // was evicted
}

TEST(Cache, AccessSpansMultipleLines) {
  SetAssocCache c(4096, 4, 64);
  const CacheProbe p = c.access(0, 256);  // exactly 4 lines
  EXPECT_EQ(p.lines, 4u);
  EXPECT_EQ(p.misses, 4u);
  const CacheProbe p2 = c.access(0, 256);
  EXPECT_EQ(p2.hits, 4u);
}

TEST(Cache, UnalignedAccessCountsStraddledLines) {
  SetAssocCache c(4096, 4, 64);
  // 64 bytes starting at offset 32 straddles two lines.
  const CacheProbe p = c.access(32, 64);
  EXPECT_EQ(p.lines, 2u);
}

TEST(Cache, ZeroByteAccessIsNoop) {
  SetAssocCache c(4096, 4, 64);
  const CacheProbe p = c.access(0, 0);
  EXPECT_EQ(p.lines, 0u);
  EXPECT_EQ(c.total_misses(), 0u);
}

TEST(Cache, ClearInvalidatesEverything) {
  SetAssocCache c(1024, 2, 64);
  c.access_line(0);
  c.clear();
  EXPECT_FALSE(c.access_line(0));
}

TEST(Cache, SetCountRoundsDownToPowerOfTwo) {
  // 6 MiB / (16 * 64) = 6144 raw sets -> 4096.
  SetAssocCache c(6 * 1024 * 1024, 16, 64);
  EXPECT_EQ(c.num_sets(), 4096);
}

TEST(Cache, WorkingSetLargerThanCapacityThrashes) {
  SetAssocCache c(1024, 2, 64);  // 16 lines capacity
  // Stream 64 distinct lines twice: second pass still mostly misses.
  for (int pass = 0; pass < 2; ++pass) {
    for (std::uint64_t l = 0; l < 64; ++l) c.access_line(l * 64);
  }
  EXPECT_GT(c.total_misses(), 100u);
}

TEST(Cache, WorkingSetWithinCapacityReuses) {
  SetAssocCache c(8192, 4, 64);  // 128 lines
  for (int pass = 0; pass < 4; ++pass) {
    for (std::uint64_t l = 0; l < 32; ++l) c.access_line(l * 64);
  }
  EXPECT_EQ(c.total_misses(), 32u);
  EXPECT_EQ(c.total_hits(), 96u);
}

// (ways, raw set count): 6 and 6144 raw sets round down to 4 and 4096.
class CacheOracle : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(CacheOracle, AgreesWithStampLruOnEveryProbe) {
  const auto [ways, raw_sets] = GetParam();
  constexpr int kLine = 64;
  const std::int64_t capacity = std::int64_t{raw_sets} * ways * kLine;
  SetAssocCache cache(capacity, ways, kLine);
  StampLru ref(capacity, ways, kLine);
  ASSERT_EQ(static_cast<std::uint64_t>(cache.num_sets()), ref.num_sets());
  // Enough distinct lines to overflow every set by a few ways, so the
  // streams exercise fills, hits, reordering and evictions.
  const std::uint64_t footprint = ref.num_sets() * static_cast<std::uint64_t>(ways + 3);

  std::mt19937_64 rng(0x5eed + static_cast<std::uint64_t>(ways * 131 + raw_sets));
  std::vector<std::uint64_t> addrs;
  const std::uint64_t capacity_lines = ref.num_sets() * static_cast<std::uint64_t>(ways);
  for (int i = 0; i < 20000; ++i) {
    // Mostly lines of a capacity-sized hot range, so hits are common, with
    // random offsets inside the line.
    const std::uint64_t line = rng() % 4 != 0 ? rng() % capacity_lines : rng() % footprint;
    addrs.push_back(line * kLine + rng() % kLine);
  }
  // Strided sweeps over a range that fits and one that thrashes.
  for (const std::uint64_t range : {footprint / 2, footprint}) {
    for (const std::uint64_t stride : {1u, 3u, 17u, 64u}) {
      for (std::uint64_t i = 0; i < 2 * range; ++i) addrs.push_back(i * stride % range * kLine);
    }
  }

  std::uint64_t hits = 0, misses = 0;
  for (std::size_t i = 0; i < addrs.size(); ++i) {
    if (i == addrs.size() / 2) {
      cache.clear();
      ref.clear();
    }
    const bool expect = ref.access_line(addrs[i]);
    ASSERT_EQ(cache.access_line(addrs[i]), expect) << "probe " << i << " addr " << addrs[i];
    (expect ? hits : misses) += 1;
  }
  EXPECT_EQ(cache.total_hits(), hits);
  EXPECT_EQ(cache.total_misses(), misses);
  EXPECT_GT(hits, 0u);
  EXPECT_GT(misses, 0u);
}

INSTANTIATE_TEST_SUITE_P(WaysSets, CacheOracle,
                         ::testing::Combine(::testing::Values(1, 2, 4, 16),
                                            ::testing::Values(8, 6, 6144)));

}  // namespace
}  // namespace gnnbridge::sim

// Set-associative LRU cache model (the simulated L2).
//
// One shared L2 sits between all SMs and DRAM, exactly as on the V100. The
// replay drives it with the interleaved access streams of co-resident
// blocks, so hit rates respond to task ordering (locality-aware scheduling)
// and working-set size (neighbor grouping) — the mechanisms behind
// Figures 3 and 9 of the paper.
#pragma once

#include <cstdint>
#include <vector>

namespace gnnbridge::sim {

/// Result of probing the cache with one access.
struct CacheProbe {
  std::uint32_t lines = 0;   ///< lines the access spanned
  std::uint32_t hits = 0;    ///< lines found resident
  std::uint32_t misses = 0;  ///< lines fetched from DRAM
};

/// Set-associative LRU cache over 64-bit line tags.
///
/// Each set keeps its tags in recency order, most recent first: a hit moves
/// its tag to the front, a miss shifts the set by one and drops the last
/// (least recently used) tag. Empty ways sit at the tail, so a set fills
/// before it evicts (DESIGN.md §5).
class SetAssocCache {
 public:
  /// `capacity_bytes` total, `ways` associativity, `line_bytes` per line.
  /// The set count is rounded down to a power of two for cheap indexing.
  SetAssocCache(std::int64_t capacity_bytes, int ways, int line_bytes);

  /// Touches `bytes` bytes at `addr`; returns per-line hit/miss counts and
  /// updates LRU state. Write allocation: writes behave like reads.
  CacheProbe access(std::uint64_t addr, std::uint32_t bytes);

  /// Touches exactly one line containing `addr`.
  bool access_line(std::uint64_t addr);

  /// Probes line number `line` (see line_of) and updates its set's LRU
  /// order, but not the running totals. Probes of distinct sets touch
  /// disjoint state, so they may run concurrently; the caller adds their
  /// outcomes with `count` afterwards.
  bool probe(std::uint64_t line) {
    std::uint64_t* tag = &tags_[(line & set_mask_) * static_cast<std::uint64_t>(ways_)];
    int w = 0;
    while (w < ways_ && tag[w] != line) ++w;
    const bool hit = w < ways_;
    if (!hit) w = ways_ - 1;
    for (; w > 0; --w) tag[w] = tag[w - 1];
    tag[0] = line;
    return hit;
  }

  /// Adds probe outcomes to the running totals.
  void count(std::uint64_t hits, std::uint64_t misses) {
    total_hits_ += hits;
    total_misses_ += misses;
  }

  /// Line number holding byte `addr`.
  std::uint64_t line_of(std::uint64_t addr) const { return addr >> line_shift_; }
  /// Set index of line number `line`.
  std::uint64_t set_of(std::uint64_t line) const { return line & set_mask_; }

  /// Invalidates everything.
  void clear();

  int ways() const { return ways_; }
  int num_sets() const { return num_sets_; }
  int line_bytes() const { return line_bytes_; }

  std::uint64_t total_hits() const { return total_hits_; }
  std::uint64_t total_misses() const { return total_misses_; }

 private:
  int ways_;
  int num_sets_;
  int line_bytes_;
  int line_shift_;
  std::uint64_t set_mask_;
  /// tags_[set * ways + w], w = 0 most recently used; kEmpty means invalid
  /// and only ever follows the valid tags of its set.
  std::vector<std::uint64_t> tags_;
  std::uint64_t total_hits_ = 0;
  std::uint64_t total_misses_ = 0;

  /// No line number reaches it: line numbers are addresses shifted right.
  static constexpr std::uint64_t kEmpty = ~0ull;
};

}  // namespace gnnbridge::sim

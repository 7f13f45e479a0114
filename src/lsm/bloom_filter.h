// Per-component bloom filters (the standard SSTable design; see also the
// filter/fence discussion in the LSM compaction-design-space literature).
// A filter is built over EVERY key a component stores — anti-matter entries
// included, because skipping a component on its tombstone would resurrect an
// older version — and persisted after the data pages, CRC-guarded, and
// located by the component's footer. Lookups probe the memory-resident filter with k
// cache-line touches and no I/O; a negative answer proves the key is absent,
// so a point-lookup miss never opens a B-tree page.
//
// The filter hashes a single 64-bit key digest and derives the k probe
// positions by double hashing, so membership tests are allocation-free and
// the serialized form is position-independent.
#ifndef TC_LSM_BLOOM_FILTER_H_
#define TC_LSM_BLOOM_FILTER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"

namespace tc {

/// Filter policy for components built by a tree (flush, merge, bulk load).
struct BloomFilterConfig {
  /// Bits per key for filters built at flush/merge/bulk-load time. 0 disables
  /// building new filters; components that already carry one still load it
  /// and serve filtered lookups. 10 bits/key ≈ 0.8% false positives.
  size_t bits_per_key = 10;
};

/// 64-bit digest of a 128-bit component key (splitmix64 finalization over the
/// combined halves). Builders and probes must agree on this exact function.
inline uint64_t BloomKeyHash(int64_t a, int64_t b) {
  uint64_t x = static_cast<uint64_t>(a) * 0x9e3779b97f4a7c15ull;
  x ^= static_cast<uint64_t>(b) + 0x2545f4914f6cdd1dull + (x << 6) + (x >> 2);
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x;
}

/// Immutable, memory-resident bloom filter loaded from a component file.
class BloomFilter {
 public:
  /// Probe count that minimizes the false-positive rate for a bit budget
  /// (ln 2 * bits/key), clamped to [1, 30].
  static uint32_t ProbesForBitsPerKey(size_t bits_per_key);

  /// Analytic false-positive rate (1 - e^{-k/b})^k of a filter built with
  /// `bits_per_key` — what the property tests bound the measured rate against.
  static double ExpectedFpr(size_t bits_per_key);

  /// Parses a serialized filter blob; rejects unknown versions and
  /// inconsistent lengths (the caller treats a failure as "no filter", which
  /// is always correct, just slower).
  static Result<std::shared_ptr<const BloomFilter>> Load(const uint8_t* data,
                                                         size_t size);

  /// True when the key MAY be present; false proves absence.
  bool MayContainHash(uint64_t h) const {
    uint64_t delta = (h >> 17) | (h << 47);  // double hashing, LevelDB-style
    for (uint32_t i = 0; i < n_probes_; ++i) {
      uint64_t bit = h % n_bits_;
      if ((words_[bit >> 6] & (1ull << (bit & 63))) == 0) return false;
      h += delta;
    }
    return true;
  }

  uint64_t n_bits() const { return n_bits_; }
  uint32_t n_probes() const { return n_probes_; }

 private:
  friend class BloomFilterBuilder;
  BloomFilter() = default;

  std::vector<uint64_t> words_;
  uint64_t n_bits_ = 0;
  uint32_t n_probes_ = 1;
};

/// Accumulates key hashes during a component build and serializes the filter
/// for the component's filter pages.
class BloomFilterBuilder {
 public:
  explicit BloomFilterBuilder(size_t bits_per_key) : bits_per_key_(bits_per_key) {}

  void AddHash(uint64_t h) { hashes_.push_back(h); }

  /// Serializes the filter over all added hashes into `out` (cleared first).
  /// Emits an empty buffer — meaning "no filter" — when disabled or empty.
  void Finish(Buffer* out) const;

  size_t added() const { return hashes_.size(); }
  size_t bits_per_key() const { return bits_per_key_; }

 private:
  size_t bits_per_key_;
  std::vector<uint64_t> hashes_;
};

}  // namespace tc

#endif  // TC_LSM_BLOOM_FILTER_H_

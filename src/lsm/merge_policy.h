// LSM merge policies (paper §2.2, [19, 29]). The default is the prefix merge
// policy AsterixDB uses — the Figure 17 ingestion experiments configure it
// with a 1 GB-scaled maximum mergeable component size and a tolerance of 5
// components. Tiered and lazy-leveled policies (Luo & Carey's LSM survey;
// Dayan & Idreos' lazy leveling) cover the write- vs read-amplification
// trade-off axis the fig17/fig24 benches measure.
#ifndef TC_LSM_MERGE_POLICY_H_
#define TC_LSM_MERGE_POLICY_H_

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

namespace tc {

struct MergeDecision {
  bool merge = false;
  // Range [begin, end) of component indexes (newest-first order) to merge.
  size_t begin = 0;
  size_t end = 0;
};

class MergePolicy {
 public:
  virtual ~MergePolicy() = default;
  virtual const char* name() const = 0;
  /// `sizes` are the current on-disk components' physical sizes in bytes,
  /// newest first. A tree runs at most one merge at a time, so the decision
  /// always covers the whole vector; the completing merge's cascade asks
  /// again.
  virtual MergeDecision Decide(const std::vector<uint64_t>& sizes) const = 0;
};

/// Never merges.
std::unique_ptr<MergePolicy> MakeNoMergePolicy();

/// AsterixDB's prefix merge policy: ignore components larger than
/// `max_mergeable_bytes`; among the remaining *suffix* of newest components,
/// merge the longest run whose total stays under `max_mergeable_bytes` once
/// more than `max_tolerance_count` such components accumulate. With no size
/// cap (UINT64_MAX) it merges every component whenever their count exceeds
/// the tolerance — the constant-components schedule tests use.
std::unique_ptr<MergePolicy> MakePrefixMergePolicy(uint64_t max_mergeable_bytes,
                                                   size_t max_tolerance_count);

/// Size-tiered policy: contiguous (newest-first) components whose sizes span
/// strictly less than a factor of `size_ratio` form a tier; once a tier
/// accumulates `min_merge_width` components the full tier merges into one.
/// Each byte is rewritten at most once per tier level, so write amplification
/// is low at the cost of more live components per lookup. A forced merge of
/// the newest `min_merge_width` components bounds the count when adversarial
/// size distributions strand narrow tiers.
std::unique_ptr<MergePolicy> MakeTieredMergePolicy(size_t size_ratio,
                                                   size_t min_merge_width);

/// Lazy-leveled policy: a tiered upper deck above a single large leveled
/// bottom component. The deck tiers exactly like MakeTieredMergePolicy; once
/// it holds at least `min_merge_width` components whose total reaches
/// 1/`size_ratio` of the bottom component, everything merges into the bottom.
/// Point lookups see few components while the deck still absorbs write bursts.
std::unique_ptr<MergePolicy> MakeLazyLeveledMergePolicy(size_t size_ratio,
                                                        size_t min_merge_width);

enum class MergePolicyKind {
  kNoMerge,
  kPrefix,
  kTiered,
  kLazyLeveled,
};

const char* MergePolicyKindName(MergePolicyKind kind);

/// Parses "none"/"no-merge", "prefix", "tiered", and
/// "lazy-leveled"/"lazy" (case-insensitive). Returns false on unknown names.
bool ParseMergePolicyKind(std::string_view text, MergePolicyKind* out);

/// Selectable policy + knobs, threaded from DatasetOptions into every LSM
/// tree of a partition (primary, primary-key index, secondary index).
struct MergePolicyConfig {
  MergePolicyKind kind = MergePolicyKind::kPrefix;
  // Prefix knobs (paper Figure 17 configuration). Tiered and lazy-leveled
  // run with size ratio 4 and merge width 4.
  uint64_t max_mergeable_bytes = 32ull << 20;
  size_t max_tolerance_count = 5;
};

std::unique_ptr<MergePolicy> MakeMergePolicy(const MergePolicyConfig& config);

}  // namespace tc

#endif  // TC_LSM_MERGE_POLICY_H_

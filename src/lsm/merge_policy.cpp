#include "lsm/merge_policy.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <string>

#include "common/env_config.h"

namespace tc {
namespace {

// Applies `within(begin, end)` to each maximal run of unclaimed components,
// newest first, returning the first merge any run proposes. Components
// claimed by an in-flight merge partition the vector; a proposal never spans
// a claimed component, so concurrently proposed merges are always disjoint.
// With nothing claimed the single run [0, n) makes this exactly the policy's
// historical behaviour.
template <typename WithinFn>
MergeDecision FirstUnclaimedRunDecision(size_t n,
                                        const std::vector<bool>& claimed,
                                        WithinFn within) {
  if (claimed.empty()) return within(0, n);
  size_t i = 0;
  while (i < n) {
    if (i < claimed.size() && claimed[i]) {
      ++i;
      continue;
    }
    size_t j = i;
    while (j < n && !(j < claimed.size() && claimed[j])) ++j;
    MergeDecision d = within(i, j);
    if (d.merge) return d;
    i = j;
  }
  return {};
}

class NoMergePolicy final : public MergePolicy {
 public:
  const char* name() const override { return "no-merge"; }
  MergeDecision Decide(const std::vector<uint64_t>& /*sizes*/,
                       const std::vector<bool>& /*claimed*/) const override {
    return {};
  }
};

class PrefixMergePolicy final : public MergePolicy {
 public:
  PrefixMergePolicy(uint64_t max_bytes, size_t tolerance)
      : max_bytes_(max_bytes), tolerance_(tolerance) {}

  const char* name() const override { return "prefix"; }

  MergeDecision Decide(const std::vector<uint64_t>& sizes,
                       const std::vector<bool>& claimed) const override {
    return FirstUnclaimedRunDecision(
        sizes.size(), claimed,
        [&](size_t b, size_t e) { return DecideWithin(sizes, b, e); });
  }

 private:
  MergeDecision DecideWithin(const std::vector<uint64_t>& sizes, size_t b,
                             size_t e) const {
    // Find the run of "small" components at the newest end of the window (a
    // component that grew past max_bytes_ is left alone, as are all
    // components older than it).
    size_t end = b;
    while (end < e && sizes[end] < max_bytes_) ++end;
    if (end - b <= tolerance_) return {};
    // Merge the longest newest-first prefix of that run whose sum fits.
    uint64_t total = 0;
    size_t take = 0;
    while (b + take < end && total + sizes[b + take] <= max_bytes_) {
      total += sizes[b + take];
      ++take;
    }
    if (take < 2) {
      // The run overflows even pairwise; merge the two newest regardless so
      // the component count stays bounded — but never reach past the run: a
      // component that exceeded max_bytes_ stays left alone.
      if (end - b < 2) return {};
      take = 2;
    }
    return {true, b, b + take};
  }

  uint64_t max_bytes_;
  size_t tolerance_;
};

// Scans [begin, end) newest-first for the first tier — a maximal run of
// components whose sizes span strictly less than a factor of `ratio` — that
// is at least `width` long; the full tier merges at once. The strict bound
// keeps a geometric tower of merged tiers (each level exactly `ratio`× the
// one above — tiering's steady state) stable instead of collapsing it like a
// leveling merge would. Tiers are disjoint: the scan resumes after each run,
// so a short newest tier never blocks an older full one.
MergeDecision DecideTierWithin(const std::vector<uint64_t>& sizes, size_t begin,
                               size_t end, size_t ratio, size_t width) {
  size_t i = begin;
  while (i < end) {
    uint64_t lo = sizes[i];
    uint64_t hi = sizes[i];
    size_t j = i + 1;
    while (j < end) {
      uint64_t nlo = std::min(lo, sizes[j]);
      uint64_t nhi = std::max(hi, sizes[j]);
      if (nhi >= nlo * ratio) break;
      lo = nlo;
      hi = nhi;
      ++j;
    }
    if (j - i >= width) return {true, i, j};
    i = j;
  }
  // Pathologically varied flush sizes can strand narrow tiers indefinitely.
  // Once the window holds far more components than healthy tiering would keep
  // (roughly `width` per level of a `ratio`-geometric tower), force-merge the
  // newest `width` regardless of similarity so the count stays bounded.
  if (end - begin >= 8 * width) return {true, begin, begin + width};
  return {};
}

class TieredMergePolicy final : public MergePolicy {
 public:
  TieredMergePolicy(size_t size_ratio, size_t min_merge_width)
      : ratio_(std::max<size_t>(2, size_ratio)),
        width_(std::max<size_t>(2, min_merge_width)) {}

  const char* name() const override { return "tiered"; }

  MergeDecision Decide(const std::vector<uint64_t>& sizes,
                       const std::vector<bool>& claimed) const override {
    return FirstUnclaimedRunDecision(
        sizes.size(), claimed, [&](size_t b, size_t e) {
          return DecideTierWithin(sizes, b, e, ratio_, width_);
        });
  }

 private:
  size_t ratio_;
  size_t width_;
};

class LazyLeveledMergePolicy final : public MergePolicy {
 public:
  LazyLeveledMergePolicy(size_t size_ratio, size_t min_merge_width)
      : ratio_(std::max<size_t>(2, size_ratio)),
        width_(std::max<size_t>(2, min_merge_width)) {}

  const char* name() const override { return "lazy-leveled"; }

  MergeDecision Decide(const std::vector<uint64_t>& sizes,
                       const std::vector<bool>& claimed) const override {
    size_t n = sizes.size();
    if (n < 2) return {};
    bool any_claimed = false;
    for (bool c : claimed) any_claimed |= c;
    if (!any_claimed) {
      // The oldest component is the single leveled bottom; everything newer
      // is the tiered upper deck. Absorb the deck into the bottom once it is
      // wide enough and carries enough bytes for the bottom rewrite to
      // amortize.
      uint64_t upper_total = 0;
      for (size_t i = 0; i + 1 < n; ++i) upper_total += sizes[i];
      if (n - 1 >= width_ && upper_total * ratio_ >= sizes[n - 1]) {
        return {true, 0, n};
      }
      return DecideTierWithin(sizes, 0, n - 1, ratio_, width_);
    }
    // A merge is in flight: the full-deck absorb (which needs every
    // component, bottom included) is off the table, but the unclaimed runs
    // of the upper deck can keep tiering concurrently so bursts are still
    // absorbed while the big rewrite runs.
    return FirstUnclaimedRunDecision(
        n - 1, claimed, [&](size_t b, size_t e) {
          return DecideTierWithin(sizes, b, e, ratio_, width_);
        });
  }

 private:
  size_t ratio_;
  size_t width_;
};

}  // namespace

std::unique_ptr<MergePolicy> MakeNoMergePolicy() {
  return std::make_unique<NoMergePolicy>();
}

std::unique_ptr<MergePolicy> MakePrefixMergePolicy(uint64_t max_mergeable_bytes,
                                                   size_t max_tolerance_count) {
  return std::make_unique<PrefixMergePolicy>(max_mergeable_bytes,
                                             max_tolerance_count);
}

std::unique_ptr<MergePolicy> MakeTieredMergePolicy(size_t size_ratio,
                                                   size_t min_merge_width) {
  return std::make_unique<TieredMergePolicy>(size_ratio, min_merge_width);
}

std::unique_ptr<MergePolicy> MakeLazyLeveledMergePolicy(size_t size_ratio,
                                                        size_t min_merge_width) {
  return std::make_unique<LazyLeveledMergePolicy>(size_ratio, min_merge_width);
}

const char* MergePolicyKindName(MergePolicyKind kind) {
  switch (kind) {
    case MergePolicyKind::kNoMerge: return "none";
    case MergePolicyKind::kPrefix: return "prefix";
    case MergePolicyKind::kTiered: return "tiered";
    case MergePolicyKind::kLazyLeveled: return "lazy-leveled";
  }
  return "?";
}

bool ParseMergePolicyKind(std::string_view text, MergePolicyKind* out) {
  std::string lower(text);
  for (char& c : lower) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  if (lower == "none" || lower == "no-merge") {
    *out = MergePolicyKind::kNoMerge;
  } else if (lower == "prefix") {
    *out = MergePolicyKind::kPrefix;
  } else if (lower == "tiered") {
    *out = MergePolicyKind::kTiered;
  } else if (lower == "lazy-leveled" || lower == "lazy") {
    *out = MergePolicyKind::kLazyLeveled;
  } else {
    return false;
  }
  return true;
}

MergePolicyConfig MergePolicyConfig::FromEnv() { return FromEnv(MergePolicyConfig()); }

MergePolicyConfig MergePolicyConfig::FromEnv(MergePolicyConfig defaults) {
  MergePolicyConfig c = defaults;
  std::string kind = EnvString("TC_MERGE_POLICY", "");
  if (!kind.empty() && !ParseMergePolicyKind(kind, &c.kind)) {
    std::fprintf(stderr,
                 "warning: unknown TC_MERGE_POLICY '%s'; keeping '%s'\n",
                 kind.c_str(), MergePolicyKindName(c.kind));
  }
  // Applied only when set: a sub-MiB default must not round-trip through the
  // MiB conversion (512 KiB >> 20 << 20 would silently become 0 = never merge).
  int64_t max_mb = EnvInt64("TC_MERGE_MAX_MB", -1);
  if (max_mb >= 0) c.max_mergeable_bytes = static_cast<uint64_t>(max_mb) << 20;
  c.max_tolerance_count = static_cast<size_t>(EnvInt64(
      "TC_MERGE_TOLERANCE", static_cast<int64_t>(defaults.max_tolerance_count)));
  c.size_ratio = static_cast<size_t>(
      EnvInt64("TC_MERGE_SIZE_RATIO", static_cast<int64_t>(defaults.size_ratio)));
  c.min_merge_width = static_cast<size_t>(EnvInt64(
      "TC_MERGE_MIN_WIDTH", static_cast<int64_t>(defaults.min_merge_width)));
  c.max_concurrent_merges = static_cast<size_t>(std::max<int64_t>(
      1, EnvInt64("TC_MERGE_CONCURRENT",
                  static_cast<int64_t>(defaults.max_concurrent_merges))));
  c.max_pending_flush_builds = static_cast<size_t>(std::max<int64_t>(
      1, EnvInt64("TC_FLUSH_PENDING",
                  static_cast<int64_t>(defaults.max_pending_flush_builds))));
  return c;
}

std::unique_ptr<MergePolicy> MakeMergePolicy(const MergePolicyConfig& config) {
  switch (config.kind) {
    case MergePolicyKind::kNoMerge:
      return MakeNoMergePolicy();
    case MergePolicyKind::kPrefix:
      return MakePrefixMergePolicy(config.max_mergeable_bytes,
                                   config.max_tolerance_count);
    case MergePolicyKind::kTiered:
      return MakeTieredMergePolicy(config.size_ratio, config.min_merge_width);
    case MergePolicyKind::kLazyLeveled:
      return MakeLazyLeveledMergePolicy(config.size_ratio,
                                        config.min_merge_width);
  }
  return MakePrefixMergePolicy(config.max_mergeable_bytes,
                               config.max_tolerance_count);
}

}  // namespace tc

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>

#include "common/rng.h"
#include "lsm/merge_policy.h"

namespace tc {
namespace {

constexpr uint64_t kMB = 1 << 20;

TEST(NoMerge, NeverMerges) {
  auto p = MakeNoMergePolicy();
  EXPECT_FALSE(p->Decide({kMB, kMB, kMB, kMB, kMB, kMB, kMB, kMB}).merge);
}

TEST(Prefix, UnderToleranceNoMerge) {
  // Figure 17 configuration: max mergeable size with tolerance 5.
  auto p = MakePrefixMergePolicy(32 * kMB, 5);
  EXPECT_FALSE(p->Decide({kMB, kMB, kMB, kMB, kMB}).merge);
}

TEST(Prefix, MergesWhenToleranceExceeded) {
  auto p = MakePrefixMergePolicy(32 * kMB, 5);
  MergeDecision d = p->Decide({kMB, kMB, kMB, kMB, kMB, kMB});
  ASSERT_TRUE(d.merge);
  EXPECT_EQ(d.begin, 0u);
  EXPECT_EQ(d.end, 6u);  // all six fit under the 32 MB cap
}

TEST(Prefix, RespectsMaxMergeableSize) {
  auto p = MakePrefixMergePolicy(10 * kMB, 3);
  // Four 4MB components: only the two newest fit under 10MB... (4+4=8, +4=12).
  MergeDecision d = p->Decide({4 * kMB, 4 * kMB, 4 * kMB, 4 * kMB});
  ASSERT_TRUE(d.merge);
  EXPECT_EQ(d.end - d.begin, 2u);
}

TEST(Prefix, IgnoresComponentsLargerThanMax) {
  auto p = MakePrefixMergePolicy(10 * kMB, 2);
  // A 64MB component at position 1 stops the mergeable run.
  MergeDecision d = p->Decide({kMB, 64 * kMB, kMB, kMB, kMB});
  EXPECT_FALSE(d.merge);  // run length 1 <= tolerance
  // Run of 3 small ones before the big one.
  d = p->Decide({kMB, kMB, kMB, 64 * kMB, kMB});
  ASSERT_TRUE(d.merge);
  EXPECT_EQ(d.begin, 0u);
  EXPECT_EQ(d.end, 3u);
}

TEST(Prefix, PairwiseFallbackWhenOverflowing) {
  auto p = MakePrefixMergePolicy(5 * kMB, 1);
  MergeDecision d = p->Decide({4 * kMB, 4 * kMB});
  ASSERT_TRUE(d.merge);
  EXPECT_EQ(d.end - d.begin, 2u);
}

// With no size cap every component is "small" and the take loop takes them
// all: the constant-components schedule (merge everything past k).
TEST(Prefix, UncappedMergesAllPastTolerance) {
  auto p = MakePrefixMergePolicy(UINT64_MAX, 3);
  EXPECT_FALSE(p->Decide({kMB, kMB, kMB}).merge);
  MergeDecision d = p->Decide({kMB, kMB, kMB, kMB});
  ASSERT_TRUE(d.merge);
  EXPECT_EQ(d.begin, 0u);
  EXPECT_EQ(d.end, 4u);
}

// Regression: with tolerance 0 and a single small component ahead of an
// oversized one, the old pairwise fallback forced take = 2 and pulled in the
// component the policy promises to leave alone.
TEST(Prefix, PairwiseFallbackNeverReachesPastTheRun) {
  auto p = MakePrefixMergePolicy(10 * kMB, 0);
  EXPECT_FALSE(p->Decide({kMB, 64 * kMB}).merge);
  EXPECT_FALSE(p->Decide({kMB, 64 * kMB, 64 * kMB, kMB}).merge);
  // A two-component run that overflows pairwise still merges — but only the
  // run, not the frozen component behind it.
  MergeDecision d = p->Decide({6 * kMB, 6 * kMB, 64 * kMB});
  ASSERT_TRUE(d.merge);
  EXPECT_EQ(d.begin, 0u);
  EXPECT_EQ(d.end, 2u);
}

TEST(Tiered, UnderWidthNoMerge) {
  auto p = MakeTieredMergePolicy(/*size_ratio=*/4, /*min_merge_width=*/4);
  EXPECT_STREQ(p->name(), "tiered");
  EXPECT_FALSE(p->Decide({}).merge);
  EXPECT_FALSE(p->Decide({kMB, kMB, kMB}).merge);
}

TEST(Tiered, MergesFullTier) {
  auto p = MakeTieredMergePolicy(4, 4);
  MergeDecision d = p->Decide({kMB, 2 * kMB, kMB, 3 * kMB});
  ASSERT_TRUE(d.merge);
  EXPECT_EQ(d.begin, 0u);
  EXPECT_EQ(d.end, 4u);
}

TEST(Tiered, SizeRatioSplitsTiers) {
  auto p = MakeTieredMergePolicy(4, 4);
  // The 16MB component belongs to a deeper tier: the newest run is 3 wide, so
  // nothing merges.
  EXPECT_FALSE(p->Decide({kMB, kMB, kMB, 16 * kMB}).merge);
  // A short newest tier does not block a full deeper one.
  MergeDecision d =
      p->Decide({kMB, 16 * kMB, 20 * kMB, 16 * kMB, 17 * kMB, 200 * kMB});
  ASSERT_TRUE(d.merge);
  EXPECT_EQ(d.begin, 1u);
  EXPECT_EQ(d.end, 5u);
  // A geometric tower — the steady state of tiering — is stable: each level
  // reaches the ratio against the level above and never re-merges.
  EXPECT_FALSE(p->Decide({kMB, 4 * kMB, 16 * kMB, 64 * kMB}).merge);
}

TEST(LazyLeveled, SingleComponentNoMerge) {
  auto p = MakeLazyLeveledMergePolicy(4, 4);
  EXPECT_STREQ(p->name(), "lazy-leveled");
  EXPECT_FALSE(p->Decide({}).merge);
  EXPECT_FALSE(p->Decide({64 * kMB}).merge);
}

TEST(LazyLeveled, AbsorbsDeckIntoBottomWhenWideAndHeavyEnough) {
  auto p = MakeLazyLeveledMergePolicy(4, 4);
  // Deck of 4 components totalling 4MB; 4MB * 4 >= 8MB bottom → full merge.
  MergeDecision d = p->Decide({kMB, kMB, kMB, kMB, 8 * kMB});
  ASSERT_TRUE(d.merge);
  EXPECT_EQ(d.begin, 0u);
  EXPECT_EQ(d.end, 5u);
}

TEST(LazyLeveled, TiersWithinDeckWhileBottomTooBig) {
  auto p = MakeLazyLeveledMergePolicy(4, 4);
  // Deck total 4MB, bottom 64MB: 4 * 4 < 64 → no absorb; the deck itself
  // forms a full 4-wide tier and merges WITHOUT touching the bottom.
  MergeDecision d = p->Decide({kMB, kMB, kMB, kMB, 64 * kMB});
  ASSERT_TRUE(d.merge);
  EXPECT_EQ(d.begin, 0u);
  EXPECT_EQ(d.end, 4u);
  // A too-narrow deck never merges, however heavy.
  EXPECT_FALSE(p->Decide({30 * kMB, 64 * kMB}).merge);
}

TEST(EnvConfig, ParseAndFactoryCoverEveryKind) {
  MergePolicyKind k;
  ASSERT_TRUE(ParseMergePolicyKind("none", &k));
  EXPECT_EQ(k, MergePolicyKind::kNoMerge);
  ASSERT_TRUE(ParseMergePolicyKind("Tiered", &k));
  EXPECT_EQ(k, MergePolicyKind::kTiered);
  ASSERT_TRUE(ParseMergePolicyKind("lazy", &k));
  EXPECT_EQ(k, MergePolicyKind::kLazyLeveled);
  EXPECT_FALSE(ParseMergePolicyKind("leveled-eagerly", &k));
  for (MergePolicyKind kind :
       {MergePolicyKind::kNoMerge, MergePolicyKind::kPrefix,
        MergePolicyKind::kTiered,
        MergePolicyKind::kLazyLeveled}) {
    MergePolicyConfig c;
    c.kind = kind;
    auto p = MakeMergePolicy(c);
    ASSERT_NE(p, nullptr);
    MergePolicyKind parsed;
    ASSERT_TRUE(ParseMergePolicyKind(MergePolicyKindName(kind), &parsed));
    EXPECT_EQ(parsed, kind);
  }
}

TEST(EnvConfig, FromEnvOverlaysKnobs) {
  ::setenv("TC_MERGE_POLICY", "lazy-leveled", 1);
  ::setenv("TC_MERGE_SIZE_RATIO", "7", 1);
  ::setenv("TC_MERGE_TOLERANCE", "9", 1);
  MergePolicyConfig defaults;
  defaults.max_mergeable_bytes = 3 * kMB;
  MergePolicyConfig c = MergePolicyConfig::FromEnv(defaults);
  EXPECT_EQ(c.kind, MergePolicyKind::kLazyLeveled);
  EXPECT_EQ(c.size_ratio, 7u);
  EXPECT_EQ(c.max_tolerance_count, 9u);
  EXPECT_EQ(c.max_mergeable_bytes, 3 * kMB);  // unset knob keeps the default
  // Regression: an unset TC_MERGE_MAX_MB must not round-trip a sub-MiB
  // default through the MiB conversion (512 KiB would become 0 = never merge).
  defaults.max_mergeable_bytes = 512 * 1024;
  EXPECT_EQ(MergePolicyConfig::FromEnv(defaults).max_mergeable_bytes,
            512u * 1024);
  ::unsetenv("TC_MERGE_POLICY");
  ::unsetenv("TC_MERGE_SIZE_RATIO");
  ::unsetenv("TC_MERGE_TOLERANCE");
  EXPECT_EQ(MergePolicyConfig::FromEnv().kind, MergePolicyKind::kPrefix);
}

// Randomized invariant check: simulate the flush/decide/apply loop the tree
// runs (one decision per flush, merged range replaced by its size sum) and
// assert, for every policy: decisions are well-formed ranges at least two
// wide, prefix never merges a component that exceeded max_mergeable_bytes,
// and the merging policies keep the component count bounded.
TEST(AllPolicies, RandomizedSimulationInvariants) {
  struct Case {
    std::shared_ptr<MergePolicy> policy;
    bool bounds_count;
    uint64_t prefix_max_bytes;  // 0 = not a prefix policy
  };
  const uint64_t kPrefixMax = 2 * kMB;
  std::vector<Case> cases = {
      {MakeNoMergePolicy(), false, 0},
      {MakePrefixMergePolicy(kPrefixMax, 3), true, kPrefixMax},
      {MakePrefixMergePolicy(UINT64_MAX, 5), true, 0},
      {MakeTieredMergePolicy(3, 3), true, 0},
      {MakeLazyLeveledMergePolicy(3, 3), true, 0},
  };
  Rng rng(20260726);
  for (const Case& c : cases) {
    std::vector<uint64_t> sizes;
    size_t high_water = 0;
    for (int flush = 0; flush < 600; ++flush) {
      // New flushed component, 10KB..200KB.
      sizes.insert(sizes.begin(), 10 * 1024 + rng.Uniform(190 * 1024));
      MergeDecision d = c.policy->Decide(sizes);
      if (d.merge) {
        ASSERT_LT(d.begin, d.end) << c.policy->name();
        ASSERT_LE(d.end, sizes.size()) << c.policy->name();
        ASSERT_GE(d.end - d.begin, 2u) << c.policy->name();
        if (c.prefix_max_bytes != 0) {
          for (size_t i = d.begin; i < d.end; ++i) {
            ASSERT_LT(sizes[i], c.prefix_max_bytes)
                << c.policy->name() << " merged an oversized component";
          }
        }
        uint64_t sum = 0;
        for (size_t i = d.begin; i < d.end; ++i) sum += sizes[i];
        sizes.erase(sizes.begin() + static_cast<ptrdiff_t>(d.begin),
                    sizes.begin() + static_cast<ptrdiff_t>(d.end));
        sizes.insert(sizes.begin() + static_cast<ptrdiff_t>(d.begin), sum);
      }
      high_water = std::max(high_water, sizes.size());
    }
    if (c.bounds_count) {
      EXPECT_LE(high_water, 64u) << c.policy->name();
    } else {
      EXPECT_EQ(high_water, 600u) << c.policy->name();  // no-merge keeps all
    }
  }
}

// ---------------------------------------------------------------------------
// Claim-aware decisions (concurrent disjoint merges): components pinned by an
// in-flight merge partition the vector, and policies re-apply their logic
// within each unclaimed run.
// ---------------------------------------------------------------------------

TEST(ClaimAware, EmptyClaimsMatchSingleArgDecide) {
  // The two-arg overload with nothing claimed must reproduce the historical
  // decision bit for bit — the single-inflight schedule depends on it.
  std::vector<std::shared_ptr<MergePolicy>> policies = {
      MakeNoMergePolicy(), MakePrefixMergePolicy(2 * kMB, 3),
      MakePrefixMergePolicy(UINT64_MAX, 5), MakeTieredMergePolicy(3, 3),
      MakeLazyLeveledMergePolicy(3, 3)};
  Rng rng(777);
  for (const auto& p : policies) {
    for (int trial = 0; trial < 200; ++trial) {
      std::vector<uint64_t> sizes(1 + rng.Uniform(12));
      for (auto& s : sizes) s = 1024 + rng.Uniform(4 * kMB);
      MergeDecision a = p->Decide(sizes);
      MergeDecision b = p->Decide(sizes, std::vector<bool>(sizes.size(), false));
      EXPECT_EQ(a.merge, b.merge) << p->name();
      if (a.merge) {
        EXPECT_EQ(a.begin, b.begin) << p->name();
        EXPECT_EQ(a.end, b.end) << p->name();
      }
    }
  }
}

TEST(ClaimAware, PrefixProposesBehindAndAheadOfClaimedRun) {
  auto p = MakePrefixMergePolicy(32 * kMB, 1);
  // The two newest are claimed by a running merge; the run behind them still
  // exceeds the tolerance and merges on its own.
  std::vector<uint64_t> sizes = {kMB, kMB, kMB, kMB, kMB};
  std::vector<bool> claimed = {true, true, false, false, false};
  MergeDecision d = p->Decide(sizes, claimed);
  ASSERT_TRUE(d.merge);
  EXPECT_EQ(d.begin, 2u);
  EXPECT_EQ(d.end, 5u);
  // Claimed in the middle: fresh flushes in FRONT of the claimed run merge.
  claimed = {false, false, false, true, true};
  d = p->Decide(sizes, claimed);
  ASSERT_TRUE(d.merge);
  EXPECT_EQ(d.begin, 0u);
  EXPECT_EQ(d.end, 3u);
}

TEST(ClaimAware, TieredTiersWithinUnclaimedRuns) {
  auto p = MakeTieredMergePolicy(3, 2);
  // [claimed claimed | s s] — the unclaimed pair is a full tier of its own.
  std::vector<uint64_t> sizes = {kMB, kMB, kMB, kMB};
  std::vector<bool> claimed = {true, true, false, false};
  MergeDecision d = p->Decide(sizes, claimed);
  ASSERT_TRUE(d.merge);
  EXPECT_EQ(d.begin, 2u);
  EXPECT_EQ(d.end, 4u);
  // A claimed component splits what would otherwise be one wide tier; each
  // side is too narrow on its own.
  claimed = {false, true, false, false};
  d = p->Decide({kMB, kMB, kMB, 100 * kMB}, claimed);
  EXPECT_FALSE(d.merge);
}

TEST(ClaimAware, UncappedPrefixMergesTheUnclaimedRunOnly) {
  auto p = MakePrefixMergePolicy(UINT64_MAX, 2);
  std::vector<uint64_t> sizes = {kMB, kMB, kMB, kMB, kMB};
  std::vector<bool> claimed = {true, true, false, false, false};
  MergeDecision d = p->Decide(sizes, claimed);
  ASSERT_TRUE(d.merge);
  EXPECT_EQ(d.begin, 2u);
  EXPECT_EQ(d.end, 5u);
}

TEST(ClaimAware, LazyLeveledNeverAbsorbsWhileAMergeRuns) {
  auto p = MakeLazyLeveledMergePolicy(2, 2);
  // Unclaimed, deck wide + heavy enough: full absorb into the bottom.
  std::vector<uint64_t> sizes = {4 * kMB, 4 * kMB, 8 * kMB};
  MergeDecision d = p->Decide(sizes);
  ASSERT_TRUE(d.merge);
  EXPECT_EQ(d.begin, 0u);
  EXPECT_EQ(d.end, 3u);
  // Any claim forbids the absorb (it would need every component); the
  // unclaimed deck pair still tiers.
  std::vector<bool> claimed = {false, false, true};
  d = p->Decide(sizes, claimed);
  ASSERT_TRUE(d.merge);
  EXPECT_EQ(d.begin, 0u);
  EXPECT_EQ(d.end, 2u);
}

// Property: whatever the claim pattern, a proposed range is well-formed and
// never overlaps a claimed component — the invariant the tree's scheduler
// (and its double-merge hardening) relies on.
TEST(ClaimAware, ProposalsNeverOverlapClaims) {
  std::vector<std::shared_ptr<MergePolicy>> policies = {
      MakePrefixMergePolicy(2 * kMB, 2), MakePrefixMergePolicy(UINT64_MAX, 3),
      MakeTieredMergePolicy(3, 2), MakeLazyLeveledMergePolicy(3, 2)};
  Rng rng(20260726);
  for (const auto& p : policies) {
    for (int trial = 0; trial < 400; ++trial) {
      std::vector<uint64_t> sizes(1 + rng.Uniform(14));
      std::vector<bool> claimed(sizes.size());
      for (size_t i = 0; i < sizes.size(); ++i) {
        sizes[i] = 1024 + rng.Uniform(4 * kMB);
        claimed[i] = rng.Bernoulli(0.3);
      }
      MergeDecision d = p->Decide(sizes, claimed);
      if (!d.merge) continue;
      ASSERT_LT(d.begin, d.end) << p->name();
      ASSERT_LE(d.end, sizes.size()) << p->name();
      ASSERT_GE(d.end - d.begin, 2u) << p->name();
      for (size_t i = d.begin; i < d.end; ++i) {
        ASSERT_FALSE(claimed[i]) << p->name() << " proposed a claimed component";
      }
    }
  }
}

}  // namespace
}  // namespace tc

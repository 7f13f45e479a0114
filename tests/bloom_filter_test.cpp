// Randomized property tests for the per-component bloom filters and the
// point-lookup fast path: zero false negatives, in-tolerance false-positive
// rate, fence soundness, rejection of the retired v1 (filterless) footer, and
// the unified filter-aware lookup helper (every entry point consults the filters
// and the key_may_exist hook).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "common/crc32.h"
#include "common/rng.h"
#include "lsm/bloom_filter.h"
#include "lsm/lsm_tree.h"

namespace tc {
namespace {

std::string S(const Buffer& b) { return std::string(b.begin(), b.end()); }

struct FilterFixture {
  std::shared_ptr<FileSystem> fs = MakeMemFileSystem();
  BufferCache cache{4096, 1024};

  std::shared_ptr<BtreeComponent> Build(const std::vector<int64_t>& keys,
                                        BloomFilterConfig filter = {},
                                        const std::set<int64_t>& anti = {},
                                        const std::string& path = "comp") {
    auto b = BtreeComponentBuilder::Create(fs, path, 4096, nullptr, filter)
                 .ValueOrDie();
    for (int64_t k : keys) {
      bool is_anti = anti.count(k) > 0;
      Status st = b->Add(BtreeKey{k, 0}, is_anti, is_anti ? "" : "v");
      EXPECT_TRUE(st.ok()) << st.ToString();
    }
    EXPECT_TRUE(b->Finish(1, 1, {}).ok());
    EXPECT_TRUE(b->MarkValid().ok());
    return BtreeComponent::Open(fs, &cache, path, 4096).ValueOrDie();
  }
};

std::vector<int64_t> RandomSortedKeys(Rng* rng, size_t n) {
  std::set<int64_t> keys;
  while (keys.size() < n) {
    keys.insert(static_cast<int64_t>(rng->Next() % (1ll << 40)));
  }
  return std::vector<int64_t>(keys.begin(), keys.end());
}

// --- Filter math sanity -----------------------------------------------------

TEST(BloomFilter, ProbeCountTracksBitsPerKey) {
  EXPECT_EQ(BloomFilter::ProbesForBitsPerKey(1), 1u);
  EXPECT_EQ(BloomFilter::ProbesForBitsPerKey(10), 6u);
  EXPECT_EQ(BloomFilter::ProbesForBitsPerKey(100), 30u);  // clamped
  EXPECT_GT(BloomFilter::ExpectedFpr(5), BloomFilter::ExpectedFpr(10));
  EXPECT_LT(BloomFilter::ExpectedFpr(10), 0.02);
}

TEST(BloomFilter, LoadRejectsMalformedBlobs) {
  BloomFilterBuilder b(10);
  for (uint64_t i = 0; i < 100; ++i) b.AddHash(BloomKeyHash(i, 0));
  Buffer blob;
  b.Finish(&blob);
  ASSERT_TRUE(BloomFilter::Load(blob.data(), blob.size()).ok());
  // Truncated.
  EXPECT_FALSE(BloomFilter::Load(blob.data(), blob.size() - 8).ok());
  EXPECT_FALSE(BloomFilter::Load(blob.data(), 4).ok());
  // Bad version.
  Buffer bad = blob;
  bad[0] = 9;
  EXPECT_FALSE(BloomFilter::Load(bad.data(), bad.size()).ok());
  // Bad probe count.
  bad = blob;
  bad[1] = 0;
  EXPECT_FALSE(BloomFilter::Load(bad.data(), bad.size()).ok());
}

// --- Core properties (component level) --------------------------------------

TEST(BloomFilter, ZeroFalseNegativesAcross10kKeys) {
  Rng rng(20260808);
  FilterFixture fx;
  std::vector<int64_t> keys = RandomSortedKeys(&rng, 10000);
  auto c = fx.Build(keys, BloomFilterConfig{/*bits_per_key=*/10});
  ASSERT_TRUE(c->has_filter());
  for (int64_t k : keys) {
    // A filter may never exclude a present key — this is the correctness
    // property everything else rests on.
    ASSERT_TRUE(c->MayContain(BtreeKey{k, 0})) << k;
    ASSERT_TRUE(c->Get(BtreeKey{k, 0}).ValueOrDie().has_value()) << k;
  }
}

TEST(BloomFilter, MeasuredFprWithinTwiceConfiguredTarget) {
  Rng rng(42);
  FilterFixture fx;
  std::vector<int64_t> keys = RandomSortedKeys(&rng, 10000);
  std::set<int64_t> present(keys.begin(), keys.end());
  auto c = fx.Build(keys, BloomFilterConfig{/*bits_per_key=*/10});
  ASSERT_TRUE(c->has_filter());

  size_t probes = 0, maybe = 0;
  while (probes < 20000) {
    int64_t k = static_cast<int64_t>(rng.Next() % (1ll << 40));
    if (present.count(k) > 0) continue;
    ++probes;
    // Probe the filter directly (fences would mask it for out-of-range keys).
    if (c->filter()->MayContainHash(BloomKeyHash(k, 0))) ++maybe;
  }
  double measured = static_cast<double>(maybe) / static_cast<double>(probes);
  double expected = BloomFilter::ExpectedFpr(10);
  EXPECT_LT(measured, 2.0 * expected)
      << "measured " << measured << " vs expected " << expected;
}

TEST(BloomFilter, FencePruningNeverExcludesPresentKey) {
  Rng rng(7);
  FilterFixture fx;
  std::vector<int64_t> keys = RandomSortedKeys(&rng, 2000);
  auto c = fx.Build(keys);
  for (int64_t k : keys) {
    ASSERT_TRUE(c->KeyInFence(BtreeKey{k, 0})) << k;
  }
  // And the fences do prune keys outside [min, max].
  EXPECT_FALSE(c->KeyInFence(BtreeKey{keys.front() - 1, 0}));
  EXPECT_FALSE(c->KeyInFence(BtreeKey{keys.back() + 1, 0}));
}

TEST(BloomFilter, AntiMatterKeysAreInTheFilter) {
  FilterFixture fx;
  auto c = fx.Build({10, 20, 30}, BloomFilterConfig{10}, /*anti=*/{20});
  // Skipping a component on its own tombstone would resurrect older
  // versions; anti-matter must probe positive.
  EXPECT_TRUE(c->MayContain(BtreeKey{20, 0}));
  auto hit = c->Get(BtreeKey{20, 0}).ValueOrDie();
  ASSERT_TRUE(hit.has_value());
  EXPECT_TRUE(hit->anti);
}

TEST(BloomFilter, BitsPerKeyZeroBuildsNoFilter) {
  FilterFixture fx;
  auto c = fx.Build({1, 2, 3}, BloomFilterConfig{/*bits_per_key=*/0});
  EXPECT_FALSE(c->has_filter());
  EXPECT_FALSE(c->filter_degraded());
  // MayContain degrades to "maybe" — always correct.
  EXPECT_TRUE(c->MayContain(BtreeKey{999, 0}));
  EXPECT_TRUE(c->Get(BtreeKey{2, 0}).ValueOrDie().has_value());
}

// --- Retired v1 footers -------------------------------------------------------

// Rewrites a component footer in place as the pre-filter v1 layout: same
// fields through the CID range, v1 magic, CRC over the v1 prefix. This is
// byte-for-byte what pre-filter builds wrote.
void RewriteFooterAsV1(FileSystem* fs, const std::string& path,
                       size_t page_size) {
  auto file = fs->Open(path).ValueOrDie();
  uint64_t size = file->Size();
  ASSERT_EQ(size % page_size, 0u);
  uint64_t footer_off = size - page_size;
  Buffer page(page_size);
  ASSERT_TRUE(file->Read(footer_off, page_size, page.data()).ok());
  constexpr uint32_t kV1Magic = 0x54434254;  // "TCBT"
  constexpr size_t kV1Fixed = 84;
  OverwriteFixed32(&page, 0, kV1Magic);
  OverwriteFixed32(&page, kV1Fixed, Crc32c(page.data(), kV1Fixed));
  std::fill(page.begin() + kV1Fixed + 4, page.end(), 0);
  ASSERT_TRUE(file->Write(footer_off, page.data(), page_size).ok());
  ASSERT_TRUE(file->Sync().ok());
}

TEST(BloomFilter, V1FooterFailsOpenWithCorruption) {
  // The engine has one footer layout; a v1 footer is not a component it
  // wrote, so it is rejected rather than loaded filterless.
  Rng rng(99);
  FilterFixture fx;
  std::vector<int64_t> keys = RandomSortedKeys(&rng, 500);
  {
    auto built = fx.Build(keys, BloomFilterConfig{10}, {}, "legacy");
    ASSERT_TRUE(built->has_filter());
  }
  RewriteFooterAsV1(fx.fs.get(), "legacy", 4096);

  auto opened = BtreeComponent::Open(fx.fs, &fx.cache, "legacy", 4096);
  ASSERT_FALSE(opened.ok());
  EXPECT_TRUE(opened.status().IsCorruption()) << opened.status().ToString();
}

// --- The memory-resident fast path ------------------------------------------

TEST(BloomFilter, InteriorPagesPinnedForMultiLevelTrees) {
  Rng rng(3);
  FilterFixture fx;
  std::vector<int64_t> keys = RandomSortedKeys(&rng, 5000);
  auto pinned = fx.Build(keys, BloomFilterConfig{10}, {}, "p");
  EXPECT_GT(pinned->pinned_interior_pages(), 0u);
  EXPECT_GE(fx.cache.pinned_pages(), pinned->pinned_interior_pages());
}

TEST(BloomFilter, HotLookupCostsAtMostOneDiskRead) {
  Rng rng(5);
  FilterFixture fx;
  std::vector<int64_t> keys = RandomSortedKeys(&rng, 5000);
  auto c = fx.Build(keys, BloomFilterConfig{10});
  ASSERT_GT(c->pinned_interior_pages(), 0u);

  int64_t hot = keys[keys.size() / 2];
  uint64_t pages = 0;
  ASSERT_TRUE(c->Get(BtreeKey{hot, 0}, &pages).ValueOrDie().has_value());
  // Interior pages are pinned, so even the cold lookup reads only the leaf.
  EXPECT_LE(pages, 1u);
  // The warm lookup is free: the leaf now sits in the buffer cache.
  pages = 0;
  ASSERT_TRUE(c->Get(BtreeKey{hot, 0}, &pages).ValueOrDie().has_value());
  EXPECT_EQ(pages, 0u);
}

TEST(BloomFilter, PinnedPagesReleasedWhenComponentCloses) {
  Rng rng(6);
  FilterFixture fx;
  std::vector<int64_t> keys = RandomSortedKeys(&rng, 5000);
  size_t before = fx.cache.pinned_pages();
  {
    auto c = fx.Build(keys, BloomFilterConfig{10}, {}, "scoped");
    ASSERT_GT(fx.cache.pinned_pages(), before);
  }
  // Destroying the handle must unpin, or retired components would leak
  // memory-resident pages forever.
  EXPECT_EQ(fx.cache.pinned_pages(), before);
}

// --- Tree-level: unified filter-aware lookups + counters --------------------

struct TreeFixture {
  std::shared_ptr<FileSystem> fs = MakeMemFileSystem();
  BufferCache cache{4096, 2048};

  LsmTreeOptions Options() {
    LsmTreeOptions o;
    o.fs = fs;
    o.cache = &cache;
    o.dir = "lsm";
    o.name = "t";
    o.page_size = 4096;
    o.memtable_budget_bytes = 1 << 20;
    o.merge_policy = MakeNoMergePolicy();
    o.wal_sync_every = 0;
    return o;
  }
};

TEST(BloomFilterTree, MissesAnswerWithoutTouchingPages) {
  TreeFixture fx;
  auto o = fx.Options();
  o.filter = BloomFilterConfig{10};
  auto t = LsmTree::Open(std::move(o)).ValueOrDie();
  // Several flushed components of EVEN keys, so an unfiltered in-fence miss
  // (odd key) would walk every component's B-tree.
  for (int64_t k = 0; k < 3000; ++k) {
    ASSERT_TRUE(t->Insert(BtreeKey{2 * k, 0}, "payload").ok());
    if (k % 500 == 499) ASSERT_TRUE(t->Flush().ok());
  }
  ASSERT_TRUE(t->Flush().ok());
  ASSERT_GE(t->component_count(), 4u);

  LsmStats before = t->stats();
  uint64_t misses = 0;
  for (int64_t k = 0; k < 2000; ++k) {
    auto hit = t->Get(BtreeKey{2 * k + 1, 0});  // in-fence, never inserted
    ASSERT_TRUE(hit.ok());
    if (!hit.value().has_value()) ++misses;
  }
  EXPECT_EQ(misses, 2000u);
  LsmStats after = t->stats();
  uint64_t checks = after.filter_checks - before.filter_checks;
  uint64_t negatives = after.filter_negatives - before.filter_negatives;
  uint64_t pages = after.lookup_pages_read - before.lookup_pages_read;
  // Practically every probe must be answered by the filter alone...
  EXPECT_GT(checks, 0u);
  EXPECT_GE(negatives + 20, checks);
  // ...so the miss storm touches (almost) no disk pages. Allow the rare
  // false positive its single leaf read.
  EXPECT_LE(pages, 40u);
}

TEST(BloomFilterTree, AllEntryPointsGoThroughTheFilterHelper) {
  TreeFixture fx;
  auto o = fx.Options();
  o.filter = BloomFilterConfig{10};
  auto t = LsmTree::Open(std::move(o)).ValueOrDie();
  for (int64_t k = 0; k < 500; ++k) {
    ASSERT_TRUE(t->Insert(BtreeKey{k, 0}, "v").ok());
  }
  ASSERT_TRUE(t->Flush().ok());

  // Get on a present key.
  uint64_t c0 = t->stats().filter_checks;
  ASSERT_TRUE(t->Get(BtreeKey{100, 0}).ValueOrDie().has_value());
  uint64_t c1 = t->stats().filter_checks;
  EXPECT_GT(c1, c0);
  // GetDiskVersion.
  ASSERT_TRUE(t->GetDiskVersion(BtreeKey{101, 0}).ValueOrDie().has_value());
  uint64_t c2 = t->stats().filter_checks;
  EXPECT_GT(c2, c1);
  // View-based lookups (what secondary-index pk resolution uses).
  auto view = t->AcquireView();
  ASSERT_TRUE(view->Get(BtreeKey{102, 0}).ValueOrDie().has_value());
  uint64_t c3 = t->stats().filter_checks;
  EXPECT_GT(c3, c2);
}

TEST(BloomFilterTree, KeyMayExistConsultedOnUpsertAndDelete) {
  TreeFixture fx;
  auto o = fx.Options();
  o.capture_old_versions = true;
  uint64_t consultations = 0;
  o.key_may_exist = [&consultations](const BtreeKey&) {
    ++consultations;
    return false;  // "definitely absent" — old-version lookups must be skipped
  };
  auto t = LsmTree::Open(std::move(o)).ValueOrDie();
  ASSERT_TRUE(t->Insert(BtreeKey{1, 0}, "a").ok());
  ASSERT_TRUE(t->Flush().ok());

  // Upsert of a key missing from the memtable consults the hook...
  ASSERT_TRUE(t->Upsert(BtreeKey{50, 0}, "b").ok());
  EXPECT_EQ(consultations, 1u);
  uint64_t disk_lookups = t->stats().old_version_lookups;

  // ...and — the regression this test pins down — so does Delete: before the
  // unified helper, deletes always paid the full disk probe.
  std::optional<Buffer> old;
  ASSERT_TRUE(t->Delete(BtreeKey{60, 0}, &old).ok());
  EXPECT_EQ(consultations, 2u);
  EXPECT_FALSE(old.has_value());
  EXPECT_EQ(t->stats().old_version_lookups, disk_lookups);
}

TEST(BloomFilterTree, FalsePositivesAreCountedNotWrong) {
  TreeFixture fx;
  auto o = fx.Options();
  // 1 bit/key: a deliberately terrible filter, so false positives actually
  // occur and the counter path is exercised.
  o.filter = BloomFilterConfig{1};
  auto t = LsmTree::Open(std::move(o)).ValueOrDie();
  for (int64_t k = 0; k < 2000; k += 2) {
    ASSERT_TRUE(t->Insert(BtreeKey{k, 0}, "v").ok());
  }
  ASSERT_TRUE(t->Flush().ok());
  for (int64_t k = 1; k < 2000; k += 2) {
    // In-fence absent keys: correctness first — every miss must still miss.
    ASSERT_FALSE(t->Get(BtreeKey{k, 0}).ValueOrDie().has_value());
  }
  LsmStats s = t->stats();
  EXPECT_GT(s.filter_false_positives, 0u);
  EXPECT_EQ(s.filter_checks, s.filter_negatives + s.filter_false_positives);
}

TEST(BloomFilterTree, FiltersSurviveMergesAndRecovery) {
  TreeFixture fx;
  {
    auto o = fx.Options();
    o.filter = BloomFilterConfig{10};
    o.merge_policy = MakePrefixMergePolicy(32ull << 20, 2);
    auto t = LsmTree::Open(std::move(o)).ValueOrDie();
    for (int64_t k = 0; k < 4000; ++k) {
      ASSERT_TRUE(t->Insert(BtreeKey{k, 0}, "v").ok());
      if (k % 800 == 799) ASSERT_TRUE(t->Flush().ok());
    }
    ASSERT_TRUE(t->Flush().ok());
  }
  // Reopen: recovered components load their filters from disk.
  auto o = fx.Options();
  o.filter = BloomFilterConfig{10};
  auto t = LsmTree::Open(std::move(o)).ValueOrDie();
  LsmTree::ReadView view = t->View();  // outlives the loop over its vector
  for (const auto& comp : view.components()) {
    EXPECT_TRUE(comp->has_filter()) << comp->path();
    EXPECT_FALSE(comp->filter_degraded());
  }
  ASSERT_TRUE(t->Get(BtreeKey{1234, 0}).ValueOrDie().has_value());
  ASSERT_FALSE(t->Get(BtreeKey{99999, 0}).ValueOrDie().has_value());
}

}  // namespace
}  // namespace tc

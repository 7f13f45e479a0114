// MemoryArbiter: victim-selection properties (stub registrations), the
// live/sealed accounting protocol, split adaptation, and the multi-tree
// budget-respected invariant under concurrent ingest (the TSan stress for
// cross-tree victim dispatch through LsmTree::TryArbiterFlush).
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "common/memory_arbiter.h"
#include "common/rng.h"
#include "lsm/lsm_tree.h"
#include "storage/buffer_cache.h"

namespace tc {
namespace {

MemoryArbiter::Options BigBudget() {
  // Large enough that OnPostWrite never crosses the write share: tests can
  // set live sizes freely and probe SuggestFlushVictim without dispatches.
  MemoryArbiter::Options o;
  o.total_budget_bytes = 1ull << 30;
  o.write_pct = 50;
  o.adaptive = false;
  return o;
}

TEST(MemoryArbiter, VictimIsAlwaysAMaximalEligibleLiveGeneration) {
  MemoryArbiter arb(BigBudget());
  constexpr size_t kTrees = 6;
  std::vector<MemoryArbiter::Registration*> regs;
  std::vector<size_t> floors = {1, 512, 4096, 1, 16384, 2048};
  for (size_t i = 0; i < kTrees; ++i) {
    regs.push_back(arb.Register("t" + std::to_string(i), floors[i],
                                [] { return true; }));
  }
  Rng rng(7);
  for (int round = 0; round < 200; ++round) {
    std::vector<size_t> live(kTrees);
    for (size_t i = 0; i < kTrees; ++i) {
      live[i] = rng.Uniform(64 * 1024);
      EXPECT_FALSE(arb.OnPostWrite(regs[i], live[i]));
    }
    // Expected: the largest live generation among trees clearing their floor
    // (first wins ties, matching the arbiter's strict comparison).
    MemoryArbiter::Registration* expected = nullptr;
    for (size_t i = 0; i < kTrees; ++i) {
      if (live[i] < std::max<size_t>(1, floors[i])) continue;
      if (expected == nullptr || live[i] > expected->live()) expected = regs[i];
    }
    MemoryArbiter::Registration* got = arb.SuggestFlushVictim();
    EXPECT_EQ(got, expected) << "round " << round;
    if (got != nullptr) {
      // The property the ISSUE names: no eligible tree holds MORE live bytes
      // than the chosen victim.
      for (size_t i = 0; i < kTrees; ++i) {
        if (live[i] >= std::max<size_t>(1, floors[i])) {
          EXPECT_LE(live[i], got->live());
        }
      }
    }
  }
  for (auto* r : regs) arb.Unregister(r);
}

TEST(MemoryArbiter, ColdestPolicyPicksLeastRecentlyWrittenTree) {
  MemoryArbiter::Options o = BigBudget();
  o.victim = MemoryArbiter::VictimPolicy::kColdest;
  MemoryArbiter arb(o);
  auto* a = arb.Register("a", 1, [] { return true; });
  auto* b = arb.Register("b", 1, [] { return true; });
  auto* c = arb.Register("c", 1, [] { return true; });
  EXPECT_FALSE(arb.OnPostWrite(a, 1024));
  EXPECT_FALSE(arb.OnPostWrite(b, 8192));
  EXPECT_FALSE(arb.OnPostWrite(c, 4096));
  // a wrote longest ago — coldest wins regardless of size.
  EXPECT_EQ(arb.SuggestFlushVictim(), a);
  EXPECT_FALSE(arb.OnPostWrite(a, 1025));
  EXPECT_EQ(arb.SuggestFlushVictim(), b);
  arb.Unregister(a);
  arb.Unregister(b);
  arb.Unregister(c);
}

TEST(MemoryArbiter, SelfVictimAndCrossTreeDispatch) {
  MemoryArbiter::Options o;
  o.total_budget_bytes = 100 * 1024;
  o.write_pct = 50;  // share = 51200
  o.adaptive = false;
  MemoryArbiter arb(o);
  MemoryArbiter::Registration* a = nullptr;
  int a_flushes = 0;
  a = arb.Register("a", 1, [&] {
    // A real flush_fn seals the generation before returning true.
    arb.OnSeal(a, a->live());
    ++a_flushes;
    return true;
  });
  auto* b = arb.Register("b", 1, [] { return true; });

  // Caller == victim: OnPostWrite tells the caller to flush itself.
  EXPECT_TRUE(arb.OnPostWrite(a, 60 * 1024));
  EXPECT_EQ(a_flushes, 0);
  EXPECT_EQ(arb.stats().self_flushes_triggered, 1u);

  // Caller != victim: the victim's flush_fn runs on the calling thread.
  EXPECT_FALSE(arb.OnPostWrite(b, 2 * 1024));
  EXPECT_EQ(a_flushes, 1);
  MemoryArbiter::Stats s = arb.stats();
  EXPECT_EQ(s.global_flushes_triggered, 1u);
  EXPECT_EQ(s.write_bytes_live, 2 * 1024u);      // b only; a sealed
  EXPECT_EQ(s.write_bytes_sealed, 60 * 1024u);   // a, awaiting install

  // Install releases the sealed accounting.
  arb.OnFlushInstalled(a, 60 * 1024, 12 * 1024);
  s = arb.stats();
  EXPECT_EQ(s.write_bytes_sealed, 0u);
  EXPECT_EQ(s.flushes_installed, 1u);

  arb.Unregister(a);
  arb.Unregister(b);
}

TEST(MemoryArbiter, SkippedVictimStaysACandidate) {
  MemoryArbiter::Options o;
  o.total_budget_bytes = 100 * 1024;
  o.write_pct = 50;
  o.adaptive = false;
  MemoryArbiter arb(o);
  auto* a = arb.Register("a", 1, [] { return false; });  // always busy
  auto* b = arb.Register("b", 1, [] { return true; });
  EXPECT_FALSE(arb.OnPostWrite(a, 40 * 1024));  // under share: no dispatch
  EXPECT_FALSE(arb.OnPostWrite(b, 12 * 1024));  // over: dispatch to a, skipped
  EXPECT_EQ(arb.stats().victim_skips, 1u);
  // Still over budget and a still the largest: re-selected on the next write.
  EXPECT_FALSE(arb.OnPostWrite(b, 13 * 1024));
  EXPECT_EQ(arb.stats().victim_skips, 2u);
  arb.Unregister(a);
  arb.Unregister(b);
}

TEST(MemoryArbiter, AdaptGrowsWriteShareOnTinyFlushesAndIdleCache) {
  const size_t kPage = 4096;
  BufferCache cache(kPage, 1024);
  MemoryArbiter::Options o;
  o.total_budget_bytes = 1 << 20;
  o.write_pct = 50;
  o.adaptive = true;
  o.adapt_interval_flushes = 2;
  o.cache = &cache;
  MemoryArbiter arb(o);
  // The ctor applied the initial split to the cache: 512 KiB / 4 KiB pages.
  EXPECT_EQ(cache.capacity_pages(), 128u);
  auto* a = arb.Register("a", 1, [] { return true; });
  // Two tiny installed flushes, zero cache traffic: write memory is starved,
  // the split shifts toward it and the cache shrinks.
  arb.OnFlushInstalled(a, 1024, 1024);
  arb.OnFlushInstalled(a, 1024, 1024);
  MemoryArbiter::Stats s = arb.stats();
  EXPECT_EQ(s.write_pct, 55);
  EXPECT_EQ(s.adapt_shifts, 1u);
  EXPECT_LT(cache.capacity_pages(), 128u);
  EXPECT_GE(s.split_history.size(), 2u);  // initial split + the shift
  arb.Unregister(a);
}

TEST(MemoryArbiter, AdaptShrinksWriteShareWhenMissRateClimbs) {
  auto fs = MakeMemFileSystem();
  const size_t kPage = 4096;
  auto pf = PagedFile::Create(fs, "adapt", kPage, nullptr).ValueOrDie();
  Buffer page(kPage);
  for (int i = 0; i < 100; ++i) ASSERT_TRUE(pf->AppendPage(page.data()).ok());
  ASSERT_TRUE(pf->Finish().ok());

  BufferCache cache(kPage, 1024);
  MemoryArbiter::Options o;
  o.total_budget_bytes = 1 << 20;
  o.write_pct = 50;
  o.adaptive = true;
  o.adapt_interval_flushes = 2;
  o.cache = &cache;
  MemoryArbiter arb(o);
  size_t before = cache.capacity_pages();
  auto* a = arb.Register("a", 1, [] { return true; });
  // A working set larger than the cache: every access misses.
  for (uint32_t i = 0; i < 100; ++i) (void)cache.GetPage(pf.get(), i).ValueOrDie();
  // Healthy flush sizes (>= half the static per-tree share), so the only
  // signal firing is the miss rate — the split shifts toward the cache.
  size_t share = arb.write_share_bytes();
  arb.OnFlushInstalled(a, share, share);
  arb.OnFlushInstalled(a, share, share);
  MemoryArbiter::Stats s = arb.stats();
  EXPECT_EQ(s.write_pct, 45);
  EXPECT_GT(cache.capacity_pages(), before);
  arb.Unregister(a);
}

// --- Multi-tree arbitration over real LSM trees ----------------------------

struct ArbiterTreesFixture {
  std::shared_ptr<FileSystem> fs = MakeMemFileSystem();
  BufferCache cache{4096, 2048};

  std::unique_ptr<LsmTree> Open(MemoryArbiter* arb, const std::string& name,
                                TaskPool* pool = nullptr) {
    LsmTreeOptions o;
    o.fs = fs;
    o.cache = &cache;
    o.dir = "lsm";
    o.name = name;
    o.page_size = 4096;
    o.merge_policy = MakeNoMergePolicy();
    o.use_wal = false;
    o.merge_pool = pool;
    o.arbiter = arb;
    o.arbiter_floor_bytes = 1024;
    return LsmTree::Open(std::move(o)).ValueOrDie();
  }
};

TEST(MemoryArbiter, MultiTreeBudgetRespectedUnderConcurrentIngest) {
  MemoryArbiter::Options o;
  o.total_budget_bytes = 256 * 1024;
  o.write_pct = 50;  // share = 128 KiB
  o.adaptive = false;
  MemoryArbiter arb(o);
  const size_t share = arb.write_share_bytes();

  ArbiterTreesFixture fx;
  constexpr size_t kTrees = 4;
  std::vector<std::unique_ptr<LsmTree>> trees;
  for (size_t i = 0; i < kTrees; ++i) {
    trees.push_back(fx.Open(&arb, "t" + std::to_string(i)));
  }

  // Caller-runs flushes (no pool): the enforced bound is the arbiter's hard
  // ceiling — live memory under 2x the share (a skipped dispatch past that
  // makes the caller drain itself), plus slack for floors and records in
  // flight. Sealed bytes are transient here (a generation mid-build, drained
  // synchronously), so live + sealed gets extra headroom.
  constexpr uint64_t kWrites = 3000;
  std::atomic<bool> done{false};
  std::atomic<bool> violated{false};
  std::thread sampler([&] {
    while (!done.load(std::memory_order_acquire)) {
      MemoryArbiter::Stats s = arb.stats();
      if (s.write_bytes_live > 2 * share + 64 * 1024 ||
          s.write_bytes_live + s.write_bytes_sealed > 4 * share + 64 * 1024) {
        violated.store(true, std::memory_order_release);
      }
      std::this_thread::yield();
    }
  });
  std::vector<std::thread> writers;
  std::vector<Status> statuses(kTrees, Status::OK());
  for (size_t t = 0; t < kTrees; ++t) {
    writers.emplace_back([&, t] {
      std::string payload(48, static_cast<char>('a' + t));
      for (uint64_t i = 0; i < kWrites && statuses[t].ok(); ++i) {
        statuses[t] =
            trees[t]->Insert(BtreeKey{static_cast<int64_t>(i), 0}, payload);
      }
    });
  }
  for (auto& w : writers) w.join();
  done.store(true, std::memory_order_release);
  sampler.join();
  for (const Status& st : statuses) ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_FALSE(violated.load());

  MemoryArbiter::Stats s = arb.stats();
  EXPECT_GT(s.global_flushes_triggered + s.self_flushes_triggered, 0u);
  for (auto& t : trees) ASSERT_TRUE(t->Flush().ok());
  s = arb.stats();
  EXPECT_EQ(s.write_bytes_live + s.write_bytes_sealed, 0u);

  // Nothing lost through cross-tree flushes: spot-check every tree.
  for (size_t t = 0; t < kTrees; ++t) {
    for (int64_t k : {int64_t{0}, int64_t{1500}, int64_t{2999}}) {
      EXPECT_TRUE(trees[t]->Get(BtreeKey{k, 0}).ValueOrDie().has_value());
    }
  }
  trees.clear();  // unregister before the arbiter dies
}

TEST(MemoryArbiter, PooledFlushBuildsComposeWithGlobalVictims) {
  MemoryArbiter::Options o;
  o.total_budget_bytes = 128 * 1024;
  o.write_pct = 50;
  o.adaptive = false;
  MemoryArbiter arb(o);

  TaskPool pool(2);
  ArbiterTreesFixture fx;
  constexpr size_t kTrees = 3;
  std::vector<std::unique_ptr<LsmTree>> trees;
  for (size_t i = 0; i < kTrees; ++i) {
    trees.push_back(fx.Open(&arb, "p" + std::to_string(i), &pool));
  }
  constexpr uint64_t kWrites = 2000;
  std::vector<std::thread> writers;
  std::vector<Status> statuses(kTrees, Status::OK());
  for (size_t t = 0; t < kTrees; ++t) {
    writers.emplace_back([&, t] {
      std::string payload(40, static_cast<char>('p' + t));
      for (uint64_t i = 0; i < kWrites && statuses[t].ok(); ++i) {
        statuses[t] =
            trees[t]->Insert(BtreeKey{static_cast<int64_t>(i), 0}, payload);
      }
    });
  }
  for (auto& w : writers) w.join();
  for (const Status& st : statuses) ASSERT_TRUE(st.ok()) << st.ToString();
  for (auto& t : trees) {
    ASSERT_TRUE(t->Flush().ok());
    ASSERT_TRUE(t->WaitForMerges().ok());
  }
  MemoryArbiter::Stats s = arb.stats();
  EXPECT_EQ(s.write_bytes_live + s.write_bytes_sealed, 0u);
  // Every record survived the arbitrated flush pipeline.
  for (size_t t = 0; t < kTrees; ++t) {
    uint64_t n = 0;
    LsmTree::Iterator it(trees[t].get());
    ASSERT_TRUE(it.SeekToFirst().ok());
    while (it.Valid()) {
      ++n;
      ASSERT_TRUE(it.Next().ok());
    }
    EXPECT_EQ(n, kWrites);
  }
  trees.clear();
}

// --- Flush-free traffic adaptation (MaybeAdaptFromTraffic) -----------------

TEST(MemoryArbiter, TrafficTickShiftsTowardCacheOnMissStorm) {
  auto fs = MakeMemFileSystem();
  const size_t kPage = 4096;
  auto pf = PagedFile::Create(fs, "adapt", kPage, nullptr).ValueOrDie();
  Buffer page(kPage);
  for (int i = 0; i < 100; ++i) ASSERT_TRUE(pf->AppendPage(page.data()).ok());
  ASSERT_TRUE(pf->Finish().ok());

  BufferCache cache(kPage, 1024);
  MemoryArbiter::Options o;
  o.total_budget_bytes = 1 << 20;
  o.write_pct = 50;
  o.adaptive = true;
  o.traffic_adapt_interval_ms = 0;  // no time gate: deltas alone decide
  o.cache = &cache;
  MemoryArbiter arb(o);
  size_t before = cache.capacity_pages();

  // Query-only workload, no flushes at all: 100 cold reads are 100 misses,
  // the miss share trips the shift-toward-cache signal.
  for (uint32_t i = 0; i < 100; ++i) (void)cache.GetPage(pf.get(), i).ValueOrDie();
  arb.MaybeAdaptFromTraffic();
  MemoryArbiter::Stats s = arb.stats();
  EXPECT_EQ(s.traffic_adapt_ticks, 1u);
  EXPECT_EQ(s.write_pct, 45);
  EXPECT_GT(cache.capacity_pages(), before);

  // No new traffic: below the signal floor, no decision, no tick consumed.
  arb.MaybeAdaptFromTraffic();
  s = arb.stats();
  EXPECT_EQ(s.traffic_adapt_ticks, 1u);
  EXPECT_EQ(s.write_pct, 45);
}

TEST(MemoryArbiter, TrafficTickLeavesSplitAloneWhenHitsDominate) {
  auto fs = MakeMemFileSystem();
  const size_t kPage = 4096;
  auto pf = PagedFile::Create(fs, "adapt2", kPage, nullptr).ValueOrDie();
  Buffer page(kPage);
  for (int i = 0; i < 8; ++i) ASSERT_TRUE(pf->AppendPage(page.data()).ok());
  ASSERT_TRUE(pf->Finish().ok());

  BufferCache cache(kPage, 1024);
  MemoryArbiter::Options o;
  o.total_budget_bytes = 1 << 20;
  o.write_pct = 50;
  o.adaptive = true;
  o.traffic_adapt_interval_ms = 0;
  o.cache = &cache;
  MemoryArbiter arb(o);

  // 8 cold misses then 92 hits on the resident pages: miss share 8% is far
  // below the 40% shift threshold.
  for (int round = 0; round < 100; ++round) {
    (void)cache.GetPage(pf.get(), round % 8).ValueOrDie();
  }
  arb.MaybeAdaptFromTraffic();
  MemoryArbiter::Stats s = arb.stats();
  EXPECT_EQ(s.traffic_adapt_ticks, 1u);  // decided, but no shift warranted
  EXPECT_EQ(s.write_pct, 50);
  EXPECT_EQ(s.adapt_shifts, 0u);
}

TEST(MemoryArbiter, TrafficTickIsTimeGated) {
  auto fs = MakeMemFileSystem();
  const size_t kPage = 4096;
  auto pf = PagedFile::Create(fs, "adapt3", kPage, nullptr).ValueOrDie();
  Buffer page(kPage);
  for (int i = 0; i < 100; ++i) ASSERT_TRUE(pf->AppendPage(page.data()).ok());
  ASSERT_TRUE(pf->Finish().ok());

  BufferCache cache(kPage, 1024);
  MemoryArbiter::Options o;
  o.total_budget_bytes = 1 << 20;
  o.write_pct = 50;
  o.adaptive = true;
  o.traffic_adapt_interval_ms = 60 * 1000;  // far beyond the test's runtime
  o.cache = &cache;
  MemoryArbiter arb(o);

  for (uint32_t i = 0; i < 100; ++i) (void)cache.GetPage(pf.get(), i).ValueOrDie();
  arb.MaybeAdaptFromTraffic();
  EXPECT_EQ(arb.stats().traffic_adapt_ticks, 1u);
  // Another miss storm inside the window: gated, regardless of traffic.
  for (uint32_t i = 0; i < 100; ++i) (void)cache.GetPage(pf.get(), i).ValueOrDie();
  arb.MaybeAdaptFromTraffic();
  EXPECT_EQ(arb.stats().traffic_adapt_ticks, 1u);
  EXPECT_EQ(arb.stats().write_pct, 45);  // only the first tick shifted
}

// --- Query scratch charging (TryChargeQuery / ReleaseQuery) ----------------

TEST(MemoryArbiter, QueryChargesBoundedByReadShare) {
  MemoryArbiter::Options o;
  o.total_budget_bytes = 100 * 1024;
  o.write_pct = 60;  // read share = 40 KiB
  o.adaptive = false;
  MemoryArbiter arb(o);
  ASSERT_EQ(arb.read_share_bytes(), 40 * 1024u);

  EXPECT_TRUE(arb.TryChargeQuery(30 * 1024));
  EXPECT_EQ(arb.stats().query_bytes_charged, 30 * 1024u);
  // 30 + 20 > 40: denied and counted, charge unchanged.
  EXPECT_FALSE(arb.TryChargeQuery(20 * 1024));
  EXPECT_EQ(arb.stats().query_bytes_charged, 30 * 1024u);
  EXPECT_EQ(arb.stats().query_charge_denials, 1u);
  // Exactly to the cap is fine.
  EXPECT_TRUE(arb.TryChargeQuery(10 * 1024));
  EXPECT_FALSE(arb.TryChargeQuery(1));
  EXPECT_EQ(arb.stats().query_charge_denials, 2u);

  arb.ReleaseQuery(20 * 1024);
  EXPECT_EQ(arb.stats().query_bytes_charged, 20 * 1024u);
  EXPECT_TRUE(arb.TryChargeQuery(20 * 1024));
  // Saturating release: over-release clamps to zero instead of wrapping.
  arb.ReleaseQuery(1 << 30);
  EXPECT_EQ(arb.stats().query_bytes_charged, 0u);
  EXPECT_TRUE(arb.TryChargeQuery(40 * 1024));
}

// Flush-build / merge-rewrite scratch always admits (denial would wedge the
// write path) but occupies the read share, shrinking what query scratch can
// take while a build runs.
TEST(MemoryArbiter, BackgroundChargesAlwaysAdmitButShrinkQueryAdmission) {
  MemoryArbiter::Options o;
  o.total_budget_bytes = 100 * 1024;
  o.write_pct = 60;  // read share = 40 KiB
  o.adaptive = false;
  MemoryArbiter arb(o);

  // A background charge larger than the whole read share still admits.
  arb.ChargeBackground(50 * 1024);
  EXPECT_EQ(arb.stats().background_bytes_charged, 50 * 1024u);
  EXPECT_EQ(arb.stats().background_charges, 1u);
  // ...but queries now see zero headroom.
  EXPECT_FALSE(arb.TryChargeQuery(1));
  EXPECT_EQ(arb.stats().query_charge_denials, 1u);

  arb.ReleaseBackground(50 * 1024);
  EXPECT_EQ(arb.stats().background_bytes_charged, 0u);

  // Partial occupancy: build scratch and query scratch share the 40 KiB.
  arb.ChargeBackground(25 * 1024);
  EXPECT_FALSE(arb.TryChargeQuery(20 * 1024));  // 25 + 20 > 40
  EXPECT_TRUE(arb.TryChargeQuery(15 * 1024));   // exactly to the cap
  EXPECT_FALSE(arb.TryChargeQuery(1));
  arb.ReleaseBackground(10 * 1024);
  EXPECT_TRUE(arb.TryChargeQuery(10 * 1024));

  // Saturating release: over-release clamps to zero instead of wrapping.
  arb.ReleaseBackground(1 << 30);
  EXPECT_EQ(arb.stats().background_bytes_charged, 0u);
}

// An LSM tree attached to an arbiter charges its component-build scratch
// while the build runs and releases it at install: observable as a nonzero
// background_charges count after a flush, with no residual charged bytes.
TEST(MemoryArbiter, TreeBuildsChargeBackgroundScratch) {
  MemoryArbiter::Options o;
  o.total_budget_bytes = 4 << 20;
  o.adaptive = false;
  MemoryArbiter arb(o);
  auto fs = MakeMemFileSystem();
  BufferCache cache(4096, 512);
  {
    LsmTreeOptions t;
    t.fs = fs;
    t.cache = &cache;
    t.dir = "arb";
    t.name = "t";
    t.page_size = 4096;
    t.memtable_budget_bytes = 1 << 20;
    t.merge_policy = MakePrefixMergePolicy(UINT64_MAX, 1);
    t.arbiter = &arb;
    t.wal_sync_every = 0;
    auto tree = LsmTree::Open(std::move(t)).ValueOrDie();
    for (int64_t k = 0; k < 32; ++k) {
      ASSERT_TRUE(tree->Insert(BtreeKey{k, 0}, "vvvv").ok());
    }
    ASSERT_TRUE(tree->Flush().ok());
    for (int64_t k = 32; k < 64; ++k) {
      ASSERT_TRUE(tree->Insert(BtreeKey{k, 0}, "vvvv").ok());
    }
    ASSERT_TRUE(tree->Flush().ok());  // flush build + caller-runs merge
  }
  MemoryArbiter::Stats s = arb.stats();
  EXPECT_GE(s.background_charges, 3u);  // two flush builds + one merge
  EXPECT_EQ(s.background_bytes_charged, 0u);  // all released at build end
}

}  // namespace
}  // namespace tc

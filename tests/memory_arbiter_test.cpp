// MemoryArbiter: victim-selection properties (stub registrations), the
// live/sealed accounting protocol, the 2x hard ceiling, the single-tree
// threshold every tree gets by default, the teardown ordering, and the
// multi-tree budget-respected invariant under concurrent ingest (the TSan
// stress for cross-tree victim dispatch through LsmTree::TryArbiterFlush).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/memory_arbiter.h"
#include "common/rng.h"
#include "lsm/lsm_tree.h"
#include "storage/buffer_cache.h"

namespace tc {
namespace {

constexpr size_t kFloor = MemoryArbiter::kFlushFloorBytes;

TEST(MemoryArbiter, FloorIsCappedAtTheBudget) {
  {
    // Budget above the floor: a generation below the floor is no victim.
    MemoryArbiter arb(1 << 20);
    auto* r = arb.Register([] { return true; });
    EXPECT_FALSE(arb.OnPostWrite(r, kFloor - 1));
    EXPECT_EQ(arb.SuggestFlushVictim(), nullptr);
    EXPECT_FALSE(arb.OnPostWrite(r, kFloor));
    EXPECT_EQ(arb.SuggestFlushVictim(), r);
    arb.Unregister(r);
  }
  {
    // Budget below the floor: a lone tree flushes itself exactly when its
    // live generation reaches the budget.
    MemoryArbiter arb(4096);
    auto* r = arb.Register([] { return true; });
    EXPECT_FALSE(arb.OnPostWrite(r, 4095));
    EXPECT_TRUE(arb.OnPostWrite(r, 4096));
    arb.Unregister(r);
  }
}

TEST(MemoryArbiter, VictimIsAlwaysAMaximalEligibleLiveGeneration) {
  // Large enough that OnPostWrite never crosses the budget: the test sets
  // live sizes freely and probes SuggestFlushVictim without dispatches.
  MemoryArbiter arb(1ull << 30);
  constexpr size_t kTrees = 6;
  std::vector<MemoryArbiter::Registration*> regs;
  for (size_t i = 0; i < kTrees; ++i) {
    regs.push_back(arb.Register([] { return true; }));
  }
  Rng rng(7);
  for (int round = 0; round < 200; ++round) {
    std::vector<size_t> live(kTrees);
    for (size_t i = 0; i < kTrees; ++i) {
      live[i] = rng.Uniform(4 * kFloor);
      EXPECT_FALSE(arb.OnPostWrite(regs[i], live[i]));
    }
    // Expected: the largest live generation among trees clearing the floor
    // (first wins ties, matching the arbiter's strict comparison).
    MemoryArbiter::Registration* expected = nullptr;
    for (size_t i = 0; i < kTrees; ++i) {
      if (live[i] < kFloor) continue;
      if (expected == nullptr || live[i] > expected->live()) expected = regs[i];
    }
    MemoryArbiter::Registration* got = arb.SuggestFlushVictim();
    EXPECT_EQ(got, expected) << "round " << round;
    if (got != nullptr) {
      // No eligible tree holds MORE live bytes than the chosen victim.
      for (size_t i = 0; i < kTrees; ++i) {
        if (live[i] >= kFloor) {
          EXPECT_LE(live[i], got->live());
        }
      }
    }
  }
  for (auto* r : regs) arb.Unregister(r);
}

TEST(MemoryArbiter, SelfVictimAndCrossTreeDispatch) {
  MemoryArbiter arb(50 * 1024);  // floor = budget
  MemoryArbiter::Registration* a = nullptr;
  int a_flushes = 0;
  a = arb.Register([&] {
    // A real flush_fn seals the generation before returning true.
    arb.OnSeal(a, a->live());
    ++a_flushes;
    return true;
  });
  auto* b = arb.Register([] { return true; });

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
  arb.OnFlushInstalled(a, 60 * 1024);
  s = arb.stats();
  EXPECT_EQ(s.write_bytes_sealed, 0u);
  EXPECT_EQ(s.flushes_installed, 1u);

  arb.Unregister(a);
  arb.Unregister(b);
}

TEST(MemoryArbiter, SkippedVictimStaysACandidateUntilTheHardCeiling) {
  MemoryArbiter arb(2 * kFloor);
  auto* a = arb.Register([] { return false; });  // always busy
  auto* b = arb.Register([] { return true; });
  const size_t kA = kFloor + kFloor / 2;
  EXPECT_FALSE(arb.OnPostWrite(a, kA));  // under budget: no dispatch
  EXPECT_FALSE(arb.OnPostWrite(b, kFloor / 2 + 1));  // over: a skipped
  EXPECT_EQ(arb.stats().victim_skips, 1u);
  // Still over budget and a still the largest: re-selected on the next write.
  EXPECT_FALSE(arb.OnPostWrite(b, kFloor / 2 + 2));
  EXPECT_EQ(arb.stats().victim_skips, 2u);
  // a is told to flush itself but stays stuck; b, below the floor, never
  // drains itself however far past 2x the budget live memory goes.
  EXPECT_TRUE(arb.OnPostWrite(a, 4 * kFloor));
  EXPECT_FALSE(arb.OnPostWrite(b, kFloor - 1));
  // Past twice the budget, a writer that clears the floor flushes itself
  // instead of waiting on the stuck victim.
  EXPECT_TRUE(arb.OnPostWrite(b, kFloor));
  EXPECT_EQ(arb.stats().victim_skips, 4u);
  EXPECT_EQ(arb.stats().global_flushes_triggered, 0u);
  arb.Unregister(a);
  arb.Unregister(b);
}

// --- Multi-tree arbitration over real LSM trees ----------------------------

struct ArbiterTreesFixture {
  std::shared_ptr<FileSystem> fs = MakeMemFileSystem();
  BufferCache cache{4096, 2048};

  LsmTreeOptions Options(MemoryArbiter* arb, const std::string& name,
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
    return o;
  }

  std::unique_ptr<LsmTree> Open(MemoryArbiter* arb, const std::string& name,
                                TaskPool* pool = nullptr) {
    return LsmTree::Open(Options(arb, name, pool)).ValueOrDie();
  }
};

TEST(MemoryArbiter, MultiTreeBudgetRespectedUnderConcurrentIngest) {
  constexpr size_t budget = 4 * kFloor;
  MemoryArbiter arb(budget);

  ArbiterTreesFixture fx;
  constexpr size_t kTrees = 4;
  std::vector<std::unique_ptr<LsmTree>> trees;
  for (size_t i = 0; i < kTrees; ++i) {
    trees.push_back(fx.Open(&arb, "t" + std::to_string(i)));
  }

  // Caller-runs flushes (no pool): the enforced bound is the arbiter's hard
  // ceiling — live memory under 2x the budget (a skipped dispatch past that
  // makes the caller drain itself), plus slack for floors and records in
  // flight. Sealed bytes are transient here (a generation mid-build, drained
  // synchronously), so live + sealed gets extra headroom.
  constexpr uint64_t kWrites = 3000;
  std::atomic<bool> done{false};
  std::atomic<bool> violated{false};
  std::thread sampler([&] {
    while (!done.load(std::memory_order_acquire)) {
      MemoryArbiter::Stats s = arb.stats();
      if (s.write_bytes_live > 2 * budget + kFloor ||
          s.write_bytes_live + s.write_bytes_sealed > 4 * budget + kFloor) {
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
  MemoryArbiter arb(3 * kFloor);

  TaskPool pool(2);
  ArbiterTreesFixture fx;
  constexpr size_t kTrees = 3;
  std::vector<std::unique_ptr<LsmTree>> trees;
  for (size_t i = 0; i < kTrees; ++i) {
    trees.push_back(fx.Open(&arb, "p" + std::to_string(i), &pool));
  }
  constexpr uint64_t kWrites = 4000;
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
  EXPECT_GT(s.global_flushes_triggered + s.self_flushes_triggered, 0u);
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

// --- The default: one tree, one arbiter of its own -------------------------

// A tree opened without an arbiter owns one of memtable_budget_bytes and
// flushes exactly when its live generation reaches that budget — the
// per-tree threshold, through the one arbiter path.
TEST(MemoryArbiter, TreeWithoutArbiterFlushesAtItsBudget) {
  constexpr size_t kBudget = 16 * 1024;  // below the floor: floor = budget
  ArbiterTreesFixture fx;
  LsmTreeOptions o = fx.Options(nullptr, "own");
  o.memtable_budget_bytes = kBudget;
  auto tree = LsmTree::Open(std::move(o)).ValueOrDie();
  const std::string payload(100, 'x');
  size_t live = 0;       // live generation bytes after the previous write
  size_t max_step = 0;   // largest growth of one write that did not flush
  uint64_t flushes = 0;
  for (int64_t k = 0; k < 2000; ++k) {
    ASSERT_TRUE(tree->Insert(BtreeKey{k, 0}, payload).ok());
    size_t now = tree->View().memtable().approximate_bytes();
    uint64_t flush_count = tree->stats().flush_count;
    if (flush_count > flushes) {
      // Flushed on the write that reached the budget, not before.
      EXPECT_EQ(now, 0u);
      EXPECT_GE(live + max_step, kBudget) << "key " << k;
      flushes = flush_count;
    } else {
      EXPECT_LT(now, kBudget) << "key " << k;
      max_step = std::max(max_step, now - live);
    }
    live = now;
  }
  EXPECT_GT(flushes, 5u);
}

// --- Teardown ordering -------------------------------------------------------

// Parks the flush build at its first Transform call until the test releases
// it; copies payloads through.
class LatchedFlushTransformer : public ComponentTransformer {
 public:
  Status Transform(std::string_view payload, Buffer* out,
                   bool* rewritten) override {
    {
      std::unique_lock<std::mutex> lock(mu_);
      entered_ = true;
      cv_.notify_all();
      cv_.wait(lock, [this] { return released_; });
    }
    out->assign(payload.begin(), payload.end());
    if (rewritten != nullptr) *rewritten = false;
    return Status::OK();
  }
  Status OnRemovedVersion(std::string_view) override { return Status::OK(); }
  Status SchemaBlob(Buffer*) override { return Status::OK(); }
  Status OnRecoveredSchema(const Buffer&) override { return Status::OK(); }
  void WaitEntered() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return entered_; });
  }
  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool entered_ = false;
  bool released_ = false;
};

// A WAL-less pooled tree drains its queued flush build on teardown, and that
// build reports its install through the tree's registration — so the
// destructor must unregister only after the build finished. Unregistering
// first (and nulling the registration under the running build) is a data
// race and a use-after-free of the registration.
TEST(MemoryArbiter, TeardownUnregistersOnlyAfterTheFlushBuildDrains) {
  MemoryArbiter arb(1 << 20);
  TaskPool pool(1);
  LatchedFlushTransformer latch;
  ArbiterTreesFixture fx;
  LsmTreeOptions o = fx.Options(&arb, "drain", &pool);
  o.transformer = &latch;
  auto tree = LsmTree::Open(std::move(o)).ValueOrDie();
  for (int64_t k = 0; k < 100; ++k) {
    ASSERT_TRUE(tree->Insert(BtreeKey{k, 0}, "payload").ok());
  }
  ASSERT_TRUE(tree->Flush().ok());
  latch.WaitEntered();  // the build is running, parked on the latch
  EXPECT_GT(arb.stats().write_bytes_sealed, 0u);

  std::thread destroyer([&] { tree.reset(); });
  // While the build is parked the tree must stay registered. Watch for a
  // bounded while; a destructor that unregisters first is caught at once.
  bool unregistered_early = false;
  auto deadline = std::chrono::steady_clock::now() + std::chrono::milliseconds(200);
  while (std::chrono::steady_clock::now() < deadline) {
    if (arb.stats().registered_trees == 0) {
      unregistered_early = true;
      break;
    }
    std::this_thread::yield();
  }
  latch.Release();
  destroyer.join();
  EXPECT_FALSE(unregistered_early);
  MemoryArbiter::Stats s = arb.stats();
  EXPECT_EQ(s.registered_trees, 0u);
  EXPECT_EQ(s.flushes_installed, 1u);  // the drained build reported in
}
}  // namespace
}  // namespace tc

// Concurrent background-work pipeline (pooled flush builds beside each
// tree's one merge at a time) and its error-handling contract:
//   * while a merge rewrites, flush builds keep installing in front of its
//     inputs and no second merge of the tree starts; the completing merge
//     installs over its shifted inputs and its cascade merges what
//     accumulated (gated filesystem makes the interleaving deterministic);
//   * a pooled flush costs the writer only the generation swap — the build
//     runs on the executor while readers keep seeing the sealed generation;
//   * once a sticky background error is latched, queued and cascading merge
//     jobs short-circuit instead of scheduling doomed work;
//   * deferred-deletion (reclaimer drain) failures latch and surface through
//     WaitForMerges()/writer gating instead of vanishing;
//   * a TSan-clean stress: continuous ingestion + merges + pooled flushes
//     under readers holding ReadViews.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <condition_variable>
#include <cstdio>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/task_pool.h"
#include "lsm/lsm_tree.h"

namespace tc {
namespace {

std::string S(const Buffer& b) { return std::string(b.begin(), b.end()); }

// Parses "<dir>/<name>.c<min>-<max>.btree" written by component builders.
// Deliberately rejects sibling files (".btree.valid" markers, WAL segments)
// so the hooks fire exactly once per component build.
bool ParseComponentCids(const std::string& path, uint64_t* cid_min,
                        uint64_t* cid_max) {
  constexpr const char* kSuffix = ".btree";
  if (path.size() < 6 || path.compare(path.size() - 6, 6, kSuffix) != 0) {
    return false;
  }
  size_t dot_c = path.rfind(".c");
  if (dot_c == std::string::npos) return false;
  return std::sscanf(path.c_str() + dot_c + 2, "%" PRIu64 "-%" PRIu64, cid_min,
                     cid_max) == 2;
}

bool IsMergeOutput(const std::string& path) {
  uint64_t lo = 0, hi = 0;
  return ParseComponentCids(path, &lo, &hi) && lo != hi;
}

bool IsFlushOutput(const std::string& path) {
  uint64_t lo = 0, hi = 0;
  return ParseComponentCids(path, &lo, &hi) && lo == hi;
}

/// Filesystem wrapper with test hooks: a Create hook (may block a pool thread
/// at a deterministic point or inject a build failure) and a Delete hook
/// (injects deferred-deletion failures).
class HookFs final : public FileSystem {
 public:
  explicit HookFs(std::shared_ptr<FileSystem> inner) : inner_(std::move(inner)) {}

  std::function<Status(const std::string&)> create_hook;
  std::function<Status(const std::string&)> delete_hook;

  Result<std::unique_ptr<File>> Open(const std::string& path) override {
    return inner_->Open(path);
  }
  Result<std::unique_ptr<File>> Create(const std::string& path) override {
    if (create_hook) {
      TC_RETURN_IF_ERROR(create_hook(path));
    }
    return inner_->Create(path);
  }
  Status Delete(const std::string& path) override {
    if (delete_hook) {
      TC_RETURN_IF_ERROR(delete_hook(path));
    }
    return inner_->Delete(path);
  }
  bool Exists(const std::string& path) const override {
    return inner_->Exists(path);
  }
  Result<std::vector<std::string>> List(const std::string& dir,
                                        const std::string& prefix) const override {
    return inner_->List(dir, prefix);
  }
  Status CreateDir(const std::string& path) override {
    return inner_->CreateDir(path);
  }
  Result<uint64_t> FileSize(const std::string& path) const override {
    return inner_->FileSize(path);
  }

 private:
  std::shared_ptr<FileSystem> inner_;
};

struct Fixture {
  std::shared_ptr<HookFs> fs =
      std::make_shared<HookFs>(MakeMemFileSystem());
  BufferCache cache{4096, 2048};
  std::unique_ptr<TaskPool> pool;

  std::unique_ptr<LsmTree> Open(std::shared_ptr<MergePolicy> policy,
                                size_t pool_threads, size_t max_pending = 2,
                                size_t memtable_bytes = 1 << 20,
                                bool capture_old = false, bool use_wal = true,
                                bool use_pool = true) {
    if (use_pool && pool == nullptr) pool = std::make_unique<TaskPool>(pool_threads);
    LsmTreeOptions o;
    o.fs = fs;
    o.cache = &cache;
    o.dir = "lsm";
    o.name = "t";
    o.page_size = 4096;
    o.memtable_budget_bytes = memtable_bytes;
    o.merge_policy = std::move(policy);
    o.merge_pool = use_pool ? pool.get() : nullptr;
    o.max_pending_flush_builds = max_pending;
    o.capture_old_versions = capture_old;
    o.use_wal = use_wal;
    o.wal_sync_every = 0;
    return LsmTree::Open(std::move(o)).ValueOrDie();
  }

  size_t ComponentFilesOnDisk() {
    auto files = fs->List("lsm", "t.c").ValueOrDie();
    size_t n = 0;
    for (const auto& f : files) {
      if (f.size() >= 6 && f.compare(f.size() - 6, 6, ".btree") == 0) ++n;
    }
    return n;
  }

  Status FlushBatch(LsmTree* t, int64_t base, int n, const std::string& v) {
    for (int i = 0; i < n; ++i) {
      TC_RETURN_IF_ERROR(t->Insert(BtreeKey{base + i, 0}, v));
    }
    return t->Flush();
  }
};

// Polls `done` for up to 30 s; false on timeout (the caller's assertion then
// fails instead of hanging the suite).
template <typename Pred>
bool WaitUntil(Pred done) {
  for (int spin = 0; spin < 30000; ++spin) {
    if (done()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return done();
}

// Holds every merge build inside Create() until opened, counting the builds
// that arrive and the most ever held at once.
struct MergeGate {
  std::mutex mu;
  std::condition_variable cv;
  bool open = false;
  int arrived = 0;
  int held = 0;
  int max_held = 0;

  void Install(HookFs* fs) {
    fs->create_hook = [this](const std::string& path) -> Status {
      if (!IsMergeOutput(path)) return Status::OK();
      std::unique_lock<std::mutex> lock(mu);
      ++arrived;
      max_held = std::max(max_held, ++held);
      cv.wait_for(lock, std::chrono::seconds(30), [this] { return open; });
      --held;
      return Status::OK();
    };
  }
  int Arrived() {
    std::lock_guard<std::mutex> lock(mu);
    return arrived;
  }
  void Open() {
    {
      std::lock_guard<std::mutex> lock(mu);
      open = true;
    }
    cv.notify_all();
  }
};

// One merge per tree at a time: while the first merge is held in the gate,
// flush builds keep installing in front of its inputs, and no second merge
// starts even though the flushes piling up form a tier of their own (a
// scheduler that launched one would show a second arrival at the gate, and
// there are free pool threads to run it). Once the gate opens, the merge
// installs over its shifted inputs and the cascade merges what accumulated.
TEST(MergeConcurrency, OneMergePerTreeWhileFlushesInstall) {
  Fixture fx;
  MergeGate gate;
  gate.Install(fx.fs.get());
  auto t = fx.Open(MakeTieredMergePolicy(3, 2), /*pool_threads=*/3);
  std::string v(64, 'v');
  // The second install proposes the tier [f2, f1]; its merge enters the gate.
  for (int f = 0; f < 2; ++f) {
    ASSERT_TRUE(fx.FlushBatch(t.get(), f * 8, 8, v).ok());
  }
  ASSERT_TRUE(WaitUntil([&] { return gate.Arrived() == 1; }));
  // Four more flushes install while the merge rewrites.
  for (int f = 2; f < 6; ++f) {
    ASSERT_TRUE(fx.FlushBatch(t.get(), f * 8, 8, v).ok());
  }
  ASSERT_TRUE(WaitUntil([&] { return t->stats().flush_count == 6; }));
  // Give a wrongly launched second merge time to reach the gate.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  EXPECT_EQ(gate.Arrived(), 1);
  EXPECT_EQ(t->component_count(), 6u);
  EXPECT_EQ(t->stats().merge_count, 0u);
  for (int64_t k = 0; k < 48; ++k) {
    EXPECT_TRUE(t->Get(BtreeKey{k, 0}).ValueOrDie().has_value()) << k;
  }

  gate.Open();
  ASSERT_TRUE(t->WaitForMerges().ok());
  LsmStats s = t->stats();
  EXPECT_GE(s.merge_count, 2u);  // the gated merge + its cascade
  // The cascade merged the four flushes that accumulated behind the gate.
  EXPECT_LT(t->component_count(), 5u);
  {
    std::lock_guard<std::mutex> lock(gate.mu);
    EXPECT_EQ(gate.max_held, 1);
  }
  for (int64_t k = 0; k < 48; ++k) {
    EXPECT_TRUE(t->Get(BtreeKey{k, 0}).ValueOrDie().has_value()) << k;
  }
  t->View();  // release-drain any leftovers
  EXPECT_EQ(fx.ComponentFilesOnDisk(), t->component_count());
}

// A pooled flush costs the writer only the generation swap: Flush() returns
// while the build is still stuck in the gate, the sealed generation remains
// readable (snapshot from the flush queue), and the old-version capture of a
// following upsert resolves against the pending generation rather than the
// (not yet updated) disk.
TEST(MergeConcurrency, PooledFlushDoesNotBlockWriterBeyondSwap) {
  Fixture fx;
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  fx.fs->create_hook = [&](const std::string& path) -> Status {
    if (!IsFlushOutput(path)) return Status::OK();
    std::unique_lock<std::mutex> lock(mu);
    cv.wait_for(lock, std::chrono::seconds(30), [&] { return release; });
    return Status::OK();
  };
  auto t = fx.Open(MakeNoMergePolicy(), /*pool_threads=*/2, /*max_pending=*/2,
                   /*memtable_bytes=*/1 << 20, /*capture_old=*/true);
  ASSERT_TRUE(t->Insert(BtreeKey{1, 0}, "v1").ok());
  // Returns after the swap even though the build cannot finish yet.
  ASSERT_TRUE(t->Flush().ok());
  EXPECT_EQ(t->component_count(), 0u);  // nothing installed yet
  // The sealed generation is still readable...
  EXPECT_EQ(S(*t->Get(BtreeKey{1, 0}).ValueOrDie()), "v1");
  // ...and it shadows the disk for old-version capture.
  std::optional<Buffer> old;
  ASSERT_TRUE(t->Upsert(BtreeKey{1, 0}, "v2", &old).ok());
  ASSERT_TRUE(old.has_value());
  EXPECT_EQ(S(*old), "v1");

  // Backpressure: with one build pending, a second Flush still swaps
  // (queue depth 2), but a third flush must stall until the gate opens.
  ASSERT_TRUE(t->Flush().ok());
  std::atomic<bool> third_done{false};
  std::thread third([&] {
    ASSERT_TRUE(t->Insert(BtreeKey{2, 0}, "v").ok());
    ASSERT_TRUE(t->Flush().ok());
    third_done.store(true, std::memory_order_release);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_FALSE(third_done.load(std::memory_order_acquire));
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  third.join();
  EXPECT_TRUE(third_done.load());
  ASSERT_TRUE(t->WaitForMerges().ok());
  EXPECT_EQ(S(*t->Get(BtreeKey{1, 0}).ValueOrDie()), "v2");
  LsmStats s = t->stats();
  EXPECT_EQ(s.flush_count, 3u);
  EXPECT_GE(s.flush_queue_high_water, 2u);
}

// Regression (cascade resubmit): once any background job latches the sticky
// error, a running merge must NOT cascade-schedule a new merge on
// completion. Deterministic sequencing: the merge over [f1, f2] waits in the
// gate while f3 and f4 install in front of it; then f5's flush build fails,
// and the test waits until that error is latched (writers become gated)
// before opening the gate. The merge installs fine — but its cascade, which
// the policy would otherwise answer with a merge of [f4, f3, merged], must
// short-circuit.
TEST(MergeConcurrency, CascadeShortCircuitsAfterStickyError) {
  Fixture fx;
  MergeGate gate;
  gate.Install(fx.fs.get());
  auto merge_hook = fx.fs->create_hook;
  fx.fs->create_hook = [&](const std::string& path) -> Status {
    uint64_t lo = 0, hi = 0;
    if (ParseComponentCids(path, &lo, &hi) && lo == 5 && hi == 5) {
      return Status::IOError("injected flush-build failure");
    }
    return merge_hook(path);
  };
  auto t = fx.Open(MakeTieredMergePolicy(3, 2), /*pool_threads=*/3);
  std::string v(64, 'v');
  for (int f = 0; f < 2; ++f) {
    ASSERT_TRUE(fx.FlushBatch(t.get(), f * 8, 8, v).ok());
  }
  ASSERT_TRUE(WaitUntil([&] { return gate.Arrived() == 1; }));
  for (int f = 2; f < 4; ++f) {
    ASSERT_TRUE(fx.FlushBatch(t.get(), f * 8, 8, v).ok());
  }
  ASSERT_TRUE(WaitUntil([&] { return t->stats().flush_count == 4; }));
  // f5: its build fails on the pool; Flush may or may not see the latch yet.
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(t->Insert(BtreeKey{32 + i, 0}, v).ok());
  }
  (void)t->Flush();
  // Wait until the failure is latched: writers are gated by the sticky error.
  ASSERT_TRUE(WaitUntil(
      [&] { return !t->Insert(BtreeKey{9999, 0}, "probe").ok(); }));
  gate.Open();
  Status st = t->WaitForMerges();
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("injected flush-build failure"), std::string::npos);
  // The gated merge installed, and crucially its cascade did NOT schedule the
  // (doomed) merge the policy would otherwise propose.
  EXPECT_EQ(t->stats().merge_count, 1u);
  EXPECT_EQ(t->component_count(), 3u);
  EXPECT_EQ(gate.Arrived(), 1);
}

// Regression (dropped drain status): a component-file deletion failure during
// the post-merge reclaimer drain must latch and surface — through
// WaitForMerges and the writer gate — instead of being silently ignored.
TEST(MergeConcurrency, DrainFailureSurfacesAsBackgroundError) {
  Fixture fx;
  std::atomic<bool> fail_deletes{false};
  // Holds merge builds until released, so the failing drain cannot land
  // before the flush that scheduled its merge has returned (a flush reports
  // whatever error has latched by then).
  std::mutex mu;
  std::condition_variable cv;
  bool release = true;
  fx.fs->create_hook = [&](const std::string& path) -> Status {
    uint64_t lo = 0, hi = 0;
    if (!ParseComponentCids(path, &lo, &hi) || lo == hi) return Status::OK();
    std::unique_lock<std::mutex> lock(mu);
    cv.wait_for(lock, std::chrono::seconds(30), [&] { return release; });
    return Status::OK();
  };
  fx.fs->delete_hook = [&](const std::string& path) -> Status {
    if (fail_deletes.load() && path.find(".btree") != std::string::npos) {
      return Status::IOError("injected delete failure");
    }
    return Status::OK();
  };
  auto t = fx.Open(MakePrefixMergePolicy(UINT64_MAX, 2), /*pool_threads=*/1);
  std::string v(64, 'v');
  for (int f = 0; f < 2; ++f) {
    ASSERT_TRUE(fx.FlushBatch(t.get(), f * 8, 8, v).ok());
  }
  ASSERT_TRUE(t->WaitForMerges().ok());  // healthy so far
  fail_deletes.store(true);
  {
    std::lock_guard<std::mutex> lock(mu);
    release = false;
  }
  // The third flush trips uncapped prefix(2); the merge succeeds but
  // retiring its inputs fails in the drain.
  ASSERT_TRUE(fx.FlushBatch(t.get(), 16, 8, v).ok());
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  Status st = t->WaitForMerges();
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("injected delete failure"), std::string::npos);
  // The sticky error gates writers too.
  EXPECT_FALSE(t->Insert(BtreeKey{999, 0}, "x").ok());
  // The merge itself did land (the data is intact and readable).
  EXPECT_EQ(t->stats().merge_count, 1u);
  for (int64_t k = 0; k < 24; ++k) {
    EXPECT_TRUE(t->Get(BtreeKey{k, 0}).ValueOrDie().has_value()) << k;
  }
  fail_deletes.store(false);  // let teardown reclaim
}

// TSan-target stress (wired into the thread-sanitizer CI job): continuous
// ingestion with pooled flush builds and merges, while readers hold ReadViews across batches of lookups and scans. Asserts
// no torn payloads, versions never regress, coherent full scans, and that
// WaitForMerges drains every job with the settled tree owning exactly its
// live files.
TEST(MergeConcurrency, StressIngestMergeReadUnderViews) {
  Fixture fx;
  auto t = fx.Open(MakeTieredMergePolicy(3, 2), /*pool_threads=*/4,
                   /*max_pending=*/2, /*memtable_bytes=*/2 * 1024);
  constexpr int64_t kKeys = 48;
  constexpr uint64_t kRounds = 50;
  auto payload = [](int64_t key, uint64_t version) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "k%" PRId64 ".v%" PRIu64 ".", key, version);
    return std::string(buf) + std::string(48, 'x');
  };
  auto parse = [](const std::string& s, int64_t* key, uint64_t* version) {
    return std::sscanf(s.c_str(), "k%" PRId64 ".v%" PRIu64 ".", key, version) == 2;
  };
  for (int64_t k = 0; k < kKeys; ++k) {
    ASSERT_TRUE(t->Upsert(BtreeKey{k, 0}, payload(k, 1), nullptr).ok());
  }

  std::atomic<bool> done{false};
  std::atomic<bool> failed{false};
  auto fail = [&](const char* what) {
    failed.store(true);
    ADD_FAILURE() << what;
  };
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      Rng rng(50 + r);
      std::map<int64_t, uint64_t> floor;
      while (!done.load(std::memory_order_acquire) && !failed.load()) {
        // Hold one view across a batch so merges retire components under
        // live pins.
        auto view = t->AcquireView();
        for (int i = 0; i < 12 && !failed.load(); ++i) {
          int64_t k = static_cast<int64_t>(rng.Uniform(kKeys));
          auto got = view->Get(BtreeKey{k, 0});
          if (!got.ok() || !got.value().has_value()) {
            return fail("lookup lost a key");
          }
          int64_t pk = -1;
          uint64_t pv = 0;
          if (!parse(S(*got.value()), &pk, &pv) || pk != k) {
            return fail("torn or misdirected payload");
          }
          // Within one view, a key's version is fixed; across views it only
          // moves forward.
          uint64_t& f = floor[k];
          if (pv < f) return fail("version went backwards");
          f = pv;
        }
        // Full scan over the same pinned view: coherent and complete.
        LsmTree::Iterator it(view);
        if (!it.SeekToFirst().ok()) return fail("seek failed");
        int64_t prev = -1;
        size_t n = 0;
        while (it.Valid()) {
          if (it.key().a <= prev) return fail("scan keys not increasing");
          prev = it.key().a;
          ++n;
          if (!it.Next().ok()) return fail("next failed");
        }
        if (n != static_cast<size_t>(kKeys)) {
          return fail("scan lost or duplicated keys");
        }
      }
    });
  }
  for (uint64_t vround = 2; vround <= kRounds && !failed.load(); ++vround) {
    for (int64_t k = 0; k < kKeys; ++k) {
      ASSERT_TRUE(t->Upsert(BtreeKey{k, 0}, payload(k, vround), nullptr).ok());
    }
  }
  done.store(true, std::memory_order_release);
  for (auto& th : readers) th.join();
  ASSERT_FALSE(failed.load());

  ASSERT_TRUE(t->Flush().ok());
  ASSERT_TRUE(t->WaitForMerges().ok());
  LsmStats s = t->stats();
  EXPECT_GT(s.merge_count, 0u);
  EXPECT_GE(s.flush_queue_high_water, 1u);
  for (int64_t k = 0; k < kKeys; ++k) {
    auto got = t->Get(BtreeKey{k, 0}).ValueOrDie();
    ASSERT_TRUE(got.has_value()) << k;
    EXPECT_EQ(S(*got), payload(k, kRounds)) << k;
  }
  // Everything drained and every view released: on-disk files == live
  // components (no leaked retirees, no premature deletions of live ones).
  t->View();
  EXPECT_EQ(fx.ComponentFilesOnDisk(), t->component_count());
}

// Merges a pair only when the tree holds exactly two components, so the
// test below can see where the completing merge installed (its cascade over
// three components proposes nothing).
class PairOnlyPolicy final : public MergePolicy {
 public:
  const char* name() const override { return "pair-only"; }
  MergeDecision Decide(const std::vector<uint64_t>& sizes) const override {
    if (sizes.size() != 2) return {};
    return {true, 0, 2};
  }
};

// A slow merge over the OLD components installs after newer flushes already
// prepended to the vector: the install must find its shifted input run and
// splice the output into that slot (strict descending cid order).
TEST(MergeConcurrency, SlowOldMergeInstallsAfterNewerWork) {
  Fixture fx;
  MergeGate gate;
  gate.Install(fx.fs.get());
  auto t = fx.Open(std::make_shared<PairOnlyPolicy>(), /*pool_threads=*/3);
  std::string v(64, 'v');
  // f1+f2 trigger the gated merge; f3+f4 install while it is stuck.
  for (int f = 0; f < 4; ++f) {
    ASSERT_TRUE(fx.FlushBatch(t.get(), f * 8, 8, v).ok());
  }
  ASSERT_TRUE(WaitUntil([&] { return t->stats().flush_count == 4; }));
  EXPECT_EQ(t->stats().merge_count, 0u);
  gate.Open();
  ASSERT_TRUE(t->WaitForMerges().ok());
  EXPECT_EQ(t->stats().merge_count, 1u);
  auto view = t->View();
  std::vector<std::pair<uint64_t, uint64_t>> cids;
  for (const auto& c : view.components()) {
    cids.emplace_back(c->meta().cid_min, c->meta().cid_max);
  }
  std::vector<std::pair<uint64_t, uint64_t>> want = {{4, 4}, {3, 3}, {1, 2}};
  EXPECT_EQ(cids, want);
  for (int64_t k = 0; k < 32; ++k) {
    EXPECT_TRUE(t->Get(BtreeKey{k, 0}).ValueOrDie().has_value()) << k;
  }
}

// Regression: a WAL-less tree (how the pk/secondary index trees run) has no
// log segment to replay a sealed generation from, so clean teardown must
// DRAIN its queued flush builds instead of canceling them — otherwise a
// completed Flush() silently loses its data. The blocker keeps the build
// queued until the destructor is already waiting.
TEST(MergeConcurrency, TeardownDrainsFlushBuildsOfWalLessTrees) {
  Fixture fx;
  fx.pool = std::make_unique<TaskPool>(1);
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  fx.pool->Submit([&] {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait_for(lock, std::chrono::seconds(30), [&] { return release; });
  });
  auto t = fx.Open(MakeNoMergePolicy(), /*pool_threads=*/1, /*max_pending=*/2,
                   /*memtable_bytes=*/1 << 20, /*capture_old=*/false,
                   /*use_wal=*/false);
  ASSERT_TRUE(t->Insert(BtreeKey{1, 0}, "must-survive").ok());
  ASSERT_TRUE(t->Flush().ok());  // sealed; build queued behind the blocker
  EXPECT_EQ(fx.ComponentFilesOnDisk(), 0u);
  std::thread destroyer([&] { t.reset(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  destroyer.join();
  // The build ran during teardown: the component exists, so reopening (no
  // pool, no WAL) still finds the record.
  EXPECT_EQ(fx.ComponentFilesOnDisk(), 1u);
  auto reopened =
      fx.Open(MakeNoMergePolicy(), /*pool_threads=*/1, /*max_pending=*/2,
              /*memtable_bytes=*/1 << 20, /*capture_old=*/false,
              /*use_wal=*/false, /*use_pool=*/false);
  EXPECT_EQ(S(*reopened->Get(BtreeKey{1, 0}).ValueOrDie()), "must-survive");
}

// Flush builds must never starve behind queued merges: they ride the task
// pool's HIGH lane because a stalled flush build is writer backpressure
// (max_pending_flush_builds). One worker thread makes the discrimination
// deterministic — gate the FIRST flush build until the writer has queued
// four flushes, then watch the drain order. With the priority lane the
// worker builds every queued flush before touching the merge the second
// install scheduled; a FIFO pool would interleave the merge after flush two.
TEST(MergeConcurrency, FlushBuildsOutrankQueuedMergesUnderStorm) {
  Fixture fx;
  std::mutex mu;
  std::condition_variable cv;
  bool writer_done = false;
  std::vector<char> creates;  // 'f' = flush output, 'm' = merge output
  fx.fs->create_hook = [&](const std::string& path) -> Status {
    bool flush = IsFlushOutput(path);
    bool merge = IsMergeOutput(path);
    if (!flush && !merge) return Status::OK();
    std::unique_lock<std::mutex> lock(mu);
    if (flush && creates.empty()) {
      // Hold the first build until the writer queued the whole storm, so
      // the single worker then drains a fully-populated queue.
      cv.wait_for(lock, std::chrono::seconds(30), [&] { return writer_done; });
    }
    creates.push_back(flush ? 'f' : 'm');
    return Status::OK();
  };
  // Tiered(3, 2): the second install proposes a pair merge, which a FIFO
  // queue would run before the third and fourth flush builds.
  auto t = fx.Open(MakeTieredMergePolicy(3, 2), /*pool_threads=*/1,
                   /*max_pending=*/8);
  std::string v(64, 'v');
  for (int f = 0; f < 4; ++f) {
    ASSERT_TRUE(fx.FlushBatch(t.get(), f * 8, 8, v).ok());
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    writer_done = true;
  }
  cv.notify_all();
  ASSERT_TRUE(t->WaitForMerges().ok());

  std::vector<char> order;
  {
    std::lock_guard<std::mutex> lock(mu);
    order = creates;
  }
  ASSERT_GE(order.size(), 5u);
  // Every flush build ran before the first merge rewrite.
  size_t first_merge = order.size();
  size_t last_flush = 0;
  for (size_t i = 0; i < order.size(); ++i) {
    if (order[i] == 'm' && first_merge == order.size()) first_merge = i;
    if (order[i] == 'f') last_flush = i;
  }
  EXPECT_LT(last_flush, first_merge)
      << std::string(order.begin(), order.end());
  LsmStats s = t->stats();
  EXPECT_EQ(s.flush_count, 4u);
  EXPECT_GE(s.merge_count, 1u);
  for (int64_t k = 0; k < 32; ++k) {
    EXPECT_TRUE(t->Get(BtreeKey{k, 0}).ValueOrDie().has_value()) << k;
  }
}

}  // namespace
}  // namespace tc

// Concurrent background-work pipeline (concurrent disjoint merges + pooled
// flush builds) and its error-handling contract:
//   * >= 2 merges over disjoint component ranges provably BUILD at the same
//     time on one tree (gated filesystem makes the overlap deterministic);
//   * a pooled flush costs the writer only the generation swap — the build
//     runs on the executor while readers keep seeing the sealed generation;
//   * once a sticky background error is latched, queued and cascading merge
//     jobs short-circuit instead of scheduling doomed work;
//   * deferred-deletion (reclaimer drain) failures latch and surface through
//     WaitForMerges()/writer gating instead of vanishing;
//   * a TSan-clean stress: continuous ingestion + concurrent merges + pooled
//     flushes under readers holding ReadViews.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cinttypes>
#include <condition_variable>
#include <cstdio>
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
                                size_t pool_threads, size_t max_merges,
                                size_t max_pending = 2,
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
    o.max_concurrent_merges = max_merges;
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

// Two disjoint merges must BUILD concurrently: the gate holds every merge
// build inside Create() until two distinct merge outputs have arrived, so the
// concurrent-merge high-water mark is >= 2 by construction — the scheduler
// just has to actually propose and launch the second disjoint plan while the
// first is mid-rewrite (which a single-inflight scheduler never does).
TEST(MergeConcurrency, TwoDisjointMergesBuildConcurrently) {
  Fixture fx;
  std::mutex mu;
  std::condition_variable cv;
  int merge_creates = 0;
  fx.fs->create_hook = [&](const std::string& path) -> Status {
    if (!IsMergeOutput(path)) return Status::OK();
    std::unique_lock<std::mutex> lock(mu);
    ++merge_creates;
    cv.notify_all();
    // Generous timeout: on a failure the test fails the assertions below
    // instead of hanging the suite.
    cv.wait_for(lock, std::chrono::seconds(30),
                [&] { return merge_creates >= 2; });
    return Status::OK();
  };
  // Pool: 2 blocked merge builds + 1 flush build in flight.
  auto t = fx.Open(MakeTieredMergePolicy(3, 2), /*pool_threads=*/3,
                   /*max_merges=*/2);
  std::string v(64, 'v');
  // Four equal flushes: after the second installs, the tier [f2, f1] merges
  // (and blocks in the gate); flushes three and four form a second, disjoint
  // tier in front of the claimed pair, launching the second merge.
  for (int f = 0; f < 4; ++f) {
    ASSERT_TRUE(fx.FlushBatch(t.get(), f * 8, 8, v).ok());
  }
  ASSERT_TRUE(t->WaitForMerges().ok());

  LsmStats s = t->stats();
  EXPECT_GE(s.concurrent_merges_high_water, 2u);
  EXPECT_GE(s.merge_count, 2u);
  {
    std::lock_guard<std::mutex> lock(mu);
    EXPECT_GE(merge_creates, 2);
  }
  // Every key still resolves; the settled tree owns exactly its own files.
  for (int64_t k = 0; k < 32; ++k) {
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
  auto t = fx.Open(MakeNoMergePolicy(), /*pool_threads=*/2, /*max_merges=*/1,
                   /*max_pending=*/2, /*memtable_bytes=*/1 << 20,
                   /*capture_old=*/true);
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
// error, a concurrently-running merge must NOT cascade-schedule new merges on
// completion. Deterministic sequencing: merge A ([c1-c2]) and merge B
// ([c3-c4]) both enter the gate; once the flushes have returned (a flush
// reports whatever error has latched by then, so A must not fail earlier),
// A's build is failed first and the test waits until the error is latched
// (writers become gated) before releasing B. B installs fine — but its
// cascade, which would propose merging B's output with A's now-unclaimed
// inputs, must short-circuit.
TEST(MergeConcurrency, CascadeShortCircuitsAfterStickyError) {
  Fixture fx;
  std::mutex mu;
  std::condition_variable cv;
  int arrived = 0;
  bool release_a = false;
  bool release_b = false;
  int merge_attempts = 0;
  fx.fs->create_hook = [&](const std::string& path) -> Status {
    uint64_t lo = 0, hi = 0;
    if (!ParseComponentCids(path, &lo, &hi) || lo == hi) return Status::OK();
    std::unique_lock<std::mutex> lock(mu);
    ++merge_attempts;
    ++arrived;
    cv.notify_all();
    if (lo == 1) {  // merge A over the oldest pair
      cv.wait_for(lock, std::chrono::seconds(30),
                  [&] { return arrived >= 2 && release_a; });
      return Status::IOError("injected merge-build failure");
    }
    // merge B: held until the test observed A's latched error.
    cv.wait_for(lock, std::chrono::seconds(30), [&] { return release_b; });
    return Status::OK();
  };
  auto t = fx.Open(MakeTieredMergePolicy(3, 2), /*pool_threads=*/3,
                   /*max_merges=*/2);
  std::string v(64, 'v');
  for (int f = 0; f < 4; ++f) {
    ASSERT_TRUE(fx.FlushBatch(t.get(), f * 8, 8, v).ok());
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    release_a = true;
  }
  cv.notify_all();
  // Both merges enter the gate (A waits for B's arrival, then fails).
  // Wait until A's failure is latched: writers are gated by the sticky error.
  for (int spin = 0; spin < 5000; ++spin) {
    Status st = t->Insert(BtreeKey{1000 + spin, 0}, "probe");
    if (!st.ok()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_FALSE(t->Insert(BtreeKey{9999, 0}, "probe").ok());
  {
    std::lock_guard<std::mutex> lock(mu);
    release_b = true;
  }
  cv.notify_all();
  Status st = t->WaitForMerges();
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("injected merge-build failure"), std::string::npos);
  // B installed; A failed; and crucially B's cascade did NOT schedule the
  // third (doomed) merge the policy would otherwise propose.
  EXPECT_EQ(t->stats().merge_count, 1u);
  {
    std::lock_guard<std::mutex> lock(mu);
    EXPECT_EQ(merge_attempts, 2);
  }
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
  auto t = fx.Open(MakePrefixMergePolicy(UINT64_MAX, 2), /*pool_threads=*/1,
                   /*max_merges=*/1);
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
// ingestion with pooled flush builds and up to three concurrent merges,
// while readers hold ReadViews across batches of lookups and scans. Asserts
// no torn payloads, versions never regress, coherent full scans, and that
// WaitForMerges drains every job with the settled tree owning exactly its
// live files.
TEST(MergeConcurrency, StressIngestMergeReadUnderViews) {
  Fixture fx;
  auto t = fx.Open(MakeTieredMergePolicy(3, 2), /*pool_threads=*/4,
                   /*max_merges=*/3, /*max_pending=*/2,
                   /*memtable_bytes=*/2 * 1024);
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

// Out-of-order completion: a long merge over an OLD disjoint range installs
// after newer flushes and a newer merge already reshaped the vector — the
// identity-based install must splice it into the right slot (cid order).
TEST(MergeConcurrency, SlowOldMergeInstallsAfterNewerWork) {
  Fixture fx;
  std::mutex mu;
  std::condition_variable cv;
  bool release_old = false;
  fx.fs->create_hook = [&](const std::string& path) -> Status {
    uint64_t lo = 0, hi = 0;
    if (!ParseComponentCids(path, &lo, &hi) || lo == hi) return Status::OK();
    if (lo == 1) {  // the merge over the oldest pair: hold it
      std::unique_lock<std::mutex> lock(mu);
      cv.wait_for(lock, std::chrono::seconds(30), [&] { return release_old; });
    }
    return Status::OK();
  };
  auto t = fx.Open(MakeTieredMergePolicy(3, 2), /*pool_threads=*/3,
                   /*max_merges=*/2);
  std::string v(64, 'v');
  // f1+f2 trigger the gated old merge; f3+f4 trigger a second merge that
  // completes (and installs) while the old one is still stuck.
  for (int f = 0; f < 4; ++f) {
    ASSERT_TRUE(fx.FlushBatch(t.get(), f * 8, 8, v).ok());
  }
  // Wait until the newer merge landed, then free the old one.
  for (int spin = 0; spin < 5000 && t->stats().merge_count < 1; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(t->stats().merge_count, 1u);
  {
    std::lock_guard<std::mutex> lock(mu);
    release_old = true;
  }
  cv.notify_all();
  ASSERT_TRUE(t->WaitForMerges().ok());
  EXPECT_GE(t->stats().merge_count, 2u);
  // Newest-first component order must still be strict descending cid.
  auto view = t->View();
  uint64_t prev = UINT64_MAX;
  for (const auto& c : view.components()) {
    EXPECT_LT(c->meta().cid_max, prev);
    prev = c->meta().cid_max;
  }
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
  auto t = fx.Open(MakeNoMergePolicy(), /*pool_threads=*/1, /*max_merges=*/1,
                   /*max_pending=*/2, /*memtable_bytes=*/1 << 20,
                   /*capture_old=*/false, /*use_wal=*/false);
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
      fx.Open(MakeNoMergePolicy(), /*pool_threads=*/1, /*max_merges=*/1,
              /*max_pending=*/2, /*memtable_bytes=*/1 << 20,
              /*capture_old=*/false, /*use_wal=*/false, /*use_pool=*/false);
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
                   /*max_merges=*/2, /*max_pending=*/8);
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

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "lsm/lsm_tree.h"

namespace tc {
namespace {

struct LsmFixture {
  std::shared_ptr<FileSystem> fs = MakeMemFileSystem();
  BufferCache cache{4096, 2048};

  std::unique_ptr<LsmTree> Open(size_t memtable_bytes = 8 * 1024,
                                CompressionKind codec = CompressionKind::kNone,
                                std::shared_ptr<MergePolicy> policy = nullptr) {
    LsmTreeOptions o;
    o.fs = fs;
    o.cache = &cache;
    o.dir = "lsm";
    o.name = "t";
    o.page_size = 4096;
    o.memtable_budget_bytes = memtable_bytes;
    o.compression = codec;
    o.merge_policy = policy ? std::move(policy)
                            : MakePrefixMergePolicy(1 << 20, 4);
    o.wal_sync_every = 0;
    return LsmTree::Open(std::move(o)).ValueOrDie();
  }
};

std::string S(const Buffer& b) { return std::string(b.begin(), b.end()); }

TEST(LsmTree, InsertGetAcrossFlush) {
  LsmFixture fx;
  auto t = fx.Open();
  ASSERT_TRUE(t->Insert(BtreeKey{1, 0}, "one").ok());
  ASSERT_TRUE(t->Insert(BtreeKey{2, 0}, "two").ok());
  EXPECT_EQ(S(*t->Get(BtreeKey{1, 0}).ValueOrDie()), "one");
  ASSERT_TRUE(t->Flush().ok());
  EXPECT_EQ(t->component_count(), 1u);
  EXPECT_TRUE(t->View().memtable().empty());
  EXPECT_EQ(S(*t->Get(BtreeKey{1, 0}).ValueOrDie()), "one");
  EXPECT_FALSE(t->Get(BtreeKey{3, 0}).ValueOrDie().has_value());
}

TEST(LsmTree, DeleteAddsAntiMatterThatShadowsDiskVersion) {
  LsmFixture fx;
  auto t = fx.Open();
  ASSERT_TRUE(t->Insert(BtreeKey{1, 0}, "v").ok());
  ASSERT_TRUE(t->Flush().ok());
  ASSERT_TRUE(t->Delete(BtreeKey{1, 0}, nullptr).ok());
  EXPECT_FALSE(t->Get(BtreeKey{1, 0}).ValueOrDie().has_value());
  ASSERT_TRUE(t->Flush().ok());
  // Two components: the newer one carries the anti-matter entry (§2.2).
  EXPECT_EQ(t->component_count(), 2u);
  EXPECT_EQ(t->View().components()[0]->meta().n_anti, 1u);
  EXPECT_FALSE(t->Get(BtreeKey{1, 0}).ValueOrDie().has_value());
}

TEST(LsmTree, MergeAnnihilatesAntiMatter) {
  LsmFixture fx;
  auto t = fx.Open(8 * 1024, CompressionKind::kNone, MakeNoMergePolicy());
  ASSERT_TRUE(t->Insert(BtreeKey{0, 0}, "kim").ok());
  ASSERT_TRUE(t->Insert(BtreeKey{1, 0}, "john").ok());
  ASSERT_TRUE(t->Flush().ok());  // C0
  ASSERT_TRUE(t->Delete(BtreeKey{0, 0}, nullptr).ok());
  ASSERT_TRUE(t->Insert(BtreeKey{2, 0}, "bob").ok());
  ASSERT_TRUE(t->Flush().ok());  // C1 with anti-matter for key 0 (Figure 4a)
  ASSERT_EQ(t->component_count(), 2u);

  // The merged view annihilates key 0 (Figure 4b): the anti-matter entry and
  // the shadowed record cancel out.
  LsmTree::Iterator it(t.get());
  ASSERT_TRUE(it.SeekToFirst().ok());
  std::vector<int64_t> keys;
  while (it.Valid()) {
    keys.push_back(it.key().a);
    ASSERT_TRUE(it.Next().ok());
  }
  EXPECT_EQ(keys, (std::vector<int64_t>{1, 2}));

  // Component IDs are monotonically increasing, newest first (§2.2).
  auto view = t->View();
  EXPECT_GT(view.components()[0]->meta().cid_min,
            view.components()[1]->meta().cid_max);
}

TEST(LsmTree, MergedComponentIdSpansRange) {
  LsmFixture fx;
  auto t = fx.Open(8 * 1024, CompressionKind::kNone,
                   MakePrefixMergePolicy(UINT64_MAX, 2));
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(
          t->Upsert(BtreeKey{round * 3 + i, 0}, "v" + std::to_string(round), nullptr)
              .ok());
    }
    ASSERT_TRUE(t->Flush().ok());
  }
  // Uncapped prefix(2) merged everything into one [C1..C3] component.
  auto view = t->View();
  ASSERT_EQ(view.component_count(), 1u);
  EXPECT_EQ(view.components()[0]->meta().cid_min, 1u);
  EXPECT_EQ(view.components()[0]->meta().cid_max, 3u);
  EXPECT_EQ(view.components()[0]->meta().n_entries, 9u);
  EXPECT_GE(t->stats().merge_count, 1u);
}

TEST(LsmTree, UpsertCapturesOldDiskVersionOnce) {
  LsmFixture fx;
  LsmTreeOptions o;
  o.fs = fx.fs;
  o.cache = &fx.cache;
  o.dir = "lsm";
  o.name = "cap";
  o.page_size = 4096;
  o.memtable_budget_bytes = 1 << 20;
  o.capture_old_versions = true;
  o.wal_sync_every = 0;
  auto t = LsmTree::Open(std::move(o)).ValueOrDie();

  ASSERT_TRUE(t->Insert(BtreeKey{1, 0}, "disk_v1").ok());
  ASSERT_TRUE(t->Flush().ok());
  std::optional<Buffer> old;
  ASSERT_TRUE(t->Upsert(BtreeKey{1, 0}, "v2", &old).ok());
  ASSERT_TRUE(old.has_value());
  EXPECT_EQ(S(*old), "disk_v1");
  EXPECT_EQ(t->stats().old_version_lookups, 1u);
  // Second upsert: the memtable already owns the key; no disk lookup.
  old.reset();
  ASSERT_TRUE(t->Upsert(BtreeKey{1, 0}, "v3", &old).ok());
  EXPECT_EQ(t->stats().old_version_lookups, 1u);
  ASSERT_TRUE(old.has_value());
  EXPECT_EQ(S(*old), "v2");  // previous visible (in-memory) version
}

// A batched Write(kUpsert / kDelete) with repeated keys reports, slot by
// slot, the same replaced versions as the same ops issued one at a time, and
// leaves the same memtable (captured on-disk versions included).
TEST(LsmTree, BatchWriteReportsOldVersionsLikeSingleOps) {
  auto open = [](LsmFixture* fx) {
    LsmTreeOptions o;
    o.fs = fx->fs;
    o.cache = &fx->cache;
    o.dir = "lsm";
    o.name = "ops";
    o.page_size = 4096;
    o.memtable_budget_bytes = 1 << 20;
    o.capture_old_versions = true;
    o.wal_sync_every = 0;
    return LsmTree::Open(std::move(o)).ValueOrDie();
  };
  LsmFixture batch_fx, single_fx;
  auto batched = open(&batch_fx);
  auto single = open(&single_fx);
  for (LsmTree* t : {batched.get(), single.get()}) {
    for (int64_t k = 1; k <= 4; ++k) {
      ASSERT_TRUE(t->Insert(BtreeKey{k, 0}, "disk" + std::to_string(k)).ok());
    }
    ASSERT_TRUE(t->Flush().ok());
  }
  auto op = [](int64_t k, std::string_view payload) {
    return MemPutOp{BtreeKey{k, 0}, payload};
  };
  const std::vector<std::pair<WriteOp, std::vector<MemPutOp>>> rounds = {
      {WriteOp::kUpsert,
       {op(1, "u1a"), op(2, "u2"), op(1, "u1b"), op(5, "u5a"), op(5, "u5b")}},
      {WriteOp::kDelete, {op(2, {}), op(1, {}), op(6, {}), op(2, {}), op(3, {})}},
      {WriteOp::kUpsert, {op(3, "u3"), op(2, "u2c"), op(4, "u4"), op(4, "u4b")}},
      {WriteOp::kDelete, {op(4, {}), op(4, {})}},
  };
  for (const auto& [kind, ops] : rounds) {
    std::vector<std::optional<Buffer>> batch_old;
    ASSERT_TRUE(batched->Write(kind, ops, &batch_old).ok());
    ASSERT_EQ(batch_old.size(), ops.size());
    for (size_t i = 0; i < ops.size(); ++i) {
      std::optional<Buffer> one;
      Status st = kind == WriteOp::kDelete
                      ? single->Delete(ops[i].key, &one)
                      : single->Upsert(ops[i].key, ops[i].payload, &one);
      ASSERT_TRUE(st.ok());
      EXPECT_EQ(batch_old[i], one) << "op " << i << " key " << ops[i].key.a;
    }
  }
  // Spot-check the first round's contract: disk versions on a miss, the
  // memtable's version on a repeat, nothing for a new key.
  {
    LsmFixture fx;
    auto t = open(&fx);
    ASSERT_TRUE(t->Insert(BtreeKey{1, 0}, "disk1").ok());
    ASSERT_TRUE(t->Flush().ok());
    std::vector<std::optional<Buffer>> old;
    ASSERT_TRUE(t->Write(WriteOp::kUpsert, rounds[0].second, &old).ok());
    ASSERT_EQ(old.size(), 5u);
    EXPECT_EQ(S(*old[0]), "disk1");
    EXPECT_EQ(S(*old[2]), "u1a");
    EXPECT_FALSE(old[3].has_value());
    EXPECT_EQ(S(*old[4]), "u5a");
  }
  EXPECT_EQ(batched->stats().old_version_lookups,
            single->stats().old_version_lookups);
  LsmTree::ReadView batch_view = batched->View();
  LsmTree::ReadView single_view = single->View();
  const MemTable& bm = batch_view.memtable();
  const MemTable& sm = single_view.memtable();
  ASSERT_EQ(bm.entry_count(), sm.entry_count());
  for (auto b = bm.begin(), s = sm.begin(); b != bm.end(); ++b, ++s) {
    EXPECT_EQ(b->first.a, s->first.a);
    EXPECT_EQ(b->second.anti, s->second.anti) << b->first.a;
    EXPECT_EQ(b->second.payload, s->second.payload) << b->first.a;
    EXPECT_EQ(b->second.has_old, s->second.has_old) << b->first.a;
    EXPECT_EQ(b->second.old_payload, s->second.old_payload) << b->first.a;
  }
}

TEST(LsmTree, KeyMayExistFilterSkipsLookups) {
  LsmFixture fx;
  LsmTreeOptions o;
  o.fs = fx.fs;
  o.cache = &fx.cache;
  o.dir = "lsm";
  o.name = "pkf";
  o.page_size = 4096;
  o.memtable_budget_bytes = 1 << 20;
  o.capture_old_versions = true;
  o.wal_sync_every = 0;
  o.key_may_exist = [](const BtreeKey&) { return false; };  // "all keys new"
  auto t = LsmTree::Open(std::move(o)).ValueOrDie();
  ASSERT_TRUE(t->Insert(BtreeKey{1, 0}, "a").ok());
  ASSERT_TRUE(t->Flush().ok());
  ASSERT_TRUE(t->Upsert(BtreeKey{2, 0}, "b", nullptr).ok());
  EXPECT_EQ(t->stats().old_version_lookups, 0u);  // filter said no
}

TEST(LsmTree, AutoFlushOnBudgetAndPrefixMergeBound) {
  LsmFixture fx;
  auto t = fx.Open(/*memtable=*/4 * 1024, CompressionKind::kNone,
                   MakePrefixMergePolicy(64 * 1024, 3));
  std::string payload(128, 'p');
  for (int i = 0; i < 400; ++i) {
    ASSERT_TRUE(t->Insert(BtreeKey{i, 0}, payload).ok());
  }
  EXPECT_GT(t->stats().flush_count, 1u);
  EXPECT_GT(t->stats().merge_count, 0u);
  // The prefix policy keeps the small-component count bounded.
  size_t small = 0;
  auto view = t->View();  // C++17 range-for would drop an inline temporary
  for (const auto& c : view.components()) {
    if (c->physical_bytes() < 64 * 1024) ++small;
  }
  EXPECT_LE(small, 4u);
  // Everything is still readable.
  for (int i = 0; i < 400; i += 37) {
    EXPECT_TRUE(t->Get(BtreeKey{i, 0}).ValueOrDie().has_value()) << i;
  }
}

TEST(LsmTree, ScanMergesNewestWins) {
  LsmFixture fx;
  auto t = fx.Open(1 << 20, CompressionKind::kNone, MakeNoMergePolicy());
  ASSERT_TRUE(t->Insert(BtreeKey{1, 0}, "old1").ok());
  ASSERT_TRUE(t->Insert(BtreeKey{2, 0}, "old2").ok());
  ASSERT_TRUE(t->Flush().ok());
  ASSERT_TRUE(t->Upsert(BtreeKey{1, 0}, "new1", nullptr).ok());
  ASSERT_TRUE(t->Insert(BtreeKey{3, 0}, "mem3").ok());  // stays in memtable

  LsmTree::Iterator it(t.get());
  ASSERT_TRUE(it.SeekToFirst().ok());
  std::map<int64_t, std::string> seen;
  while (it.Valid()) {
    seen[it.key().a] = std::string(it.payload());
    ASSERT_TRUE(it.Next().ok());
  }
  EXPECT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[1], "new1");
  EXPECT_EQ(seen[2], "old2");
  EXPECT_EQ(seen[3], "mem3");
}

TEST(LsmTree, PropertyMatchesModelUnderRandomOps) {
  LsmFixture fx;
  auto t = fx.Open(/*memtable=*/2 * 1024, CompressionKind::kSnappy,
                   MakePrefixMergePolicy(32 * 1024, 3));
  std::map<int64_t, std::string> model;
  Rng rng(5150);
  for (int op = 0; op < 3000; ++op) {
    int64_t key = static_cast<int64_t>(rng.Uniform(200));
    if (rng.Bernoulli(0.7)) {
      std::string v = "v" + std::to_string(op) + "_" + rng.AlphaString(rng.Uniform(40));
      ASSERT_TRUE(t->Upsert(BtreeKey{key, 0}, v, nullptr).ok());
      model[key] = v;
    } else {
      ASSERT_TRUE(t->Delete(BtreeKey{key, 0}, nullptr).ok());
      model.erase(key);
    }
  }
  // Point lookups agree with the model.
  for (int64_t k = 0; k < 200; ++k) {
    auto got = t->Get(BtreeKey{k, 0}).ValueOrDie();
    auto it = model.find(k);
    if (it == model.end()) {
      EXPECT_FALSE(got.has_value()) << k;
    } else {
      ASSERT_TRUE(got.has_value()) << k;
      EXPECT_EQ(S(*got), it->second) << k;
    }
  }
  // Scan agrees with the model.
  LsmTree::Iterator it(t.get());
  ASSERT_TRUE(it.SeekToFirst().ok());
  auto mit = model.begin();
  while (it.Valid() && mit != model.end()) {
    EXPECT_EQ(it.key().a, mit->first);
    EXPECT_EQ(std::string(it.payload()), mit->second);
    ASSERT_TRUE(it.Next().ok());
    ++mit;
  }
  EXPECT_FALSE(it.Valid());
  EXPECT_EQ(mit, model.end());
}

// A policy that returns whatever range it is told to — the malformed-decision
// hardening must reject these with a Status instead of crashing.
class RiggedPolicy final : public MergePolicy {
 public:
  RiggedPolicy(size_t begin, size_t end) : begin_(begin), end_(end) {}
  const char* name() const override { return "rigged"; }
  MergeDecision Decide(const std::vector<uint64_t>&) const override {
    return {true, begin_, end_};
  }

 private:
  size_t begin_, end_;
};

TEST(LsmTree, MalformedMergeDecisionRejectedNotCrashed) {
  {
    // end < begin would underflow the width check.
    LsmFixture fx;
    auto t = fx.Open(8 * 1024, CompressionKind::kNone,
                     std::make_shared<RiggedPolicy>(3, 1));
    ASSERT_TRUE(t->Insert(BtreeKey{1, 0}, "v").ok());
    Status st = t->Flush();
    EXPECT_FALSE(st.ok());
    EXPECT_NE(st.message().find("invalid range"), std::string::npos);
  }
  {
    // end past the component vector would only trip TC_CHECK deeper down.
    LsmFixture fx;
    auto t = fx.Open(8 * 1024, CompressionKind::kNone,
                     std::make_shared<RiggedPolicy>(0, 99));
    ASSERT_TRUE(t->Insert(BtreeKey{1, 0}, "v").ok());
    EXPECT_FALSE(t->Flush().ok());
  }
  {
    // Degenerate-but-well-formed ranges are a quiet no-merge, not an error.
    LsmFixture fx;
    auto t = fx.Open(8 * 1024, CompressionKind::kNone,
                     std::make_shared<RiggedPolicy>(0, 0));
    ASSERT_TRUE(t->Insert(BtreeKey{1, 0}, "v").ok());
    EXPECT_TRUE(t->Flush().ok());
    EXPECT_EQ(t->component_count(), 1u);
  }
}

TEST(LsmTree, StatsTrackWriteAmpAndComponentHighWater) {
  LsmFixture fx;
  auto t = fx.Open(8 * 1024, CompressionKind::kNone,
                   MakePrefixMergePolicy(UINT64_MAX, 2));
  std::string payload(128, 'p');
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < 8; ++i) {
      ASSERT_TRUE(t->Insert(BtreeKey{round * 8 + i, 0}, payload).ok());
    }
    ASSERT_TRUE(t->Flush().ok());
  }
  // Uncapped prefix(2) merges everything whenever a flush pushes the count
  // to 3, so the high-water mark is exactly 3 (flushes 1-4 leave 1, 2, 3→1,
  // 2 live).
  EXPECT_EQ(t->stats().component_count_high_water, 3u);
  EXPECT_EQ(t->component_count(), 2u);
  EXPECT_GT(t->stats().merge_count, 0u);
  EXPECT_GT(t->stats().WriteAmplification(), 1.0);
  // A tree that never flushed reports the 1.0 floor, not a division by zero.
  EXPECT_EQ(LsmStats().WriteAmplification(), 1.0);
}

// Readers racing a flushing/merging writer: Get pins a ReadView and searches
// it outside the tree locks, so a concurrent component swap can neither tear
// the walk nor make a committed key transiently disappear. The writer uses a
// tiny memtable so the component vector churns constantly under the readers.
// (concurrency_test.cpp carries the heavier snapshot/reclamation stress.)
TEST(LsmTree, ConcurrentReadersDuringFlushAndMerge) {
  LsmFixture fx;
  auto t = fx.Open(/*memtable=*/2 * 1024, CompressionKind::kNone,
                   MakeTieredMergePolicy(3, 3));
  constexpr int kKeys = 400;
  std::string payload(96, 'x');
  ASSERT_TRUE(t->Insert(BtreeKey{0, 0}, payload).ok());
  std::atomic<bool> done{false};
  std::atomic<int> written{1};
  std::atomic<bool> reader_failed{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&, r] {
      Rng rng(777 + r);
      while (!done.load(std::memory_order_acquire)) {
        int64_t k = static_cast<int64_t>(
            rng.Uniform(static_cast<uint64_t>(written.load())));
        auto got = t->Get(BtreeKey{k, 0});
        if (!got.ok() || !got.value().has_value()) {
          reader_failed.store(true);
          return;
        }
      }
    });
  }
  for (int i = 1; i < kKeys; ++i) {
    ASSERT_TRUE(t->Insert(BtreeKey{i, 0}, payload).ok());
    written.store(i + 1, std::memory_order_release);
  }
  done.store(true, std::memory_order_release);
  for (auto& th : readers) th.join();
  EXPECT_FALSE(reader_failed.load());
  EXPECT_GT(t->stats().merge_count, 0u);
}

/// Filesystem wrapper that fails Create for every path containing
/// `fail_substr` (when non-empty) — injects component-write failures.
class FailCreateFs final : public FileSystem {
 public:
  explicit FailCreateFs(std::shared_ptr<FileSystem> inner)
      : inner_(std::move(inner)) {}

  std::string fail_substr;

  Result<std::unique_ptr<File>> Open(const std::string& path) override {
    return inner_->Open(path);
  }
  Result<std::unique_ptr<File>> Create(const std::string& path) override {
    if (!fail_substr.empty() && path.find(fail_substr) != std::string::npos) {
      return Status::IOError("injected create failure: " + path);
    }
    return inner_->Create(path);
  }
  Status Delete(const std::string& path) override { return inner_->Delete(path); }
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

// Without a pool the flush build runs inside Flush(), so its failure is
// Flush()'s own result — not a latched error left for the next write.
TEST(LsmTree, CallerRunsFlushReturnsItsBuildError) {
  LsmFixture fx;
  auto fail_fs = std::make_shared<FailCreateFs>(fx.fs);
  fx.fs = fail_fs;
  auto t = fx.Open();
  ASSERT_TRUE(t->Insert(BtreeKey{1, 0}, "one").ok());
  fail_fs->fail_substr = ".btree";
  Status st = t->Flush();
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kIOError);
  // The sealed generation stays readable; the sticky error gates writers.
  EXPECT_EQ(S(*t->Get(BtreeKey{1, 0}).ValueOrDie()), "one");
  EXPECT_FALSE(t->Insert(BtreeKey{2, 0}, "two").ok());
  EXPECT_FALSE(t->WaitForMerges().ok());
}

// The same holds for a merge the flush cascaded into: it too ran inside the
// call, so the call reports it.
TEST(LsmTree, CallerRunsFlushReturnsItsMergeError) {
  LsmFixture fx;
  auto fail_fs = std::make_shared<FailCreateFs>(fx.fs);
  fx.fs = fail_fs;
  auto t = fx.Open(8 * 1024, CompressionKind::kNone,
                   MakePrefixMergePolicy(UINT64_MAX, 1));
  fail_fs->fail_substr = "c00000001-00000002";  // the [C1..C2] merge output
  ASSERT_TRUE(t->Insert(BtreeKey{1, 0}, "one").ok());
  ASSERT_TRUE(t->Flush().ok());
  ASSERT_TRUE(t->Insert(BtreeKey{2, 0}, "two").ok());
  EXPECT_FALSE(t->Flush().ok());
  EXPECT_EQ(t->stats().flush_count, 2u);
  EXPECT_EQ(t->stats().merge_count, 0u);
  EXPECT_EQ(S(*t->Get(BtreeKey{2, 0}).ValueOrDie()), "two");
}

// Caller-runs scheduling is deterministic: the same seeded sequence of
// inserts, upserts, deletes and flushes yields the same stats and the same
// component layout, run after run.
TEST(LsmTree, CallerRunsIsDeterministic) {
  struct Outcome {
    std::vector<uint64_t> stats;
    std::vector<std::pair<uint64_t, uint64_t>> cids;
  };
  auto run = [] {
    LsmFixture fx;
    LsmTreeOptions o;
    o.fs = fx.fs;
    o.cache = &fx.cache;
    o.dir = "lsm";
    o.name = "t";
    o.page_size = 4096;
    o.memtable_budget_bytes = 2 * 1024;
    o.merge_policy = MakeTieredMergePolicy(3, 3);
    o.capture_old_versions = true;
    o.wal_sync_every = 0;
    auto t = LsmTree::Open(std::move(o)).ValueOrDie();
    Rng rng(4242);
    int64_t next_key = 0;
    for (int op = 0; op < 3000; ++op) {
      double r = rng.NextDouble();
      std::string v =
          "v" + std::to_string(op) + rng.AlphaString(rng.Uniform(48));
      if (r < 0.4 || next_key == 0) {
        EXPECT_TRUE(t->Insert(BtreeKey{next_key++, 0}, v).ok());
        continue;
      }
      BtreeKey key{static_cast<int64_t>(
                       rng.Uniform(static_cast<uint64_t>(next_key))),
                   0};
      if (r < 0.75) {
        EXPECT_TRUE(t->Upsert(key, v, nullptr).ok());
      } else if (r < 0.97) {
        EXPECT_TRUE(t->Delete(key, nullptr).ok());
      } else {
        EXPECT_TRUE(t->Flush().ok());
      }
    }
    EXPECT_TRUE(t->Flush().ok());
    // Every LsmStats field except the four merge-stage wall-clock timers.
    LsmStats s = t->stats();
    Outcome out;
    out.stats = {s.flush_count, s.merge_count, s.bytes_flushed, s.bytes_merged,
                 s.bulk_load_count, s.bytes_bulk_loaded, s.point_lookups,
                 s.old_version_lookups, s.filter_checks, s.filter_negatives,
                 s.filter_false_positives, s.lookup_pages_read,
                 s.component_count_high_water, s.flush_queue_high_water, s.merge_records_recompacted,
                 s.merge_bytes_recompacted, s.merge_components_recompressed,
                 s.merge_bytes_recompressed};
    auto view = t->View();
    for (const auto& c : view.components()) {
      out.cids.emplace_back(c->meta().cid_min, c->meta().cid_max);
    }
    EXPECT_GT(s.flush_count, 10u);
    EXPECT_GT(s.merge_count, 2u);
    return out;
  };
  Outcome a = run();
  Outcome b = run();
  EXPECT_EQ(a.stats, b.stats);
  EXPECT_EQ(a.cids, b.cids);
}

TEST(LsmTree, BulkLoadBuildsSingleComponent) {
  LsmFixture fx;
  auto t = fx.Open();
  ASSERT_TRUE(t->BulkLoad([](std::function<Status(const BtreeKey&, std::string_view)>
                                 add) -> Status {
                 for (int i = 0; i < 100; ++i) {
                   TC_RETURN_IF_ERROR(add(BtreeKey{i, 0}, "blk" + std::to_string(i)));
                 }
                 return Status::OK();
               })
                  .ok());
  auto view = t->View();
  EXPECT_EQ(view.component_count(), 1u);
  EXPECT_EQ(view.components()[0]->meta().n_entries, 100u);
  EXPECT_EQ(S(*t->Get(BtreeKey{42, 0}).ValueOrDie()), "blk42");
  // Bulk load requires an empty tree.
  EXPECT_FALSE(t->BulkLoad([](auto) { return Status::OK(); }).ok());
}


// Copies payloads through; once armed, parks every Transform until released,
// which holds the flush build running and later generations queued.
class ParkingTransformer : public ComponentTransformer {
 public:
  Status Transform(std::string_view payload, Buffer* out,
                   bool* rewritten) override {
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (armed_) {
        entered_ = true;
        cv_.notify_all();
        cv_.wait(lock, [this] { return released_; });
      }
    }
    out->assign(payload.begin(), payload.end());
    if (rewritten != nullptr) *rewritten = false;
    return Status::OK();
  }
  Status OnRemovedVersion(std::string_view) override { return Status::OK(); }
  Status SchemaBlob(Buffer*) override { return Status::OK(); }
  Status OnRecoveredSchema(const Buffer&) override { return Status::OK(); }
  void Arm() {
    std::lock_guard<std::mutex> lock(mu_);
    armed_ = true;
  }
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
  bool armed_ = false;
  bool entered_ = false;
  bool released_ = false;
};

// Walks a positioned iterator against the model's entries in [from, to] that
// pass `keep`, comparing each payload view just before Next.
void ExpectScanMatchesModel(LsmTree::Iterator* it,
                            const std::map<int64_t, std::string>& model,
                            int64_t from, int64_t to,
                            const std::function<bool(std::string_view)>& keep) {
  std::vector<std::pair<int64_t, std::string>> want;
  for (auto m = model.lower_bound(from); m != model.end() && m->first <= to; ++m) {
    if (keep(m->second)) want.push_back(*m);
  }
  size_t i = 0;
  for (; it->Valid() && it->key().a <= to; ++i) {
    ASSERT_LT(i, want.size()) << it->key().a;
    EXPECT_EQ(it->key().a, want[i].first);
    EXPECT_EQ(std::string(it->payload()), want[i].second) << want[i].first;
    ASSERT_TRUE(it->Next().ok());
  }
  EXPECT_EQ(i, want.size());
}

// A scan while sealed generations wait for their pooled flush builds reads
// one source per pinned generation and one per component. Keys overwritten
// and deleted across the disk, the queued generations and the live one must
// surface once, as their newest version — through SeekToFirst, a mid-range
// Seek, an upper bound and a payload filter — while the cache, far smaller
// than the tree, evicts pages under the scan. Old-version capture reads the
// same layers. Once the builds run, the merged tree scans the same.
TEST(LsmTree, ScanWhileGenerationsQueuedMatchesModel) {
  constexpr size_t kCachePages = 4;
  constexpr int64_t kKeys = 600;
  auto fs = MakeMemFileSystem();
  BufferCache cache(4096, kCachePages);
  TaskPool pool(1);
  ParkingTransformer parking;
  LsmTreeOptions o;
  o.fs = fs;
  o.cache = &cache;
  o.dir = "lsm";
  o.name = "q";
  o.page_size = 4096;
  o.memtable_budget_bytes = 64 << 20;  // flushes only when the test says so
  o.merge_policy = MakeTieredMergePolicy(3, 3);
  o.transformer = &parking;
  o.capture_old_versions = true;
  o.merge_pool = &pool;
  o.max_pending_flush_builds = 8;
  auto t = LsmTree::Open(std::move(o)).ValueOrDie();

  std::map<int64_t, std::string> model;
  Rng rng(2525);
  int op = 0;
  auto write_round = [&](int n) {
    for (int i = 0; i < n; ++i, ++op) {
      int64_t key = static_cast<int64_t>(rng.Uniform(kKeys));
      auto prev = model.find(key);
      std::optional<std::string> want_old;
      if (prev != model.end()) want_old = prev->second;
      std::optional<Buffer> old;
      if (rng.Bernoulli(0.75)) {
        // The first letter is what the payload filter below keys on.
        std::string v = std::string(1, static_cast<char>('a' + rng.Uniform(26))) +
                        std::to_string(op) + "_" +
                        rng.AlphaString(rng.Uniform(200));
        ASSERT_TRUE(t->Upsert(BtreeKey{key, 0}, v, &old).ok());
        model[key] = v;
      } else {
        ASSERT_TRUE(t->Delete(BtreeKey{key, 0}, &old).ok());
        model.erase(key);
      }
      ASSERT_EQ(old.has_value(), want_old.has_value()) << "op " << op;
      if (old.has_value()) {
        EXPECT_EQ(S(*old), *want_old) << "op " << op;
      }
    }
  };

  // Disk: several flushed (and merged) components.
  for (int round = 0; round < 4; ++round) {
    write_round(500);
    ASSERT_TRUE(t->Flush().ok());
    ASSERT_TRUE(t->WaitForMerges().ok());
  }
  // Queued: the first build parks inside the transformer, so every later
  // sealed generation waits behind it.
  parking.Arm();
  write_round(400);
  ASSERT_TRUE(t->Flush().ok());
  parking.WaitEntered();
  for (int round = 0; round < 2; ++round) {
    write_round(400);
    ASSERT_TRUE(t->Flush().ok());
  }
  // Live: the generation still taking writes.
  write_round(300);

  LsmTree::ReadViewRef view = t->AcquireView();
  ASSERT_GE(view->pending_memtables().size(), 2u);
  ASSERT_GE(view->component_count(), 2u);
  ASSERT_FALSE(view->memtable().empty());

  auto all = [](std::string_view) { return true; };
  uint64_t misses_before = cache.misses();
  {
    LsmTree::Iterator it(view);
    ASSERT_TRUE(it.SeekToFirst().ok());
    ExpectScanMatchesModel(&it, model, INT64_MIN, INT64_MAX, all);
  }
  EXPECT_GT(cache.misses() - misses_before, kCachePages);  // pages evicted
  {
    LsmTree::Iterator it(view);
    ASSERT_TRUE(it.Seek(BtreeKey{kKeys / 3, 0}).ok());
    ExpectScanMatchesModel(&it, model, kKeys / 3, INT64_MAX, all);
  }
  {
    LsmTree::Iterator it(view);
    it.set_upper_bound(BtreeKey{kKeys / 2, 0});
    ASSERT_TRUE(it.Seek(BtreeKey{kKeys / 4, 0}).ok());
    ExpectScanMatchesModel(&it, model, kKeys / 4, kKeys / 2, all);
  }
  {
    auto first_half = [](std::string_view p) { return p[0] <= 'm'; };
    LsmTree::Iterator it(view);
    it.set_payload_filter(
        [&](std::string_view p) -> Result<bool> { return first_half(p); });
    ASSERT_TRUE(it.SeekToFirst().ok());
    ExpectScanMatchesModel(&it, model, INT64_MIN, INT64_MAX, first_half);
  }
  view.reset();

  parking.Release();
  ASSERT_TRUE(t->Flush().ok());
  ASSERT_TRUE(t->WaitForMerges().ok());
  EXPECT_GT(t->stats().merge_count, 0u);
  EXPECT_TRUE(t->View().pending_memtables().empty());
  LsmTree::Iterator it(t.get());
  ASSERT_TRUE(it.SeekToFirst().ok());
  ExpectScanMatchesModel(&it, model, INT64_MIN, INT64_MAX, all);
}

}  // namespace
}  // namespace tc
